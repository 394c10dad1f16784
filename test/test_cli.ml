(* xkq's exit table, driven through the built binary: every row is a
   real process exit status, and no error path that has a message
   reaches Cmdliner's "internal error, uncaught exception" (125).  Each
   child runs with XK_FAULTS removed from its environment unless a case
   sets it, so the cases behave the same under a faulted suite run. *)

module Live = Xk_index.Live

let check = Alcotest.check
let tc = Alcotest.test_case

(* test_main.exe and xkq.exe sit in sibling directories of the build
   tree. *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/xkq.exe"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "xk_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Run xkq with [args]; the exit code and the merged stdout/stderr. *)
let xkq ?(env = []) dir args =
  let out = Filename.concat dir "xkq.out" in
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"XK_FAULTS=" kv))
  in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: args))
      (Array.of_list (env @ inherited))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, In_channel.with_open_bin out In_channel.input_all)

let contains ~sub s =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

(* One row: [args] exits [want], prints no "internal error", and its
   output mentions [says] when given. *)
let expect ?env ?says dir ~want what args =
  let code, output = xkq ?env dir args in
  if code <> want then
    Alcotest.failf "%s: exit %d, want %d; output:\n%s" what code want output;
  check Alcotest.bool (what ^ ": no internal error") false
    (contains ~sub:"internal error" output);
  Option.iter
    (fun sub ->
      if not (contains ~sub output) then
        Alcotest.failf "%s: output lacks %S:\n%s" what sub output)
    says

let with_corpus f =
  with_tmpdir (fun dir ->
      let corpus = Filename.concat dir "c.xml" in
      expect dir ~want:0 "generate"
        [ "generate"; "--dataset"; "dblp"; "--scale"; "0.02"; "--out"; corpus ];
      f dir corpus)

let write dir name contents =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let exit_table () =
  with_corpus (fun dir corpus ->
      let store = Filename.concat dir "store" in
      expect dir ~want:0 "0: served" [ "search"; corpus; "xml"; "--top"; "5" ];
      expect dir ~want:1 ~says:"line 1, column" "1: malformed XML"
        [ "search"; write dir "bad.xml" "<a><b>x</a>"; "x" ];
      expect dir ~want:1 "1: no keywords" [ "search"; corpus ];
      expect dir ~want:1 "1: unreadable --index"
        [ "search"; corpus; "xml"; "--index"; write dir "g.idx" "garbage" ];
      expect dir ~want:1 ~says:"retired v2 segment format; rebuild the index"
        "1: retired v2 --index"
        [
          "search"; corpus; "xml"; "--index";
          write dir "v2.idx" Test_storage.v2_fixture_bytes;
        ];
      expect dir ~want:1 ~says:"XK_FAULTS" ~env:[ "XK_FAULTS=bogus" ]
        "1: malformed XK_FAULTS" [ "terms"; corpus ];
      expect dir ~want:2 ~says:"degraded" ~env:[ "XK_FAULTS=query" ]
        "2: degraded search" [ "search"; corpus; "xml"; "--shards"; "2" ];
      expect dir ~want:0 "mutate --init"
        [ "mutate"; store; "--init"; "library"; "--add"; "<b>xml</b>" ];
      expect dir ~want:3 ~says:"crash drill fired" "3: crash drill"
        [
          "mutate"; store; "--add"; "<b>yy</b>"; "--chaos"; "crash@wal-append";
        ];
      expect dir ~want:0 "recovered store checks clean"
        [ "mutate"; store; "--check"; "xml" ];
      expect dir ~want:124 "124: --domains 0"
        [ "batch"; corpus; "--gen"; "5"; "--domains"; "0" ];
      (* Postings damage in one copy is served around from the other;
         in every copy, the --check run's read fault is an error. *)
      let idx = Filename.concat dir "one.idx" in
      let copy replica = Xk_index.Shard_io.replica_path idx ~shard:0 ~replica in
      expect dir ~want:0 "index two copies"
        [ "index"; corpus; "--out"; idx; "--replicas"; "2" ];
      Tutil.flip_postings (copy 0);
      expect dir ~want:0 "0: search around a damaged copy"
        [ "search"; corpus; "xml"; "--index"; idx; "--top"; "5" ];
      let check_batch =
        [ "batch"; corpus; "--gen"; "30"; "--top"; "10"; "--index"; idx; "--check" ]
      in
      expect dir ~want:0 "0: batch --check around a damaged copy" check_batch;
      Tutil.flip_postings (copy 1);
      expect dir ~want:1 ~says:"checksum mismatch" "1: every copy damaged" check_batch)

(* More user errors that once escaped as uncaught exceptions. *)
let user_errors () =
  with_corpus (fun dir corpus ->
      let idx = Filename.concat dir "c.idx" in
      expect dir ~want:124 "unknown dataset"
        [ "generate"; "--dataset"; "nope"; "--out"; Filename.concat dir "n" ];
      expect dir ~want:1 "--remote without --index"
        [ "search"; corpus; "xml"; "--remote" ];
      expect dir ~want:1 "empty workload" [ "batch"; corpus; "--gen"; "0" ];
      expect dir ~want:1 "bad --chaos"
        [ "batch"; corpus; "--gen"; "5"; "--chaos"; "bogus" ];
      expect dir ~want:1 "unknown crash step"
        [ "mutate"; Filename.concat dir "s"; "--chaos"; "crash@nope" ];
      expect dir ~want:124 "--shards 0"
        [ "search"; corpus; "xml"; "--shards"; "0" ];
      expect dir ~want:124 "--replicas 0"
        [ "index"; corpus; "--out"; idx; "--shards"; "2"; "--replicas"; "0" ];
      (* Every index is a manifest, so a one-shard index carries
         replicas like any other. *)
      expect dir ~want:0 ~says:"1 shards x 3 replica(s)"
        "--replicas without --shards"
        [ "index"; corpus; "--out"; idx; "--replicas"; "3" ];
      check Alcotest.bool "third replica written" true
        (Sys.file_exists
           (Xk_index.Shard_io.replica_path idx ~shard:0 ~replica:2));
      (* A bare segment where the manifest belongs is refused on the
         first read (a retried one would end "(after 5 attempts)"), as a
         corrupted manifest, not a corrupted segment. *)
      expect dir ~want:1
        ~says:
          "xkq: corrupted manifest: a bare segment, not a shard \
           manifest; rebuild the index\n"
        "1: bare segment as --index"
        [
          "search"; corpus; "xml"; "--index";
          Xk_index.Shard_io.segment_path idx ~shard:0;
        ];
      expect dir ~want:124 "--slice 0"
        [ "heal"; "--index"; corpus; "--slice"; "0" ];
      expect dir ~want:1 "negative --hedge-ms"
        [ "batch"; corpus; "--gen"; "5"; "--replicas"; "2"; "--hedge-ms=-1" ];
      expect dir ~want:0 "index --shards 2"
        [ "index"; corpus; "--out"; idx; "--shards"; "2" ];
      expect dir ~want:1 ~says:"shards 0..1" "--shard out of range"
        [ "serve-shard"; corpus; "--index"; idx; "--shard"; "2" ])

(* A call that --check would refuse is refused before the WAL sees its
   operations. *)
let mutate_validates_first () =
  with_tmpdir (fun dir ->
      let store = Filename.concat dir "store" in
      expect dir ~want:0 "init"
        [ "mutate"; store; "--init"; "library"; "--add"; "<b>xml</b>" ];
      let lsn () =
        match Live.open_ ~fsync:false store with
        | Ok t ->
            let n = Live.lsn t in
            Live.close t;
            n
        | Error e -> Alcotest.failf "reopen: %s" (Live.error_message e)
      in
      let before = lsn () in
      expect dir ~want:1 ~says:"--check: empty query" "empty --check"
        [ "mutate"; store; "--add"; "<b>yy</b>"; "--check"; "" ];
      expect dir ~want:1 "unparsable --add"
        [ "mutate"; store; "--add"; "<b>"; "--add"; "<b>zz</b>" ];
      check Alcotest.int "lsn unchanged" before (lsn ()))

let suite =
  [
    ( "cli",
      [
        tc "every row of the exit table" `Quick exit_table;
        tc "user errors exit 1 or 124" `Quick user_errors;
        tc "mutate validates before the WAL" `Quick mutate_validates_first;
      ] );
  ]
