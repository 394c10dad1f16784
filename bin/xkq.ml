(* xkq: command-line XML keyword search.

     xkq generate --dataset dblp --scale 0.5 --out corpus.xml
     xkq index corpus.xml --out corpus.idx
     xkq search corpus.xml xml keyword --semantics elca --algo join
     xkq search corpus.xml xml keyword --index corpus.idx --top 10
     xkq batch corpus.xml queries.txt --domains 4 --top 10 --check
     xkq stats corpus.xml
     xkq terms corpus.xml --near 100                                  *)

open Cmdliner

(* ------------------------------------------------------------------ *)

(* The exit table.  Every command body returns a [status] or raises, and
   [run] is the one place either becomes a process status.  Declared in
   precedence order, so [max] of two statuses is the one to report. *)
type status =
  | Served  (** 0: everything served *)
  | Incomplete  (** 2: served, but degraded or with damage left *)
  | Failed  (** 1: an error *)

let exits =
  Cmd.Exit.
    [
      info 0 ~doc:"everything was served (partial, timed-out and rejected \
                   requests are service policy).";
      info 1 ~doc:"an error: bad input, an unreadable index or manifest, a \
                   failed request or a failed $(b,--check).";
      info 2 ~doc:"served but incomplete: a degraded answer, or $(b,heal) \
                   left damage or an unfinished scrub.";
      info 3 ~doc:"a $(b,crash@) drill fired.";
      info cli_error ~doc:"the command line did not parse.";
      info internal_error ~doc:"an uncaught exception: a bug.";
    ]

(* An expected failure: [run] prints the message and exits 1. *)
exception Fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

(* [Supervisor] reports a failed heal pass with [Printexc.to_string]. *)
let () = Printexc.register_printer (function Fail m -> Some m | _ -> None)

let run body =
  match body () with
  | Served -> 0
  | Failed -> 1
  | Incomplete -> 2
  | exception (Fail msg | Sys_error msg) ->
      prerr_endline ("xkq: " ^ msg);
      1
  | exception Xk_resilience.Chaos.Crashed step ->
      (* The drill's contract: die without cleanup, like a power cut. *)
      Printf.eprintf "crash drill fired at durability step %s\n%!" step;
      3

(* One command: the exit table on its man page, its body (whose last
   argument is [()]) run through [run]. *)
let cmd ?man name ~doc body =
  Cmd.v (Cmd.info name ~doc ?man ~exits) Term.(const run $ body)

let of_shard_io = function
  | Ok v -> v
  | Error e -> fail "%s" (Xk_index.Shard_io.error_message e)

let of_live what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Xk_index.Live.error_message e)

(* ------------------------------------------------------------------ *)

(* Arguments more than one command takes. *)

(* Counts the libraries reject below 1 (shards, replicas, domains, queue
   bound, K, workers, ...) are refused by the command-line parser. *)
let positive =
  Arg.conv' ~docv:"N"
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error (Printf.sprintf "%S is not a positive integer" s)),
      Format.pp_print_int )

let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let manifest_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "index" ] ~doc:"Shard manifest (from `xkq index`).")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Deterministic fault spec, comma-separated: the fault classes \
              of $(b,XK_FAULTS) (io, corrupt, latency, query), which replace \
              the environment's, and the events kill@sSrR:TICK (replica R of \
              shard S is down from attempt TICK), slow@sSrR:TICK:MS (added \
              latency), corrupt@sSrR (replica segment corrupted on disk; \
              needs $(b,--index)), drop@sSrR:TICK (connections to that \
              replica are refused; $(b,--remote) only) and crash@STEP (the \
              process dies, exit 3, the first time the named durability \
              step of a live store runs; steps: %s).  S/R accept * as a \
              wildcard.  `serve-shard` applies the schedule server-side: an \
              armed kill@ closes connections without a reply."
             (String.concat ", " Xk_index.Live.crash_steps)))

let shards_arg =
  Arg.(
    value & opt positive 1
    & info [ "shards" ]
        ~doc:
          "Partition the corpus into N index shards.  `index` saves a shard \
           manifest plus one segment per shard (one shard by default), with \
           a per-shard size breakdown.  `search` and `batch` fan every query \
           out to one job per shard and merge the per-shard answers in a \
           gather step; with $(b,--index) they serve the saved partition \
           instead.")

let replicas_arg =
  Arg.(
    value & opt positive 1
    & info [ "replicas" ]
        ~doc:
          "Replicas per shard.  `index` writes N independently \
           verified segment copies and loaders fall back across them on \
           corruption or IO failure; `search` and `batch` fail attempts \
           over across replicas, and a query degrades instead of failing \
           when every replica of a shard is down.")

let workers_arg =
  Arg.(
    value & opt positive 1
    & info [ "workers" ]
        ~doc:
          "Connection-serving domains per shard server.  1 (default) serves \
           connections inline on the accept loop; more lets several clients \
           drain replies concurrently from one zero-copy segment.")

(* ------------------------------------------------------------------ *)

let parse_corpus path =
  match Xk_xml.Xml_parser.parse_file path with
  | Ok doc -> doc
  | Error e ->
      fail "%s: %s" path (Format.asprintf "%a" Xk_xml.Xml_parser.pp_error e)

(* The one loader of every command: reload the shard manifest written by
   `xkq index`, or partition in memory (`~shards:1` indexes the whole
   corpus as one shard). *)
let load_sharded ?index_file ?verify_columns ~shards path =
  let t0 = Unix.gettimeofday () in
  let doc = parse_corpus path in
  let sharded =
    match index_file with
    | Some p ->
        of_shard_io (Xk_index.Shard_io.load_result ?verify_columns doc p)
    | None -> Xk_index.Sharding.partition ~shards doc
  in
  Printf.eprintf "%s %s as %d shard(s) in %.2fs\n%!"
    (match index_file with None -> "indexed" | Some _ -> "loaded")
    path
    (Xk_index.Sharding.count sharded)
    (Unix.gettimeofday () -. t0);
  sharded

(* The endpoint grid for --remote: every replica of the manifest must
   carry a recorded (host, port). *)
let remote_endpoints index_file =
  match index_file with
  | None -> fail "--remote needs --index MANIFEST (with recorded endpoints)"
  | Some p ->
      Array.map
        (Array.map (function
          | Some hp -> hp
          | None ->
              fail
                "--remote: the manifest has replicas without endpoints \
                 (rebuild with `xkq index --rpc-base-port`)"))
        (of_shard_io (Xk_index.Shard_io.endpoints p))

(* Install a --chaos spec: its fault classes (when it names any) replace
   the environment's, and its schedule is installed.  Crash steps are
   checked against the live store's published crash surface before
   anything is armed.  Disk-level corrupt targets are resolved against
   the shard manifest's replica files and marked corrupt, so the
   subsequent load exercises replica fallback; kill/slow events then
   drive the serving layer. *)
let install_chaos ?index_file spec =
  let ({ faults; events } : Xk_resilience.Chaos.spec) =
    match Xk_resilience.Chaos.of_spec spec with
    | Ok spec -> spec
    | Error msg -> fail "--chaos: %s" msg
  in
  List.iter
    (function
      | Xk_resilience.Chaos.Crash { step }
        when not (List.mem step Xk_index.Live.crash_steps) ->
          fail "--chaos: unknown crash step %S (steps: %s)" step
            (String.concat ", " Xk_index.Live.crash_steps)
      | _ -> ())
    events;
  if faults <> Xk_resilience.Chaos.no_faults then
    Xk_resilience.Chaos.configure faults;
  Xk_resilience.Chaos.install events;
  if Xk_resilience.Chaos.corrupt_targets () <> [] then
    let p =
      match index_file with
      | Some p -> p
      | None ->
          fail
            "--chaos corrupt@ targets need --index MANIFEST (the segments to \
             corrupt live on disk)"
    in
    Array.iteri
      (fun s reps ->
        Array.iteri
          (fun r file ->
            if Xk_resilience.Chaos.corrupt_matches ~shard:s ~replica:r then
              Xk_resilience.Chaos.mark_corrupt ~path:file)
          reps)
      (of_shard_io (Xk_index.Shard_io.replica_files p))

(* A request's class: a failed request is an error and a degraded one is
   served incomplete; partial, timed-out and rejected requests are
   service policy. *)
let outcome_status = function
  | Xk_exec.Query_service.Failed _ -> Failed
  | Xk_exec.Query_service.Degraded _ -> Incomplete
  | Xk_exec.Query_service.(Ok _ | Partial _ | Timeout | Rejected) -> Served

let outcomes_status outcomes =
  List.fold_left (fun st o -> max st (outcome_status o)) Served outcomes

(* --check: served answers against sequential execution of the same
   requests on a reference engine.  Only completed requests are
   comparable; every other outcome is classed by [outcome_status].  At
   equal scores the single-index top-K heap's emission order is
   unspecified, so top-K requests compare score sequences (complete
   requests stay node-exact). *)
let check_against engine reqs outcomes =
  let same (req : Xk_core.Engine.request) expected = function
    | Xk_exec.Query_service.Ok hits ->
        List.equal
          (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
            x.score = y.score
            &&
            match req.req_mode with
            | Xk_core.Engine.Topk _ -> true
            | Xk_core.Engine.Complete _ -> x.node = y.node)
          expected hits
    | _ -> true
  in
  let expected = Xk_core.Engine.query_batch engine reqs in
  if List.for_all2 (fun req (e, o) -> same req e o) reqs
       (List.combine expected outcomes)
  then begin
    Printf.printf "check: results identical to sequential execution\n";
    Served
  end
  else begin
    Printf.eprintf "check FAILED: results differ from sequential\n";
    Failed
  end

(* ------------------------------------------------------------------ *)

let generate dataset scale out () =
  let doc =
    match dataset with
    | `Dblp -> (Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled scale)).doc
    | `Xmark -> (Xk_datagen.Xmark_gen.generate (Xk_datagen.Xmark_gen.scaled scale)).doc
  in
  Xk_xml.Xml_print.to_file out doc;
  Printf.printf "wrote %s (%d nodes)\n" out (Xk_xml.Xml_tree.node_count doc);
  Served

let generate_cmd =
  let dataset =
    Arg.(
      value
      & opt (enum [ ("dblp", `Dblp); ("xmark", `Xmark) ]) `Dblp
      & info [ "dataset" ] ~doc:"dblp or xmark.")
  in
  let scale = Arg.(value & opt float 0.2 & info [ "scale" ] ~doc:"Size factor.") in
  let out =
    Arg.(value & opt string "corpus.xml" & info [ "out" ] ~doc:"Output file.")
  in
  cmd "generate" ~doc:"Generate a synthetic corpus."
    Term.(const generate $ dataset $ scale $ out)

(* ------------------------------------------------------------------ *)

let index_doc path out shards replicas rpc_host rpc_base_port () =
  let out_dir = Filename.dirname out in
  if not (Sys.file_exists out_dir && Sys.is_directory out_dir) then
    fail "index: output directory %s does not exist" out_dir;
  let sharded = load_sharded ~shards path in
  (* Endpoint layout mirrors the fleet bring-up loop: shard s replica r
     serves on base + s*replicas + r. *)
  let endpoints =
    Option.map
      (fun base ->
        Array.init (Xk_index.Sharding.count sharded) (fun s ->
            Array.init replicas (fun r ->
                (rpc_host, base + (s * replicas) + r))))
      rpc_base_port
  in
  Xk_index.Shard_io.save ~replicas ?endpoints sharded out;
  let mb b = float_of_int b /. 1048576. in
  let total = ref (Xk_index.Index_io.file_size out) in
  Printf.printf "wrote %s (manifest, %d shards x %d replica(s))\n" out
    (Xk_index.Sharding.count sharded)
    replicas;
  Array.iteri
    (fun s (r : Xk_index.Index_sizes.report) ->
      let seg = Xk_index.Shard_io.segment_path out ~shard:s in
      let bytes = Xk_index.Index_io.file_size seg in
      for rep = 0 to replicas - 1 do
        total :=
          !total
          + Xk_index.Index_io.file_size
              (Xk_index.Shard_io.replica_path out ~shard:s ~replica:rep)
      done;
      let idx = Xk_index.Sharding.index sharded s in
      Printf.printf
        "  shard %3d: %-24s %7.2f MB, %8d nodes, %7d terms, IL %.2f MB\n" s
        (Filename.basename seg) (mb bytes)
        (Xk_encoding.Labeling.node_count (Xk_index.Index.label idx))
        (Xk_index.Index.term_count idx)
        (mb r.join_based.inverted_lists))
    (Xk_index.Sharding.size_reports sharded);
  Printf.printf "total on disk: %.2f MB (manifest + %d segment file(s))\n"
    (mb !total)
    (Xk_index.Sharding.count sharded * replicas);
  Served

let index_cmd =
  let out =
    Arg.(value & opt string "corpus.idx" & info [ "out" ] ~doc:"Index file.")
  in
  let rpc_host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "rpc-host" ]
          ~doc:"With $(b,--rpc-base-port), the host recorded per endpoint.")
  in
  let rpc_base_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "rpc-base-port" ]
          ~doc:
            "Record a serving endpoint per replica in the manifest: shard S \
             replica R gets port BASE + S*replicas + R on $(b,--rpc-host).  \
             `xkq batch --remote` dials these; `xkq serve-shard` binds \
             them.")
  in
  cmd "index"
    ~doc:
      "Build and save an index for an XML file: a shard manifest and one \
       segment per shard replica."
    Term.(
      const index_doc $ path_arg $ out $ shards_arg $ replicas_arg $ rpc_host
      $ rpc_base_port)

(* ------------------------------------------------------------------ *)

(* Live mutation: `xkq mutate` and `xkq compact` drive an on-disk
   {!Xk_index.Live} store.  A --chaos crash drill that fires at a
   durability step exits 3: the code the CI crash matrix asserts on
   before reopening the directory to prove recovery. *)

(* A mutation operand is an XML file if one exists at that path,
   otherwise inline XML.  Either way the document root becomes the
   inserted subtree. *)
let live_subtree src =
  let parsed =
    if Sys.file_exists src then
      Xk_xml.Xml_parser.parse_file ~keep_ws:true src
    else Xk_xml.Xml_parser.parse_string ~keep_ws:true src
  in
  match parsed with
  | Ok (doc : Xk_xml.Xml_tree.document) -> Xk_xml.Xml_tree.Element doc.root
  | Error e ->
      fail "cannot parse %S: %s" src
        (Format.asprintf "%a" Xk_xml.Xml_parser.pp_error e)

let live_replace spec =
  match String.index_opt spec '=' with
  | Some i -> (
      let id = String.sub spec 0 i in
      let src = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt id with
      | Some id -> Xk_index.Live.Replace (id, live_subtree src)
      | None -> fail "--replace: %S is not a document id" id)
  | None -> fail "--replace wants ID=FILE-OR-XML, got %S" spec

let live_check_request q =
  match String.split_on_char ' ' q |> List.filter (fun w -> w <> "") with
  | [] -> fail "--check: empty query"
  | words -> Xk_core.Engine.topk_request ~k:10 words

let live_status t =
  Printf.printf "store %s: %d document(s), lsn %d, %d pending op(s), gens [%s]\n"
    (Xk_index.Live.dir t)
    (Xk_index.Live.doc_count t)
    (Xk_index.Live.lsn t)
    (Xk_index.Live.pending_ops t)
    (String.concat "; " (List.map string_of_int (Xk_index.Live.sealed_gens t)))

let mutate dir init adds replaces removes do_compact auto_compact no_fsync
    chaos checks () =
  Option.iter install_chaos chaos;
  (* Everything the call can reject is parsed before the first durable
     step, so a refused call leaves the store as it was. *)
  let ops =
    List.map (fun src -> Xk_index.Live.Add (live_subtree src)) adds
    @ List.map live_replace replaces
    @ List.map (fun id -> Xk_index.Live.Remove id) removes
  in
  let reqs = List.map live_check_request checks in
  let fsync = not no_fsync in
  let t =
    of_live dir
      (match init with
      | Some root_tag ->
          Xk_index.Live.create ~fsync ?auto_compact ~root_tag dir
      | None -> Xk_index.Live.open_ ~fsync ?auto_compact dir)
  in
  if ops <> [] then begin
    let ids = of_live "mutate" (Xk_index.Live.mutate t ops) in
    Printf.printf "applied %d operation(s), ids [%s]\n" (List.length ops)
      (String.concat "; " (List.map string_of_int ids))
  end;
  if do_compact then of_live "compact" (Xk_index.Live.compact t);
  live_status t;
  (* Post-mutation parity: the snapshot's shards against a from-scratch
     engine over the snapshot's own document. *)
  let status =
    if reqs = [] then Served
    else begin
      let snap = Xk_index.Live.snapshot t in
      let sx =
        Xk_exec.Shard_exec.create ~domains:2 (Xk_index.Snapshot.sharding snap)
      in
      let outcomes =
        Fun.protect
          ~finally:(fun () -> Xk_exec.Shard_exec.shutdown sx)
          (fun () -> Xk_exec.Shard_exec.exec_batch sx reqs)
      in
      max (outcomes_status outcomes)
        (check_against
           (Xk_core.Engine.create (Xk_index.Snapshot.document snap))
           reqs outcomes)
    end
  in
  Xk_index.Live.close t;
  status

let live_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let live_no_fsync =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:"Skip fsync on every durability step (tests only; forfeits \
              crash safety).")

let live_checks =
  Arg.(
    value & opt_all string []
    & info [ "check" ] ~docv:"QUERY"
        ~doc:
          "After the batch, run this space-separated keyword query through \
           the snapshot's shards and require scores identical to a \
           from-scratch engine (exit 1 on mismatch).  Repeatable.")

let mutate_cmd =
  let init =
    Arg.(
      value
      & opt (some string) None
      & info [ "init" ] ~docv:"ROOT_TAG"
          ~doc:
            "Initialize a fresh store in DIR with this root element tag \
             (refused if DIR already holds a manifest).")
  in
  let adds =
    Arg.(
      value & opt_all string []
      & info [ "add" ] ~docv:"SRC"
          ~doc:
            "Insert a document: an XML file path, or inline XML if no such \
             file exists.  Repeatable; ids are assigned in order.")
  in
  let replaces =
    Arg.(
      value & opt_all string []
      & info [ "replace" ] ~docv:"ID=SRC"
          ~doc:"Replace the document with that id.  Repeatable.")
  in
  let removes =
    Arg.(
      value & opt_all int []
      & info [ "remove" ] ~docv:"ID"
          ~doc:"Remove the document with that id.  Repeatable.")
  in
  let do_compact =
    Arg.(
      value & flag
      & info [ "compact" ] ~doc:"Compact after applying the batch.")
  in
  let auto_compact =
    Arg.(
      value
      & opt (some int) None
      & info [ "auto-compact" ] ~docv:"N"
          ~doc:"Compact automatically once the delta touches N documents.")
  in
  cmd "mutate"
    ~doc:
      "Apply a batch of insert/replace/remove operations to a live store \
       (WAL-first, crash-safe).  Adds apply before replaces, replaces before \
       removes."
    Term.(
      const mutate $ live_dir_arg $ init $ adds $ replaces $ removes
      $ do_compact $ auto_compact $ live_no_fsync $ chaos_arg $ live_checks)

(* `xkq compact` is `xkq mutate DIR --compact` with no operations. *)
let compact_cmd =
  cmd "compact"
    ~doc:
      "Fold a live store's delta and dirty generations into a sealed \
       segment and reset its WAL."
    Term.(
      const (fun dir no_fsync chaos checks ->
          mutate dir None [] [] [] true None no_fsync chaos checks)
      $ live_dir_arg $ live_no_fsync $ chaos_arg $ live_checks)

(* ------------------------------------------------------------------ *)

let semantics_conv =
  Arg.enum [ ("elca", Xk_core.Engine.Elca); ("slca", Xk_core.Engine.Slca) ]

let algo_conv =
  Arg.enum
    [
      ("join", Xk_core.Engine.Join_based);
      ("stack", Xk_core.Engine.Stack_based);
      ("indexed", Xk_core.Engine.Index_based);
      ("oracle", Xk_core.Engine.Oracle);
    ]

let topk_algo_conv =
  Arg.enum
    [
      ("topk-join", Xk_core.Engine.Topk_join);
      ("complete", Xk_core.Engine.Complete_then_sort);
      ("rdil", Xk_core.Engine.Rdil_baseline);
      ("hybrid", Xk_core.Engine.Hybrid);
    ]

let print_hits sx words explain hits limit =
  List.iteri
    (fun i (h : Xk_baselines.Hit.t) ->
      if i < limit then begin
        Fmt.pr "%2d. %a@." (i + 1) (Xk_exec.Shard_exec.pp_hit sx) h;
        if explain then
          List.iter
            (fun (kw, text) -> Fmt.pr "      [%s] ...%s...@." kw text)
            (Xk_exec.Shard_exec.snippet sx words h)
      end)
    hits;
  let n = List.length hits in
  if n > limit then Fmt.pr "... and %d more results@." (n - limit)

let request_of words semantics algo top topk_algo =
  match top with
  | Some k -> Xk_core.Engine.topk_request ~semantics ~algorithm:topk_algo ~k words
  | None -> Xk_core.Engine.complete_request ~semantics ~algorithm:algo words

(* Options shared by `search` and `batch`. *)
let semantics_arg =
  Arg.(
    value
    & opt semantics_conv Xk_core.Engine.Elca
    & info [ "semantics" ] ~doc:"elca or slca.")

let algo_arg =
  Arg.(
    value
    & opt algo_conv Xk_core.Engine.Join_based
    & info [ "algo" ]
        ~doc:"Complete-mode algorithm: join, stack, indexed or oracle.")

let top_arg =
  Arg.(
    value
    & opt (some positive) None
    & info [ "top" ] ~doc:"Top-K mode with K results.")

let topk_algo_arg =
  Arg.(
    value
    & opt topk_algo_conv Xk_core.Engine.Topk_join
    & info [ "topk-algo" ]
        ~doc:"Top-K-mode algorithm: topk-join, complete, rdil or hybrid.")

let index_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "index" ]
        ~doc:
          "Saved index: the shard manifest written by `xkq index`.")

let remote_arg =
  Arg.(
    value & flag
    & info [ "remote" ]
        ~doc:
          "Serve shards from the `xkq serve-shard` fleet recorded in the \
           manifest's endpoints instead of in-process engines (needs \
           $(b,--index)).")

let search path words semantics algo top topk_algo limit index_file explain
    shards replicas remote () =
  if words = [] then fail "no query keywords given";
  let endpoints = if remote then Some (remote_endpoints index_file) else None in
  let sharded = load_sharded ?index_file ~shards path in
  let sx = Xk_exec.Shard_exec.create ~replicas ?endpoints sharded in
  let req = request_of words semantics algo top topk_algo in
  let t0 = Unix.gettimeofday () in
  let outcome = Xk_exec.Shard_exec.exec sx req in
  let dt = (Unix.gettimeofday () -. t0) *. 1000. in
  let show label hits =
    Fmt.pr "%s%d result(s) in %.2f ms for {%s} over %d shard(s)@." label
      (List.length hits) dt
      (String.concat " " words)
      (Xk_exec.Shard_exec.shard_count sx);
    print_hits sx words explain hits limit
  in
  (match outcome with
  | Xk_exec.Query_service.Ok hits -> show "" hits
  | Xk_exec.Query_service.Partial hits -> show "partial: " hits
  | Xk_exec.Query_service.Degraded d ->
      show
        (Printf.sprintf "degraded (%.0f%% coverage, missing shard(s) %s): "
           (100. *. d.coverage)
           (String.concat "," (List.map string_of_int d.missing_shards)))
        d.hits
  | Xk_exec.Query_service.Timeout -> Fmt.pr "timed out with no result@."
  | Xk_exec.Query_service.Rejected -> Fmt.pr "rejected by admission control@."
  | Xk_exec.Query_service.Failed f -> Fmt.pr "failed: %s@." f.message);
  Xk_exec.Shard_exec.shutdown sx;
  outcome_status outcome

let search_cmd =
  let words = Arg.(value & pos_right 0 string [] & info [] ~docv:"KEYWORD") in
  let limit =
    Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Results to display.")
  in
  let explain =
    Arg.(
      value & flag
      & info [ "explain" ] ~doc:"Show per-keyword witness snippets.")
  in
  cmd "search" ~doc:"Run a keyword query against an XML file."
    Term.(
      const search $ path_arg $ words $ semantics_arg $ algo_arg $ top_arg
      $ topk_algo_arg $ limit $ index_arg $ explain $ shards_arg
      $ replicas_arg $ remote_arg)

(* ------------------------------------------------------------------ *)

(* Batch mode: execute a whole query workload in parallel on a domain
   pool, reporting aggregate latency/throughput and cache behavior. *)

let read_queries file =
  let ic = open_in file in
  let queries = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if String.length line > 0 && line.[0] <> '#' then
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [] -> ()
         | words -> queries := words :: !queries
     done
   with End_of_file -> close_in ic);
  List.rev !queries

let generate_queries eng n k seed =
  let idx = Xk_core.Engine.index eng in
  let rng = Xk_datagen.Rng.create seed in
  let high = Xk_workload.Workload.max_df idx in
  let low = max 2 (high / 20) in
  Xk_workload.Workload.random_queries rng idx ~k ~high ~low ~n

(* Every run's outcomes count towards the status; the last run's are
   returned for the failure report and --check. *)
let report_runs ~repeat ~n run_once =
  let t0 = Unix.gettimeofday () in
  let last = ref [] and status = ref Served in
  for run = 1 to repeat do
    let r0 = Unix.gettimeofday () in
    last := run_once ();
    status := max !status (outcomes_status !last);
    let dt = Unix.gettimeofday () -. r0 in
    Printf.printf "run %d/%d: %d queries in %.3fs (%.1f q/s)\n%!" run repeat n
      dt
      (float_of_int n /. dt)
  done;
  (Unix.gettimeofday () -. t0, !last, !status)

let report_throughput ~total wall =
  Printf.printf "throughput: %.1f q/s, mean latency %.3f ms/query\n"
    (float_of_int total /. wall)
    (wall *. 1000. /. float_of_int total)

let report_cache (c : Xk_index.Shard_cache.stats) =
  Printf.printf "cache: %d hits, %d misses, %d evictions, %d/%d entries\n"
    c.hits c.misses c.evictions c.entries c.capacity

let report_failures outcomes =
  List.iter
    (fun o ->
      match o with
      | Xk_exec.Query_service.Failed f ->
          Printf.eprintf "failed request: %s\n" f.message
      | _ -> ())
    outcomes

let batch path queries_file semantics algo top topk_algo domains repeat gen
    gen_k seed check index_file deadline_ms max_queue shards replicas
    hedge_ms chaos remote () =
  Option.iter (install_chaos ?index_file) chaos;
  if Option.value hedge_ms ~default:0. < 0. then fail "--hedge-ms is negative";
  let endpoints = if remote then Some (remote_endpoints index_file) else None in
  (* In-process replicas share the one copy per shard the loader picks.
     A corrupt@ drill therefore verifies every column at load, where the
     loader can still fall back to a clean copy: a lazy open would meet
     the damage at the first query of the damaged term, with no clean
     copy loaded to fail over to. *)
  let verify_columns = Xk_resilience.Chaos.corrupt_targets () <> [] in
  let sharded = load_sharded ?index_file ~verify_columns ~shards path in
  (* The reference engine answers workload generation (corpus-wide term
     statistics) and --check.  One shard already indexes the whole
     corpus; several are checked against a fresh one-shard build. *)
  let ref_eng =
    lazy
      (let whole =
         if Xk_index.Sharding.count sharded = 1 then sharded
         else load_sharded ~shards:1 path
       in
       Xk_core.Engine.of_index (Xk_index.Sharding.index whole 0))
  in
  let queries =
    match queries_file with
    | Some qf -> read_queries qf
    | None -> generate_queries (Lazy.force ref_eng) gen gen_k seed
  in
  if queries = [] then fail "empty workload";
  let reqs =
    List.map
      (fun words -> request_of words semantics algo top topk_algo)
      queries
  in
  let sx =
    Xk_exec.Shard_exec.create ~domains ?max_queue ~replicas
      ?hedge_delay_ms:hedge_ms ?endpoints sharded
  in
  let n = List.length reqs in
  let wall, last, served =
    report_runs ~repeat ~n (fun () ->
        Xk_exec.Shard_exec.exec_batch ?deadline_ms sx reqs)
  in
  let total = n * repeat in
  Printf.printf
    "batch done: %d queries (%d x %d) over %d shard(s) x %d replica(s) on %d \
     domain(s) in %.3fs\n"
    total repeat n
    (Xk_exec.Shard_exec.shard_count sx)
    (Xk_exec.Shard_exec.replica_count sx)
    (Xk_exec.Shard_exec.domains sx)
    wall;
  report_throughput ~total wall;
  let st = Xk_exec.Shard_exec.stats sx in
  Printf.printf
    "outcomes: %d ok, %d partial, %d degraded, %d timeout, %d rejected, %d \
     failed\n"
    st.completed st.partials st.degraded st.timeouts st.rejected st.failed;
  if st.failovers + st.hedges > 0 || st.degraded > 0 then
    Printf.printf "resilience: %d failover(s), %d hedge(s) (%d won)\n"
      st.failovers st.hedges st.hedge_wins;
  report_cache st.cache;
  report_failures last;
  let checked =
    if check then check_against (Lazy.force ref_eng) reqs last else Served
  in
  Xk_exec.Shard_exec.shutdown sx;
  max served checked

let batch_cmd =
  let queries_file =
    Arg.(
      value
      & pos 1 (some file) None
      & info [] ~docv:"QUERIES"
          ~doc:
            "Query file: one query per line, keywords separated by spaces, \
             '#' starts a comment.  Omitted: a random workload is generated \
             (see $(b,--gen)).")
  in
  let domains =
    Arg.(value & opt positive 4 & info [ "domains" ] ~doc:"Worker domains.")
  in
  let repeat =
    Arg.(value & opt int 1 & info [ "repeat" ] ~doc:"Repetitions of the batch.")
  in
  let gen =
    Arg.(
      value & opt int 100
      & info [ "gen" ] ~doc:"Generated queries when QUERIES is omitted.")
  in
  let gen_k =
    Arg.(
      value & opt positive 2
      & info [ "gen-k" ] ~doc:"Keywords per generated query.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload generation seed.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:"Verify served results against sequential execution.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ]
          ~doc:
            "Per-request deadline in milliseconds.  Expired top-K requests \
             degrade to partial results; complete requests time out.")
  in
  let max_queue =
    Arg.(
      value
      & opt (some positive) None
      & info [ "max-queue" ]
          ~doc:
            "Admission bound: maximum in-flight requests; excess requests \
             are rejected without executing.")
  in
  let hedge_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "hedge-ms" ]
          ~doc:
            "Hedge a shard attempt on the next-best replica once the first \
             has been out for this many milliseconds (needs --replicas >= \
             2).")
  in
  cmd "batch" ~doc:"Execute a query workload in parallel on a domain pool."
    Term.(
      const batch $ path_arg $ queries_file $ semantics_arg $ algo_arg
      $ top_arg $ topk_algo_arg $ domains $ repeat $ gen $ gen_k $ seed $ check
      $ index_arg $ deadline_ms $ max_queue $ shards_arg
      $ replicas_arg $ hedge_ms $ chaos_arg $ remote_arg)

(* ------------------------------------------------------------------ *)

let stats path () =
  let idx = Xk_index.Sharding.index (load_sharded ~shards:1 path) 0 in
  let label = Xk_index.Index.label idx in
  Printf.printf "nodes:  %d\n" (Xk_encoding.Labeling.node_count label);
  Printf.printf "height: %d\n" (Xk_encoding.Labeling.height label);
  Printf.printf "terms:  %d\n" (Xk_index.Index.term_count idx);
  let r = Xk_index.Index_sizes.report idx in
  let mb b = float_of_int b /. 1048576. in
  Printf.printf "index sizes (MB):\n";
  Printf.printf "  join-based  IL %.2f + sparse %.2f\n"
    (mb r.join_based.inverted_lists) (mb r.join_based.auxiliary);
  Printf.printf "  stack-based IL %.2f\n" (mb r.stack_based.inverted_lists);
  Printf.printf "  index-based B-tree %.2f\n" (mb r.index_based.inverted_lists);
  Printf.printf "  topk-join   IL %.2f + sparse %.2f\n"
    (mb r.topk_join.inverted_lists) (mb r.topk_join.auxiliary);
  Printf.printf "  RDIL        IL %.2f + B-trees %.2f\n"
    (mb r.rdil.inverted_lists) (mb r.rdil.auxiliary);
  Served

let stats_cmd =
  cmd "stats" ~doc:"Corpus statistics and index sizes."
    Term.(const stats $ path_arg)

(* ------------------------------------------------------------------ *)

let terms path near count () =
  let idx = Xk_index.Sharding.index (load_sharded ~shards:1 path) 0 in
  let ids = Xk_index.Index.terms_by_df idx in
  let shown = ref 0 in
  Array.iter
    (fun id ->
      let df = Xk_index.Index.df idx id in
      if !shown < count && df >= near / 2 && df <= near * 2 then begin
        incr shown;
        Printf.printf "%8d  %s\n" df (Xk_index.Index.term idx id)
      end)
    ids;
  if !shown = 0 then Printf.printf "no terms with frequency near %d\n" near;
  Served

let terms_cmd =
  let near =
    Arg.(value & opt int 100 & info [ "near" ] ~doc:"Target document frequency.")
  in
  let count = Arg.(value & opt int 20 & info [ "count" ] ~doc:"Terms to list.") in
  cmd "terms" ~doc:"List terms near a document frequency."
    Term.(const terms $ path_arg $ near $ count)

(* ------------------------------------------------------------------ *)

(* Long-lived shard server: load the manifest (the full manifest — per
   shard scoring needs corpus-global statistics, so every shard's
   dictionary must be present), then answer this one shard's queries
   over the frame protocol until killed. *)
let serve_shard path index_file shard replica port host workers chaos () =
  Option.iter (install_chaos ~index_file) chaos;
  let sharded = load_sharded ~index_file ~shards:1 path in
  if shard < 0 || shard >= Xk_index.Sharding.count sharded then
    fail "--shard %d: the manifest has shards 0..%d" shard
      (Xk_index.Sharding.count sharded - 1);
  let server =
    Xk_exec.Shard_server.create ~sharding:sharded ~shard ~replica
  in
  match Xk_exec.Shard_server.serve ~host ~port server with
  | Error msg -> fail "serve-shard: %s" msg
  | Ok listener ->
      (* Ephemeral ports (--port 0) are announced so a harness can
         collect the bound address before sending traffic. *)
      Printf.printf "serving shard %d replica %d on %s:%d\n%!" shard replica
        (Xk_rpc.Server.host listener)
        (Xk_rpc.Server.port listener);
      Xk_rpc.Server.run ~workers listener
        ~handler:(Xk_exec.Shard_server.dispatch server);
      Served

let serve_shard_cmd =
  let shard =
    Arg.(
      required
      & opt (some int) None
      & info [ "shard" ] ~doc:"The shard this server answers for.")
  in
  let replica =
    Arg.(
      value & opt int 0
      & info [ "replica" ]
          ~doc:"This server's replica identity (chaos targeting).")
  in
  let port =
    Arg.(
      value & opt int 0
      & info [ "port" ]
          ~doc:"TCP port to bind; 0 picks an ephemeral port (announced).")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~doc:"Address to bind.")
  in
  cmd "serve-shard"
    ~doc:"Serve one index shard over the binary RPC protocol."
    ~man:
      [
        `S Manpage.s_description;
        `P
          "Loads the shard manifest and answers per-shard query frames for \
           one (shard, replica) identity until the process is killed.  A \
           fleet of these — one per replica recorded in the manifest's \
           endpoints — backs `xkq batch --remote` and `xkq search \
           --remote`.";
      ]
    Term.(
      const serve_shard $ path_arg $ manifest_arg $ shard $ replica $ port
      $ host $ workers_arg $ chaos_arg)

(* ------------------------------------------------------------------ *)

(* Re-partition the corpus with the manifest's recorded assignment, so a
   rebuilt segment is bit-compatible with what the stored shards were.
   Lazy: the corpus is only parsed if a shard actually has no surviving
   clean copy. *)
let rebuild_source ~index_file corpus =
  Option.map
    (fun path ->
      let sharded =
        lazy
          (let shards, assignment =
             of_shard_io (Xk_index.Shard_io.partition_spec index_file)
           in
           Xk_index.Sharding.partition ~assignment ~shards (parse_corpus path))
      in
      fun ~shard -> Some (Xk_index.Sharding.index (Lazy.force sharded) shard))
    corpus

let heal corpus index_file do_repair slice throttle_ms budget_ms () =
  let budget =
    Option.map
      (fun ms -> Xk_resilience.Budget.create ~deadline_ms:ms ())
      budget_ms
  in
  let report =
    of_shard_io (Xk_index.Repair.scrub ?budget ~slice ~throttle_ms index_file)
  in
  List.iter
    (fun (e : Xk_resilience.Scrub.entry) ->
      match e.e_status with
      | Xk_resilience.Scrub.Clean -> ()
      | Xk_resilience.Scrub.Missing ->
          Printf.printf "s%dr%d %s: missing\n" e.e_shard e.e_replica e.e_file
      | Xk_resilience.Scrub.Damaged msg ->
          Printf.printf "s%dr%d %s: damaged (%s)\n" e.e_shard e.e_replica
            e.e_file msg)
    report.entries;
  print_endline (Xk_resilience.Scrub.summary_line report);
  if not do_repair then
    if Xk_resilience.Scrub.healthy report then Served else Incomplete
  else begin
    let summary =
      Xk_index.Repair.repair ?rebuild:(rebuild_source ~index_file corpus) report
    in
    List.iter
      (fun o -> print_endline (Xk_index.Repair.outcome_line o))
      summary.outcomes;
    print_endline (Xk_index.Repair.summary_line summary);
    if summary.unrepairable > 0 || not report.complete then Incomplete
    else Served
  end

let heal_cmd =
  let corpus =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Corpus file; when given, shards with no surviving clean copy \
             are rebuilt from it (re-partitioned with the manifest's \
             recorded assignment).")
  in
  let do_repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Rewrite damaged/missing copies instead of only reporting.")
  in
  let slice =
    Arg.(
      value & opt positive 4
      & info [ "slice" ] ~doc:"Files verified per scrub slice.")
  in
  let throttle_ms =
    Arg.(
      value & opt float 0.
      & info [ "throttle-ms" ] ~doc:"Sleep between scrub slices.")
  in
  let budget_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget-ms" ]
          ~doc:"Wall budget for the scrub pass (incomplete pass exits 2).")
  in
  cmd "heal" ~doc:"Scrub a shard manifest's replicas and repair damaged copies."
    ~man:
      [
        `S Manpage.s_description;
        `P
          "Re-validates every replica segment recorded in the manifest \
           through the full segment verification path and classifies each copy \
           clean, damaged, or missing.  With $(b,--repair), damaged and \
           missing copies are rewritten from a surviving clean replica \
           (atomic write + post-write verify) or rebuilt from the corpus.";
      ]
    Term.(
      const heal $ corpus $ manifest_arg $ do_repair $ slice $ throttle_ms
      $ budget_ms)

(* ------------------------------------------------------------------ *)

let supervise corpus index_file interval_ms backoff_ms backoff_cap_ms flap_cap
    grace_ms heal_every cycles state_dir seed workers () =
  let eps = remote_endpoints (Some index_file) in
  let specs =
    Array.to_list
      (Array.concat
         (Array.to_list
            (Array.mapi
               (fun s replicas ->
                 Array.mapi
                   (fun r (host, port) ->
                     {
                       Xk_exec.Supervisor.sv_shard = s;
                       sv_replica = r;
                       sv_host = host;
                       sv_port = port;
                     })
                   replicas)
               eps)))
  in
  let label = Xk_exec.Supervisor.spec_label in
  let exe = Sys.executable_name in
  let argv (spec : Xk_exec.Supervisor.spec) =
    [|
      exe; "serve-shard"; corpus;
      "--index"; index_file;
      "--shard"; string_of_int spec.sv_shard;
      "--replica"; string_of_int spec.sv_replica;
      "--host"; spec.sv_host;
      "--port"; string_of_int spec.sv_port;
      "--workers"; string_of_int workers;
    |]
  in
  let heal () =
    let report =
      of_shard_io (Xk_index.Repair.scrub ~throttle_ms:1.0 index_file)
    in
    let summary =
      Xk_index.Repair.repair
        ?rebuild:(rebuild_source ~index_file (Some corpus))
        report
    in
    {
      Xk_exec.Supervisor.h_clean = report.clean;
      h_damaged = report.damaged;
      h_missing = report.missing;
      h_repaired = summary.repaired;
      h_unrepairable = summary.unrepairable;
    }
  in
  let log_event ev =
    let stamp = Unix.gettimeofday () in
    let line =
      match (ev : Xk_exec.Supervisor.event) with
      | Spawned { spec; pid } ->
          Printf.sprintf "%s spawned pid %d" (label spec) pid
      | Died { spec; reason } ->
          Printf.sprintf "%s died: %s" (label spec) reason
      | Backoff_scheduled { spec; delay_ms; failures } ->
          Printf.sprintf "%s restart in %.0fms (failure %d)" (label spec)
            delay_ms failures
      | Quarantine { spec; failures } ->
          Printf.sprintf "%s quarantined after %d consecutive failures"
            (label spec) failures
      | Heal_ran h ->
          Printf.sprintf
            "heal: %d clean, %d damaged, %d missing, %d repaired, %d \
             unrepairable"
            h.h_clean h.h_damaged h.h_missing h.h_repaired h.h_unrepairable
      | Heal_failed msg -> Printf.sprintf "heal failed: %s" msg
    in
    Printf.printf "[%.3f] %s\n%!" stamp line
  in
  let config =
    {
      Xk_exec.Supervisor.backoff_base_ms = backoff_ms;
      backoff_cap_ms;
      flap_cap;
      start_grace_ms = grace_ms;
      heal_every;
    }
  in
  let sup =
    Xk_exec.Supervisor.create ~config ?seed ~on_event:log_event ~heal
      ~procs:(Xk_exec.Supervisor.processes ~argv ~state_dir)
      specs
  in
  let stop_on_signal _ = Xk_exec.Supervisor.stop sup in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal);
  Printf.printf "supervising %d replica(s) from %s\n%!" (List.length specs)
    index_file;
  Xk_exec.Supervisor.run ~interval_ms
    ?cycles:(if cycles = 0 then None else Some cycles)
    ~on_cycle:(fun t ->
      Printf.printf "%s\n%!" (Xk_exec.Supervisor.status_line t))
    sup;
  Xk_exec.Supervisor.shutdown sup;
  Printf.printf "supervisor stopped: %s\n%!"
    (Xk_exec.Supervisor.status_line sup);
  Served

let supervise_cmd =
  let interval_ms =
    Arg.(
      value & opt float 500.
      & info [ "interval-ms" ] ~doc:"Supervision cycle period.")
  in
  let backoff_ms =
    Arg.(
      value & opt float 200.
      & info [ "backoff-ms" ] ~doc:"Restart backoff floor.")
  in
  let backoff_cap_ms =
    Arg.(
      value & opt float 5000.
      & info [ "backoff-cap-ms" ] ~doc:"Restart backoff ceiling.")
  in
  let flap_cap =
    Arg.(
      value & opt int 5
      & info [ "flap-cap" ]
          ~doc:
            "Consecutive failures beyond which a replica is quarantined \
             instead of restarted.")
  in
  let grace_ms =
    Arg.(
      value
      & opt float 30000.
      & info [ "start-grace-ms" ]
          ~doc:"How long a fresh spawn may load before ping failures count.")
  in
  let heal_every =
    Arg.(
      value & opt int 4
      & info [ "heal-every" ]
          ~doc:"Run the scrub/repair pass every N cycles (0 disables).")
  in
  let cycles =
    Arg.(
      value & opt int 0
      & info [ "cycles" ] ~doc:"Stop after N cycles (0 = run until killed).")
  in
  let state_dir =
    Arg.(
      value & opt string "xk-fleet"
      & info [ "state-dir" ]
          ~doc:"Directory for per-replica pid and log files.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Deterministic restart-jitter seed.")
  in
  cmd "supervise"
    ~doc:"Keep a serve-shard fleet running, healing data and processes."
    ~man:
      [
        `S Manpage.s_description;
        `P
          "Spawns one serve-shard process per (shard, replica) endpoint \
           recorded in the manifest (built with `xkq index \
           --rpc-base-port`) and supervises the fleet: dead or unresponsive \
           servers are restarted with decorrelated-jitter backoff, \
           persistent crashers are quarantined after $(b,--flap-cap) \
           consecutive failures, and every $(b,--heal-every) cycles the \
           replica files are scrubbed and damaged copies repaired from \
           surviving replicas (or rebuilt from the corpus).  One fleet \
           status line is printed per cycle.  SIGTERM/SIGINT stop the loop \
           and kill the children.";
      ]
    Term.(
      const supervise $ path_arg $ manifest_arg $ interval_ms $ backoff_ms
      $ backoff_cap_ms $ flap_cap $ grace_ms $ heal_every $ cycles
      $ state_dir $ seed $ workers_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "xkq" ~version:"1.0.0" ~exits
      ~doc:"Top-K keyword search in XML databases (ICDE 2010 reproduction)."
  in
  (* The one exit of xkq: [run] chose the status. *)
  (exit [@xklint.allow process-exit])
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd;
            index_cmd;
            mutate_cmd;
            compact_cmd;
            search_cmd;
            batch_cmd;
            serve_shard_cmd;
            supervise_cmd;
            heal_cmd;
            stats_cmd;
            terms_cmd;
          ]))
