(* xklint: fixture snippets per syntactic rule (known-good and
   known-bad), multi-file fixture projects for the whole-program
   analyses (budget reachability, lock-held sets, lock order, mmap
   escapes, test-only modules and options), the allow mechanisms (config entries,
   [@xklint.allow] attributes, file scoping) and the baseline round
   trip. *)

open Xklint_lib

let check = Alcotest.check
let tc = Alcotest.test_case

let config_of_string src =
  match Lint_config.of_string src with
  | Ok c -> c
  | Error msg -> Alcotest.failf "config: %s" msg

let lint ?(config = "") ~file src =
  Lint_engine.lint_source (config_of_string config) ~file src

let lint_all ?(config = "") sources =
  (Lint_engine.lint_sources (config_of_string config) sources)
    .Lint_engine.findings

let rules fs = List.map (fun (f : Lint_finding.t) -> f.rule) fs
let slist = Alcotest.slist Alcotest.string String.compare

let check_rules ?config ~file name expected src =
  check slist name expected (rules (lint ?config ~file src))

let check_rules_all ?config name expected sources =
  check slist name expected (rules (lint_all ?config sources))

(* --- bare-lock ------------------------------------------------------- *)

let bare_lock () =
  let bad = "let get t =\n  Mutex.lock t.lock;\n  let v = t.v in\n  Mutex.unlock t.lock;\n  v\n" in
  check slist "lock and unlock flagged" [ "bare-lock"; "bare-lock" ]
    (rules (lint ~file:"lib/index/fixture.ml" bad));
  check_rules ~file:"lib/index/fixture.ml" "with_lock is fine" []
    "let get t = Xk_util.Sync.with_lock t.lock (fun () -> t.v)\n";
  check_rules ~file:"lib/index/fixture.ml" "file-level allow" []
    ("[@@@xklint.allow bare-lock]\n" ^ bad);
  check_rules ~file:"bench/fixture.ml" "outside lib" [] bad

(* --- shared-state ---------------------------------------------------- *)

let shared_state () =
  check_rules ~file:"lib/exec/fixture.ml" "top-level Hashtbl"
    [ "shared-state" ] "let cache = Hashtbl.create 16\n";
  check_rules ~file:"lib/resilience/fixture.ml" "top-level ref"
    [ "shared-state" ] "let counter = ref 0\n";
  check_rules ~file:"lib/exec/fixture.ml" "per-call state is fine" []
    "let fresh () = Hashtbl.create 16\n";
  check_rules ~file:"lib/exec/fixture.ml" "Atomic is fine" []
    "let counter = Atomic.make 0\n";
  check_rules ~file:"lib/exec/fixture.ml" "Protected wrapper is fine" []
    "let state = Xk_util.Sync.Protected.create (Hashtbl.create 16)\n";
  (* only the domain-crossing libraries are covered *)
  check_rules ~file:"lib/score/fixture.ml" "outside domain-crossing dirs" []
    "let cache = Hashtbl.create 16\n";
  check_rules ~file:"lib/index/fixture.ml" "binding attribute allow" []
    "let cache = (Hashtbl.create 16 [@xklint.allow shared-state])\n"

(* --- rpc-budget ------------------------------------------------------ *)

let rpc_budget () =
  let bad = "let handle_query t q = run t q\n" in
  check_rules ~file:"lib/rpc/fixture.ml" "budget-less handler"
    [ "rpc-budget" ] bad;
  check_rules ~file:"lib/exec/fixture.ml" "serving layer covered too"
    [ "rpc-budget" ] bad;
  check_rules ~file:"lib/rpc/fixture.ml" "handler threading a budget" []
    "let handle_query t q =\n\
    \  let budget = Xk_resilience.Budget.create ?deadline_ms:q.dl () in\n\
    \  run t ~budget q\n";
  check_rules ~file:"lib/rpc/fixture.ml" "short Budget path counts" []
    "let handle_ping t q = run t (Budget.unlimited) q\n";
  (* only handle* names are handlers; framing plumbing is exempt *)
  check_rules ~file:"lib/rpc/fixture.ml" "dispatch is not a handler" []
    "let dispatch t q = run t q\n";
  (* non-function bindings are not handlers *)
  check_rules ~file:"lib/rpc/fixture.ml" "value binding is not a handler" []
    "let handled = 12\n";
  check_rules ~file:"lib/core/fixture.ml" "outside the serving layers" [] bad;
  check_rules ~file:"lib/rpc/fixture.ml" "attribute allow" []
    "let handle_query t q = (run t q) [@@xklint.allow rpc-budget]\n";
  check_rules ~file:"lib/rpc/fixture.ml"
    ~config:"allow rpc-budget lib/rpc/fixture.ml handle_query"
    "config allow" [] bad

(* --- typed-error ----------------------------------------------------- *)

let typed_error () =
  check_rules ~file:"lib/text/fixture.ml" "failwith" [ "typed-error" ]
    "let f () = failwith \"boom\"\n";
  check_rules ~file:"lib/text/fixture.ml" "invalid_arg" [ "typed-error" ]
    "let f () = invalid_arg \"boom\"\n";
  check_rules ~file:"lib/text/fixture.ml" "Err.invalid is fine" []
    "let f () = Xk_util.Err.invalid \"boom\"\n";
  check_rules ~file:"lib/text/fixture.ml" "partial calls"
    [ "typed-error"; "typed-error" ]
    "let f xs = (List.hd xs, Option.get None)\n";
  check_rules ~file:"lib/text/fixture.ml" "unsafe access" [ "typed-error" ]
    "let f a = Array.unsafe_get a 0\n";
  check_rules ~file:"lib/text/fixture.ml" "bare assert false"
    [ "typed-error" ] "let f () = assert false\n";
  check_rules ~file:"lib/text/fixture.ml" "assert with condition is fine" []
    "let f x = assert (x > 0)\n";
  check_rules ~file:"lib/text/fixture.ml" "attribute allow" []
    "let f () = (assert false) [@xklint.allow typed-error]\n";
  check_rules ~file:"bench/fixture.ml" "outside the linted trees" []
    "let f () = failwith \"boom\"\n";
  (* the error and lock disciplines extend to the CLI and the tools *)
  check_rules ~file:"bin/fixture.ml" "partial call in bin"
    [ "typed-error" ] "let f xs = List.hd xs\n";
  check_rules ~file:"tools/lint/fixture.ml" "failwith in tools"
    [ "typed-error" ] "let f () = failwith \"boom\"\n";
  check_rules ~file:"bin/fixture.ml" "bare lock in bin" [ "bare-lock" ]
    "let f m = Mutex.lock m\n";
  (* an Invalid_argument handler in lib/, in a try or a match *)
  check_rules ~file:"lib/text/fixture.ml" "Invalid_argument handlers"
    [ "typed-error"; "typed-error"; "typed-error" ]
    "let f s = try String.sub s 0 1 with Invalid_argument _ -> \"\"\n\
     let g s = match String.sub s 0 1 with x -> x | exception Invalid_argument _ -> \"\"\n\
     let h s = try String.sub s 0 1 with Not_found | Stdlib.Invalid_argument _ -> \"\"\n";
  check_rules ~file:"lib/text/fixture.ml" "other handlers are fine" []
    "let f s = try int_of_string s with Failure _ -> 0\n\
     let g x = match x with Some v -> v | None -> 0\n";
  check_rules ~file:"bin/fixture.ml" "handlers outside lib/" []
    "let f s = try String.sub s 0 1 with Invalid_argument _ -> \"\"\n";
  check_rules ~file:"lib/rpc/fixture.ml"
    ~config:"allow typed-error lib/rpc/fixture.ml Invalid_argument"
    "config allow for a handler" []
    "let f s = try String.sub s 0 1 with Invalid_argument _ -> \"\"\n"

(* --- durability-sync ------------------------------------------------- *)

let durability_sync () =
  let bad =
    "let save path payload =\n\
    \  let oc = open_out_bin (path ^ \".tmp\") in\n\
    \  output_string oc payload;\n\
    \  close_out oc;\n\
    \  Sys.rename (path ^ \".tmp\") path\n"
  in
  check_rules ~file:"lib/index/fixture.ml" "write-then-rename without fsync"
    [ "durability-sync" ] bad;
  check_rules ~file:"lib/storage/fixture.ml" "storage layer covered too"
    [ "durability-sync" ] bad;
  check_rules ~file:"lib/index/fixture.ml" "explicit fsync discharges" []
    "let save path payload =\n\
    \  let oc = open_out_bin (path ^ \".tmp\") in\n\
    \  output_string oc payload;\n\
    \  Unix.fsync (Unix.descr_of_out_channel oc);\n\
    \  close_out oc;\n\
    \  Sys.rename (path ^ \".tmp\") path\n";
  check_rules ~file:"lib/index/fixture.ml" "Durable helper discharges" []
    "let save path payload =\n\
    \  Xk_storage.Durable.write_atomically path (fun oc ->\n\
    \      output_string oc payload)\n";
  check_rules ~file:"lib/index/fixture.ml" "rename without a write is fine" []
    "let promote path = Sys.rename (path ^ \".tmp\") path\n";
  (* only the persistence layers are covered *)
  check_rules ~file:"lib/exec/fixture.ml" "outside the persistence layers" []
    bad;
  check_rules ~file:"lib/index/fixture.ml" "attribute allow" []
    ("let save path payload =\n\
     \  (let oc = open_out_bin (path ^ \".tmp\") in\n\
     \  output_string oc payload;\n\
     \  close_out oc;\n\
     \  Sys.rename (path ^ \".tmp\") path)\n\
      [@@xklint.allow durability-sync]\n");
  check_rules ~file:"lib/index/fixture.ml"
    ~config:"allow durability-sync lib/index/fixture.ml save" "config allow" []
    bad

(* --- mapped-read ------------------------------------------------------ *)

let mapped_read () =
  let bad =
    "let read path =\n\
    \  let ic = open_in_bin path in\n\
    \  really_input_string ic (in_channel_length ic)\n"
  in
  check_rules ~file:"lib/index/fixture.ml" "channel read in lib/index"
    [ "mapped-read"; "mapped-read" ] bad;
  check_rules ~file:"lib/storage/fixture.ml" "storage layer covered too"
    [ "mapped-read"; "mapped-read" ] bad;
  check_rules ~file:"lib/index/fixture.ml" "In_channel functions"
    [ "mapped-read"; "mapped-read" ]
    "let read path = In_channel.with_open_bin path In_channel.input_all\n";
  check_rules ~file:"lib/index/fixture.ml" "a mapped read is fine" []
    "let read path = Index_io.read_mapped path\n";
  check_rules ~file:"lib/index/fixture.ml" "names that only start alike" []
    "let open_index path = open_out_bin path\n";
  check_rules ~file:"lib/xml/fixture.ml" "outside the persistence layers" []
    bad;
  check_rules ~file:"lib/index/fixture.ml"
    ~config:"allow mapped-read lib/index/fixture.ml" "config allow" [] bad

(* --- process-exit ----------------------------------------------------- *)

let process_exit () =
  let bad = "let die msg =\n  prerr_endline msg;\n  exit 2\n" in
  check_rules ~file:"lib/resilience/fixture.ml" "exit in a library"
    [ "process-exit" ] bad;
  check_rules ~file:"bin/fixture.ml" "a second exit in an executable"
    [ "process-exit"; "process-exit" ]
    "let check ok = if not ok then exit 2\n\nlet () = exit (main ())\n";
  check_rules ~file:"lib/util/fixture.ml" "Stdlib and Unix spellings"
    [ "process-exit"; "process-exit" ]
    "let f () = Stdlib.exit 1\n\nlet g () = Unix._exit 1\n";
  check_rules ~file:"bin/fixture.ml" "the one allowed mapping" []
    "let () = (exit [@xklint.allow process-exit]) (main ())\n";
  check_rules ~file:"lib/util/fixture.ml" "at_exit is not an exit" []
    "let () = at_exit flush_all\n";
  check_rules ~file:"tools/fixture.ml" "tools are not covered" [] bad;
  check_rules ~file:"bench/fixture.ml" "outside lib and bin" [] bad;
  check_rules ~file:"lib/resilience/chaos.ml"
    ~config:"allow process-exit lib/resilience/chaos.ml exit" "config allow"
    [] bad

(* --- no-blocking-in-callback ----------------------------------------- *)

let no_blocking_in_callback () =
  let bad =
    "let make () =\n\
    \  Circuit_breaker.create\n\
    \    ~on_transition:(fun _from _to -> Unix.sleepf 0.1)\n\
    \    ()\n"
  in
  check_rules ~file:"lib/exec/fixture.ml" "sleeping transition hook flagged"
    [ "no-blocking-in-callback" ] bad;
  check_rules ~file:"lib/exec/fixture.ml" "RPC inside a supervisor event hook"
    [ "no-blocking-in-callback" ]
    "let make procs specs =\n\
    \  Supervisor.create\n\
    \    ~on_event:(fun e -> ignore (Xk_rpc.Client.ping e))\n\
    \    ~procs specs\n";
  check_rules ~file:"lib/exec/fixture.ml"
    "fully qualified owner covered too" [ "no-blocking-in-callback" ]
    "let make () =\n\
    \  Xk_resilience.Circuit_breaker.create\n\
    \    ~on_transition:(fun _ _ -> In_channel.input_line stdin |> ignore)\n\
    \    ()\n";
  check_rules ~file:"lib/exec/fixture.ml" "pure counter hook is fine" []
    "let make hits =\n\
    \  Circuit_breaker.create ~on_transition:(fun _ _ -> incr hits) ()\n";
  check_rules ~file:"lib/exec/fixture.ml" "named function by value is fine" []
    "let make log_event procs specs =\n\
    \  Supervisor.create ~on_event:log_event ~procs specs\n";
  check_rules ~file:"lib/exec/fixture.ml" "non-callback owners exempt" []
    "let make () = Listener.create ~on_accept:(fun fd -> Unix.close fd) ()\n";
  check_rules ~file:"lib/exec/fixture.ml" "attribute waiver" []
    "let make () =\n\
    \  Circuit_breaker.create\n\
    \    ~on_transition:((fun _ _ -> Unix.sleepf 0.1)\n\
    \      [@xklint.allow \"no-blocking-in-callback\"])\n\
    \    ()\n";
  check_rules ~file:"bench/fixture.ml" "outside the linted trees" [] bad

let parse_error () =
  check slist "unparsable file" [ "parse-error" ]
    (rules (lint ~file:"lib/text/fixture.ml" "let let let\n"))

(* --- budget-loop: whole-program reachability ------------------------- *)

let budget_entry_loop () =
  let unpolled =
    "let handle_query t q =\n  while live t do\n    step t q\n  done\n"
  in
  check_rules ~file:"lib/index/fixture.ml" "unpolled loop in a handler"
    [ "budget-loop" ] unpolled;
  check_rules ~file:"lib/index/fixture.ml" "polling loop in a handler" []
    "let handle_query t q =\n\
    \  while live t do\n\
    \    Xk_resilience.Budget.check q.budget;\n\
    \    step t q\n\
    \  done\n";
  (* a loop no entry point reaches is someone's bounded helper *)
  check_rules ~file:"lib/core/fixture.ml" "loop not reachable from entries" []
    "let scan t q =\n  while live t do\n    step t q\n  done\n";
  check_rules ~file:"bench/fixture.ml" "outside the serving scope" [] unpolled

let budget_cross_module () =
  let entry = ("lib/core/engine.ml", "let run_request t q = Xk_index.Walk.descend t q\n") in
  let fs =
    lint_all
      [
        entry;
        ( "lib/index/walk.ml",
          "let scan t q =\n\
          \  while more t do\n\
          \    advance t q\n\
          \  done\n\n\
           let descend t q = scan t q\n" );
      ]
  in
  check slist "loop two calls below an entry" [ "budget-loop" ] (rules fs);
  (match fs with
  | [ f ] ->
      check Alcotest.string "finding sits on the loop" "lib/index/walk.ml"
        f.Lint_finding.file;
      check Alcotest.int "trace spans every frame" 4
        (List.length f.Lint_finding.trace);
      check Alcotest.bool "rendered trace starts at the entry" true
        (Lint_util.contains_substring
           ~sub:"    via lib/core/engine.ml:1  entry point Engine.run_request"
           (Lint_finding.to_string f))
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  (* a poll on an intermediate frame suppresses everything below it *)
  check_rules_all "poll on an intermediate frame suppresses" []
    [
      entry;
      ( "lib/index/walk.ml",
        "let scan t q =\n\
        \  while more t do\n\
        \    advance t q\n\
        \  done\n\n\
         let descend t q =\n\
        \  Xk_resilience.Budget.check q.budget;\n\
        \  scan t q\n" );
    ];
  (* ... and so does a poll in the loop itself *)
  check_rules_all "poll in the loop suppresses" []
    [
      entry;
      ( "lib/index/walk.ml",
        "let scan t q =\n\
        \  while more t do\n\
        \    Xk_resilience.Budget.check q.budget;\n\
        \    advance t q\n\
        \  done\n\n\
         let descend t q = scan t q\n" );
    ]

let budget_loop_coverage () =
  (* a call made from inside a polled loop is covered: the work between
     two polls of the driving loop is assumed bounded *)
  let helper =
    ("lib/index/walk.ml", "let step t q =\n  while busy t do\n    advance t q\n  done\n")
  in
  check_rules_all "call site inside a polled loop is covered" []
    [
      ( "lib/core/engine.ml",
        "let run_request t q =\n\
        \  while more t do\n\
        \    Xk_resilience.Budget.check q.budget;\n\
        \    Xk_index.Walk.step t q\n\
        \  done\n" );
      helper;
    ];
  (* without the poll, both the driving loop and the helper's flag *)
  check_rules_all "unpolled driving loop exposes the helper"
    [ "budget-loop"; "budget-loop" ]
    [
      ( "lib/core/engine.ml",
        "let run_request t q =\n\
        \  while more t do\n\
        \    Xk_index.Walk.step t q\n\
        \  done\n" );
      helper;
    ]

let budget_recursion () =
  let entry = ("lib/core/engine.ml", "let run_request t q = Xk_index.Walk.ping t q\n") in
  check_rules_all "mutual recursion without a poll" [ "budget-loop" ]
    [
      entry;
      ( "lib/index/walk.ml",
        "let rec ping t q = pong t q\nand pong t q = if more t then ping t q\n" );
    ];
  check_rules_all "polling recursion is fine" []
    [
      entry;
      ( "lib/index/walk.ml",
        "let rec ping t q =\n\
        \  Xk_resilience.Budget.check q.budget;\n\
        \  pong t q\n\
         and pong t q = if more t then ping t q\n" );
    ];
  (* a recursive helper nested in a handler body is reachable too *)
  check_rules ~file:"lib/index/fixture.ml" "nested recursion in a handler"
    [ "budget-loop" ]
    "let handle_load t =\n  let rec go () = if live t then go () in\n  go ()\n"

let budget_allows () =
  let project =
    [
      ("lib/core/engine.ml", "let run_request t q = Xk_index.Walk.descend t q\n");
      ( "lib/index/walk.ml",
        "let scan t q =\n\
        \  while more t do\n\
        \    advance t q\n\
        \  done\n\n\
         let descend t q = scan t q\n" );
    ]
  in
  check_rules_all "unwaived baseline" [ "budget-loop" ] project;
  check_rules_all ~config:"allow budget-loop lib/index/walk.ml scan"
    "config allow by containing function" [] project;
  check_rules_all ~config:"allow budget-loop lib/index/other.ml scan"
    "config allow elsewhere does not apply" [ "budget-loop" ] project;
  check_rules ~file:"lib/index/fixture.ml" "attribute allow on the loop" []
    "let handle_load t =\n\
    \  (while live t do\n\
    \     step t\n\
    \   done)\n\
    \  [@xklint.allow budget-loop]\n";
  check_rules ~file:"lib/index/fixture.ml" "attribute allow on the binding" []
    "let handle_load t =\n\
    \  while live t do\n\
    \    step t\n\
    \  done\n\
    \  [@@xklint.allow budget-loop]\n"

(* --- blocking-io-under-lock ------------------------------------------ *)

let lock_io () =
  let bad =
    "let read t =\n\
    \  Xk_util.Sync.with_lock t.lock (fun () -> Unix.read t.fd buf 0 len)\n"
  in
  check_rules ~file:"lib/index/fixture.ml" "Unix call under with_lock"
    [ "blocking-io-under-lock" ] bad;
  check_rules ~file:"lib/resilience/fixture.ml" "channel IO under Protected"
    [ "blocking-io-under-lock" ]
    "let dump t oc =\n\
    \  Xk_util.Sync.Protected.with_ t (fun st ->\n\
    \      Out_channel.output_string oc st.log)\n";
  check_rules ~file:"lib/exec/fixture.ml" "sleep under short Sync path"
    [ "blocking-io-under-lock" ]
    "let wait t = Sync.with_lock t.lock (fun () -> Unix.sleepf 0.1)\n";
  check_rules ~file:"lib/index/fixture.ml" "decide under lock, act outside" []
    "let read t =\n\
    \  let fd = Xk_util.Sync.with_lock t.lock (fun () -> t.fd) in\n\
    \  Unix.read fd buf 0 len\n";
  (* a nested critical section is scanned on its own visit, not twice *)
  check slist "nested sections report once" [ "blocking-io-under-lock" ]
    (rules
       (lint ~file:"lib/index/fixture.ml"
          "let f t =\n\
          \  Xk_util.Sync.with_lock a (fun () ->\n\
          \      Xk_util.Sync.with_lock b (fun () -> Unix.close t.fd))\n"));
  check_rules ~file:"lib/index/fixture.ml" "attribute allow" []
    "let read t =\n\
    \  Xk_util.Sync.with_lock t.lock (fun () ->\n\
    \      (Unix.read t.fd buf 0 len) [@xklint.allow blocking-io-under-lock])\n";
  check_rules ~file:"bench/fixture.ml" "outside lib" [] bad

let lock_io_transitive () =
  let caller =
    ( "lib/index/segment.ml",
      "let sync t =\n\
      \  Xk_util.Sync.with_lock t.lock (fun () -> Writer.flush_all t)\n" )
  in
  let fs =
    lint_all
      [ caller; ("lib/index/writer.ml", "let flush_all t = Unix.fsync t.fd\n") ]
  in
  check slist "callee blocks under the caller's lock"
    [ "blocking-io-under-lock" ] (rules fs);
  (match fs with
  | [ f ] ->
      check Alcotest.string "finding sits at the call site"
        "lib/index/segment.ml" f.Lint_finding.file;
      check Alcotest.bool "trace ends at the blocking call" true
        (match List.rev f.Lint_finding.trace with
        | (file, _, note) :: _ ->
            file = "lib/index/writer.ml" && note = "blocking call Unix.fsync"
        | [] -> false)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  check_rules_all "non-blocking callee is fine" []
    [ caller; ("lib/index/writer.ml", "let flush_all t = note t\n") ]

let lock_io_closure () =
  let cache =
    ( "lib/index/shard_cache.ml",
      "let find_or_add t id compute =\n\
      \  Xk_util.Sync.with_lock t.lock (fun () -> compute id)\n" )
  in
  check_rules_all "closure runs under the callee's lock"
    [ "blocking-io-under-lock" ]
    [
      cache;
      ( "lib/index/reader.ml",
        "let rows t id =\n\
        \  Shard_cache.find_or_add t.cache id (fun _ -> Unix.read t.fd buf 0 len)\n"
      );
    ];
  check_rules_all "pure closure under the callee's lock is fine" []
    [
      cache;
      ( "lib/index/reader.ml",
        "let rows t id =\n\
        \  Shard_cache.find_or_add t.cache id (fun _ -> decode t id)\n" );
    ]

(* --- lock-order ------------------------------------------------------- *)

let lock_order () =
  check_rules ~file:"lib/exec/fixture.ml" "nested inversion in one module"
    [ "lock-order" ]
    "let ab t =\n\
    \  Xk_util.Sync.with_lock t.a (fun () ->\n\
    \      Xk_util.Sync.with_lock t.b (fun () -> tick t))\n\n\
     let ba t =\n\
    \  Xk_util.Sync.with_lock t.b (fun () ->\n\
    \      Xk_util.Sync.with_lock t.a (fun () -> tick t))\n";
  check_rules ~file:"lib/exec/fixture.ml" "consistent order is fine" []
    "let ab t =\n\
    \  Xk_util.Sync.with_lock t.a (fun () ->\n\
    \      Xk_util.Sync.with_lock t.b (fun () -> tick t))\n\n\
     let ab2 t =\n\
    \  Xk_util.Sync.with_lock t.a (fun () ->\n\
    \      Xk_util.Sync.with_lock t.b (fun () -> tock t))\n";
  (* same printed key: sharded-cache re-entry by design, not an order *)
  check_rules ~file:"lib/exec/fixture.ml" "same-key re-entry is fine" []
    "let re t =\n\
    \  Xk_util.Sync.with_lock t.a (fun () ->\n\
    \      Xk_util.Sync.with_lock t.a (fun () -> tick t))\n";
  check_rules_all "inversion across modules" [ "lock-order" ]
    [
      ( "lib/exec/a.ml",
        "let fwd t = Xk_util.Sync.with_lock t.la (fun () -> B.grab t)\n\n\
         let take t = Xk_util.Sync.with_lock t.la (fun () -> tick t)\n" );
      ( "lib/exec/b.ml",
        "let grab t = Xk_util.Sync.with_lock t.lb (fun () -> tick t)\n\n\
         let rev t = Xk_util.Sync.with_lock t.lb (fun () -> A.take t)\n" );
    ];
  check_rules_all "one direction across modules is fine" []
    [
      ( "lib/exec/a.ml",
        "let fwd t = Xk_util.Sync.with_lock t.la (fun () -> B.grab t)\n" );
      ( "lib/exec/b.ml",
        "let grab t = Xk_util.Sync.with_lock t.lb (fun () -> tick t)\n" );
    ]

(* --- mmap-lifetime --------------------------------------------------- *)

let mmap_sinks () =
  let raw_view =
    "let stash t id =\n\
    \  Hashtbl.replace t.cache id (Xk_storage.Mmap.view t.map ~pos:0)\n"
  in
  check_rules ~file:"lib/index/fixture.ml" "raw view into Hashtbl"
    [ "mmap-lifetime" ] raw_view;
  check_rules ~file:"lib/storage/fixture.ml" "storage layer covered too"
    [ "mmap-lifetime" ] raw_view;
  check_rules ~file:"lib/index/fixture.ml" "cache closure over the map"
    [ "mmap-lifetime" ]
    "let rows t id =\n\
    \  Shard_cache.find_or_add t.cache id (fun () -> Mmap.sub_string t.map ~pos:id ~len:4)\n";
  check_rules ~file:"lib/index/fixture.ml" "ref cell capture"
    [ "mmap-lifetime" ]
    "let set t = t.slot := Xk_storage.Mmap.view t.map ~pos:0\n";
  (* a copying accessor at value depth is the decode-to-plain pattern *)
  check_rules ~file:"lib/index/fixture.ml" "copying accessor decodes" []
    "let stash t id =\n\
    \  Hashtbl.replace t.cache id (Xk_storage.Mmap.sub_string t.map ~pos:0 ~len:4)\n";
  check_rules ~file:"lib/index/fixture.ml" "decode into plain values first" []
    "let cache_rows t id rows =\n\
    \  let nodes = decode_nodes rows in\n\
    \  Hashtbl.replace t.cache id nodes\n";
  (* only the zero-copy layers are covered *)
  check_rules ~file:"lib/core/fixture.ml" "outside the zero-copy layers" []
    raw_view;
  check_rules ~file:"lib/index/fixture.ml" "attribute allow" []
    "let stash t id =\n\
    \  (Hashtbl.replace t.cache id (Xk_storage.Mmap.view t.map ~pos:0))\n\
    \  [@xklint.allow mmap-lifetime]\n";
  check_rules ~file:"lib/index/fixture.ml"
    ~config:"allow mmap-lifetime lib/index/fixture.ml Hashtbl.replace"
    "config allow by sink" [] raw_view

let mmap_returns () =
  let reader =
    ("lib/storage/reader.ml", "let window t pos = Xk_storage.Mmap.view t.map pos\n")
  in
  let fs =
    lint_all
      [
        reader;
        ( "lib/index/cache.ml",
          "let remember t id =\n\
          \  Hashtbl.replace t.tbl id (Xk_storage.Reader.window t.r 0)\n" );
      ]
  in
  check slist "returned view reaching a sink" [ "mmap-lifetime" ] (rules fs);
  (match fs with
  | [ f ] ->
      check Alcotest.bool "trace names the returning function" true
        (List.exists
           (fun (_, _, note) ->
             note = "Reader.window returns an Mmap-backed value")
           f.Lint_finding.trace)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  check_rules_all "let-bound view chased to the sink" [ "mmap-lifetime" ]
    [
      reader;
      ( "lib/index/cache.ml",
        "let remember t id =\n\
        \  let w = Xk_storage.Reader.window t.r 0 in\n\
        \  Hashtbl.replace t.tbl id w\n" );
    ];
  (* a function that decodes to plain values does not taint its callers *)
  check_rules_all "decoded return is fine" []
    [
      ( "lib/storage/reader.ml",
        "let width t pos = Xk_storage.Mmap.sub_string t.map ~pos ~len:4\n" );
      ( "lib/index/cache.ml",
        "let remember t id =\n\
        \  Hashtbl.replace t.tbl id (Xk_storage.Reader.width t.r 0)\n" );
    ]

(* --- test-only-option -------------------------------------------------- *)

(* An interface declares two options; the executable sets one, and a
   test sets the other, which does not count. *)
let test_only_option () =
  let mli = ("lib/core/knob.mli", "val run : ?fast:bool -> ?seed:int -> int -> int\n") in
  let ml =
    ("lib/core/knob.ml", "let run ?(fast = false) ?(seed = 0) x = if fast then x + seed else x\n")
  in
  let main = ("bin/main.ml", "let () = print_int (Xk_core.Knob.run ~fast:true 1)\n") in
  let test = ("test/test_knob.ml", "let _ = Xk_core.Knob.run ~seed:3 1\n") in
  let fs = lint_all [ mli; ml; main; test ] in
  check slist "?seed flagged, ?fast passed" [ "test-only-option" ] (rules fs);
  check Alcotest.bool "the finding names ?seed" true
    (List.for_all
       (fun (f : Lint_finding.t) ->
         f.file = "lib/core/knob.mli"
         && Lint_util.contains_substring ~sub:"?seed of Knob.run" f.msg)
       fs);
  check_rules_all ~config:"allow test-only-option lib/core/knob.mli run?seed"
    "config allow" [] [ mli; ml; main; test ]

(* A forwarded option ([let partition ?cache_capacity x = Index.build
   ?cache_capacity x]) is set only where the forwarder's is, through any
   chain of forwards; an allow entry for the forwarder does not set it. *)
let forwarded_option () =
  let index =
    [
      ("lib/index/index.mli", "val build : ?cache_capacity:int -> int -> int\n");
      ("lib/index/index.ml", "let build ?(cache_capacity = 8) x = x + cache_capacity\n");
      ("lib/index/sharding.mli", "val partition : ?cache_capacity:int -> int -> int\n");
      ( "lib/index/sharding.ml",
        "let partition ?cache_capacity x =\n\
        \  let make y = Index.build ?cache_capacity y in\n\
        \  make x\n" );
      ("lib/exec/svc.mli", "val create : ?cache_capacity:int -> int -> int\n");
      ("lib/exec/svc.ml", "let create ?cache_capacity x = Sharding.partition ?cache_capacity x\n");
    ]
  in
  let main call = ("bin/main.ml", Printf.sprintf "let () = print_int (%s)\n" call) in
  check_rules_all "an unset forwarder sets nothing"
    [ "test-only-option"; "test-only-option"; "test-only-option" ]
    (main "Xk_exec.Svc.create 1" :: index);
  check_rules_all "a set forwarder sets the whole chain" []
    (main "Xk_exec.Svc.create ~cache_capacity:2 1" :: index);
  check_rules_all "a set middle link sets what it forwards to"
    [ "test-only-option" ]
    (main "Xk_exec.Svc.create 1 + Xk_index.Sharding.partition ~cache_capacity:2 1"
    :: index);
  check_rules_all
    ~config:
      "allow test-only-option lib/exec/svc.mli create?cache_capacity\n\
       allow test-only-option lib/index/sharding.mli partition?cache_capacity"
    "an allowed forwarder is still unset" [ "test-only-option" ]
    (main "Xk_exec.Svc.create 1" :: index)

(* --- test-only-module -------------------------------------------------- *)

let test_only_module () =
  let used = ("lib/core/used.ml", "let f x = Spare.g x\n") in
  let spare = ("lib/core/spare.ml", "let g x = x + 1\n") in
  let lonely = ("lib/core/lonely.ml", "let h x = Lonely.h x\n") in
  let main = ("bin/main.ml", "let () = print_int (Xk_core.Used.f 1)\n") in
  check_rules_all "a module nothing else names" [ "test-only-module" ]
    [ used; spare; lonely; main ];
  check_rules_all "a type or constructor path counts" []
    [ used; spare; lonely; ("tools/t.ml", "type t = Lonely.t\n\nlet x = Used.A\n") ];
  check_rules_all "test files are not callers" [ "test-only-module" ]
    [ used; spare; main; ("test/test_x.ml", "let _ = Lonely.h\n"); lonely ];
  check_rules_all "lib alone: no executable roots, no verdict" []
    [ used; spare; lonely ];
  check_rules_all ~config:"allow test-only-module lib/core/lonely.ml"
    "config allow" [] [ used; spare; lonely; main ]

(* --- engine: determinism, SARIF, graph ------------------------------- *)

let finding_order () =
  let fs =
    lint_all
      [
        ("lib/text/b.ml", "let f () = failwith \"x\"\n\nlet g xs = List.hd xs\n");
        ("lib/text/a.ml", "let h () = invalid_arg \"y\"\n");
      ]
  in
  check Alcotest.bool "sorted and deduplicated" true
    (fs = List.sort_uniq Lint_finding.compare fs);
  check Alcotest.int "all three reported" 3 (List.length fs);
  match fs with
  | first :: _ ->
      check Alcotest.string "a.ml sorts before b.ml" "lib/text/a.ml"
        first.Lint_finding.file
  | [] -> Alcotest.fail "expected findings"

let sarif_output () =
  let fs =
    lint_all
      [
        ("lib/core/engine.ml", "let run_request t q = Xk_index.Walk.descend t q\n");
        ( "lib/index/walk.ml",
          "let descend t q =\n  while more t do\n    advance t q\n  done\n" );
      ]
  in
  check slist "fixture finding" [ "budget-loop" ] (rules fs);
  let sarif = Lint_sarif.to_string ~tool_version:"test" fs in
  let has sub =
    check Alcotest.bool sub true (Lint_util.contains_substring ~sub sarif)
  in
  has "\"version\":\"2.1.0\"";
  has "{\"id\":\"budget-loop\"}";
  has "\"relatedLocations\":[";
  has "entry point Engine.run_request"

let call_graph () =
  let { Lint_engine.files; graph; findings = _ } =
    Lint_engine.lint_sources (config_of_string "")
      [ ("lib/core/a.ml", "let f x = g x\n\nlet g x = x + 1\n") ]
  in
  check Alcotest.int "file count" 1 files;
  check Alcotest.bool "defs collected" true (Lint_callgraph.n_defs graph >= 2);
  check Alcotest.bool "edges recorded" true (Lint_callgraph.n_edges graph >= 1);
  let dot = Lint_callgraph.to_dot graph in
  check Alcotest.bool "dot names the defs" true
    (Lint_util.contains_substring ~sub:"A.f" dot)

(* --- config ---------------------------------------------------------- *)

let config_parse () =
  let cfg =
    config_of_string
      "# comment\n\n\
       allow budget-loop lib/core/erased.ml first_after\n\
       allow bare-lock lib/util/sync.ml *\n\
       allow * lib/legacy/\n"
  in
  let allowed = Lint_config.allowed cfg in
  check Alcotest.bool "by name" true
    (allowed ~rule:"budget-loop" ~file:"lib/core/erased.ml"
       ~name:(Some "first_after"));
  check Alcotest.bool "wrong name" false
    (allowed ~rule:"budget-loop" ~file:"lib/core/erased.ml"
       ~name:(Some "other"));
  check Alcotest.bool "star name" true
    (allowed ~rule:"bare-lock" ~file:"lib/util/sync.ml" ~name:(Some "anything"));
  check Alcotest.bool "dir prefix + star rule" true
    (allowed ~rule:"typed-error" ~file:"lib/legacy/old.ml" ~name:None);
  check Alcotest.bool "suffix match" true
    (allowed ~rule:"budget-loop" ~file:"repo/lib/core/erased.ml"
       ~name:(Some "first_after"));
  match Lint_config.of_string "allow\n" with
  | Ok _ -> Alcotest.fail "malformed config accepted"
  | Error _ -> ()

(* Each entry counts the findings it suppressed; the ones that
   suppressed none are what a whole-program run reports as stale. *)
let config_unused () =
  let cfg =
    config_of_string
      "# seams\n\
       allow test-only-option lib/core/knob.mli run?seed\n\
       allow test-only-option lib/core/knob.mli run?fast\n\
       allow typed-error lib/core/gone.ml\n"
  in
  let sources =
    [
      ("lib/core/knob.mli", "val run : ?fast:bool -> ?seed:int -> int -> int\n");
      ("lib/core/knob.ml", "let run ?(fast = false) ?(seed = 0) x = if fast then x + seed else x\n");
      ("bin/main.ml", "let () = print_int (Xk_core.Knob.run ~fast:true 1)\n");
    ]
  in
  check slist "the used entry suppresses its finding" []
    (rules (Lint_engine.lint_sources cfg sources).findings);
  check slist "entries that suppressed nothing"
    [
      "line 3: allow test-only-option lib/core/knob.mli run?fast";
      "line 4: allow typed-error lib/core/gone.ml";
    ]
    (List.map Lint_config.entry_to_string (Lint_config.unused cfg))

(* --- baseline -------------------------------------------------------- *)

let findings_of src = lint ~file:"lib/text/fixture.ml" src

let baseline_roundtrip () =
  let findings = findings_of "let f xs = (List.hd xs, failwith \"x\")\n" in
  check Alcotest.int "two findings" 2 (List.length findings);
  let reloaded = Lint_baseline.of_string (Lint_baseline.to_string findings) in
  let { Lint_baseline.fresh; baselined; stale } =
    Lint_baseline.filter reloaded findings
  in
  check Alcotest.int "none fresh" 0 (List.length fresh);
  check Alcotest.int "all baselined" 2 baselined;
  check Alcotest.int "none stale" 0 (List.length stale)

let baseline_fresh_and_stale () =
  let old = findings_of "let f () = failwith \"x\"\n" in
  let baseline = Lint_baseline.of_string (Lint_baseline.to_string old) in
  (* the failwith moved (same key) and a new partial call appeared *)
  let now = findings_of "let g xs = List.hd xs\n\nlet f () = failwith \"x\"\n" in
  let { Lint_baseline.fresh; baselined; stale } =
    Lint_baseline.filter baseline now
  in
  check Alcotest.int "one fresh" 1 (List.length fresh);
  check Alcotest.int "one baselined" 1 baselined;
  check Alcotest.int "none stale" 0 (List.length stale);
  (* and with the failwith fixed, its entry goes stale *)
  let { Lint_baseline.fresh; baselined; stale } =
    Lint_baseline.filter baseline (findings_of "let g xs = List.hd xs\n")
  in
  check Alcotest.int "still one fresh" 1 (List.length fresh);
  check Alcotest.int "none baselined" 0 baselined;
  check Alcotest.int "one stale" 1 (List.length stale)

let baseline_counts_duplicates () =
  let two = findings_of "let f () = failwith \"a\"\n\nlet g () = failwith \"a\"\n" in
  check Alcotest.int "two identical keys" 2 (List.length two);
  let one = Lint_baseline.of_string "lib/text/fixture.ml\ttyped-error\t'failwith' raises untyped Failure; raise a typed exception (Xk_util.Err or a module-specific one)\n" in
  let { Lint_baseline.fresh; baselined; stale = _ } =
    Lint_baseline.filter one two
  in
  check Alcotest.int "one grandfathered" 1 baselined;
  check Alcotest.int "one fresh" 1 (List.length fresh)

let finding_format () =
  match findings_of "let f () = failwith \"x\"\n" with
  | [ f ] ->
      check Alcotest.string "file:line severity rule message"
        "lib/text/fixture.ml:1 error typed-error 'failwith' raises untyped \
         Failure; raise a typed exception (Xk_util.Err or a module-specific \
         one)"
        (Lint_finding.to_string f)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let suite =
  [
    ( "lint.rules",
      [
        tc "bare-lock" `Quick bare_lock;
        tc "shared-state" `Quick shared_state;
        tc "rpc-budget" `Quick rpc_budget;
        tc "typed-error" `Quick typed_error;
        tc "durability-sync" `Quick durability_sync;
        tc "mapped-read" `Quick mapped_read;
        tc "process-exit" `Quick process_exit;
        tc "test-only-option" `Quick test_only_option;
        tc "test-only-option through forwards" `Quick forwarded_option;
        tc "no-blocking-in-callback" `Quick no_blocking_in_callback;
        tc "parse error" `Quick parse_error;
      ] );
    ( "lint.budget",
      [
        tc "entry-point loops" `Quick budget_entry_loop;
        tc "cross-module reachability" `Quick budget_cross_module;
        tc "polled-loop edge coverage" `Quick budget_loop_coverage;
        tc "recursion cycles" `Quick budget_recursion;
        tc "allows" `Quick budget_allows;
      ] );
    ( "lint.locks",
      [
        tc "blocking IO: lexical" `Quick lock_io;
        tc "blocking IO: transitive" `Quick lock_io_transitive;
        tc "blocking IO: closure under callee lock" `Quick lock_io_closure;
        tc "lock-order inversions" `Quick lock_order;
      ] );
    ( "lint.mmap",
      [
        tc "sink arguments" `Quick mmap_sinks;
        tc "returned views" `Quick mmap_returns;
      ] );
    ( "lint.units", [ tc "test-only-module" `Quick test_only_module ] );
    ( "lint.engine",
      [
        tc "deterministic finding order" `Quick finding_order;
        tc "sarif output" `Quick sarif_output;
        tc "call graph" `Quick call_graph;
      ] );
    ( "lint.config",
      [
        tc "parse + matching" `Quick config_parse;
        tc "unused entries" `Quick config_unused;
      ] );
    ( "lint.baseline",
      [
        tc "round trip" `Quick baseline_roundtrip;
        tc "fresh and stale" `Quick baseline_fresh_and_stale;
        tc "duplicate keys counted" `Quick baseline_counts_duplicates;
        tc "finding format" `Quick finding_format;
      ] );
  ]
