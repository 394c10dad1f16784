(* xkq: command-line XML keyword search.

     xkq generate --dataset dblp --scale 0.5 --out corpus.xml
     xkq index corpus.xml --out corpus.idx
     xkq search corpus.xml xml keyword --semantics elca --algo join
     xkq search corpus.xml xml keyword --index corpus.idx --top 10
     xkq batch corpus.xml queries.txt --domains 4 --top 10 --check
     xkq stats corpus.xml
     xkq terms corpus.xml --near 100                                  *)

open Cmdliner

(* Index the document, or re-attach a saved index to skip tokenization. *)
let load_engine ?index_file path =
  let t0 = Unix.gettimeofday () in
  let eng =
    match index_file with
    | None -> Xk_core.Engine.of_file path
    | Some idx_path ->
        let doc = Xk_xml.Xml_parser.parse_file_exn path in
        let label = Xk_encoding.Labeling.label doc in
        Xk_core.Engine.of_index (Xk_index.Index_io.load label idx_path)
  in
  Printf.eprintf "%s %s in %.2fs\n%!"
    (match index_file with None -> "indexed" | Some _ -> "loaded")
    path
    (Unix.gettimeofday () -. t0);
  eng

(* The entry point of every query path: reload a shard manifest written
   by `xkq index --shards`, wrap a plain `xkq index` segment as the only
   shard, or partition in memory. *)
let load_sharded ?index_file ?verify_columns ~shards path =
  let t0 = Unix.gettimeofday () in
  let doc = Xk_xml.Xml_parser.parse_file_exn path in
  let loaded =
    match index_file with
    | Some p when Xk_index.Shard_io.is_manifest p ->
        Xk_index.Shard_io.load_result ?verify_columns doc p
    | Some p -> Xk_index.Shard_io.load_segment doc p
    | None -> Ok (Xk_index.Sharding.partition ~shards doc)
  in
  let sharded =
    match loaded with
    | Ok s -> s
    | Error e -> failwith (Xk_index.Shard_io.error_message e)
  in
  Printf.eprintf "%s %s as %d shard(s) in %.2fs\n%!"
    (match index_file with None -> "indexed" | Some _ -> "loaded")
    path
    (Xk_index.Sharding.count sharded)
    (Unix.gettimeofday () -. t0);
  sharded

(* The endpoint grid for --remote: every replica of the manifest must
   carry a recorded (host, port). *)
let remote_endpoints ~index_file =
  match index_file with
  | None -> failwith "--remote needs --index MANIFEST (with recorded endpoints)"
  | Some p -> (
      match Xk_index.Shard_io.endpoints p with
      | Error e -> failwith (Xk_index.Shard_io.error_message e)
      | Ok eps ->
          Array.map
            (Array.map (function
              | Some hp -> hp
              | None ->
                  failwith
                    "--remote: the manifest has replicas without endpoints \
                     (rebuild with `xkq index --shards --rpc-base-port`)"))
            eps)

(* ------------------------------------------------------------------ *)

let generate dataset scale out =
  let doc =
    match dataset with
    | "dblp" -> (Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled scale)).doc
    | "xmark" -> (Xk_datagen.Xmark_gen.generate (Xk_datagen.Xmark_gen.scaled scale)).doc
    | other -> failwith (Printf.sprintf "unknown dataset %S (dblp|xmark)" other)
  in
  Xk_xml.Xml_print.to_file out doc;
  Printf.printf "wrote %s (%d nodes)\n" out (Xk_xml.Xml_tree.node_count doc)

let generate_cmd =
  let dataset =
    Arg.(value & opt string "dblp" & info [ "dataset" ] ~doc:"dblp or xmark.")
  in
  let scale = Arg.(value & opt float 0.2 & info [ "scale" ] ~doc:"Size factor.") in
  let out =
    Arg.(value & opt string "corpus.xml" & info [ "out" ] ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic corpus.")
    Term.(const generate $ dataset $ scale $ out)

(* ------------------------------------------------------------------ *)

let index_doc path out shards replicas rpc_host rpc_base_port =
  let out_dir = Filename.dirname out in
  if not (Sys.file_exists out_dir && Sys.is_directory out_dir) then
    Error
      (Printf.sprintf "index: output directory %s does not exist" out_dir)
  else if shards <= 1 then begin
    if rpc_base_port <> None then
      Error "--rpc-base-port needs --shards (endpoints live in the manifest)"
    else begin
      let eng = load_engine path in
      Xk_index.Index_io.save (Xk_core.Engine.index eng) out;
      Printf.printf "wrote %s (%.2f MB)\n" out
        (float_of_int (Xk_index.Index_io.file_size out) /. 1048576.);
      Ok ()
    end
  end
  else begin
    let sharded = load_sharded ~shards path in
    (* Endpoint layout mirrors the fleet bring-up loop: shard s replica
       r serves on base + s*replicas + r. *)
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
    Ok ()
  end

let index_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let out =
    Arg.(value & opt string "corpus.idx" & info [ "out" ] ~doc:"Index file.")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ]
          ~doc:
            "Partition the index into N shards and save a shard manifest \
             plus one segment per shard, with a per-shard size breakdown.")
  in
  let replicas =
    Arg.(
      value & opt int 1
      & info [ "replicas" ]
          ~doc:
            "With $(b,--shards), write N independently verified segment \
             copies per shard; loaders fall back across copies on \
             corruption or IO failure.")
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
  Cmd.v
    (Cmd.info "index" ~doc:"Build and save an index for an XML file.")
    Term.(
      term_result'
        (const index_doc $ path $ out $ shards $ replicas $ rpc_host
        $ rpc_base_port))

(* ------------------------------------------------------------------ *)

(* Live mutation: `xkq mutate` and `xkq compact` drive an on-disk
   {!Xk_index.Live} store.  Exit classes extend the batch convention:
   0 ok, 1 hard failure, 2 parity-check failure, 3 a --chaos crash
   drill fired at a durability step — the code the CI crash matrix
   asserts on before reopening the directory to prove recovery. *)

let live_fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("xkq: " ^ m);
      exit 1)
    fmt

(* Only crash@ drills make sense against a store directory (kill/slow/
   corrupt address the serving layer); validate step names against the
   store's published crash surface before arming anything. *)
let install_mutation_chaos spec =
  String.split_on_char ',' spec
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")
  |> List.iter (fun item ->
         match String.index_opt item '@' with
         | Some i when String.sub item 0 i = "crash" ->
             let step = String.sub item (i + 1) (String.length item - i - 1) in
             if not (List.mem step Xk_index.Live.crash_steps) then
               live_fail "--chaos: unknown crash step %S (steps: %s)" step
                 (String.concat ", " Xk_index.Live.crash_steps)
         | _ ->
             live_fail
               "--chaos: %S is not a crash drill (mutation takes \
                crash@<step>; kill/slow/corrupt address `xkq batch`)"
               item);
  match Xk_resilience.Chaos.of_spec spec with
  | Error msg -> live_fail "--chaos: %s" msg
  | Ok spec -> Xk_resilience.Chaos.install spec.events

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
      live_fail "cannot parse %S: %s" src
        (Format.asprintf "%a" Xk_xml.Xml_parser.pp_error e)

let live_open ~init ~fsync ~auto_compact dir =
  let opened =
    match init with
    | Some root_tag ->
        Xk_index.Live.create ~fsync ?auto_compact ~root_tag dir
    | None -> Xk_index.Live.open_ ~fsync ?auto_compact dir
  in
  match opened with
  | Ok t -> t
  | Error e -> live_fail "%s: %s" dir (Xk_index.Live.error_message e)

(* Post-mutation parity: every --check query answered through the
   snapshot's shards must score identically to a from-scratch engine
   over the snapshot's own document. *)
let live_check snap queries =
  let engine = Xk_core.Engine.create (Xk_index.Snapshot.document snap) in
  let sx =
    Xk_exec.Shard_exec.create ~domains:2 (Xk_index.Snapshot.sharding snap)
  in
  Fun.protect
    ~finally:(fun () -> Xk_exec.Shard_exec.shutdown sx)
    (fun () ->
      List.for_all
        (fun words ->
          let expected = Xk_core.Engine.query_topk engine words ~k:10 in
          let scores hs =
            List.map (fun (h : Xk_baselines.Hit.t) -> h.score) hs
          in
          match
            Xk_exec.Shard_exec.exec sx (Xk_core.Engine.topk_request ~k:10 words)
          with
          | Xk_exec.Query_service.Ok hits when scores hits = scores expected ->
              Printf.printf "check: {%s} matches a from-scratch engine (%d hit(s))\n"
                (String.concat " " words) (List.length hits);
              true
          | Xk_exec.Query_service.Ok _ ->
              Printf.eprintf
                "check FAILED: {%s} sharded scores differ from engine\n%!"
                (String.concat " " words);
              false
          | _ ->
              Printf.eprintf "check FAILED: {%s} did not complete\n%!"
                (String.concat " " words);
              false)
        queries)

let live_queries checks =
  List.map
    (fun q ->
      match
        String.split_on_char ' ' q |> List.filter (fun w -> w <> "")
      with
      | [] -> live_fail "--check: empty query"
      | words -> words)
    checks

let live_status t =
  Printf.printf "store %s: %d document(s), lsn %d, %d pending op(s), gens [%s]\n"
    (Xk_index.Live.dir t)
    (Xk_index.Live.doc_count t)
    (Xk_index.Live.lsn t)
    (Xk_index.Live.pending_ops t)
    (String.concat "; " (List.map string_of_int (Xk_index.Live.sealed_gens t)))

let mutate dir init adds replaces removes do_compact auto_compact no_fsync
    chaos checks =
  Option.iter install_mutation_chaos chaos;
  let t = live_open ~init ~fsync:(not no_fsync) ~auto_compact dir in
  let ops =
    List.map (fun src -> Xk_index.Live.Add (live_subtree src)) adds
    @ List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i -> (
              let id = String.sub spec 0 i in
              let src =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              match int_of_string_opt id with
              | Some id -> Xk_index.Live.Replace (id, live_subtree src)
              | None -> live_fail "--replace: %S is not a document id" id)
          | None -> live_fail "--replace wants ID=FILE-OR-XML, got %S" spec)
        replaces
    @ List.map (fun id -> Xk_index.Live.Remove id) removes
  in
  (try
     (if ops <> [] then
        match Xk_index.Live.mutate t ops with
        | Ok ids ->
            Printf.printf "applied %d operation(s), ids [%s]\n"
              (List.length ops)
              (String.concat "; " (List.map string_of_int ids))
        | Error e -> live_fail "mutate: %s" (Xk_index.Live.error_message e));
     if do_compact then
       match Xk_index.Live.compact t with
       | Ok () -> ()
       | Error e -> live_fail "compact: %s" (Xk_index.Live.error_message e)
   with Xk_resilience.Chaos.Crashed step ->
     (* The drill's contract: die without cleanup, like a power cut. *)
     Printf.eprintf "crash drill fired at durability step %s\n%!" step;
     exit 3);
  live_status t;
  let ok =
    match checks with
    | [] -> true
    | qs -> live_check (Xk_index.Live.snapshot t) (live_queries qs)
  in
  Xk_index.Live.close t;
  if not ok then exit 2

let compact_store dir no_fsync chaos checks =
  Option.iter install_mutation_chaos chaos;
  let t = live_open ~init:None ~fsync:(not no_fsync) ~auto_compact:None dir in
  (try
     match Xk_index.Live.compact t with
     | Ok () -> ()
     | Error e -> live_fail "compact: %s" (Xk_index.Live.error_message e)
   with Xk_resilience.Chaos.Crashed step ->
     Printf.eprintf "crash drill fired at durability step %s\n%!" step;
     exit 3);
  live_status t;
  let ok =
    match checks with
    | [] -> true
    | qs -> live_check (Xk_index.Live.snapshot t) (live_queries qs)
  in
  Xk_index.Live.close t;
  if not ok then exit 2

let live_dir_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

let live_no_fsync =
  Arg.(
    value & flag
    & info [ "no-fsync" ]
        ~doc:"Skip fsync on every durability step (tests only; forfeits \
              crash safety).")

let live_chaos =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SPEC"
        ~doc:
          (Printf.sprintf
             "Crash drill: $(b,crash@STEP) kills the process (exit 3) the \
              first time the named durability step runs.  Steps: %s."
             (String.concat ", " Xk_index.Live.crash_steps)))

let live_checks =
  Arg.(
    value & opt_all string []
    & info [ "check" ] ~docv:"QUERY"
        ~doc:
          "After the batch, run this space-separated keyword query through \
           the snapshot's shards and require scores identical to a \
           from-scratch engine (exit 2 on mismatch).  Repeatable.")

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
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Apply a batch of insert/replace/remove operations to a live store \
          (WAL-first, crash-safe).  Adds apply before replaces, replaces \
          before removes.")
    Term.(
      const mutate $ live_dir_arg $ init $ adds $ replaces $ removes
      $ do_compact $ auto_compact $ live_no_fsync $ live_chaos $ live_checks)

let compact_cmd =
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Fold a live store's delta and dirty generations into a sealed \
          segment and reset its WAL.")
    Term.(
      const compact_store $ live_dir_arg $ live_no_fsync $ live_chaos
      $ live_checks)

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
let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

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
    & opt (some int) None
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
          "Saved index: a shard manifest (`xkq index --shards`), or a plain \
           segment (`xkq index`) served as one shard.")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ]
        ~doc:
          "Partition the corpus in memory into N index shards: every query \
           fans out to one job per shard and a gather step merges the \
           per-shard answers.  With $(b,--index) the saved partition is \
           served instead.")

let replicas_arg =
  Arg.(
    value & opt int 1
    & info [ "replicas" ]
        ~doc:
          "Serving replicas per shard: attempts fail over across replicas, \
           and a query degrades instead of failing when every replica of a \
           shard is down.")

let remote_arg =
  Arg.(
    value & flag
    & info [ "remote" ]
        ~doc:
          "Serve shards from the `xkq serve-shard` fleet recorded in the \
           manifest's endpoints instead of in-process engines (needs \
           $(b,--index) with a manifest).")

let search path words semantics algo top topk_algo limit index_file explain
    shards replicas remote =
  if words = [] then failwith "no query keywords given";
  let endpoints =
    if remote then Some (remote_endpoints ~index_file) else None
  in
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
  Xk_exec.Shard_exec.shutdown sx

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
  Cmd.v
    (Cmd.info "search" ~doc:"Run a keyword query against an XML file.")
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

let report_runs ~repeat ~n run_once =
  let t0 = Unix.gettimeofday () in
  let last = ref [] in
  for run = 1 to repeat do
    let r0 = Unix.gettimeofday () in
    last := run_once ();
    let dt = Unix.gettimeofday () -. r0 in
    Printf.printf "run %d/%d: %d queries in %.3fs (%.1f q/s)\n%!" run repeat n
      dt
      (float_of_int n /. dt)
  done;
  (Unix.gettimeofday () -. t0, !last)

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

(* Only completed requests are comparable; deadline/admission policy
   legitimately degrades the rest.  At equal scores the single-index
   top-K heap's emission order is unspecified, so top-K requests compare
   score sequences (complete requests stay node-exact). *)
let check_against seq reqs outcomes =
  let same_hits (req : Xk_core.Engine.request) a b =
    List.length a = List.length b
    && List.for_all2
         (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
           x.score = y.score
           &&
           match req.req_mode with
           | Xk_core.Engine.Topk _ -> true
           | Xk_core.Engine.Complete _ -> x.node = y.node)
         a b
  in
  let rec all3 = function
    | [], [], [] -> true
    | r :: rs, a :: sq, o :: os ->
        (match o with
        | Xk_exec.Query_service.Ok b -> same_hits r a b
        | _ -> true)
        && all3 (rs, sq, os)
    | _ -> false
  in
  let same = all3 (reqs, seq, outcomes) in
  if same then
    Printf.printf "check: results identical to sequential execution\n"
  else Printf.eprintf "check FAILED: results differ from sequential\n";
  same

(* Install a chaos spec: its fault classes (when it names any) replace
   the environment's, and its schedule is installed.  Disk-level corrupt
   targets are resolved against the shard manifest's replica files and
   marked corrupt, so the subsequent load exercises replica fallback;
   kill/slow events then drive the serving layer. *)
let install_chaos ~index_file spec =
  match Xk_resilience.Chaos.of_spec spec with
  | Error msg -> failwith (Printf.sprintf "--chaos: %s" msg)
  | Ok { faults; events } -> (
      if faults <> Xk_resilience.Chaos.no_faults then
        Xk_resilience.Chaos.configure faults;
      Xk_resilience.Chaos.install events;
      match Xk_resilience.Chaos.corrupt_targets () with
      | [] -> ()
      | _ -> (
          match index_file with
          | None ->
              failwith
                "--chaos corrupt@ targets need --index MANIFEST (the segments \
                 to corrupt live on disk)"
          | Some p -> (
              match Xk_index.Shard_io.replica_files p with
              | Error e -> failwith (Xk_index.Shard_io.error_message e)
              | Ok files ->
                  Array.iteri
                    (fun s reps ->
                      Array.iteri
                        (fun r file ->
                          if
                            Xk_resilience.Chaos.corrupt_matches ~shard:s
                              ~replica:r
                          then Xk_resilience.Chaos.mark_corrupt ~path:file)
                        reps)
                    files)))

let batch path queries_file semantics algo top topk_algo domains repeat gen
    gen_k seed check index_file deadline_ms max_queue shards replicas
    hedge_ms chaos remote =
  Option.iter (install_chaos ~index_file) chaos;
  let endpoints =
    if remote then Some (remote_endpoints ~index_file) else None
  in
  (* In-process replicas share the one copy per shard the loader picks.
     A corrupt@ drill therefore verifies every column at load, where the
     loader can still fall back to a clean copy: a lazy open would meet
     the damage at the first query of the damaged term, with no clean
     copy loaded to fail over to. *)
  let verify_columns = Xk_resilience.Chaos.corrupt_targets () <> [] in
  let sharded = load_sharded ?index_file ~verify_columns ~shards path in
  (* The reference engine answers workload generation (corpus-wide term
     statistics) and --check.  One shard already indexes the whole
     corpus; several are checked against a fresh unsharded build. *)
  let ref_eng =
    lazy
      (if Xk_index.Sharding.count sharded = 1 then
         Xk_core.Engine.of_index (Xk_index.Sharding.index sharded 0)
       else load_engine path)
  in
  let queries =
    match queries_file with
    | Some qf -> read_queries qf
    | None -> generate_queries (Lazy.force ref_eng) gen gen_k seed
  in
  if queries = [] then failwith "empty workload";
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
  let wall, last =
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
  let ok =
    (not check)
    || check_against
         (Xk_core.Engine.query_batch (Lazy.force ref_eng) reqs)
         reqs last
  in
  Xk_exec.Shard_exec.shutdown sx;
  let hard_failures = List.exists Xk_exec.Query_service.is_failure last in
  (* Exit classes: 1 = hard failure or failed --check; 2 = served, but
     degraded (lost shards).  Timeouts/rejections remain policy. *)
  if (not ok) || hard_failures then exit 1
  else if st.degraded > 0 then exit 2

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
    Arg.(value & opt int 4 & info [ "domains" ] ~doc:"Worker domains.")
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
      value & opt int 2
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
      & opt (some int) None
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
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ]
          ~doc:
            "Deterministic fault spec, comma-separated: the fault classes \
             of $(b,XK_FAULTS) (io, corrupt, latency, query), which \
             replace the environment's, and the events kill@sSrR:TICK \
             (replica R of shard S is down from attempt TICK), \
             slow@sSrR:TICK:MS (added latency), corrupt@sSrR (replica \
             segment corrupted on disk; needs $(b,--index)), \
             drop@sSrR:TICK (connections to that replica are refused; \
             $(b,--remote) only).  S/R accept * as a wildcard.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Execute a query workload in parallel on a domain pool."
       ~man:
         [
           `S Manpage.s_exit_status;
           `P
             "0 on full service; 1 on hard failures or a failed --check; 2 \
              when every query was served but some only degraded (a shard \
              lost every replica, e.g. to an injected query fault).";
         ])
    Term.(
      const batch $ path_arg $ queries_file $ semantics_arg $ algo_arg
      $ top_arg $ topk_algo_arg $ domains $ repeat $ gen $ gen_k $ seed $ check
      $ index_arg $ deadline_ms $ max_queue $ shards_arg
      $ replicas_arg $ hedge_ms $ chaos $ remote_arg)

(* ------------------------------------------------------------------ *)

let stats path =
  let eng = load_engine path in
  let idx = Xk_core.Engine.index eng in
  let label = Xk_core.Engine.label eng in
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
    (mb r.rdil.inverted_lists) (mb r.rdil.auxiliary)

let stats_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "stats" ~doc:"Corpus statistics and index sizes.")
    Term.(const stats $ path)

(* ------------------------------------------------------------------ *)

let terms path near count =
  let eng = load_engine path in
  let idx = Xk_core.Engine.index eng in
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
  if !shown = 0 then Printf.printf "no terms with frequency near %d\n" near

let terms_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let near =
    Arg.(value & opt int 100 & info [ "near" ] ~doc:"Target document frequency.")
  in
  let count = Arg.(value & opt int 20 & info [ "count" ] ~doc:"Terms to list.") in
  Cmd.v
    (Cmd.info "terms" ~doc:"List terms near a document frequency.")
    Term.(const terms $ path $ near $ count)

(* ------------------------------------------------------------------ *)

(* Long-lived shard server: load the manifest (the full manifest — per
   shard scoring needs corpus-global statistics, so every shard's
   dictionary must be present), then answer this one shard's queries
   over the frame protocol until killed. *)
let serve_shard path index_file shard replica port host workers chaos =
  (match chaos with
  | None -> ()
  | Some spec -> install_chaos ~index_file:(Some index_file) spec);
  let sharded = load_sharded ~index_file ~shards:1 path in
  let server =
    Xk_exec.Shard_server.create ~sharding:sharded ~shard ~replica
  in
  match Xk_exec.Shard_server.serve ~host ~port server with
  | Error msg -> failwith (Printf.sprintf "serve-shard: %s" msg)
  | Ok listener ->
      (* Ephemeral ports (--port 0) are announced so a harness can
         collect the bound address before sending traffic. *)
      Printf.printf "serving shard %d replica %d on %s:%d\n%!" shard replica
        (Xk_rpc.Server.host listener)
        (Xk_rpc.Server.port listener);
      Xk_rpc.Server.run ~workers listener
        ~handler:(Xk_exec.Shard_server.dispatch server)

let serve_shard_cmd =
  let path = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let index_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "index" ]
          ~doc:"Shard manifest (from `xkq index --shards`).")
  in
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
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ]
          ~doc:
            "Connection-serving domains.  1 (default) serves connections \
             inline on the accept loop; more lets several clients drain \
             replies concurrently from one zero-copy segment.")
  in
  let chaos =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ]
          ~doc:
            "Chaos schedule applied server-side (same syntax as `xkq \
             batch --chaos`); an armed kill@ closes connections without a \
             reply.")
  in
  Cmd.v
    (Cmd.info "serve-shard"
       ~doc:"Serve one index shard over the binary RPC protocol."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Loads the shard manifest and answers per-shard query frames \
              for one (shard, replica) identity until the process is \
              killed.  A fleet of these — one per replica recorded in the \
              manifest's endpoints — backs `xkq batch --remote` and `xkq \
              search --remote`.";
         ])
    Term.(
      const serve_shard $ path $ index_file $ shard $ replica $ port $ host
      $ workers $ chaos)

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
          (match Xk_index.Shard_io.partition_spec index_file with
          | Error e -> failwith (Xk_index.Shard_io.error_message e)
          | Ok (shards, assignment) ->
              let doc = Xk_xml.Xml_parser.parse_file_exn path in
              Xk_index.Sharding.partition ~assignment ~shards doc)
      in
      fun ~shard -> Some (Xk_index.Sharding.index (Lazy.force sharded) shard))
    corpus

let heal corpus index_file do_repair slice throttle_ms budget_ms =
  let budget =
    Option.map
      (fun ms -> Xk_resilience.Budget.create ~deadline_ms:ms ())
      budget_ms
  in
  match Xk_index.Repair.scrub ?budget ~slice ~throttle_ms index_file with
  | Error e ->
      Printf.eprintf "heal: %s\n" (Xk_index.Shard_io.error_message e);
      exit 1
  | Ok report ->
      List.iter
        (fun (e : Xk_resilience.Scrub.entry) ->
          match e.e_status with
          | Xk_resilience.Scrub.Clean -> ()
          | Xk_resilience.Scrub.Missing ->
              Printf.printf "s%dr%d %s: missing\n" e.e_shard e.e_replica
                e.e_file
          | Xk_resilience.Scrub.Damaged msg ->
              Printf.printf "s%dr%d %s: damaged (%s)\n" e.e_shard e.e_replica
                e.e_file msg)
        report.entries;
      print_endline (Xk_resilience.Scrub.summary_line report);
      if not do_repair then begin
        if not (Xk_resilience.Scrub.healthy report) then exit 2
      end
      else begin
        let summary =
          Xk_index.Repair.repair
            ?rebuild:(rebuild_source ~index_file corpus)
            report
        in
        List.iter
          (fun o -> print_endline (Xk_index.Repair.outcome_line o))
          summary.outcomes;
        print_endline (Xk_index.Repair.summary_line summary);
        if summary.unrepairable > 0 || not report.complete then exit 2
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
  let index_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "index" ] ~doc:"Shard manifest (from `xkq index --shards`).")
  in
  let do_repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:"Rewrite damaged/missing copies instead of only reporting.")
  in
  let slice =
    Arg.(
      value & opt int 4
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
  Cmd.v
    (Cmd.info "heal"
       ~doc:"Scrub a shard manifest's replicas and repair damaged copies."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Re-validates every replica segment recorded in the manifest \
              through the full v4 verification path and classifies each \
              copy clean, damaged, or missing.  With $(b,--repair), damaged \
              and missing copies are rewritten from a surviving clean \
              replica (atomic write + post-write verify) or rebuilt from \
              the corpus.  Exit class: 0 all clean (or all healed), 1 \
              manifest error, 2 damage remains.";
         ])
    Term.(
      const heal $ corpus $ index_file $ do_repair $ slice $ throttle_ms
      $ budget_ms)

(* ------------------------------------------------------------------ *)

let supervise corpus index_file interval_ms backoff_ms backoff_cap_ms flap_cap
    grace_ms heal_every cycles state_dir seed workers =
  let eps = remote_endpoints ~index_file:(Some index_file) in
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
  if not (Sys.file_exists state_dir) then Unix.mkdir state_dir 0o755;
  let label = Xk_exec.Supervisor.spec_label in
  let state_file spec ext = Filename.concat state_dir (label spec ^ ext) in
  let exe = Sys.executable_name in
  let spawn (spec : Xk_exec.Supervisor.spec) =
    try
      let log =
        Unix.openfile
          (state_file spec ".log")
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      let args =
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
      let pid = Unix.create_process exe args Unix.stdin log log in
      Unix.close log;
      Out_channel.with_open_text (state_file spec ".pid") (fun oc ->
          Printf.fprintf oc "%d\n" pid);
      Ok pid
    with exn -> Error (Printexc.to_string exn)
  in
  let alive pid =
    (* Children are reaped here: WNOHANG returns 0 while the process
       runs and collects the zombie the cycle after a kill or crash. *)
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
  let ping (spec : Xk_exec.Supervisor.spec) =
    match
      Xk_rpc.Client.ping ~timeout_ms:1000. ~host:spec.sv_host
        ~port:spec.sv_port ()
    with
    | () -> true
    | exception _ -> false
  in
  let heal () =
    match Xk_index.Repair.scrub ~throttle_ms:1.0 index_file with
    | Error e -> failwith (Xk_index.Shard_io.error_message e)
    | Ok report ->
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
      ~procs:{ spawn; alive; kill; ping }
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
    (Xk_exec.Supervisor.status_line sup)

let supervise_cmd =
  let corpus =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
  in
  let index_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "index" ]
          ~doc:
            "Shard manifest with recorded endpoints (from `xkq index \
             --shards --rpc-base-port`).")
  in
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
  let workers =
    Arg.(
      value & opt int 1
      & info [ "workers" ] ~doc:"Connection-serving domains per server.")
  in
  Cmd.v
    (Cmd.info "supervise"
       ~doc:"Keep a serve-shard fleet running, healing data and processes."
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Spawns one serve-shard process per (shard, replica) endpoint \
              recorded in the manifest and supervises the fleet: dead or \
              unresponsive servers are restarted with decorrelated-jitter \
              backoff, persistent crashers are quarantined after \
              $(b,--flap-cap) consecutive failures, and every \
              $(b,--heal-every) cycles the replica files are scrubbed and \
              damaged copies repaired from surviving replicas (or rebuilt \
              from the corpus).  One fleet status line is printed per \
              cycle.  SIGTERM/SIGINT stop the loop and kill the children.";
         ])
    Term.(
      const supervise $ corpus $ index_file $ interval_ms $ backoff_ms
      $ backoff_cap_ms $ flap_cap $ grace_ms $ heal_every $ cycles
      $ state_dir $ seed $ workers)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "xkq" ~version:"1.0.0"
      ~doc:"Top-K keyword search in XML databases (ICDE 2010 reproduction)."
  in
  exit
    (Cmd.eval ~term_err:1
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
