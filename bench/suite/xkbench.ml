(* xkbench: the repository's benchmark.

     xkbench run --workload warm_zipf --seed 2010 --seconds 5 --trace 0
     xkbench compare PARENT.jsonl CHANGE.jsonl
     xkbench smoke

   [run] measures one workload in this process and prints every metric
   as "workload metric value unit", then, as its last line, one JSON
   object with the metrics BENCHMARK.json names for the mode (its
   end-to-end metrics untraced, its per-layer metrics traced).  It exits
   1 when any answer differs from the sequential engine.  [--out FILE]
   appends the full record, with host, corpus and sample sizes, to a
   JSON-lines file that [compare] reads.  README.md has the details. *)

open Cmdliner

let work_root = ".xkbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

(* The benchmark measures the system without injected faults, whatever
   the environment says. *)
let no_faults () = Xk_resilience.Fault_injection.configure Xk_resilience.Fault_injection.none

let run_workload ~size ~trace ~seed ~seconds workload =
  ensure_dir work_root;
  let dir =
    Workloads.fresh_dir
      (Filename.concat work_root (Printf.sprintf "%s-%d" workload (Unix.getpid ())))
  in
  Fun.protect
    ~finally:(fun () -> Workloads.rm_rf dir)
    (fun () -> Workloads.run workload { seed; seconds; trace; size; dir })

let metric_json (x : Workloads.metric) =
  Json.Obj [ ("value", Json.Num x.value); ("unit", Json.Str x.unit_) ]

(* The metric names BENCHMARK.json lists under [section]. *)
let declared benchmark section =
  match Json.member section benchmark with
  | Some (Json.Arr l) -> List.filter_map (fun e -> Option.bind (Json.member "name" e) Json.to_str) l
  | _ -> failwith (Printf.sprintf "BENCHMARK.json: no %s list" section)

let run workload seed seconds trace benchmark out =
  no_faults ();
  let spec = Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all) in
  let section = if trace then "per_layer" else "end_to_end" in
  let wanted = declared spec section in
  let r =
    run_workload ~size:Workloads.Full ~trace ~seed ~seconds:(float_of_int seconds) workload
  in
  List.iter
    (fun (x : Workloads.metric) ->
      Printf.printf "%s %s %.17g %s\n" workload x.name x.value x.unit_)
    r.metrics;
  if trace then
    Trace.write r.spans
      (Filename.concat work_root (Printf.sprintf "spans-%s-%d.tsv" workload seed));
  let picked =
    List.map
      (fun name ->
        match List.find_opt (fun (x : Workloads.metric) -> x.name = name) r.metrics with
        | Some x -> (name, metric_json x)
        | None -> failwith (Printf.sprintf "%s did not produce metric %s" workload name))
      wanted
  in
  let correct = r.mismatches = 0 in
  let line =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int r.attempted));
        ("failed", Json.Num (float_of_int r.failed));
        ("metrics", Json.Obj picked);
      ]
  in
  Option.iter
    (fun path ->
      let record =
        Json.Obj
          ([
             ("workload", Json.Str workload);
             ("seed", Json.Num (float_of_int seed));
             ("trace", Json.Bool trace);
             ("seconds", Json.Num (float_of_int seconds));
             ("unix_time", Json.Num (Unix.gettimeofday ()));
             ("correct", Json.Bool correct);
             ("attempted", Json.Num (float_of_int r.attempted));
             ("failed", Json.Num (float_of_int r.failed));
             ( "metrics",
               Json.Obj (List.map (fun (x : Workloads.metric) -> (x.name, metric_json x)) r.metrics) );
           ]
          @ r.context)
      in
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          output_string oc (Json.to_string record ^ "\n")))
    out;
  print_endline (Json.to_string line);
  if correct then 0 else 1

(* Every workload at a tiny size, traced (which runs the production loop
   and then the replay), with every answer checked: the harness must
   still build and agree with the engine.  No timing is reported.  Each
   workload runs in its own child process, as it does under [run]: the
   input preparation forks, which a process may only do before it has
   created a domain. *)
let smoke () =
  no_faults ();
  let passes w =
    flush_all ();
    match Unix.fork () with
    | 0 ->
        let code =
          match run_workload ~size:Workloads.Smoke ~trace:true ~seed:7 ~seconds:0. w with
          | r ->
              Printf.printf "smoke %s: %d attempted, %d failed, %d mismatches\n%!" w
                r.attempted r.failed r.mismatches;
              if r.failed = 0 && r.mismatches = 0 then 0 else 1
          | exception e ->
              Printf.printf "smoke %s: %s\n%!" w (Printexc.to_string e);
              2
        in
        Unix._exit code
    | pid -> ( match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
  in
  if List.for_all Fun.id (List.map passes Workloads.names) then 0 else 1

let compare_cmd parent change benchmark =
  let spec = Json.of_string (In_channel.with_open_bin benchmark In_channel.input_all) in
  Verdict.report ~spec ~parent ~change;
  0

let workload =
  Arg.(required & opt (some (enum (List.map (fun w -> (w, w)) Workloads.names))) None
       & info [ "workload" ] ~doc:"Workload to run.")

let seed = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Workload seed (7 is held out for claim re-checks).")
let seconds = Arg.(value & opt int 10 & info [ "seconds" ] ~doc:"Measured seconds.")

let trace =
  Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false
       & info [ "trace" ] ~doc:"1: report the per-layer metrics of a traced replay.")

let benchmark =
  Arg.(value & opt file "BENCHMARK.json" & info [ "benchmark" ] ~doc:"The benchmark definition.")

let out =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~doc:"Append the full result record to this JSON-lines file.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Measure one workload.")
    Term.(const run $ workload $ seed $ seconds $ trace $ benchmark $ out)

let smoke_cmd = Cmd.v (Cmd.info "smoke" ~doc:"Tiny parity-only run of every workload.") Term.(const smoke $ const ())

let compare_t =
  let pos i name = Arg.(required & pos i (some file) None & info [] ~docv:name) in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge a change against its parent from paired runs.")
    Term.(const compare_cmd $ pos 0 "PARENT.jsonl" $ pos 1 "CHANGE.jsonl" $ benchmark)

let () =
  exit (Cmd.eval' (Cmd.group (Cmd.info "xkbench" ~doc:"The xkeyword benchmark.") [ run_cmd; compare_t; smoke_cmd ]))
