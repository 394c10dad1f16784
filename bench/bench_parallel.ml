(* Parallel-serving throughput experiment: sweep the domain-pool size
   of a one-shard Shard_exec over a generated DBLP workload and record
   queries/sec per domain count in BENCH_parallel.json.

     dune exec bench/bench_parallel.exe                  # defaults
     dune exec bench/bench_parallel.exe -- --scale 0.5 --queries 200

   The workload mixes complete ELCA, complete SLCA and top-10 requests
   (all join-based), mirroring a heterogeneous serving mix rather than
   the paper's one-algorithm-at-a-time timing runs.  Every sweep point
   re-checks that the parallel results are identical to sequential
   execution, so the numbers are only reported for correct runs. *)

open Bench_util

type point = {
  domains : int;
  wall_s : float;
  qps : float;
  speedup : float; (* vs the 1-domain point *)
}

let build_workload eng ~queries ~seed =
  let idx = Xk_core.Engine.index eng in
  let rng = Xk_datagen.Rng.create seed in
  let high = Xk_workload.Workload.max_df idx in
  let low = max 2 (high / 20) in
  let qs = Xk_workload.Workload.random_queries rng idx ~k:2 ~high ~low ~n:queries in
  List.concat_map
    (fun q ->
      [
        Xk_core.Engine.complete_request ~semantics:Elca q;
        Xk_core.Engine.complete_request ~semantics:Slca q;
        Xk_core.Engine.topk_request ~semantics:Elca ~k:10 q;
      ])
    qs

let same_results a b =
  List.for_all2
    (fun xs ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
             x.node = y.node && x.score = y.score)
           xs ys)
    a b

(* Outcome counters accumulated across the whole sweep.  On a clean run
   (no deadlines, no faults, no admission bound) everything lands in
   [completed] and the rest stay zero — the JSON records that. *)
type totals = {
  mutable completed : int;
  mutable partials : int;
  mutable timeouts : int;
  mutable rejected : int;
  mutable failed : int;
}

let run_sweep eng sharding reqs ~runs ~sweep =
  let reference = Xk_core.Engine.query_batch eng reqs in
  let n = List.length reqs in
  let totals =
    { completed = 0; partials = 0; timeouts = 0; rejected = 0; failed = 0 }
  in
  let points =
    List.map
      (fun domains ->
        let sx = Xk_exec.Shard_exec.create ~domains sharding in
        (* One warmup run, then [runs] timed runs. *)
        let first = Xk_exec.Shard_exec.exec_batch sx reqs in
        let all_ok =
          List.for_all
            (function Xk_exec.Query_service.Ok _ -> true | _ -> false)
            first
        in
        if
          (not all_ok)
          || not (same_results reference (List.map Xk_exec.Query_service.hits first))
        then
          failwith
            (Printf.sprintf "domains=%d: parallel results differ from sequential"
               domains);
        let t0 = now () in
        for _ = 1 to runs do
          ignore (Xk_exec.Shard_exec.exec_batch sx reqs)
        done;
        let wall_s = (now () -. t0) /. float_of_int runs in
        let st = Xk_exec.Shard_exec.stats sx in
        totals.completed <- totals.completed + st.completed;
        totals.partials <- totals.partials + st.partials;
        totals.timeouts <- totals.timeouts + st.timeouts;
        totals.rejected <- totals.rejected + st.rejected;
        totals.failed <- totals.failed + st.failed;
        Xk_exec.Shard_exec.shutdown sx;
        let qps = float_of_int n /. wall_s in
        Printf.printf "  domains=%d: %.3fs/batch, %.1f q/s\n%!" domains wall_s
          qps;
        { domains; wall_s; qps; speedup = 0. })
      sweep
  in
  let base =
    match points with [] -> 1. | p :: _ -> p.qps
  in
  (List.map (fun p -> { p with speedup = p.qps /. base }) points, totals)

let emit_json out ~scale ~queries ~runs ~cores ~nodes ~terms points totals cache =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"experiment\": \"domain-pool throughput sweep\",\n";
  p "  \"corpus\": {\"dataset\": \"dblp\", \"scale\": %g, \"nodes\": %d, \"terms\": %d},\n"
    scale nodes terms;
  p "  \"workload\": {\"queries\": %d, \"requests_per_batch\": %d, \"runs\": %d},\n"
    queries (queries * 3) runs;
  p "  \"host_cores\": %d,\n" cores;
  p "  \"single_core_warning\": %b,\n" (cores <= 1);
  p "  \"note\": \"speedup is relative to the 1-domain point; on a single-core host (single_core_warning) the sweep degenerates to overhead measurement\",\n";
  p "  \"sweep\": [\n";
  List.iteri
    (fun i pt ->
      p
        "    {\"domains\": %d, \"batch_wall_s\": %.4f, \"qps\": %.1f, \"speedup\": %.2f}%s\n"
        pt.domains pt.wall_s pt.qps pt.speedup
        (if i = List.length points - 1 then "" else ","))
    points;
  p "  ],\n";
  p
    "  \"outcomes\": {\"completed\": %d, \"partials\": %d, \"timeouts\": %d, \"rejected\": %d, \"failed\": %d},\n"
    totals.completed totals.partials totals.timeouts totals.rejected
    totals.failed;
  let c : Xk_index.Shard_cache.stats = cache in
  p
    "  \"cache\": {\"hits\": %d, \"misses\": %d, \"evictions\": %d, \"entries\": %d, \"capacity\": %d}\n"
    c.hits c.misses c.evictions c.entries c.capacity;
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

let run scale queries runs seed out =
  header "Parallel serving: domain sweep (DBLP workload)";
  let t0 = now () in
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled scale) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Xk_index.Index.build label in
  let eng = Xk_core.Engine.of_index idx in
  let sharding = Xk_index.Sharding.partition ~shards:1 corpus.doc in
  let nodes = Xk_encoding.Labeling.node_count label in
  let terms = Xk_index.Index.term_count idx in
  Printf.printf "corpus: %d nodes, %d terms (%.1fs)\n%!" nodes terms (now () -. t0);
  let reqs = build_workload eng ~queries ~seed in
  Printf.printf "workload: %d requests/batch (ELCA + SLCA + top-10 per query)\n%!"
    (List.length reqs);
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host: %d recommended domain(s)\n%!" cores;
  let points, totals = run_sweep eng sharding reqs ~runs ~sweep:[ 1; 2; 4; 8 ] in
  emit_json out ~scale ~queries ~runs ~cores ~nodes ~terms points totals
    (Xk_index.Sharding.cache_stats sharding)

open Cmdliner

let scale =
  Arg.(value & opt float 0.2 & info [ "scale" ] ~doc:"DBLP corpus scale factor.")

let queries =
  Arg.(
    value & opt int 100
    & info [ "queries" ] ~doc:"Keyword queries per batch (3 requests each).")

let runs =
  Arg.(value & opt int 3 & info [ "runs" ] ~doc:"Timed runs per sweep point.")

let seed = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Workload seed.")

let out =
  Arg.(
    value
    & opt string "BENCH_parallel.json"
    & info [ "out" ] ~doc:"JSON output path.")

let cmd =
  Cmd.v
    (Cmd.info "bench_parallel"
       ~doc:"Throughput sweep of one-shard Shard_exec serving over domain counts.")
    Term.(const run $ scale $ queries $ runs $ seed $ out)

let () = exit (Cmd.eval cmd)
