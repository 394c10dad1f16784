(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section V) on the synthetic DBLP-like and XMark-like
   corpora, plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- --quick      # reduced query counts
     dune exec bench/main.exe -- --only fig9 --scale 2.0
     dune exec bench/main.exe -- --only ingest   # live ingest steps
     dune exec bench/main.exe -- --only alloc --scale 0.2   # heap words/request

   Absolute times differ from the paper's 2007-era testbed; the shapes
   (who wins, by what factor, where the crossovers fall) are the point.
   EXPERIMENTS.md records paper-vs-measured for each artifact. *)

open Bench_util

type config = {
  scale : float;
  queries : int; (* queries per bucket (paper: 40) *)
  runs : int;    (* repetitions per query (paper: 5) *)
  seed : int;
  only : string list; (* empty = all *)
}

let wants cfg name = cfg.only = [] || List.mem name cfg.only

(* ------------------------------------------------------------------ *)
(* Corpora                                                             *)

type dataset = {
  ds_name : string;
  eng : Xk_core.Engine.t;
  correlated : string list list;
  uncorrelated : string list list;
}

let load_dblp cfg =
  let t0 = now () in
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled cfg.scale) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Xk_index.Index.build label in
  Printf.printf
    "DBLP-like corpus: %d papers, %d nodes, height %d, %d terms (%.1fs)\n%!"
    corpus.total_papers
    (Xk_encoding.Labeling.node_count label)
    (Xk_encoding.Labeling.height label)
    (Xk_index.Index.term_count idx)
    (now () -. t0);
  {
    ds_name = "DBLP";
    eng = Xk_core.Engine.of_index idx;
    correlated = corpus.correlated_queries;
    uncorrelated = corpus.uncorrelated_queries;
  }

let load_xmark cfg =
  let t0 = now () in
  let corpus = Xk_datagen.Xmark_gen.generate (Xk_datagen.Xmark_gen.scaled cfg.scale) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Xk_index.Index.build label in
  Printf.printf
    "XMark-like corpus: %d items, %d nodes, height %d, %d terms (%.1fs)\n%!"
    corpus.total_items
    (Xk_encoding.Labeling.node_count label)
    (Xk_encoding.Labeling.height label)
    (Xk_index.Index.term_count idx)
    (now () -. t0);
  {
    ds_name = "XMark";
    eng = Xk_core.Engine.of_index idx;
    correlated = corpus.correlated_queries;
    uncorrelated = [];
  }

let warm_query ds q =
  let idx = Xk_core.Engine.index ds.eng in
  Xk_index.Index.warm idx (List.filter_map (Xk_index.Index.term_id idx) q)

(* ------------------------------------------------------------------ *)
(* Table I: index sizes                                                *)

let table1 cfg datasets =
  if wants cfg "table1" then begin
    header "Table I: index sizes (MB)";
    Printf.printf
      "(IL = inverted lists incl. dictionary; aux = sparse indices / B-trees)\n";
    row
      [ scell 14 "algorithm"; scell 12 "structure";
        scell 10 (List.nth datasets 0).ds_name;
        scell 10 (List.nth datasets 1).ds_name ];
    let reports =
      List.map
        (fun ds -> Xk_index.Index_sizes.report (Xk_core.Engine.index ds.eng))
        datasets
    in
    let line name structure get =
      row
        ([ scell 14 name; scell 12 structure ]
        @ List.map (fun (r : Xk_index.Index_sizes.report) -> fcell 10 (mb (get r))) reports)
    in
    line "join-based" "IL" (fun r -> r.join_based.inverted_lists);
    line "" "sparse" (fun r -> r.join_based.auxiliary);
    line "stack-based" "IL" (fun r -> r.stack_based.inverted_lists);
    line "index-based" "B-tree" (fun r -> r.index_based.inverted_lists);
    line "topk-join" "IL" (fun r -> r.topk_join.inverted_lists);
    line "" "sparse" (fun r -> r.topk_join.auxiliary);
    line "RDIL" "IL" (fun r -> r.rdil.inverted_lists);
    line "" "B-trees" (fun r -> r.rdil.auxiliary)
  end

(* ------------------------------------------------------------------ *)
(* Figure 9: complete-result query performance                         *)

let complete_algorithms =
  [
    ("join", Xk_core.Engine.Join_based);
    ("stack", Xk_core.Engine.Stack_based);
    ("indexed", Xk_core.Engine.Index_based);
  ]

let mean_time_over_queries cfg ds queries run_query =
  let total = ref 0. in
  List.iter
    (fun q ->
      warm_query ds q;
      total := !total +. time_ms ~runs:cfg.runs (fun () -> run_query q))
    queries;
  !total /. float_of_int (max 1 (List.length queries))

let low_freq_buckets high = List.filter (fun b -> b * 4 < high) [ 10; 100; 1000; 10_000 ]

let fig9 cfg ds =
  if wants cfg "fig9" then begin
    let idx = Xk_core.Engine.index ds.eng in
    let rng = Xk_datagen.Rng.create cfg.seed in
    let high = Xk_workload.Workload.max_df idx in
    header
      (Printf.sprintf
         "Figure 9(a)-(d): complete ELCA results, high freq = %d, %d queries x %d runs per point"
         high cfg.queries cfg.runs);
    List.iter
      (fun k ->
        subheader (Printf.sprintf "fig9, k = %d keywords (time ms)" k);
        row
          ([ scell 10 "low freq" ]
          @ List.map (fun (n, _) -> scell 10 n) complete_algorithms);
        List.iter
          (fun low ->
            let queries =
              Xk_workload.Workload.random_queries rng idx ~k ~high ~low
                ~n:cfg.queries
            in
            let cells =
              List.map
                (fun (_, algorithm) ->
                  fcell 10
                    (mean_time_over_queries cfg ds queries (fun q ->
                         Xk_core.Engine.query ~algorithm ds.eng q)))
                complete_algorithms
            in
            row (icell 10 low :: cells))
          (low_freq_buckets high))
      [ 2; 3; 4; 5 ];
    header "Figure 9(e)-(f): equal keyword frequencies";
    List.iter
      (fun k ->
        subheader (Printf.sprintf "fig9 equal-freq, k = %d keywords (time ms)" k);
        row
          ([ scell 10 "freq" ]
          @ List.map (fun (n, _) -> scell 10 n) complete_algorithms);
        List.iter
          (fun freq ->
            let queries =
              Xk_workload.Workload.equal_freq_queries rng idx ~k ~freq
                ~n:cfg.queries
            in
            let cells =
              List.map
                (fun (_, algorithm) ->
                  fcell 10
                    (mean_time_over_queries cfg ds queries (fun q ->
                         Xk_core.Engine.query ~algorithm ds.eng q)))
                complete_algorithms
            in
            row (icell 10 freq :: cells))
          (List.filter (fun f -> f * 2 < high) [ 100; 300; 1000; 3000 ]))
      [ 2; 3 ]
  end

(* ------------------------------------------------------------------ *)
(* Figure 10: top-10 performance                                       *)

let topk_algorithms =
  [
    ("topk-join", Xk_core.Engine.Topk_join);
    ("complete", Xk_core.Engine.Complete_then_sort);
    ("RDIL", Xk_core.Engine.Rdil_baseline);
  ]

let fig10_random cfg ds =
  if wants cfg "fig10" then begin
    let idx = Xk_core.Engine.index ds.eng in
    let rng = Xk_datagen.Rng.create (cfg.seed + 1) in
    let high = Xk_workload.Workload.max_df idx in
    header
      (Printf.sprintf
         "Figure 10(a): top-10, random (low-correlation) queries, k = 2, high = %d"
         high);
    row
      ([ scell 10 "low freq" ]
      @ List.map (fun (n, _) -> scell 12 n) topk_algorithms
      @ [ scell 10 "results" ]);
    List.iter
      (fun low ->
        let queries =
          Xk_workload.Workload.random_queries rng idx ~k:2 ~high ~low
            ~n:cfg.queries
        in
        let result_count =
          List.fold_left
            (fun acc q -> acc + List.length (Xk_core.Engine.query ds.eng q))
            0 queries
          / max 1 (List.length queries)
        in
        let cells =
          List.map
            (fun (_, algorithm) ->
              fcell 12
                (mean_time_over_queries cfg ds queries (fun q ->
                     Xk_core.Engine.query_topk ~algorithm ds.eng q ~k:10)))
            topk_algorithms
        in
        row ((icell 10 low :: cells) @ [ icell 10 result_count ]))
      (low_freq_buckets high)
  end

let fig10_correlated cfg ds ~fig =
  if wants cfg "fig10" then begin
    header
      (Printf.sprintf "Figure 10(%s): top-10, correlated queries (%s)" fig
         ds.ds_name);
    row
      ([ scell 28 "query" ]
      @ List.map (fun (n, _) -> scell 12 n) topk_algorithms
      @ [ scell 10 "results" ]);
    let run_query_set label q =
      warm_query ds q;
      let result_count = List.length (Xk_core.Engine.query ds.eng q) in
      let cells =
        List.map
          (fun (_, algorithm) ->
            fcell 12
              (time_ms ~runs:cfg.runs (fun () ->
                   Xk_core.Engine.query_topk ~algorithm ds.eng q ~k:10)))
          topk_algorithms
      in
      row ((scell 28 label :: cells) @ [ icell 10 result_count ])
    in
    List.iter
      (fun q -> run_query_set ("{" ^ String.concat " " q ^ "}") q)
      ds.correlated;
    if ds.uncorrelated <> [] then begin
      Printf.printf "(frequency-matched uncorrelated controls:)\n";
      List.iter
        (fun q -> run_query_set ("{" ^ String.concat " " q ^ "}") q)
        ds.uncorrelated
    end
  end

(* ------------------------------------------------------------------ *)
(* Motivation: result-size blowup of the naive LCA semantics           *)

let motivation cfg ds =
  if wants cfg "motivation" then begin
    header
      "Motivation (Sections I, II-A): result sizes under the naive LCA semantics";
    let idx = Xk_core.Engine.index ds.eng in
    let rng = Xk_datagen.Rng.create (cfg.seed + 9) in
    row
      [ scell 4 "k"; scell 16 "combinations"; scell 14 "distinct LCAs";
        scell 10 "ELCAs"; scell 10 "SLCAs" ];
    List.iter
      (fun k ->
        let queries =
          Xk_workload.Workload.equal_freq_queries rng idx ~k ~freq:300
            ~n:(max 5 (cfg.queries / 2))
        in
        let combos = ref 0. and lcas = ref 0 and elcas = ref 0 and slcas = ref 0 in
        let m = List.length queries in
        List.iter
          (fun q ->
            let ids = Xk_index.Index.term_ids_exn idx q in
            combos := !combos +. Xk_baselines.Naive_lca.combination_count idx ids;
            lcas := !lcas + List.length (Xk_baselines.Naive_lca.lca_set idx ids);
            elcas := !elcas + List.length (Xk_core.Engine.query ds.eng q);
            slcas :=
              !slcas
              + List.length
                  (Xk_core.Engine.query ~semantics:Xk_core.Engine.Slca ds.eng q))
          queries;
        let fm = float_of_int (max 1 m) in
        row
          [ icell 4 k;
            (16, Printf.sprintf "%.2e" (!combos /. fm));
            fcell 14 (float_of_int !lcas /. fm);
            fcell 10 (float_of_int !elcas /. fm);
            fcell 10 (float_of_int !slcas /. fm) ])
      [ 2; 3; 4; 5 ]
  end

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

(* A1: the paper's tightened star-join threshold vs the classic HRJN
   bound, on the keyword top-K operator itself. *)
let ablation_threshold cfg ds =
  if wants cfg "ablations" then begin
    header
      "Ablation A1: star-join threshold (Section IV-B) - Tight vs Classic, top-10";
    row
      [ scell 28 "query"; scell 12 "tight ms"; scell 12 "classic ms";
        scell 12 "tight pulls"; scell 14 "classic pulls" ];
    let idx = Xk_core.Engine.index ds.eng in
    let damping = Xk_index.Index.damping idx in
    List.iter
      (fun q ->
        warm_query ds q;
        match
          List.map (fun w -> Xk_index.Index.term_id idx w) q
          |> List.filter_map Fun.id
        with
        | ids when List.length ids = List.length q ->
            let slists =
              Array.of_list (List.map (Xk_index.Index.score_list idx) ids)
            in
            let run threshold =
              let stats = Xk_core.Topk_keyword.new_stats () in
              let t =
                time_ms ~runs:cfg.runs (fun () ->
                    Xk_core.Topk_keyword.topk ~stats ~threshold slists damping
                      ~k:10)
              in
              (t, stats.pulled / (cfg.runs + 1))
            in
            let t_tight, p_tight = run Xk_core.Topk_keyword.Tight in
            let t_classic, p_classic = run Xk_core.Topk_keyword.Classic in
            row
              [ scell 28 ("{" ^ String.concat " " q ^ "}");
                fcell 12 t_tight; fcell 12 t_classic;
                icell 12 p_tight; icell 14 p_classic ]
        | _ -> ())
      ds.correlated
  end

(* A2: dynamic join-algorithm selection (Section III-C) vs forced plans. *)
let ablation_joinplan cfg ds =
  if wants cfg "ablations" then begin
    header "Ablation A2: join plan (Section III-C) - dynamic vs forced, ELCA";
    let idx = Xk_core.Engine.index ds.eng in
    let rng = Xk_datagen.Rng.create (cfg.seed + 2) in
    let high = Xk_workload.Workload.max_df idx in
    row
      [ scell 16 "workload"; scell 10 "dynamic"; scell 10 "merge";
        scell 10 "index" ];
    let plans =
      [
        Xk_core.Level_join.Dynamic;
        Xk_core.Level_join.Force_merge;
        Xk_core.Level_join.Force_index;
      ]
    in
    let measure name queries =
      let cells =
        List.map
          (fun plan ->
            fcell 10
              (mean_time_over_queries cfg ds queries (fun q ->
                   Xk_core.Engine.query ~plan ds.eng q)))
          plans
      in
      row (scell 16 name :: cells)
    in
    measure "skewed low=10"
      (Xk_workload.Workload.random_queries rng idx ~k:3 ~high ~low:10
         ~n:cfg.queries);
    measure "skewed low=100"
      (Xk_workload.Workload.random_queries rng idx ~k:3 ~high ~low:100
         ~n:cfg.queries);
    measure "equal freq"
      (Xk_workload.Workload.equal_freq_queries rng idx ~k:3 ~freq:(high / 4)
         ~n:(max 5 (cfg.queries / 4)))
  end

(* Section V's aside: "query execution time for the SLCA semantics is
   around the same as the ELCA semantics for any algorithm". *)
let semantics_check cfg ds =
  if wants cfg "ablations" then begin
    header "Semantics check (Section V): ELCA vs SLCA execution time";
    let idx = Xk_core.Engine.index ds.eng in
    let rng = Xk_datagen.Rng.create (cfg.seed + 4) in
    let high = Xk_workload.Workload.max_df idx in
    let queries =
      Xk_workload.Workload.random_queries rng idx ~k:3 ~high ~low:100
        ~n:cfg.queries
    in
    row [ scell 12 "algorithm"; scell 10 "ELCA ms"; scell 10 "SLCA ms" ];
    List.iter
      (fun (name, algorithm) ->
        let t semantics =
          mean_time_over_queries cfg ds queries (fun q ->
              Xk_core.Engine.query ~semantics ~algorithm ds.eng q)
        in
        row
          [ scell 12 name;
            fcell 10 (t Xk_core.Engine.Elca);
            fcell 10 (t Xk_core.Engine.Slca) ])
      complete_algorithms
  end

(* A3: gapped JDewey numbering (maintenance headroom, Section III-A) -
   index size and query time cost of reserving insertion space. *)
let ablation_gap cfg =
  if wants cfg "ablations" then begin
    header "Ablation A3: JDewey gap (Section III-A maintenance headroom)";
    let corpus =
      Xk_datagen.Dblp_gen.generate
        (Xk_datagen.Dblp_gen.scaled (cfg.scale /. 4.))
    in
    row
      [ scell 8 "gap"; scell 14 "join IL (MB)"; scell 14 "query ms" ];
    List.iter
      (fun gap ->
        let label = Xk_encoding.Labeling.label ~gap corpus.doc in
        let idx = Xk_index.Index.build label in
        let eng = Xk_core.Engine.of_index idx in
        let sizes = Xk_index.Index_sizes.report idx in
        let rng = Xk_datagen.Rng.create cfg.seed in
        let high = Xk_workload.Workload.max_df idx in
        let queries =
          Xk_workload.Workload.random_queries rng idx ~k:2 ~high ~low:100
            ~n:(max 5 (cfg.queries / 4))
        in
        let ds =
          { ds_name = "gap"; eng; correlated = []; uncorrelated = [] }
        in
        let t =
          mean_time_over_queries cfg ds queries (fun q ->
              Xk_core.Engine.query eng q)
        in
        row
          [ icell 8 gap;
            fcell 14 (mb sizes.join_based.inverted_lists);
            fcell 14 t ])
      [ 1; 4; 16; 64 ]
  end

(* ------------------------------------------------------------------ *)
(* Disk I/O: the columns Algorithm 1 reads (Fig. 2, Section III-B)    *)

(* Counted from the lists queries are served from ([Index.jlist]) in
   Table I's join-based layout: a list stores every level's column plus
   its node ids, and the join reads only the levels [lmin .. 1] of each
   list, where [lmin] is the shallowest list's depth, so the columns of
   the deeper levels are bytes it never reads. *)
let disk cfg ds =
  if wants cfg "disk" then begin
    header "Disk I/O (Figure 2 / Section III-B): column-at-a-time reads";
    Printf.printf
      "(stored = the lists' Table I join layout; decoded = levels lmin..1, \
       lmin = the shallowest list's depth)\n";
    let idx = Xk_core.Engine.index ds.eng in
    row
      [ scell 26 "query"; scell 12 "stored KB"; scell 12 "decoded KB";
        scell 10 "columns"; scell 12 "time ms" ];
    let run_query q =
      match List.map (Xk_index.Index.term_id idx) q with
      | ids when List.for_all Option.is_some ids ->
          let lists =
            Array.of_list
              (List.map (fun id -> Xk_index.Index.jlist idx (Option.get id)) ids)
          in
          let lmin =
            Array.fold_left
              (fun m jl -> min m (Xk_index.Jlist.max_len jl))
              max_int lists
          in
          let stored =
            Array.fold_left (fun a jl -> a + Xk_index.Jlist.encoded_size jl) 0 lists
          in
          let unread =
            Array.fold_left
              (fun a jl ->
                let bytes = ref a in
                for level = lmin + 1 to Xk_index.Jlist.max_len jl do
                  bytes :=
                    !bytes
                    + Xk_index.Column.encoded_size (Xk_index.Jlist.column jl ~level)
                done;
                !bytes)
              0 lists
          in
          let t0 = now () in
          ignore
            (Xk_core.Join_query.run lists (Xk_index.Index.damping idx)
               Xk_core.Join_query.Elca);
          let dt = (now () -. t0) *. 1000. in
          row
            [ scell 26 ("{" ^ String.concat " " q ^ "}");
              fcell 12 (float_of_int stored /. 1024.);
              fcell 12 (float_of_int (stored - unread) /. 1024.);
              icell 10 (Array.length lists * lmin);
              fcell 12 dt ]
      | _ -> ()
    in
    (* A same-depth correlated pair (reads all its levels) vs a mix with a
       shallow keyword (skips the deep keyword's lower columns). *)
    List.iter run_query ds.correlated;
    match ds.correlated with
    | (deep :: _) :: _ -> run_query [ deep; "1998" ]
    | _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Heap traffic per request, by route                                  *)

(* The Section V query mix of the benchmark suite's request log (one
   keyword near the highest df and the rest near 10 .. 10,000, k = 2..5;
   k = 2, 3 keywords near one df of 100 .. 3,000), the same number from
   every range, 210 in all.  Each route runs the whole mix once to warm
   the lists and its scratch, then [cfg.runs] more times under
   [Gc.quick_stat]: the words a request allocates on the minor heap, the
   words it promotes, and the words it allocates directly on the major
   heap, with its mean wall time.  The major-heap top is the process's,
   so each route's reading includes the routes above it. *)
let alloc cfg ds =
  if wants cfg "alloc" then begin
    let module W = Xk_workload.Workload in
    let module E = Xk_core.Engine in
    let idx = E.index ds.eng in
    let rng = Xk_datagen.Rng.create cfg.seed in
    let high = W.max_df idx in
    let ranges =
      List.concat_map
        (fun k ->
          List.filter_map
            (fun low ->
              if low * 4 < high then
                Some (fun n -> W.random_queries rng idx ~k ~high ~low ~n)
              else None)
            [ 10; 100; 1000; 10_000 ])
        [ 2; 3; 4; 5 ]
      @ List.concat_map
          (fun k ->
            List.filter_map
              (fun freq ->
                if freq * 2 < high then
                  Some (fun n -> W.equal_freq_queries rng idx ~k ~freq ~n)
                else None)
              [ 100; 300; 1000; 3000 ])
          [ 2; 3 ]
    in
    let total = 210 in
    let per = (total + List.length ranges - 1) / List.length ranges in
    let queries =
      List.filteri (fun i _ -> i < total) (List.concat_map (fun draw -> draw per) ranges)
    in
    let n = List.length queries in
    header
      (Printf.sprintf "Heap words per request by route (%d Section V queries, K = 10)" n);
    row
      [
        scell 22 "route"; scell 12 "minor"; scell 12 "promoted"; scell 12 "major";
        scell 10 "ms"; scell 14 "heap top MB";
      ];
    let routes =
      [
        ("topk-join ELCA", fun q -> E.query_topk ~algorithm:E.Topk_join ds.eng q ~k:10);
        ( "topk-join SLCA",
          fun q -> E.query_topk ~semantics:E.Slca ~algorithm:E.Topk_join ds.eng q ~k:10 );
        ("hybrid", fun q -> E.query_topk ~algorithm:E.Hybrid ds.eng q ~k:10);
        ("complete+sort", fun q -> E.query_topk ~algorithm:E.Complete_then_sort ds.eng q ~k:10);
        ("RDIL", fun q -> E.query_topk ~algorithm:E.Rdil_baseline ds.eng q ~k:10);
        ("complete (join)", fun q -> E.query ds.eng q);
      ]
    in
    List.iter
      (fun (name, run) ->
        List.iter (fun q -> ignore (run q)) queries;
        let s0 = Gc.quick_stat () in
        let t0 = now () in
        for _ = 1 to cfg.runs do
          List.iter (fun q -> ignore (run q)) queries
        done;
        let t1 = now () in
        let s1 = Gc.quick_stat () in
        let per = float_of_int (cfg.runs * n) in
        let words f = (f s1 -. f s0) /. per in
        row
          [
            scell 22 name;
            fcell 12 (words (fun s -> s.Gc.minor_words));
            fcell 12 (words (fun s -> s.Gc.promoted_words));
            fcell 12 (words (fun s -> s.Gc.major_words -. s.Gc.promoted_words));
            fcell 10 ((t1 -. t0) *. 1000. /. per);
            fcell 14 (mb (s1.Gc.top_heap_words * (Sys.word_size / 8)));
          ])
      routes
  end

(* ------------------------------------------------------------------ *)
(* Micro benchmarks (Bechamel)                                         *)

let micro cfg =
  if wants cfg "micro" then begin
    header "Micro benchmarks (Bechamel, monotonic clock)";
    let open Bechamel in
    let open Toolkit in
    (* Erased interval set vs a bitset, on the range-exclusion workload
       (the Section III-D/E representation ablation). *)
    let runs = 2000 in
    let mk_intervals () =
      Staged.stage (fun () ->
          let e = Xk_core.Erased.create () in
          for i = 0 to runs - 1 do
            let lo = i * 40 mod 65000 in
            Xk_core.Erased.add e ~lo ~hi:(lo + 32)
          done;
          let acc = ref 0 in
          for i = 0 to runs - 1 do
            let lo = i * 37 mod 65000 in
            acc := !acc + Xk_core.Erased.covered e ~lo ~hi:(lo + 64)
          done;
          !acc)
    in
    let mk_bitset () =
      Staged.stage (fun () ->
          let b = Bytes.make 65536 '\000' in
          for i = 0 to runs - 1 do
            let lo = i * 40 mod 65000 in
            Bytes.fill b lo 32 '\001'
          done;
          let acc = ref 0 in
          for i = 0 to runs - 1 do
            let lo = i * 37 mod 65000 in
            for x = lo to lo + 63 do
              if Bytes.get b x = '\001' then incr acc
            done
          done;
          !acc)
    in
    (* Sparse-large scenario: few erased ranges over a multi-million-row
       list - the realistic shape, where a bitset pays allocation and
       per-row scans while intervals stay logarithmic. *)
    let big = 8_000_000 in
    let mk_intervals_sparse () =
      Staged.stage (fun () ->
          let e = Xk_core.Erased.create () in
          for i = 0 to 199 do
            let lo = i * (big / 200) in
            Xk_core.Erased.add e ~lo ~hi:(lo + 500)
          done;
          let acc = ref 0 in
          for i = 0 to 199 do
            let lo = i * 37_717 mod (big - 4000) in
            acc := !acc + Xk_core.Erased.covered e ~lo ~hi:(lo + 4000)
          done;
          !acc)
    in
    let mk_bitset_sparse () =
      Staged.stage (fun () ->
          let b = Bytes.make big '\000' in
          for i = 0 to 199 do
            let lo = i * (big / 200) in
            Bytes.fill b lo 500 '\001'
          done;
          let acc = ref 0 in
          for i = 0 to 199 do
            let lo = i * 37_717 mod (big - 4000) in
            for x = lo to lo + 3999 do
              if Bytes.get b x = '\001' then incr acc
            done
          done;
          !acc)
    in
    let heap_test () =
      Staged.stage (fun () ->
          let h = Xk_util.Heap.create () in
          for i = 0 to 999 do
            Xk_util.Heap.push h (float_of_int ((i * 7919) mod 1000)) i
          done;
          let acc = ref 0 in
          while not (Xk_util.Heap.is_empty h) do
            acc := !acc + Xk_util.Heap.pop_value h
          done;
          !acc)
    in
    let codec_test () =
      let runs_arr =
        Array.init 4096 (fun i ->
            { Xk_storage.Column_codec.value = (i * 3) + 1; count = 1 + (i mod 8) })
      in
      let buf = Buffer.create 4096 in
      let (_ : Xk_storage.Column_codec.scheme) =
        Xk_storage.Column_codec.encode buf runs_arr
      in
      let data = Buffer.contents buf in
      Staged.stage (fun () ->
          Array.length
            (Xk_storage.Column_codec.decode (Xk_storage.Varint.cursor data)))
    in
    let tests =
      Test.make_grouped ~name:"micro" ~fmt:"%s %s"
        [
          Test.make ~name:"erased-intervals-dense" (mk_intervals ());
          Test.make ~name:"erased-bitset-dense" (mk_bitset ());
          Test.make ~name:"erased-intervals-sparse" (mk_intervals_sparse ());
          Test.make ~name:"erased-bitset-sparse" (mk_bitset_sparse ());
          Test.make ~name:"heap-1k" (heap_test ());
          Test.make ~name:"column-decode-4k" (codec_test ());
        ]
    in
    let benchmark () =
      let bcfg =
        Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
      in
      Benchmark.all bcfg Instance.[ monotonic_clock ] tests
    in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
        Instance.monotonic_clock (benchmark ())
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-28s %12.0f ns/run\n" name est
        | _ -> Printf.printf "%-28s (no estimate)\n" name)
      results;
    ignore cfg
  end

(* ------------------------------------------------------------------ *)
(* Live ingest: the steps of one set-up batch                          *)

(* The public steps a live store runs to take in and seal one batch of
   160 documents, timed one at a time on the [live_rw] corpus of
   [bench/suite] (DBLP generator at scale 1, 240 conferences of one year,
   seed 2010, printed and parsed back; the first 160 top-level
   subtrees).  The last two rows are the whole batch as [live_rw]'s
   set-up runs it: a fresh store (fsync on, auto-compaction at 32) takes
   the 160 additions in one [Live.mutate], then [Live.compact]; and the
   reopen of that store, which verifies its sealed segment and publishes
   a snapshot over it.  Every row also reports the minor and major heap
   words the step allocated (medians; major words include promoted
   ones). *)
let ingest cfg =
  if wants cfg "ingest" then begin
    header "Live ingest: one 160-document batch, step by step";
    let module Live = Xk_index.Live in
    let module Wal = Xk_index.Wal in
    let corpus =
      Xk_datagen.Dblp_gen.generate
        {
          (Xk_datagen.Dblp_gen.scaled 1.0) with
          seed = 2010;
          conferences = 240;
          years_per_conf = 1;
        }
    in
    let doc =
      Xk_xml.Xml_parser.parse_string_exn (Xk_xml.Xml_print.to_string corpus.doc)
    in
    let root_tag = doc.root.tag and root_attrs = doc.root.attrs in
    let subtrees = List.filteri (fun i _ -> i < 160) doc.root.children in
    let ops = List.mapi (fun doc_id subtree -> Wal.Insert { doc_id; subtree }) subtrees in
    let dir = Filename.temp_file "xk_ingest" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let path name = Filename.concat dir name in
    let rec rm_rf p =
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
    in
    let reps = 5 * cfg.runs in
    (* step name -> samples, steps in the order they first ran *)
    let samples = Hashtbl.create 16 and steps = ref [] in
    let timed name f =
      let minor0, _, major0 = Gc.counters () in
      let t0 = now () in
      let v = f () in
      let ms = (now () -. t0) *. 1000. in
      let minor1, _, major1 = Gc.counters () in
      let sample = (ms, minor1 -. minor0, major1 -. major0) in
      (match Hashtbl.find_opt samples name with
      | Some l -> Hashtbl.replace samples name (sample :: l)
      | None ->
          steps := name :: !steps;
          Hashtbl.replace samples name [ sample ]);
      v
    in
    for rep = 1 to reps do
      ignore
        (timed "print" (fun () ->
             List.map
               (function
                 | Xk_xml.Xml_tree.Element e -> Xk_xml.Xml_print.element_to_string e
                 | Text s -> s)
               subtrees));
      let entries =
        timed "canonical" (fun () ->
            List.map
              (fun op ->
                match Wal.canonical op with Ok e -> e | Error m -> failwith m)
              ops)
      in
      let wal =
        match Wal.create ~fsync:true ~base_lsn:0 (path "wal.log") with
        | Ok w -> w
        | Error e -> failwith (Wal.error_message e)
      in
      (match timed "WAL append (one fsync)" (fun () -> Wal.append_batch wal entries) with
      | Ok _ -> Wal.close wal
      | Error (_, e) -> failwith (Wal.error_message e));
      let docs =
        List.filter_map (function Wal.Put d -> Some d | Wal.Drop _ -> None) entries
      in
      let payload =
        timed ".docs encode" (fun () -> Wal.encode_docs docs)
      in
      (* framed with the live store's [.docs] magic *)
      timed ".docs atomic write (fsync)" (fun () ->
          Xk_storage.Durable.write_string_atomically ~fsync:true (path "seg.docs")
            (Xk_storage.Framed.file ~magic:"XKDOC001" ~version:1 payload));
      let label =
        timed "label" (fun () ->
            Xk_encoding.Labeling.label
              { root = Xk_xml.Xml_tree.element root_tag subtrees })
      in
      let idx = timed "Index.build" (fun () -> Xk_index.Index.build label) in
      timed "save" (fun () -> Xk_index.Index_io.save idx (path "seg.idx"));
      (match timed "verify" (fun () -> Xk_index.Index_io.verify (path "seg.idx")) with
      | Ok () -> ()
      | Error e -> failwith (Xk_index.Index_io.load_error_message e));
      ignore
        (timed "Snapshot.build (publish)" (fun () ->
             Xk_index.Snapshot.build ~root_tag ~root_attrs ~lsn:160
               [
                 { g_docs = []; g_index = None };
                 { g_docs = docs; g_index = Some (path "seg.idx") };
               ]));
      let store = path (Printf.sprintf "store-%d" rep) in
      timed "whole batch (mutate + compact)" (fun () ->
          let live_ok = function
            | Ok v -> v
            | Error e -> failwith (Live.error_message e)
          in
          let t =
            live_ok (Live.create ~fsync:true ~auto_compact:32 ~root_tag ~root_attrs store)
          in
          ignore (live_ok (Live.mutate t (List.map (fun s -> Live.Add s) subtrees)));
          live_ok (Live.compact t);
          Live.close t);
      timed "reopen (Live.open_)" (fun () ->
          match Live.open_ ~fsync:true store with
          | Ok t -> Live.close t
          | Error e -> failwith (Live.error_message e));
      rm_rf store
    done;
    rm_rf dir;
    let quartiles xs =
      let a = Array.of_list xs in
      Array.sort compare a;
      let at q = a.(int_of_float (q *. float_of_int (Array.length a - 1) +. 0.5)) in
      (at 0.5, at 0.25, at 0.75)
    in
    Printf.printf "%d repetitions; ms, median [q1, q3]; minor and major words, medians\n" reps;
    List.iter
      (fun name ->
        let l = Hashtbl.find samples name in
        let med, q1, q3 = quartiles (List.map (fun (ms, _, _) -> ms) l) in
        let minor, _, _ = quartiles (List.map (fun (_, w, _) -> w) l) in
        let major, _, _ = quartiles (List.map (fun (_, _, w) -> w) l) in
        Printf.printf "%-32s %8.2f [%.2f, %.2f] %10.0f %10.0f\n" name med q1 q3 minor major)
      (List.rev !steps)
  end

(* ------------------------------------------------------------------ *)

let run cfg =
  Printf.printf
    "xkeyword experiment harness: scale=%.2f queries/bucket=%d runs=%d seed=%d\n%!"
    cfg.scale cfg.queries cfg.runs cfg.seed;
  let need_corpora =
    cfg.only = []
    || List.exists (wants cfg)
         [ "table1"; "motivation"; "fig9"; "fig10"; "ablations"; "disk"; "alloc" ]
  in
  if need_corpora then begin
    let dblp = load_dblp cfg in
    let xmark = load_xmark cfg in
    table1 cfg [ dblp; xmark ];
    motivation cfg dblp;
    fig9 cfg dblp;
    fig10_random cfg dblp;
    fig10_correlated cfg dblp ~fig:"b";
    fig10_correlated cfg xmark ~fig:"c";
    ablation_threshold cfg dblp;
    ablation_joinplan cfg dblp;
    semantics_check cfg dblp;
    ablation_gap cfg;
    disk cfg dblp;
    alloc cfg dblp
  end;
  micro cfg;
  ingest cfg;
  Printf.printf "\ndone.\n"

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

open Cmdliner

let scale =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~doc:"Corpus scale factor.")

let queries =
  Arg.(
    value & opt int 20
    & info [ "queries" ] ~doc:"Random queries per bucket (paper: 40).")

let runs =
  Arg.(
    value & opt int 3 & info [ "runs" ] ~doc:"Repetitions per query (paper: 5).")

let seed = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Workload seed.")

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Small corpora and few queries (CI smoke run).")

let only =
  Arg.(
    value & opt_all string []
    & info [ "only" ]
        ~doc:
          "Run a subset: table1, motivation, fig9, fig10, ablations, disk, alloc, \
           micro, ingest (repeatable).")

let term =
  let make scale queries runs seed quick only =
    let cfg =
      if quick then
        { scale = scale /. 8.; queries = min queries 5; runs = 1; seed; only }
      else { scale; queries; runs; seed; only }
    in
    run cfg
  in
  Term.(const make $ scale $ queries $ runs $ seed $ quick $ only)

let cmd =
  Cmd.v
    (Cmd.info "xkeyword-bench"
       ~doc:"Regenerate the paper's tables and figures on synthetic corpora.")
    term

let () = exit (Cmd.eval cmd)
