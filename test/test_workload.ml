(* Workload construction details not covered by the datagen suite. *)

let check = Alcotest.check
let tc = Alcotest.test_case

let small_engine =
  lazy
    (let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.1) in
     Xk_core.Engine.create corpus.doc)

let pick_near_widens () =
  (* Asking for a frequency with no inhabitants must widen the window
     rather than fail, as long as the corpus has any term at all. *)
  let idx = Xk_core.Engine.index (Lazy.force small_engine) in
  let rng = Xk_datagen.Rng.create 5 in
  let w = Xk_workload.Workload.pick_near ~drawn:[] rng idx ~near:123_456_789 in
  check Alcotest.bool "found something" true (String.length w > 0)

let terms_in_range_sorted () =
  let idx = Xk_core.Engine.index (Lazy.force small_engine) in
  let pool = Xk_workload.Workload.terms_in_df_range idx ~lo:10 ~hi:100 in
  check Alcotest.bool "non-empty" true (Array.length pool > 0);
  Array.iter
    (fun id ->
      let df = Xk_index.Index.df idx id in
      check Alcotest.bool "df in range" true (df >= 10 && df <= 100))
    pool;
  (* Most frequent first. *)
  for i = 1 to Array.length pool - 1 do
    check Alcotest.bool "descending df" true
      (Xk_index.Index.df idx pool.(i) <= Xk_index.Index.df idx pool.(i - 1))
  done

let queries_deterministic () =
  let idx = Xk_core.Engine.index (Lazy.force small_engine) in
  let mk () =
    let rng = Xk_datagen.Rng.create 77 in
    Xk_workload.Workload.random_queries rng idx ~k:3
      ~high:(Xk_workload.Workload.max_df idx)
      ~low:20 ~n:10
  in
  check Alcotest.bool "same seed, same workload" true (mk () = mk ())

(* The probe mix (workload seed 7, 20 queries per (k, low), high = max
   df) on a corpus whose df windows near 1000 hold fewer terms than a
   5-keyword query needs: the draw must widen past them, not spin. *)
let probe_mix_returns () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let idx = Xk_core.Engine.index (Xk_core.Engine.create corpus.doc) in
  let rng = Xk_datagen.Rng.create 7 in
  let high = Xk_workload.Workload.max_df idx in
  List.iter
    (fun (k, low) ->
      let qs = Xk_workload.Workload.random_queries rng idx ~k ~high ~low ~n:20 in
      check Alcotest.int "query count" 20 (List.length qs);
      List.iter
        (fun q ->
          check Alcotest.int "k distinct words" k
            (List.length (List.sort_uniq String.compare q)))
        qs)
    [ (2, 10); (2, 100); (2, 1000); (3, 10); (3, 100); (3, 1000);
      (5, 10); (5, 100); (5, 1000) ];
  let qs = Xk_workload.Workload.equal_freq_queries rng idx ~k:5 ~freq:1000 ~n:20 in
  List.iter
    (fun q ->
      check Alcotest.int "equal-frequency words distinct" 5
        (List.length (List.sort_uniq String.compare q)))
    qs

let max_df_excludes_controls () =
  let idx = Xk_core.Engine.index (Lazy.force small_engine) in
  let high = Xk_workload.Workload.max_df idx in
  (* The planted control terms can be frequent, but max_df must come from
     the natural vocabulary. *)
  check Alcotest.bool "positive" true (high > 0);
  let ids = Xk_index.Index.terms_by_df idx in
  let top_natural =
    let rec go i =
      if Xk_workload.Workload.has_digit (Xk_index.Index.term idx ids.(i)) then
        go (i + 1)
      else Xk_index.Index.df idx ids.(i)
    in
    go 0
  in
  check Alcotest.int "matches top natural term" top_natural high

let suite =
  [
    ( "workload",
      [
        tc "pick_near widens" `Quick pick_near_widens;
        tc "terms_in_df_range" `Quick terms_in_range_sorted;
        tc "deterministic workloads" `Quick queries_deterministic;
        tc "max_df excludes control terms" `Quick max_df_excludes_controls;
        tc "probe mix returns (DBLP 0.05)" `Quick probe_mix_returns;
      ] );
  ]
