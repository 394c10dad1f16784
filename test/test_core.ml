(* Core algorithms: erased-interval set, level joins, Algorithm 1 (ELCA and
   SLCA) against the oracle, the top-K star join against a naive join, and
   the join-based top-K against complete evaluation. *)

open Xk_core

let check = Alcotest.check
let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Erased intervals                                                    *)

let erased_basics () =
  let e = Erased.create () in
  check Alcotest.bool "empty alive" false (Erased.is_dead e 5);
  Erased.add e ~lo:10 ~hi:20;
  check Alcotest.bool "dead inside" true (Erased.is_dead e 15);
  check Alcotest.bool "alive at hi" false (Erased.is_dead e 20);
  check Alcotest.bool "alive before" false (Erased.is_dead e 9);
  check Alcotest.int "covered" 10 (Erased.covered e ~lo:0 ~hi:100);
  check Alcotest.int "partial" 5 (Erased.covered e ~lo:15 ~hi:30);
  check Alcotest.int "alive" 20 (Erased.alive e ~lo:15 ~hi:40)

let erased_merge () =
  let e = Erased.create () in
  Erased.add e ~lo:10 ~hi:20;
  Erased.add e ~lo:30 ~hi:40;
  Erased.add e ~lo:50 ~hi:60;
  check Alcotest.int "three intervals" 3 (Erased.length e);
  (* Bridge them all. *)
  Erased.add e ~lo:15 ~hi:55;
  check Alcotest.int "merged to one" 1 (Erased.length e);
  check Alcotest.(list (pair int int)) "span" [ (10, 60) ] (Erased.to_list e);
  check Alcotest.int "covered total" 50 (Erased.covered_total e)

let erased_nested () =
  let e = Erased.create () in
  Erased.add e ~lo:0 ~hi:100;
  Erased.add e ~lo:10 ~hi:20;
  check Alcotest.int "still one" 1 (Erased.length e);
  check Alcotest.int "covered total" 100 (Erased.covered_total e)

let erased_add_batch () =
  let e = Erased.create () in
  Erased.add e ~lo:5 ~hi:8;
  Erased.add e ~lo:50 ~hi:60;
  Erased.add_batch e [ (0, 2); (6, 12); (20, 30); (28, 40); (90, 95) ];
  check
    Alcotest.(list (pair int int))
    "merged"
    [ (0, 2); (5, 12); (20, 40); (50, 60); (90, 95) ]
    (Erased.to_list e);
  check Alcotest.int "covered total" (2 + 7 + 20 + 10 + 5) (Erased.covered_total e);
  (* Empty batch and empty intervals are no-ops. *)
  Erased.add_batch e [];
  Erased.add_batch e [ (3, 3) ];
  check Alcotest.int "unchanged" 5 (Erased.length e)

let erased_iter_alive () =
  let e = Erased.create () in
  Erased.add e ~lo:10 ~hi:20;
  Erased.add e ~lo:30 ~hi:35;
  let collect ~lo ~hi =
    let acc = ref [] in
    Erased.iter_alive e ~lo ~hi (fun a b -> acc := (a, b) :: !acc);
    List.rev !acc
  in
  check Alcotest.(list (pair int int)) "spanning" [ (0, 10); (20, 30); (35, 40) ]
    (collect ~lo:0 ~hi:40);
  check Alcotest.(list (pair int int)) "inside dead" [] (collect ~lo:12 ~hi:18);
  check Alcotest.(list (pair int int)) "all alive" [ (21, 29) ] (collect ~lo:21 ~hi:29);
  check Alcotest.(list (pair int int)) "edges" [ (20, 30) ] (collect ~lo:15 ~hi:30)

(* add_batch must agree with repeated single adds; iter_alive must cover
   exactly the complement. *)
let erased_batch_prop =
  QCheck.Test.make ~count:500 ~name:"add_batch = repeated add; iter_alive complements"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 30))
    (fun (seed, nb) ->
      let rng = Xk_datagen.Rng.create seed in
      let size = 150 in
      let a = Erased.create () and b = Erased.create () in
      (* Pre-existing intervals. *)
      for _ = 1 to 5 do
        let lo = Xk_datagen.Rng.int rng size in
        let hi = lo + Xk_datagen.Rng.int rng (size - lo) in
        Erased.add a ~lo ~hi;
        Erased.add b ~lo ~hi
      done;
      (* A sorted batch. *)
      let batch =
        List.init nb (fun _ ->
            let lo = Xk_datagen.Rng.int rng size in
            (lo, lo + Xk_datagen.Rng.int rng (size - lo)))
        |> List.sort compare
      in
      Erased.add_batch a batch;
      List.iter (fun (lo, hi) -> Erased.add b ~lo ~hi) batch;
      let ok = ref (Erased.to_list a = Erased.to_list b) in
      (* iter_alive vs is_dead. *)
      let alive = Array.make size false in
      Erased.iter_alive a ~lo:0 ~hi:size (fun l h ->
          for x = l to h - 1 do
            alive.(x) <- true
          done);
      for x = 0 to size - 1 do
        if alive.(x) = Erased.is_dead a x then ok := false
      done;
      !ok)

(* Reference implementation: a boolean array. *)
let erased_prop =
  QCheck.Test.make ~count:500 ~name:"erased intervals vs boolean array"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 60))
    (fun (seed, ops) ->
      let rng = Xk_datagen.Rng.create seed in
      let size = 200 in
      let reference = Array.make size false in
      let e = Erased.create () in
      let ok = ref true in
      for _ = 1 to ops do
        let lo = Xk_datagen.Rng.int rng size in
        let hi = lo + Xk_datagen.Rng.int rng (size - lo) in
        Erased.add e ~lo ~hi;
        Array.fill reference lo (hi - lo) true;
        (* Spot-check queries. *)
        for _ = 1 to 5 do
          let qlo = Xk_datagen.Rng.int rng size in
          let qhi = qlo + Xk_datagen.Rng.int rng (size - qlo) in
          let expect = ref 0 in
          for x = qlo to qhi - 1 do
            if reference.(x) then incr expect
          done;
          if Erased.covered e ~lo:qlo ~hi:qhi <> !expect then ok := false;
          let row = Xk_datagen.Rng.int rng size in
          if Erased.is_dead e row <> reference.(row) then ok := false
        done
      done;
      let total = Array.fold_left (fun a b -> if b then a + 1 else a) 0 reference in
      !ok && Erased.covered_total e = total)

(* ------------------------------------------------------------------ *)
(* Level join                                                          *)

let column_of_values values =
  Tutil.column_of_seqs (Array.map (fun v -> [| v |]) values) ~level:1

let naive_intersection (cols : Xk_index.Column.t array) =
  let values c = List.map (fun (v, _, _) -> v) (Tutil.column_runs c) in
  match Array.to_list cols with
  | [] -> []
  | first :: rest ->
      List.filter
        (fun v -> List.for_all (fun c -> List.mem v (values c)) rest)
        (values first)

let level_join_matches_naive plan () =
  let rng = Xk_datagen.Rng.create 99 in
  for _ = 1 to 50 do
    let k = 2 + Xk_datagen.Rng.int rng 3 in
    let cols =
      Array.init k (fun _ ->
          let n = Xk_datagen.Rng.int rng 30 in
          let v = ref 0 in
          column_of_values
            (Array.init n (fun _ ->
                 v := !v + 1 + Xk_datagen.Rng.int rng 4;
                 !v)))
    in
    let expected = naive_intersection cols in
    let ms = Level_join.join ~plan cols in
    let got = List.init ms.count (fun m -> ms.values.(m)) in
    check Alcotest.(list int) "match values" expected (List.sort Int.compare got)
  done

let level_join_runs_aligned () =
  let cols =
    [|
      column_of_values [| 1; 3; 5; 7 |];
      column_of_values [| 2; 3; 4; 5; 6; 7; 8; 9; 10 |];
    |]
  in
  let ms = Level_join.join ~plan:Level_join.Dynamic cols in
  for m = 0 to ms.count - 1 do
    Array.iteri
      (fun i col ->
        (* The run in slot i must come from column i and hold the value. *)
        let r = ms.runs.(i).(m) in
        check Alcotest.int "run value" ms.values.(m) (Xk_index.Column.value col r);
        check Alcotest.int "run found" (Xk_index.Column.find col ms.values.(m)) r)
      cols
  done;
  check Alcotest.(list int) "values" [ 3; 5; 7 ]
    (List.init ms.count (fun m -> ms.values.(m)))

(* Nested-loop reference: each run of column 0 whose value some run of
   every other column holds, with the run index in each column. *)
let nested_loop_join (cols : Xk_index.Column.t array) =
  let module C = Xk_index.Column in
  let k = Array.length cols in
  List.filter_map
    (fun r0 ->
      let v = C.value cols.(0) r0 in
      let idx =
        Array.init k (fun i ->
            if i = 0 then r0
            else
              List.fold_left
                (fun acc r -> if C.value cols.(i) r = v then r else acc)
                (-1)
                (List.init (C.num_runs cols.(i)) Fun.id))
      in
      if Array.for_all (fun r -> r >= 0) idx then Some (v, Array.to_list idx)
      else None)
    (List.init (C.num_runs cols.(0)) Fun.id)

let join_as_list (ms : Level_join.matches) k =
  List.init ms.count (fun m ->
      (ms.values.(m), List.init k (fun i -> ms.runs.(i).(m))))

let all_plans = [ Level_join.Dynamic; Level_join.Force_merge; Level_join.Force_index ]

let check_against_nested_loop cols =
  let expected = nested_loop_join cols in
  List.iter
    (fun plan ->
      let got = join_as_list (Level_join.join ~plan cols) (Array.length cols) in
      if got <> expected then
        QCheck.Test.fail_reportf "%d matches, nested loop finds %d"
          (List.length got) (List.length expected))
    all_plans

(* Columns of the JDewey lists of random keywords on random trees, at
   every level the keywords share. *)
let level_join_nested_loop_prop =
  QCheck.Test.make ~count:200
    ~name:"level join = nested loop (random trees, every plan)"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, k) ->
      let doc = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create seed) in
      let idx = Xk_index.Index.build (Xk_encoding.Labeling.label doc) in
      let rng = Xk_datagen.Rng.create (seed + 5) in
      let terms = Xk_index.Index.term_count idx in
      let k = min k terms in
      let jls =
        Array.map (Xk_index.Index.jlist idx)
          (Xk_datagen.Rng.sample rng ~n:terms ~k)
      in
      let lmin =
        Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int jls
      in
      for level = 1 to if k = 0 then 0 else lmin do
        check_against_nested_loop
          (Array.map (fun jl -> Xk_index.Jlist.column jl ~level) jls)
      done;
      true)

(* Columns of very different sizes, so that the dynamic plan mixes index
   and merge steps. *)
let level_join_skewed_prop =
  QCheck.Test.make ~count:200
    ~name:"level join = nested loop (skewed columns, every plan)"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, k) ->
      let rng = Xk_datagen.Rng.create seed in
      let cols =
        Array.init k (fun _ ->
            let n = if Xk_datagen.Rng.bool rng then 600 else 8 in
            let v = ref 0 in
            column_of_values
              (Array.init (Xk_datagen.Rng.int rng n) (fun _ ->
                   v := !v + 1 + Xk_datagen.Rng.int rng 3;
                   !v)))
      in
      check_against_nested_loop cols;
      true)

let level_join_stats () =
  let small = column_of_values (Array.init 3 (fun i -> (i * 100) + 1)) in
  let big = column_of_values (Array.init 1000 (fun i -> i + 1)) in
  let stats = Level_join.new_stats () in
  ignore (Level_join.join ~stats ~plan:Level_join.Dynamic [| small; big |]);
  check Alcotest.int "dynamic chose index join" 1 stats.index_joins;
  let stats = Level_join.new_stats () in
  ignore (Level_join.join ~stats ~plan:Level_join.Force_merge [| small; big |]);
  check Alcotest.int "forced merge" 1 stats.merge_joins

(* ------------------------------------------------------------------ *)
(* Algorithm 1 vs oracle                                               *)

let join_vs_oracle semantics name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, k) ->
      let eng = Tutil.random_engine seed in
      let rng = Xk_datagen.Rng.create (seed + 13) in
      let q = Tutil.random_query rng ~k ~alphabet:4 in
      let expected = Engine.query ~semantics ~algorithm:Engine.Oracle eng q in
      let actual = Engine.query ~semantics ~algorithm:Engine.Join_based eng q in
      Tutil.check_same_hits "join vs oracle" expected actual;
      true)

let join_plans_agree =
  QCheck.Test.make ~count:150 ~name:"forced merge/index plans give same ELCAs"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let eng = Tutil.random_engine seed in
      let rng = Xk_datagen.Rng.create (seed + 3) in
      let q = Tutil.random_query rng ~k:2 ~alphabet:3 in
      let m = Engine.query ~algorithm:Engine.Join_based ~plan:Level_join.Force_merge eng q in
      let i = Engine.query ~algorithm:Engine.Join_based ~plan:Level_join.Force_index eng q in
      let d = Engine.query ~algorithm:Engine.Join_based ~plan:Level_join.Dynamic eng q in
      Tutil.check_same_hits "merge vs index" m i;
      Tutil.check_same_hits "merge vs dynamic" m d;
      true)

let join_empty_keyword () =
  let eng = Engine.of_string "<r><a>xml</a></r>" in
  check Alcotest.int "missing keyword empty" 0
    (List.length (Engine.query eng [ "xml"; "ghost" ]))

let join_single_keyword () =
  let eng = Engine.of_string "<r><a>xml <b>xml</b></a><c>xml</c></r>" in
  (* k=1: every occurrence node is an ELCA. *)
  let hits = Engine.query ~algorithm:Engine.Join_based eng [ "xml" ] in
  let oracle = Engine.query ~algorithm:Engine.Oracle eng [ "xml" ] in
  Tutil.check_same_hits "k=1" oracle hits;
  check Alcotest.int "three occurrences" 3 (List.length hits)

let paper_example () =
  (* A hand-checked instance of the running example's structure: two
     keywords whose deepest co-occurrences exclude their ancestors. *)
  let eng =
    Engine.of_string
      {|<db>
          <conf>
            <paper><title>xml data</title></paper>
            <paper><title>data mining</title></paper>
          </conf>
          <conf>
            <paper><title>xml</title></paper>
            <paper><title>data</title></paper>
          </conf>
        </db>|}
  in
  let nodes hits = List.sort Int.compare (Xk_baselines.Hit.nodes hits) in
  (* Node numbering (doc order): 0 db, 1 conf1, 2 paper, 3 title, 4 "xml
     data", 5 paper, 6 title, 7 "data mining", 8 conf2, 9 paper, 10 title,
     11 "xml", 12 paper, 13 title, 14 "data". *)
  let elca = Engine.query ~semantics:Engine.Elca eng [ "xml"; "data" ] in
  check Alcotest.(list int) "ELCAs" [ 4; 8 ] (nodes elca);
  let slca = Engine.query ~semantics:Engine.Slca eng [ "xml"; "data" ] in
  check Alcotest.(list int) "SLCAs" [ 4; 8 ] (nodes slca);
  (* conf2 (node 8) scores lower: its witnesses sit 3 levels down. *)
  (match Xk_baselines.Hit.sort_desc elca with
  | [ first; second ] ->
      check Alcotest.int "text node wins" 4 first.node;
      check Alcotest.int "conf second" 8 second.node
  | _ -> Alcotest.fail "expected two results");
  (* With "mining" added, only conf1 subsumes all three keywords. *)
  let three = Engine.query eng [ "xml"; "data"; "mining" ] in
  check Alcotest.(list int) "three keywords" [ 1 ] (nodes three)

(* ------------------------------------------------------------------ *)
(* Star join                                                           *)

let naive_star_topk (rels : Star_join.relation array) ~k =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (r : Star_join.relation) ->
      Array.iteri
        (fun p key ->
          let slots =
            match Hashtbl.find_opt tbl key with
            | Some s -> s
            | None ->
                let s = Array.make (Array.length rels) neg_infinity in
                Hashtbl.add tbl key s;
                s
          in
          if r.scores.(p) > slots.(i) then slots.(i) <- r.scores.(p))
        r.keys)
    rels;
  let all =
    Hashtbl.fold
      (fun key slots acc ->
        if Array.for_all (fun s -> s > neg_infinity) slots then
          { Star_join.key; total = Array.fold_left ( +. ) 0. slots } :: acc
        else acc)
      tbl []
  in
  let sorted =
    List.sort
      (fun (a : Star_join.result) b -> Float.compare b.total a.total)
      all
  in
  List.filteri (fun i _ -> i < k) sorted

let random_relation rng ~n ~key_space =
  let keys = Xk_datagen.Rng.sample rng ~n:key_space ~k:(min n key_space) in
  let scores =
    Array.init (Array.length keys) (fun _ -> Xk_datagen.Rng.float rng)
  in
  Array.sort (fun a b -> Float.compare b a) scores;
  Star_join.relation ~keys ~scores

let star_join_prop threshold name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(pair (int_bound 1_000_000) (int_range 2 4))
    (fun (seed, k) ->
      let rng = Xk_datagen.Rng.create seed in
      let rels =
        Array.init k (fun _ ->
            random_relation rng ~n:(5 + Xk_datagen.Rng.int rng 40) ~key_space:30)
      in
      let want = 1 + Xk_datagen.Rng.int rng 8 in
      let expected = naive_star_topk rels ~k:want in
      let actual = Star_join.topk ~threshold rels ~k:want in
      List.length expected = List.length actual
      && List.for_all2
           (fun (e : Star_join.result) (a : Star_join.result) ->
             Float.abs (e.total -. a.total) < 1e-9)
           expected actual)

let star_join_tight_reads_less () =
  (* On a workload with matching keys near the top, the paper's threshold
     must terminate with no more sorted accesses than HRJN's. *)
  let rng = Xk_datagen.Rng.create 4242 in
  let trials = ref 0 and tight_wins = ref 0 and ties = ref 0 in
  for _ = 1 to 50 do
    let rels =
      Array.init 3 (fun _ -> random_relation rng ~n:60 ~key_space:80)
    in
    let s_classic = Star_join.new_stats () in
    ignore (Star_join.topk ~stats:s_classic ~threshold:Star_join.Classic rels ~k:5);
    let s_tight = Star_join.new_stats () in
    ignore (Star_join.topk ~stats:s_tight ~threshold:Star_join.Tight rels ~k:5);
    incr trials;
    if s_tight.pulled < s_classic.pulled then incr tight_wins
    else if s_tight.pulled = s_classic.pulled then incr ties
  done;
  check Alcotest.bool "tight never loses" true (!tight_wins + !ties = !trials);
  check Alcotest.bool "tight wins sometimes" true (!tight_wins > 0)

let star_join_early_termination () =
  (* A matching pair at the very top must be emitted after a handful of
     accesses, not after draining the inputs. *)
  let keys = Array.init 1000 (fun i -> i) in
  let scores = Array.init 1000 (fun i -> 1. /. float_of_int (i + 1)) in
  let r1 = Star_join.relation ~keys ~scores in
  let r2 = Star_join.relation ~keys ~scores in
  let stats = Star_join.new_stats () in
  let out = Star_join.topk ~stats [| r1; r2 |] ~k:1 in
  (match out with
  | [ r ] ->
      check Alcotest.int "key" 0 r.key;
      check (Alcotest.float 1e-9) "total" 2. r.total
  | _ -> Alcotest.fail "expected one result");
  check Alcotest.bool "early termination" true (stats.pulled < 100)

(* The flat bucket against the reference join it replaced
   ([Star_join_ref]): equal results in equal order, equal sorted
   accesses, emissions and bucket peak. *)

module _ : Star_join.S = Star_join_ref

(* Sorted access to (keys, scores) lists: the [next] scores and [pull]. *)
let cursors lists =
  let score i p =
    let _, scores = lists.(i) in
    if p < Array.length scores then scores.(p) else neg_infinity
  in
  let pos = Array.make (Array.length lists) 0 in
  let next = Array.init (Array.length lists) (fun i -> score i 0) in
  let pull i =
    let p = pos.(i) in
    pos.(i) <- p + 1;
    next.(i) <- score i (p + 1);
    (fst lists.(i)).(p)
  in
  (next, pull)

let pair key total = (key, total)
let bits out = List.map (fun (key, total) -> (key, Int64.bits_of_float total)) out

(* One run of [J] over [columns], each a set of lists joined with its
   [below] bound, as Topk_keyword drives it. *)
let drive (module J : Star_join.S) ~threshold ~budget ~want ~accept columns =
  let stats = Star_join.new_stats () in
  let r = J.run ~stats ~k:want () in
  List.iter
    (fun (lists, below) ->
      if not (J.complete r) then begin
        let next, pull = cursors lists in
        J.join r ~threshold ~budget ~below ~accept ~ceilings:(Array.copy next)
          ~next ~pull ~make:pair
      end)
    columns;
  (bits (J.finish ~budget r), stats)

(* Lists of up to [4 * keys] rows drawn from [keys] keys, so keys repeat
   within and across lists, with about one dead row in eight and scores
   on a coarse grid, so totals tie. *)
let random_lists ?(keys = 16) rng ~k ~dead_rows =
  Array.init k (fun _ ->
      let n = Xk_datagen.Rng.int rng (4 * keys) in
      let keys =
        Array.init n (fun _ ->
            if dead_rows && Xk_datagen.Rng.int rng 8 = 0 then Star_join.dead
            else Xk_datagen.Rng.int rng keys)
      in
      let scores =
        Array.init n (fun _ -> float_of_int (1 + Xk_datagen.Rng.int rng 8) /. 8.)
      in
      Array.sort (fun a b -> Float.compare b a) scores;
      (keys, scores))

let same_run (o1, (s1 : Star_join.stats)) (o2, (s2 : Star_join.stats)) =
  o1 = o2 && s1.pulled = s2.pulled && s1.emitted = s2.emitted
  && s1.bucket_peak = s2.bucket_peak

let star_join_matches_reference =
  QCheck.Test.make ~count:500 ~name:"flat bucket = reference join"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, k) ->
      let rng = Xk_datagen.Rng.create seed in
      let want = 1 + Xk_datagen.Rng.int rng 6 in
      (* One case in four is wide enough to grow the bucket. *)
      let keys = if Xk_datagen.Rng.int rng 4 = 0 then 200 else 16 in
      let columns =
        List.init
          (1 + Xk_datagen.Rng.int rng 3)
          (fun c ->
            let below =
              if c = 0 || Xk_datagen.Rng.bool rng then neg_infinity
              else float_of_int (Xk_datagen.Rng.int rng (8 * k)) /. 8.
            in
            (random_lists ~keys rng ~k ~dead_rows:true, below))
      in
      let reject = Xk_datagen.Rng.int rng 4 in
      let accept key = reject = 0 || key mod 4 <> reject in
      let ticks = if Xk_datagen.Rng.bool rng then Some (Xk_datagen.Rng.int rng 60) else None in
      List.for_all
        (fun threshold ->
          let run impl =
            let budget = Xk_resilience.Budget.create ?ticks () in
            drive impl ~threshold ~budget ~want ~accept columns
          in
          let flat = run (module Star_join) in
          same_run flat (run (module Star_join_ref))
          &&
          (* [topk] over relations, repeated keys kept. *)
          let lists = random_lists ~keys rng ~k ~dead_rows:false in
          let rels =
            Array.map (fun (keys, scores) -> Star_join.relation ~keys ~scores) lists
          in
          let topk f =
            let stats = Star_join.new_stats () in
            let out = f ~stats rels in
            ( List.map
                (fun (r : Star_join.result) -> (r.key, Int64.bits_of_float r.total))
                out,
              stats )
          in
          same_run
            (topk (fun ~stats rels -> Star_join.topk ~stats ~threshold rels ~k:want))
            (topk (fun ~stats rels -> Star_join_ref.topk ~stats ~threshold rels ~k:want)))
        [ Star_join.Tight; Star_join.Classic ])

(* A join that runs another inside its [accept]: the inner run finds the
   domain's bucket taken and joins in its own, so neither disturbs the
   other, and both agree with the reference.  The inner bucket starts
   small each time and grows to hundreds of keys. *)
let star_join_taken_bucket () =
  let rng = Xk_datagen.Rng.create 77 in
  let columns =
    List.init 3 (fun _ -> (random_lists rng ~k:3 ~dead_rows:true, neg_infinity))
  in
  let rels =
    Array.map
      (fun (keys, scores) -> Star_join.relation ~keys ~scores)
      (random_lists ~keys:400 rng ~k:2 ~dead_rows:false)
  in
  let inner = Star_join_ref.topk rels ~k:5 in
  check Alcotest.bool "the inner join has results" true (inner <> []);
  let nested = ref 0 in
  let accept _ =
    if Star_join.topk rels ~k:5 = inner then incr nested
    else Alcotest.fail "the inner join differs from the reference";
    true
  in
  let budget = Xk_resilience.Budget.unlimited in
  let outer impl accept =
    drive impl ~threshold:Star_join.Tight ~budget ~want:50 ~accept columns
  in
  let expected = outer (module Star_join_ref) (fun _ -> true) in
  check Alcotest.bool "the outer join agrees with the reference" true
    (same_run expected (outer (module Star_join) accept));
  check Alcotest.bool "inner joins ran" true (!nested > 0)

(* ------------------------------------------------------------------ *)
(* Join-based top-K vs complete evaluation                             *)

let topk_vs_complete ?(semantics = Engine.Elca) threshold name =
  QCheck.Test.make ~count:300 ~name
    QCheck.(pair (int_bound 1_000_000) (int_range 1 4))
    (fun (seed, k) ->
      let eng = Tutil.random_engine seed in
      let rng = Xk_datagen.Rng.create (seed + 21) in
      let q = Tutil.random_query rng ~k ~alphabet:4 in
      let want = 1 + Xk_datagen.Rng.int rng 6 in
      let full = Engine.query ~semantics ~algorithm:Engine.Oracle eng q in
      let ids =
        List.filter_map (Xk_index.Index.term_id (Engine.index eng)) q
      in
      let topk =
        if List.length ids < List.length q then []
        else begin
          let slists =
            Array.of_list
              (List.map (Xk_index.Index.score_list (Engine.index eng))
                 (List.sort_uniq Int.compare ids))
          in
          let sem =
            match semantics with
            | Engine.Elca -> Topk_keyword.Elca
            | Engine.Slca -> Topk_keyword.Slca
          in
          Topk_keyword.topk ~threshold ~semantics:sem slists
            (Xk_index.Index.damping (Engine.index eng))
            ~k:want
          |> List.map (fun (h : Join_query.hit) ->
                 match
                   Xk_encoding.Labeling.find (Engine.label eng) ~depth:h.level
                     ~jnum:h.value
                 with
                 | Some node -> { Xk_baselines.Hit.node; score = h.score }
                 | None -> assert false)
        end
      in
      Tutil.check_topk name ~k:want full topk;
      true)

(* A1 on the production path: the pull order never depends on the
   threshold (round-robin, then best next score) and Tight <= Classic in
   every state, so the tight bound can only stop a column sooner. *)
let tight_pulls_le_classic (seed, k, slca) =
  let eng = Tutil.random_engine seed in
  let rng = Xk_datagen.Rng.create (seed + 13) in
  let q = Tutil.random_query rng ~k ~alphabet:4 in
  let want = 1 + Xk_datagen.Rng.int rng 6 in
  let semantics = if slca then Topk_keyword.Slca else Topk_keyword.Elca in
  let idx = Engine.index eng in
  match List.filter_map (Xk_index.Index.term_id idx) q with
  | ids when List.length ids < List.length q -> true
  | ids ->
      let slists =
        Array.of_list
          (List.map (Xk_index.Index.score_list idx)
             (List.sort_uniq Int.compare ids))
      in
      let pulls threshold =
        let stats = Topk_keyword.new_stats () in
        ignore
          (Topk_keyword.topk ~stats ~threshold ~semantics slists
             (Xk_index.Index.damping idx) ~k:want);
        stats.pulled
      in
      pulls Topk_keyword.Tight <= pulls Topk_keyword.Classic

let topk_tight_never_reads_more =
  QCheck.Test.make ~count:300 ~name:"tight never pulls more than classic"
    QCheck.(triple (int_bound 1_000_000) (int_range 2 4) bool)
    tight_pulls_le_classic

(* A counterexample the property once found (ELCA, 3 keywords, K = 1): a
   completed key's stale group term summed its slots in another order
   than its total and stayed one ulp above it, blocking the result until
   every list drained (9 tight pulls against 6 classic). *)
let tight_stale_group_term () =
  check Alcotest.bool "tight <= classic on tree 576782" true
    (tight_pulls_le_classic (576782, 3, false))

let hybrid_matches_topk =
  QCheck.Test.make ~count:200 ~name:"hybrid top-K matches oracle top-K"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let eng = Tutil.random_engine seed in
      let rng = Xk_datagen.Rng.create (seed + 5) in
      let q = Tutil.random_query rng ~k:2 ~alphabet:3 in
      let full = Engine.query ~algorithm:Engine.Oracle eng q in
      let actual = Engine.query_topk ~algorithm:Engine.Hybrid eng q ~k:5 in
      Tutil.check_topk "hybrid" ~k:5 full actual;
      true)

(* The column loop over the flat bucket and over the reference join,
   each run's star-join counters captured through [Counted]. *)
module Counted (J : Star_join.S) = struct
  include J

  let last = Star_join.new_stats ()

  let run ?stats:_ ~k () =
    last.pulled <- 0;
    last.emitted <- 0;
    last.bucket_peak <- 0;
    J.run ~stats:last ~k ()
end

module Flat_join = Counted (Star_join)
module Ref_join = Counted (Star_join_ref)

let topk_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"top-K over the flat bucket = over the reference join"
    QCheck.(quad (int_bound 1_000_000) (int_range 1 4) bool bool)
    (fun (seed, k, decorated, slca) ->
      let doc = if decorated then Tutil.decorated_doc seed else Tutil.random_doc seed in
      let eng = Engine.create doc in
      let idx = Engine.index eng in
      let rng = Xk_datagen.Rng.create (seed + 31) in
      let q = Tutil.random_query rng ~k ~alphabet:4 in
      let want = List.nth [ 1; 3; 10 ] (Xk_datagen.Rng.int rng 3) in
      let threshold =
        if Xk_datagen.Rng.bool rng then Topk_keyword.Tight else Topk_keyword.Classic
      in
      let semantics = if slca then Topk_keyword.Slca else Topk_keyword.Elca in
      let ticks =
        if Xk_datagen.Rng.bool rng then Some (Xk_datagen.Rng.int rng 300) else None
      in
      match List.filter_map (Xk_index.Index.term_id idx) q with
      | ids when List.length ids < List.length q -> true
      | ids ->
          let slists =
            Array.of_list
              (List.map (Xk_index.Index.score_list idx) (List.sort_uniq Int.compare ids))
          in
          let damping = Xk_index.Index.damping idx in
          let run join =
            let stats = Topk_keyword.new_stats () in
            let budget = Xk_resilience.Budget.create ?ticks () in
            let hits =
              Topk_keyword.topk_over join ~stats ~threshold ~semantics ~budget slists damping
                ~k:want
              |> List.map (fun (h : Topk_keyword.hit) ->
                     (h.level, h.value, Int64.bits_of_float h.score))
            in
            (hits, stats)
          in
          let flat, fstats = run (module Flat_join) in
          let reference, rstats = run (module Ref_join) in
          let default, _ = run (module Star_join) in
          let star = Flat_join.last in
          flat = reference && default = flat && fstats = rstats
          && star.pulled = Ref_join.last.pulled
          && star.emitted = Ref_join.last.emitted
          && star.bucket_peak = Ref_join.last.bucket_peak)

(* Counters, not clocks: a fixed Section V query mix (one keyword near the
   highest df, the rest near [low]) through the top-K join on a fixed DBLP
   corpus.  The sorted-access count and the answers are pinned exactly,
   so a change of list layout that alters either shows here; the answers
   are pinned as the digest of their "node:score" list, scores to nine
   decimals. *)
let topk_pull_count_pinned () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let eng = Engine.create corpus.doc in
  let idx = Engine.index eng in
  let rng = Xk_datagen.Rng.create 2010 in
  let high = Xk_workload.Workload.max_df idx in
  let queries =
    List.concat_map
      (fun (k, low) ->
        Xk_workload.Workload.random_queries rng idx ~k ~high ~low ~n:5)
      [ (2, 10); (2, 100); (3, 10); (3, 100); (5, 10); (5, 100) ]
  in
  let stats = Topk_keyword.new_stats () in
  let answers =
    List.concat_map
      (fun q ->
        List.map
          (fun (h : Xk_baselines.Hit.t) ->
            Printf.sprintf "%d:%.9f" h.node h.score)
          (Engine.query_topk ~algorithm:Engine.Topk_join ~stats eng q ~k:10))
      queries
  in
  check Alcotest.int "queries" 30 (List.length queries);
  check Alcotest.int "sorted accesses" 100_864 stats.pulled;
  check Alcotest.int "answers" 172 (List.length answers);
  check Alcotest.string "answers digest" "d54c7960cf7588b3f6e0ce5176995921"
    (Digest.to_hex (Digest.string (String.concat ";" answers)))

(* Heap traffic of one top-K request, gated in words: a skewed top-10
   request (one keyword near the highest df, one near df 10) on one
   domain, measured on its second run, when the lists are cached and the
   domain's star-join bucket is grown.  It read 3,456 minor words with
   the flat bucket and 40,958 with the Hashtbl bucket it replaced; the
   bound is twice the former. *)
let topk_minor_words_gated () =
  let corpus =
    Xk_datagen.Dblp_gen.generate
      { (Xk_datagen.Dblp_gen.scaled 0.05) with seed = 2010 }
  in
  let eng = Engine.create corpus.doc in
  let idx = Engine.index eng in
  let rng = Xk_datagen.Rng.create 2010 in
  let high = Xk_workload.Workload.max_df idx in
  let q =
    List.hd (Xk_workload.Workload.random_queries rng idx ~k:2 ~high ~low:10 ~n:1)
  in
  let request () = Engine.query_topk ~algorithm:Engine.Topk_join eng q ~k:10 in
  let first = request () in
  let before = Gc.minor_words () in
  let second = request () in
  let words = Gc.minor_words () -. before in
  check Alcotest.bool "same answers" true (first = second);
  if words > 6_912. then
    Alcotest.failf "second top-10 request allocated %.0f minor words (bound 6,912)" words

let topk_stats_early_exit () =
  (* Correlated keywords at a deep level: the top-K join must not visit
     every column. *)
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "<db>";
  for i = 0 to 199 do
    Buffer.add_string buf
      (Printf.sprintf "<x><y><z>alpha beta gamma%d</z></y></x>" i)
  done;
  Buffer.add_string buf "</db>";
  let eng = Engine.of_string (Buffer.contents buf) in
  let stats = Topk_keyword.new_stats () in
  let hits = Engine.query_topk ~stats eng [ "alpha"; "beta" ] ~k:5 in
  check Alcotest.int "five results" 5 (List.length hits);
  check Alcotest.bool "early exit happened" true (stats.early_exit_level > 1);
  check Alcotest.bool "did not pull everything" true (stats.pulled < 2 * 200)

let suite =
  [
    ( "core.erased",
      [
        tc "basics" `Quick erased_basics;
        tc "merge" `Quick erased_merge;
        tc "nested" `Quick erased_nested;
        tc "add_batch" `Quick erased_add_batch;
        tc "iter_alive" `Quick erased_iter_alive;
        QCheck_alcotest.to_alcotest erased_prop;
        QCheck_alcotest.to_alcotest erased_batch_prop;
      ] );
    ( "core.level_join",
      [
        tc "dynamic vs naive" `Quick (level_join_matches_naive Level_join.Dynamic);
        tc "merge vs naive" `Quick (level_join_matches_naive Level_join.Force_merge);
        tc "index vs naive" `Quick (level_join_matches_naive Level_join.Force_index);
        tc "runs aligned" `Quick level_join_runs_aligned;
        tc "plan statistics" `Quick level_join_stats;
        QCheck_alcotest.to_alcotest level_join_nested_loop_prop;
        QCheck_alcotest.to_alcotest level_join_skewed_prop;
      ] );
    ( "core.join_query",
      [
        tc "missing keyword" `Quick join_empty_keyword;
        tc "single keyword" `Quick join_single_keyword;
        tc "paper-style example" `Quick paper_example;
        QCheck_alcotest.to_alcotest
          (join_vs_oracle Engine.Elca "join ELCA = oracle (random trees)");
        QCheck_alcotest.to_alcotest
          (join_vs_oracle Engine.Slca "join SLCA = oracle (random trees)");
        QCheck_alcotest.to_alcotest join_plans_agree;
      ] );
    ( "core.star_join",
      [
        tc "tight threshold reads less" `Quick star_join_tight_reads_less;
        tc "early termination" `Quick star_join_early_termination;
        QCheck_alcotest.to_alcotest
          (star_join_prop Star_join.Tight "star join tight = naive");
        QCheck_alcotest.to_alcotest
          (star_join_prop Star_join.Classic "star join classic = naive");
        QCheck_alcotest.to_alcotest star_join_matches_reference;
        tc "a nested join takes its own bucket" `Quick star_join_taken_bucket;
      ] );
    ( "core.topk",
      [
        tc "early exit on correlated data" `Quick topk_stats_early_exit;
        QCheck_alcotest.to_alcotest
          (topk_vs_complete Topk_keyword.Tight "top-K join = oracle top-K (tight)");
        QCheck_alcotest.to_alcotest
          (topk_vs_complete Topk_keyword.Classic "top-K join = oracle top-K (classic)");
        QCheck_alcotest.to_alcotest
          (topk_vs_complete ~semantics:Engine.Slca Topk_keyword.Tight
             "SLCA top-K join = oracle SLCA top-K");
        QCheck_alcotest.to_alcotest hybrid_matches_topk;
        QCheck_alcotest.to_alcotest topk_tight_never_reads_more;
        tc "tight: a stale group term never blocks its own key" `Quick
          tight_stale_group_term;
        tc "pull count and answers pinned (DBLP 0.05)" `Quick
          topk_pull_count_pinned;
        QCheck_alcotest.to_alcotest topk_matches_reference;
        tc "minor words per request gated (DBLP 0.05)" `Quick topk_minor_words_gated;
      ] );
  ]
