(* Engine facade: end-to-end behaviour, result presentation, heap. *)

open Xk_core

let check = Alcotest.check
let tc = Alcotest.test_case

let eng () =
  Engine.of_string
    {|<library>
        <shelf topic="databases">
          <book><title>xml keyword search</title><blurb>ranked retrieval</blurb></book>
          <book><title>relational joins</title><blurb>top k processing</blurb></book>
        </shelf>
        <shelf topic="systems">
          <book><title>keyword indexes</title><blurb>xml storage</blurb></book>
        </shelf>
      </library>|}

let end_to_end () =
  let e = eng () in
  let hits = Engine.query e [ "xml"; "keyword" ] in
  check Alcotest.bool "has results" true (List.length hits > 0);
  (* Results sorted by score descending. *)
  let scores = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) hits in
  check Alcotest.bool "sorted" true
    (List.sort (fun a b -> Float.compare b a) scores = scores);
  (* The title "xml keyword search" text node must be the best hit. *)
  match hits with
  | best :: _ -> (
      match Engine.element_of_hit e best with
      | Some el ->
          check Alcotest.string "best element" "title" el.tag
      | None -> Alcotest.fail "no element")
  | [] -> assert false

let unknown_keyword_empty () =
  let e = eng () in
  check Alcotest.int "empty" 0 (List.length (Engine.query e [ "xml"; "zzz" ]));
  check Alcotest.int "topk empty" 0
    (List.length (Engine.query_topk e [ "xml"; "zzz" ] ~k:5))

let duplicate_keywords_collapse () =
  let e = eng () in
  let a = Engine.query e [ "xml"; "xml" ] in
  let b = Engine.query e [ "xml" ] in
  Tutil.check_same_hits "duplicates collapse" b a

let topk_prefix_of_complete () =
  let e = eng () in
  let full = Engine.query e [ "keyword"; "xml" ] in
  let top1 = Engine.query_topk e [ "keyword"; "xml" ] ~k:1 in
  Tutil.check_topk "top-1 prefix" ~k:1 full top1

let case_insensitive () =
  let e = eng () in
  Tutil.check_same_hits "case folded"
    (Engine.query e [ "xml"; "keyword" ])
    (Engine.query e [ "XML"; "Keyword" ])

let attribute_search () =
  let e = eng () in
  let hits = Engine.query e [ "databases" ] in
  check Alcotest.bool "attribute value found" true (List.length hits = 1);
  match Engine.element_of_hit e (List.hd hits) with
  | Some el -> check Alcotest.string "shelf" "shelf" el.tag
  | None -> Alcotest.fail "no element"

let explain_witnesses () =
  let e = eng () in
  match Engine.query e [ "xml"; "keyword" ] with
  | best :: _ ->
      let ws = Engine.explain e [ "xml"; "keyword" ] best in
      check Alcotest.int "one witness per keyword" 2 (List.length ws);
      List.iter
        (fun (w : Engine.witness) ->
          check Alcotest.bool "positive contribution" true (w.contribution > 0.))
        ws;
      (* SLCA scores have no exclusion, so witness contributions sum to the
         hit score exactly. *)
      let slca_best =
        List.hd (Engine.query ~semantics:Engine.Slca e [ "xml"; "keyword" ])
      in
      let total =
        List.fold_left
          (fun a (w : Engine.witness) -> a +. w.contribution)
          0.
          (Engine.explain e [ "xml"; "keyword" ] slca_best)
      in
      check (Alcotest.float 1e-9) "witnesses sum to SLCA score" slca_best.score
        total
  | [] -> Alcotest.fail "no results"

let snippet_contains_keyword () =
  let e = eng () in
  match Engine.query e [ "xml"; "keyword" ] with
  | best :: _ ->
      let snips = Engine.snippet ~width:30 e [ "xml"; "keyword" ] best in
      check Alcotest.int "two snippets" 2 (List.length snips);
      List.iter
        (fun (kw, text) ->
          let lower = String.lowercase_ascii text in
          let found = ref false in
          let kn = String.length kw in
          for i = 0 to String.length lower - kn do
            if String.sub lower i kn = kw then found := true
          done;
          check Alcotest.bool (kw ^ " visible in snippet") true !found;
          check Alcotest.bool "width respected" true (String.length text <= 30))
        snips
  | [] -> Alcotest.fail "no results"

let heap_basics () =
  let h = Xk_util.Heap.create () in
  check Alcotest.bool "empty" true (Xk_util.Heap.is_empty h);
  List.iter (fun (k, v) -> Xk_util.Heap.push h k v)
    [ (1.0, "a"); (3.0, "c"); (2.0, "b"); (5.0, "e"); (4.0, "d") ];
  check Alcotest.int "size" 5 (Xk_util.Heap.size h);
  check Alcotest.bool "top at least 5" true (Xk_util.Heap.top_at_least h 5.0);
  check Alcotest.bool "top below 5.5" false (Xk_util.Heap.top_at_least h 5.5);
  let cell = [| 0.; 5.0; 5.5 |] in
  check Alcotest.bool "top at least cell 1" true (Xk_util.Heap.top_at_least_cell h cell 1);
  check Alcotest.bool "top below cell 2" false (Xk_util.Heap.top_at_least_cell h cell 2);
  check Alcotest.string "pop" "e" (Xk_util.Heap.pop_value h);
  Xk_util.Heap.push h 5.0 "e";
  let order = List.map snd (Xk_util.Heap.drain h) in
  check Alcotest.(list string) "drain order" [ "e"; "d"; "c"; "b"; "a" ] order

let heap_random =
  QCheck.Test.make ~count:300 ~name:"heap sorts random floats"
    QCheck.(list pos_float)
    (fun floats ->
      let h = Xk_util.Heap.create () in
      List.iter (fun f -> Xk_util.Heap.push h f ()) floats;
      let drained = List.map fst (Xk_util.Heap.drain h) in
      drained = List.sort (fun a b -> Float.compare b a) floats)

(* The per-access heap queries of the top-K operators allocate nothing:
   no option, tuple or boxed float per call. *)
let heap_queries_allocate_nothing () =
  let h = Xk_util.Heap.create () in
  for i = 0 to 999 do
    Xk_util.Heap.push h (float_of_int ((i * 7919) mod 1000)) i
  done;
  let hits = ref 0 and sum = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Xk_util.Heap.top_at_least h 500.0 then incr hits;
    sum := !sum + Xk_util.Heap.pop_value h
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.int "heap drained" 0 (Xk_util.Heap.size h);
  check Alcotest.int "values" (999 * 1000 / 2) !sum;
  check Alcotest.int "tops at least 500" 500 !hits;
  if words > 100. then
    Alcotest.failf "2000 heap queries allocated %.0f minor words" words;
  Alcotest.check_raises "empty pop"
    (Invalid_argument "Heap.pop_value: empty heap") (fun () ->
      ignore (Xk_util.Heap.pop_value h))

(* End-to-end integration on a realistic corpus: every algorithm, both
   semantics, every planted query. *)
let dblp_integration () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.15) in
  let e = Engine.create corpus.doc in
  List.iter
    (fun q ->
      List.iter
        (fun semantics ->
          let reference = Engine.query ~semantics ~algorithm:Engine.Oracle e q in
          Alcotest.check Alcotest.bool
            ("has results: " ^ String.concat " " q)
            true (reference <> []);
          List.iter
            (fun (name, algorithm) ->
              Tutil.check_same_hits
                (name ^ " on {" ^ String.concat " " q ^ "}")
                reference
                (Engine.query ~semantics ~algorithm e q))
            [
              ("join", Engine.Join_based);
              ("stack", Engine.Stack_based);
              ("indexed", Engine.Index_based);
            ];
          List.iter
            (fun (name, algorithm) ->
              Tutil.check_topk
                (name ^ " top-10 on {" ^ String.concat " " q ^ "}")
                ~k:10 reference
                (Engine.query_topk ~semantics ~algorithm e q ~k:10))
            [
              ("topk-join", Engine.Topk_join);
              ("complete", Engine.Complete_then_sort);
              ("rdil", Engine.Rdil_baseline);
              ("hybrid", Engine.Hybrid);
            ])
        [ Engine.Elca; Engine.Slca ])
    (corpus.correlated_queries @ corpus.uncorrelated_queries)

let suite =
  [
    ( "engine",
      [
        tc "end to end" `Quick end_to_end;
        tc "unknown keyword" `Quick unknown_keyword_empty;
        tc "duplicate keywords" `Quick duplicate_keywords_collapse;
        tc "top-k prefix" `Quick topk_prefix_of_complete;
        tc "case insensitive" `Quick case_insensitive;
        tc "attribute search" `Quick attribute_search;
        tc "explain witnesses" `Quick explain_witnesses;
        tc "snippet contains keyword" `Quick snippet_contains_keyword;
        tc "heap basics" `Quick heap_basics;
        tc "heap queries allocate nothing" `Quick heap_queries_allocate_nothing;
        tc "DBLP integration, all algorithms" `Slow dblp_integration;
        QCheck_alcotest.to_alcotest heap_random;
      ] );
  ]
