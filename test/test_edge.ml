(* Edge cases and contract checks across modules: invalid inputs raise,
   boundary conditions behave, optional paths (SLCA top-K, empty
   structures, K beyond result count) work through the public API. *)

open Xk_core

let check = Alcotest.check
let tc = Alcotest.test_case

(* -------- encodings -------- *)

let dewey_of_string_invalid () =
  List.iter
    (fun s ->
      match Xk_encoding.Dewey.of_string s with
      | exception (Invalid_argument _ | Failure _) -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ "0"; "1.0"; "1.-2"; "a.b"; "1..2" ]

let labeling_rejects_bad_gap () =
  let doc = Xk_xml.Xml_parser.parse_string_exn "<a/>" in
  Alcotest.check_raises "gap 0" (Invalid_argument "Labeling.label: gap must be >= 1")
    (fun () -> ignore (Xk_encoding.Labeling.label ~gap:0 doc))

let single_node_document () =
  let eng = Engine.of_string "<lonely/>" in
  check Alcotest.int "no results" 0 (List.length (Engine.query eng [ "anything" ]));
  let lab = Engine.label eng in
  check Alcotest.int "one node" 1 (Xk_encoding.Labeling.node_count lab);
  check Alcotest.int "height" 1 (Xk_encoding.Labeling.height lab)

(* -------- index structures -------- *)

let jlist_length_mismatch () =
  let lab = Engine.label (Engine.of_string "<r><a/><b/></r>") in
  (match Xk_index.Jlist.make lab ~nodes:[| 1; 2 |] ~scores:[| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatch accepted");
  (* Rows out of document order would break the run layout. *)
  match Xk_index.Jlist.make lab ~nodes:[| 2; 1 |] ~scores:[| 1.; 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unordered rows accepted"

let posting_length_mismatch () =
  match
    Xk_index.Posting.make ~deweys:[| [| 1 |] |] ~nodes:[||] ~scores:[||]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatch accepted"

let empty_column () =
  let c = Xk_index.Column.of_arrays ~values:[||] ~starts:[||] ~counts:[||] in
  check Alcotest.bool "empty" true (Xk_index.Column.is_empty c);
  check Alcotest.int "find" (-1) (Xk_index.Column.find c 5)

let scorer_extremes () =
  let s = Xk_score.Scorer.make ~total_nodes:100 in
  (* df equal to the whole collection still gives a positive score. *)
  let g = Xk_score.Scorer.local_score s ~tf:1 ~df:100 in
  check Alcotest.bool "positive" true (g > 0.);
  Alcotest.check_raises "tf 0" (Invalid_argument "Scorer.local_score") (fun () ->
      ignore (Xk_score.Scorer.local_score s ~tf:0 ~df:1))

(* -------- star join -------- *)

let star_join_single_relation () =
  let r =
    Star_join.relation ~keys:[| 7; 8; 9 |] ~scores:[| 0.9; 0.5; 0.1 |]
  in
  let out = Star_join.topk [| r |] ~k:2 in
  check Alcotest.int "two results" 2 (List.length out);
  (match out with
  | { key = 7; _ } :: { key = 8; _ } :: _ -> ()
  | _ -> Alcotest.fail "wrong order")

let star_join_rejects_ascending () =
  match Star_join.relation ~keys:[| 1; 2 |] ~scores:[| 0.1; 0.9 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ascending scores accepted"

let star_join_disjoint_keys () =
  let r1 = Star_join.relation ~keys:[| 1; 2 |] ~scores:[| 0.9; 0.8 |] in
  let r2 = Star_join.relation ~keys:[| 3; 4 |] ~scores:[| 0.9; 0.8 |] in
  check Alcotest.int "no joinable keys" 0
    (List.length (Star_join.topk [| r1; r2 |] ~k:5))

(* -------- top-K through the engine -------- *)

let corpus =
  lazy
    (Engine.of_string
       {|<db>
           <x><y>apple banana</y><y>apple</y></x>
           <x><y>banana</y><z>apple banana cherry</z></x>
           <x><y>apple banana</y></x>
         </db>|})

let topk_beyond_results () =
  let eng = Lazy.force corpus in
  let full = Engine.query eng [ "apple"; "banana" ] in
  let top99 = Engine.query_topk eng [ "apple"; "banana" ] ~k:99 in
  check Alcotest.int "everything returned" (List.length full) (List.length top99);
  Tutil.check_same_hits "same results" full top99

let topk_zero () =
  let eng = Lazy.force corpus in
  check Alcotest.int "k=0" 0
    (List.length (Engine.query_topk eng [ "apple"; "banana" ] ~k:0))

let slca_topk_via_engine () =
  let eng = Lazy.force corpus in
  let full = Engine.query ~semantics:Engine.Slca eng [ "apple"; "banana" ] in
  let top2 =
    Engine.query_topk ~semantics:Engine.Slca eng [ "apple"; "banana" ] ~k:2
  in
  Tutil.check_topk "slca engine top-2" ~k:2 full top2;
  (* RDIL requests under SLCA fall back to complete evaluation. *)
  let rd =
    Engine.query_topk ~semantics:Engine.Slca ~algorithm:Engine.Rdil_baseline eng
      [ "apple"; "banana" ] ~k:2
  in
  Tutil.check_topk "slca rdil fallback" ~k:2 full rd

let slca_topk_prop =
  QCheck.Test.make ~count:200 ~name:"engine SLCA top-K = oracle (random trees)"
    QCheck.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, k) ->
      let eng = Tutil.random_engine seed in
      let rng = Xk_datagen.Rng.create (seed + 91) in
      let q = Tutil.random_query rng ~k ~alphabet:3 in
      let full = Engine.query ~semantics:Engine.Slca ~algorithm:Engine.Oracle eng q in
      let top =
        Engine.query_topk ~semantics:Engine.Slca eng q ~k:4
      in
      Tutil.check_topk "slca topk" ~k:4 full top;
      true)

(* -------- tokenizer property -------- *)

let tokenizer_prop =
  QCheck.Test.make ~count:500 ~name:"tokens are lowercase, bounded, non-stopword"
    QCheck.(string_of_size (Gen.int_range 0 200))
    (fun s ->
      let word c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
        || Char.code c >= 0x80
      in
      let ok = ref true in
      (* each span is a maximal word run of 2 to 40 bytes *)
      Xk_text.Tokenizer.spans s (fun s pos len ->
          if len < 2 || len > 40 then ok := false;
          if pos > 0 && word s.[pos - 1] then ok := false;
          if pos + len < String.length s && word s.[pos + len] then ok := false;
          String.iter (fun c -> if not (word c) then ok := false) (String.sub s pos len));
      (* and, lowercased as the index interns it, never a stopword *)
      List.iter (fun t -> if List.mem t Tutil.stopwords then ok := false) (Tutil.tokens s);
      !ok)

(* -------- naive LCA edge -------- *)

let naive_lca_k1 () =
  let eng = Lazy.force corpus in
  let idx = Engine.index eng in
  let ids = Xk_index.Index.term_ids_exn idx [ "apple" ] in
  let set = Xk_baselines.Naive_lca.lca_set idx ids in
  (* k = 1: the LCA set is exactly the occurrence set. *)
  check Alcotest.int "occurrences" (Xk_index.Index.df idx (List.hd ids))
    (List.length set);
  check Alcotest.(list int) "brute agrees"
    (List.sort Int.compare set)
    (Xk_baselines.Naive_lca.brute idx ids)

let naive_lca_cap () =
  let eng = Lazy.force corpus in
  let idx = Engine.index eng in
  let ids = Xk_index.Index.term_ids_exn idx [ "apple"; "banana" ] in
  match Xk_baselines.Naive_lca.brute ~max_combinations:1 idx ids with
  | exception Xk_baselines.Naive_lca.Too_many_combinations -> ()
  | _ -> Alcotest.fail "cap ignored"

(* -------- hybrid routing -------- *)

let hybrid_margin_routes () =
  let eng = Lazy.force corpus in
  let idx = Engine.index eng in
  let ids = Xk_index.Index.term_ids_exn idx [ "apple"; "banana" ] in
  let jls = Array.of_list (List.map (Xk_index.Index.jlist idx) ids) in
  let level_width l =
    Xk_encoding.Labeling.level_width (Engine.label eng) ~depth:l
  in
  (* A tiny margin routes to the top-K join; a huge one to complete. *)
  check Alcotest.bool "low margin" true
    (Hybrid.choose ~margin:0.0001 jls ~level_width ~k:1 = Hybrid.Use_topk);
  check Alcotest.bool "high margin" true
    (Hybrid.choose ~margin:1e9 jls ~level_width ~k:1 = Hybrid.Use_complete)

(* -------- presentation helpers -------- *)

let hit_top_k () =
  let hits =
    [
      { Xk_baselines.Hit.node = 1; score = 0.2 };
      { Xk_baselines.Hit.node = 2; score = 0.9 };
      { Xk_baselines.Hit.node = 3; score = 0.5 };
    ]
  in
  check Alcotest.(list int) "top 2 by score" [ 2; 3 ]
    (Xk_baselines.Hit.nodes (Xk_baselines.Hit.top_k 2 hits));
  check Alcotest.int "top 0" 0 (List.length (Xk_baselines.Hit.top_k 0 hits));
  check Alcotest.int "top beyond" 3 (List.length (Xk_baselines.Hit.top_k 9 hits))

let element_summary_truncates () =
  let doc =
    Xk_xml.Xml_parser.parse_string_exn
      ("<a>" ^ String.make 200 'x' ^ "</a>")
  in
  let s =
    Fmt.str "%a" (Xk_xml.Xml_print.pp_element_summary ~max_text:20) doc.root
  in
  check Alcotest.bool "truncated" true (String.length s < 40);
  check Alcotest.bool "ellipsis" true
    (String.length s >= 3 && String.sub s (String.length s - 3) 3 = "...")

let element_of_text_node () =
  let eng = Engine.of_string "<a><b>needle</b></a>" in
  match Engine.query eng [ "needle" ] with
  | [ h ] -> (
      (* The result is the text node; presentation maps to its parent. *)
      match Engine.element_of_hit eng h with
      | Some e -> check Alcotest.string "parent element" "b" e.tag
      | None -> Alcotest.fail "no element")
  | other -> Alcotest.failf "expected one hit, got %d" (List.length other)

(* level_join over an empty column short-circuits. *)
let level_join_empty_column () =
  let full = Tutil.column_of_seqs [| [| 1 |]; [| 2 |] |] ~level:1 in
  let empty = Tutil.column_of_seqs [||] ~level:1 in
  check Alcotest.int "no matches" 0
    (Level_join.join ~plan:Level_join.Dynamic [| full; empty |]).count

(* Column.of_arrays keeps the runs it is given. *)
let column_of_arrays_roundtrip () =
  let runs = [ (1, 0, 2); (3, 2, 1); (7, 3, 3) ] in
  let c =
    Xk_index.Column.of_arrays
      ~values:(Array.of_list (List.map (fun (v, _, _) -> v) runs))
      ~starts:(Array.of_list (List.map (fun (_, s, _) -> s) runs))
      ~counts:(Array.of_list (List.map (fun (_, _, c) -> c) runs))
  in
  check Alcotest.bool "same runs" true (runs = Tutil.column_runs c);
  match
    Xk_index.Column.of_arrays ~values:[| 1 |] ~starts:[||] ~counts:[| 1 |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched run arrays accepted"

let suite =
  [
    ( "edge",
      [
        tc "dewey of_string invalid" `Quick dewey_of_string_invalid;
        tc "labeling bad gap" `Quick labeling_rejects_bad_gap;
        tc "single node document" `Quick single_node_document;
        tc "jlist length mismatch" `Quick jlist_length_mismatch;
        tc "posting length mismatch" `Quick posting_length_mismatch;
        tc "empty column" `Quick empty_column;
        tc "scorer extremes" `Quick scorer_extremes;
        tc "star join single relation" `Quick star_join_single_relation;
        tc "star join rejects ascending" `Quick star_join_rejects_ascending;
        tc "star join disjoint keys" `Quick star_join_disjoint_keys;
        tc "top-K beyond result count" `Quick topk_beyond_results;
        tc "top-K k=0" `Quick topk_zero;
        tc "SLCA top-K via engine" `Quick slca_topk_via_engine;
        tc "naive LCA k=1" `Quick naive_lca_k1;
        tc "naive LCA combination cap" `Quick naive_lca_cap;
        tc "hybrid margin routing" `Quick hybrid_margin_routes;
        tc "hit top_k" `Quick hit_top_k;
        tc "element summary truncates" `Quick element_summary_truncates;
        tc "element_of maps text to parent" `Quick element_of_text_node;
        tc "level join with empty column" `Quick level_join_empty_column;
        tc "column of_arrays roundtrip" `Quick column_of_arrays_roundtrip;
        QCheck_alcotest.to_alcotest slca_topk_prop;
        QCheck_alcotest.to_alcotest tokenizer_prop;
      ] );
  ]
