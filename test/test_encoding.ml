(* Dewey ids, JDewey sequences and the labeler. *)

open Xk_encoding

let check = Alcotest.check
let tc = Alcotest.test_case

let dewey_basics () =
  let d = Dewey.of_string "1.3.2" in
  check Alcotest.string "to_string" "1.3.2" (Dewey.to_string d);
  check Alcotest.int "length" 3 (Dewey.length d);
  check Alcotest.string "child" "1.3.2.5" (Dewey.to_string (Dewey.child d 5));
  (match Dewey.parent d with
  | Some p -> check Alcotest.string "parent" "1.3" (Dewey.to_string p)
  | None -> Alcotest.fail "parent");
  check Alcotest.bool "no parent of root" true (Dewey.parent Dewey.root = None)

let dewey_order () =
  let sorted =
    List.sort Dewey.compare
      (List.map Dewey.of_string [ "1.2"; "1"; "1.10"; "1.2.1"; "1.3" ])
  in
  check
    Alcotest.(list string)
    "document order"
    [ "1"; "1.2"; "1.2.1"; "1.3"; "1.10" ]
    (List.map Dewey.to_string sorted)

let dewey_lca () =
  let a = Dewey.of_string "1.2.3.1" and b = Dewey.of_string "1.2.4" in
  check Alcotest.string "lca" "1.2" (Dewey.to_string (Dewey.lca a b));
  check Alcotest.bool "ancestor" true (Dewey.is_ancestor (Dewey.of_string "1.2") a);
  check Alcotest.bool "not strict" false (Dewey.is_ancestor a a);
  check Alcotest.bool "or self" true (Dewey.is_ancestor_or_self a a)

let dewey_range () =
  let u = Dewey.of_string "1.2" in
  check Alcotest.string "range end" "1.3" (Dewey.to_string (Dewey.range_end u));
  check Alcotest.bool "descendant inside" true
    (Dewey.compare (Dewey.of_string "1.2.9.9") (Dewey.range_end u) < 0);
  check Alcotest.bool "sibling outside" false
    (Dewey.compare (Dewey.of_string "1.3") (Dewey.range_end u) < 0)

let jdewey_order_and_lca () =
  let a = [| 1; 2; 5 |] and b = [| 1; 2; 7 |] and c = [| 1; 3 |] in
  check Alcotest.bool "a < b" true (Jdewey.compare a b < 0);
  check Alcotest.bool "prefix first" true (Jdewey.compare [| 1; 2 |] a < 0);
  check Alcotest.(option (pair int int)) "lca a b" (Some (2, 2)) (Jdewey.lca a b);
  check Alcotest.(option (pair int int)) "lca a c" (Some (1, 1)) (Jdewey.lca a c);
  check Alcotest.bool "ancestor" true (Jdewey.is_ancestor [| 1; 2 |] a)

(* The labeler on a hand-built document. *)
let doc () =
  Xk_xml.Xml_parser.parse_string_exn
    "<r><a><b>t1</b><b>t2</b></a><a><c>t3</c></a></r>"

let labeling_basics () =
  let lab = Labeling.label (doc ()) in
  check Alcotest.int "count" 9 (Labeling.node_count lab);
  check Alcotest.int "height" 4 (Labeling.height lab);
  (* Root. *)
  check Alcotest.int "root depth" 1 (Labeling.depth lab 0);
  check Alcotest.string "root dewey" "1" (Dewey.to_string (Labeling.dewey lab 0));
  (* Second <a> is node index 6 (doc order: r a b t1 b t2 a c t3). *)
  check Alcotest.string "a2 dewey" "1.2" (Dewey.to_string (Labeling.dewey lab 6));
  check Alcotest.string "a2 jdewey" "1.2" (Jdewey.to_string (Labeling.jdewey_seq lab 6));
  (* t3 text node. *)
  check Alcotest.string "t3 dewey" "1.2.1.1" (Dewey.to_string (Labeling.dewey lab 8));
  check Alcotest.string "t3 jdewey" "1.2.3.3" (Jdewey.to_string (Labeling.jdewey_seq lab 8))

let labeling_find () =
  let lab = Labeling.label (doc ()) in
  for i = 0 to Labeling.node_count lab - 1 do
    let depth = Labeling.depth lab i and jnum = Labeling.jnum lab i in
    match Labeling.find lab ~depth ~jnum with
    | Some j -> check Alcotest.int "find roundtrip" i j
    | None -> Alcotest.fail "find failed"
  done;
  check Alcotest.(option int) "missing" None (Labeling.find lab ~depth:2 ~jnum:99);
  check Alcotest.(option int) "bad depth" None (Labeling.find lab ~depth:9 ~jnum:1)

let labeling_gap () =
  let lab = Labeling.label ~gap:8 (doc ()) in
  check Alcotest.int "gap" 8 (Labeling.gap lab);
  check Alcotest.string "jdewey with gap" "8.16.24.24"
    (Jdewey.to_string (Labeling.jdewey_seq lab 8));
  (* find still works with gapped numbers *)
  match Labeling.find lab ~depth:4 ~jnum:24 with
  | Some 8 -> ()
  | _ -> Alcotest.fail "gapped find"

let labeling_ancestor_at () =
  let lab = Labeling.label (doc ()) in
  check Alcotest.(option int) "self" (Some 8) (Labeling.ancestor_at lab 8 ~depth:4);
  check Alcotest.(option int) "parent" (Some 7) (Labeling.ancestor_at lab 8 ~depth:3);
  check Alcotest.(option int) "root" (Some 0) (Labeling.ancestor_at lab 8 ~depth:1);
  check Alcotest.(option int) "too deep" None (Labeling.ancestor_at lab 0 ~depth:3)

(* Properties over random trees. *)
let random_labeling seed =
  let rng = Xk_datagen.Rng.create seed in
  let d = Xk_datagen.Random_tree.generate rng in
  Labeling.label d

let prop_3_1 =
  QCheck.Test.make ~count:200 ~name:"JDewey Property 3.1 on random trees"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lab = random_labeling seed in
      let n = Labeling.node_count lab in
      let rng = Xk_datagen.Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 100 do
        let i = Xk_datagen.Rng.int rng n and j = Xk_datagen.Rng.int rng n in
        let a = Labeling.jdewey_seq lab i and b = Labeling.jdewey_seq lab j in
        let a, b = if Jdewey.compare a b <= 0 then (a, b) else (b, a) in
        if not (Jdewey.property_3_1 a b) then ok := false
      done;
      !ok)

let prop_lca_agree =
  QCheck.Test.make ~count:200
    ~name:"Dewey LCA depth = JDewey LCA level on random trees"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lab = random_labeling seed in
      let n = Labeling.node_count lab in
      let rng = Xk_datagen.Rng.create (seed + 7) in
      let ok = ref true in
      for _ = 1 to 100 do
        let i = Xk_datagen.Rng.int rng n and j = Xk_datagen.Rng.int rng n in
        let dl =
          Dewey.common_prefix_len (Labeling.dewey lab i) (Labeling.dewey lab j)
        in
        let jl = Jdewey.lca_level (Labeling.jdewey_seq lab i) (Labeling.jdewey_seq lab j) in
        if dl <> jl then ok := false;
        (* And the identified node is a common ancestor of both. *)
        (match Jdewey.lca (Labeling.jdewey_seq lab i) (Labeling.jdewey_seq lab j) with
        | Some (depth, jnum) -> (
            match Labeling.find lab ~depth ~jnum with
            | Some u ->
                let du = Labeling.dewey lab u in
                if
                  not
                    (Dewey.is_ancestor_or_self du (Labeling.dewey lab i)
                    && Dewey.is_ancestor_or_self du (Labeling.dewey lab j))
                then ok := false
            | None -> ok := false)
        | None -> ok := false)
      done;
      !ok)

let prop_doc_order_is_jdewey_order =
  QCheck.Test.make ~count:200 ~name:"node index order = JDewey order"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let lab = random_labeling seed in
      let n = Labeling.node_count lab in
      let ok = ref true in
      for i = 0 to n - 2 do
        if Jdewey.compare (Labeling.jdewey_seq lab i) (Labeling.jdewey_seq lab (i + 1)) >= 0
        then ok := false;
        if Dewey.compare (Labeling.dewey lab i) (Labeling.dewey lab (i + 1)) >= 0
        then ok := false
      done;
      !ok)

(* The struct-of-arrays labeling answers every accessor exactly as the
   record-per-node reference does, on random trees and with a gap. *)
let prop_matches_reference =
  QCheck.Test.make ~count:200 ~name:"labeling = record-based reference"
    QCheck.(pair (int_bound 1_000_000) (oneofl [ 1; 2; 7 ]))
    (fun (seed, gap) ->
      let doc = Tutil.random_doc seed in
      let lab = Labeling.label ~gap doc and r = Tutil.Ref_labeling.label ~gap doc in
      let module R = Tutil.Ref_labeling in
      let n = R.node_count r and h = R.height r in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      if Labeling.node_count lab <> n || Labeling.height lab <> h then
        fail "size %d/%d vs %d/%d" (Labeling.node_count lab) (Labeling.height lab) n h;
      for i = 0 to n - 1 do
        if Labeling.depth lab i <> R.depth r i || Labeling.jnum lab i <> R.jnum r i
           || Labeling.parent lab i <> R.parent r i
        then fail "node %d: depth/jnum/parent differ" i;
        if Labeling.jdewey_seq lab i <> R.jdewey_seq r i then fail "node %d: jdewey" i;
        if Labeling.dewey lab i <> R.dewey r i then fail "node %d: dewey" i;
        if not (Option.equal ( == ) (Labeling.element_of lab i) (R.element_of r i)) then
          fail "node %d: element_of" i;
        for depth = 0 to h + 1 do
          if Labeling.ancestor_at lab i ~depth <> R.ancestor_at r i ~depth then
            fail "node %d: ancestor_at %d" i depth
        done
      done;
      for depth = 0 to h + 1 do
        if Labeling.level_width lab ~depth <> R.level_width r ~depth then
          fail "level_width %d" depth;
        (* Every assigned number, the free numbers a gap leaves, and
           numbers beyond either end of the level. *)
        for jnum = -1 to ((R.level_width r ~depth + 1) * gap) + 1 do
          if Labeling.find lab ~depth ~jnum <> R.find r ~depth ~jnum then
            fail "find depth %d jnum %d" depth jnum
        done
      done;
      true)

let suite =
  [
    ( "encoding",
      [
        tc "dewey basics" `Quick dewey_basics;
        tc "dewey order" `Quick dewey_order;
        tc "dewey lca/ancestor" `Quick dewey_lca;
        tc "dewey subtree range" `Quick dewey_range;
        tc "jdewey order and lca" `Quick jdewey_order_and_lca;
        tc "labeling basics" `Quick labeling_basics;
        tc "labeling find" `Quick labeling_find;
        tc "labeling with gap" `Quick labeling_gap;
        tc "ancestor_at" `Quick labeling_ancestor_at;
        QCheck_alcotest.to_alcotest prop_3_1;
        QCheck_alcotest.to_alcotest prop_lca_agree;
        QCheck_alcotest.to_alcotest prop_doc_order_is_jdewey_order;
        QCheck_alcotest.to_alcotest prop_matches_reference;
      ] );
  ]
