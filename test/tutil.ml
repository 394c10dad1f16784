(* Shared helpers for the test suites: random corpora, random queries and
   tolerant result comparison. *)

let random_doc ?config seed =
  let rng = Xk_datagen.Rng.create seed in
  Xk_datagen.Random_tree.generate ?config rng

let random_engine ?config seed = Xk_core.Engine.create (random_doc ?config seed)

(* A query of [k] distinct keywords from the random-tree alphabet. *)
let random_query rng ~k ~alphabet =
  let ks = Xk_datagen.Rng.sample rng ~n:alphabet ~k in
  Array.to_list (Array.map Xk_datagen.Random_tree.keyword ks)

(* A column's runs as (value, start row, count) triples, in run order. *)
let column_runs (c : Xk_index.Column.t) =
  List.init (Xk_index.Column.num_runs c) (fun i ->
      (Xk_index.Column.value c i, Xk_index.Column.start c i, Xk_index.Column.count c i))

(* The tokens [Tokenizer.spans] indexes in [s], lowercased as the index
   interns them. *)
let tokens s =
  let acc = ref [] in
  Xk_text.Tokenizer.spans s (fun s pos len ->
      acc := String.lowercase_ascii (String.sub s pos len) :: !acc);
  List.rev !acc

(* The stopwords the tokenizer leaves out, written out as its
   specification. *)
let stopwords =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "no"; "not"; "of"; "on"; "or"; "such"; "that";
    "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to"; "was";
    "will"; "with";
  ]

(* [Index_io.load_result] for a segment the test expects to load. *)
let load_index label path =
  match Xk_index.Index_io.load_result label path with
  | Ok idx -> idx
  | Error e ->
      Alcotest.failf "load %s: %s" path (Xk_index.Index_io.load_error_message e)

let sort_hits (hits : Xk_baselines.Hit.t list) =
  List.sort Xk_baselines.Hit.compare_node hits

let score_tolerance = 1e-9

(* Same node sets with matching scores. *)
let same_hits (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  let a = sort_hits a and b = sort_hits b in
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && Float.abs (x.score -. y.score) < score_tolerance)
       a b

let pp_hits hits =
  String.concat "; "
    (List.map
       (fun (h : Xk_baselines.Hit.t) -> Printf.sprintf "(%d, %.6f)" h.node h.score)
       (sort_hits hits))

let check_same_hits msg expected actual =
  if not (same_hits expected actual) then
    Alcotest.failf "%s:\n  expected %s\n  actual   %s" msg (pp_hits expected)
      (pp_hits actual)

(* Top-K validation robust to ties: the returned score sequence must equal
   the oracle's best-K scores, and each returned node must carry its true
   score. *)
let check_topk msg ~k (full : Xk_baselines.Hit.t list)
    (topk : Xk_baselines.Hit.t list) =
  let expected_scores =
    List.filteri (fun i _ -> i < k) (Xk_baselines.Hit.sort_desc full)
    |> List.map (fun (h : Xk_baselines.Hit.t) -> h.score)
  in
  let actual_scores = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) topk in
  if List.length expected_scores <> List.length actual_scores then
    Alcotest.failf "%s: expected %d results, got %d (full=%s, topk=%s)" msg
      (List.length expected_scores)
      (List.length actual_scores)
      (pp_hits full) (pp_hits topk);
  List.iter2
    (fun e a ->
      if Float.abs (e -. a) > score_tolerance then
        Alcotest.failf "%s: score sequences differ\n  expected %s\n  actual %s"
          msg
          (String.concat ", " (List.map (Printf.sprintf "%.6f") expected_scores))
          (String.concat ", " (List.map (Printf.sprintf "%.6f") actual_scores)))
    expected_scores actual_scores;
  (* Per-node score fidelity. *)
  List.iter
    (fun (h : Xk_baselines.Hit.t) ->
      match List.find_opt (fun (f : Xk_baselines.Hit.t) -> f.node = h.node) full with
      | Some f ->
          if Float.abs (f.score -. h.score) > score_tolerance then
            Alcotest.failf "%s: node %d score %.9f, oracle says %.9f" msg h.node
              h.score f.score
      | None -> Alcotest.failf "%s: node %d is not a result at all" msg h.node)
    topk

(* The record-per-node labeling that [Xk_encoding.Labeling] replaced, kept
   as the specification its struct-of-arrays form must match: one DFS in
   document order, per-depth counters times [gap] for JDewey, sibling
   ranks for Dewey, and a per-depth directory searched by JDewey number. *)
module Ref_labeling = struct
  type info = {
    depth : int;
    jnum : int;
    sib : int;
    parent : int;
    xml : Xk_xml.Xml_tree.node;
  }

  type t = { nodes : info array; levels : (int * int) list array }

  let label ?(gap = 1) (doc : Xk_xml.Xml_tree.document) =
    let acc = ref [] and counters = Hashtbl.create 16 and next = ref 0 in
    let rec go depth parent sib (x : Xk_xml.Xml_tree.node) =
      let idx = !next in
      incr next;
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counters depth) in
      Hashtbl.replace counters depth c;
      acc := { depth; jnum = c * gap; sib; parent; xml = x } :: !acc;
      match x with
      | Text _ -> ()
      | Element e -> List.iteri (fun i c -> go (depth + 1) idx (i + 1) c) e.children
    in
    go 1 (-1) 1 (Element doc.root);
    let nodes = Array.of_list (List.rev !acc) in
    let levels = Array.make (Hashtbl.length counters) [] in
    for i = Array.length nodes - 1 downto 0 do
      let n = nodes.(i) in
      levels.(n.depth - 1) <- (n.jnum, i) :: levels.(n.depth - 1)
    done;
    { nodes; levels }

  let node_count t = Array.length t.nodes
  let height t = Array.length t.levels
  let depth t i = t.nodes.(i).depth
  let jnum t i = t.nodes.(i).jnum
  let parent t i = t.nodes.(i).parent

  let rec chain t i = if i < 0 then [] else i :: chain t t.nodes.(i).parent

  let jdewey_seq t i = Array.of_list (List.rev_map (jnum t) (chain t i))
  let dewey t i = Array.of_list (List.rev_map (fun i -> t.nodes.(i).sib) (chain t i))

  let find t ~depth ~jnum =
    if depth < 1 || depth > height t then None
    else List.assoc_opt jnum t.levels.(depth - 1)

  let ancestor_at t i ~depth = List.find_opt (fun a -> t.nodes.(a).depth = depth) (chain t i)

  let level_width t ~depth =
    if depth < 1 || depth > height t then 0 else List.length t.levels.(depth - 1)

  let element_of t i =
    List.find_map
      (fun a ->
        match t.nodes.(a).xml with Xk_xml.Xml_tree.Element e -> Some e | Text _ -> None)
      (chain t i)
end
