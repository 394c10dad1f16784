(* Shared helpers for the test suites: random corpora, random queries and
   tolerant result comparison. *)

let random_doc ?config seed =
  let rng = Xk_datagen.Rng.create seed in
  Xk_datagen.Random_tree.generate ?config rng

(* [random_doc seed] with nodes of every kind the index meets: about a
   third of the elements carry an attribute whose value is a keyword, a
   numbered word or stopwords only, and about a fifth of the text nodes
   hold stopwords only (term-bearing, yet no row names them). *)
let decorated_doc seed =
  let rng = Random.State.make [| seed; 1 |] in
  let open Xk_xml.Xml_tree in
  let value () =
    match Random.State.int rng 3 with
    | 0 -> Xk_datagen.Random_tree.keyword (Random.State.int rng 4)
    | 1 -> Printf.sprintf "w%d kw0" (Random.State.int rng 50)
    | _ -> "the of"
  in
  let rec node = function
    | Text _ when Random.State.int rng 5 = 0 -> Text "of the and"
    | Text _ as t -> t
    | Element e -> Element (element e)
  and element e =
    {
      e with
      attrs = (if Random.State.int rng 3 = 0 then [ attr "a" (value ()) ] else e.attrs);
      children = List.map node e.children;
    }
  in
  { root = element (random_doc seed).root }

let random_engine ?config seed = Xk_core.Engine.create (random_doc ?config seed)

(* A query of [k] distinct keywords from the random-tree alphabet. *)
let random_query rng ~k ~alphabet =
  let ks = Xk_datagen.Rng.sample rng ~n:alphabet ~k in
  Array.to_list (Array.map Xk_datagen.Random_tree.keyword ks)

(* A column's runs as (value, start row, count) triples, in run order. *)
let column_runs (c : Xk_index.Column.t) =
  List.init (Xk_index.Column.num_runs c) (fun i ->
      (Xk_index.Column.value c i, Xk_index.Column.start c i, Xk_index.Column.count c i))

(* The reference a column must match: run-length encode the level-[level]
   numbers of the rows long enough to hold one, starting a new run at a
   value change or a skipped row. *)
let naive_runs (seqs : Xk_encoding.Jdewey.t array) ~level =
  let runs = ref [] in
  Array.iteri
    (fun r (s : Xk_encoding.Jdewey.t) ->
      if Array.length s >= level then
        let v = s.(level - 1) in
        match !runs with
        | (pv, ps, pc) :: rest when pv = v && ps + pc = r ->
            runs := (pv, ps, pc + 1) :: rest
        | _ -> runs := (v, r, 1) :: !runs)
    seqs;
  List.rev !runs

(* The level-[level] column of literal sequences, through the reference
   runs. *)
let column_of_seqs seqs ~level =
  let runs = Array.of_list (naive_runs seqs ~level) in
  Xk_index.Column.of_arrays
    ~values:(Array.map (fun (v, _, _) -> v) runs)
    ~starts:(Array.map (fun (_, s, _) -> s) runs)
    ~counts:(Array.map (fun (_, _, c) -> c) runs)

(* The tokens [Tokenizer.spans] indexes in [s], lowercased as the index
   interns them. *)
let tokens s =
  let acc = ref [] in
  Xk_text.Tokenizer.spans s (fun s pos len ->
      acc := String.lowercase_ascii (String.sub s pos len) :: !acc);
  List.rev !acc

(* The postings an index of [label] must hold, tallied without
   [Xk_index]: every node [Labeling.term_bearing] admits contributes its
   text's or its attribute values' [tokens], and each term collects
   (node, tf) per node that holds it, in node order.  Returns the terms
   in byte order with their nodes and tfs, and the terms in the order the
   token stream first meets them. *)
let tally label =
  let rows = Hashtbl.create 256 and seen = ref [] in
  for i = 0 to Xk_encoding.Labeling.node_count label - 1 do
    match Xk_encoding.Labeling.xml_node label i with
    | x when not (Xk_encoding.Labeling.term_bearing x) -> ()
    | x ->
        let texts =
          match x with
          | Xk_xml.Xml_tree.Text s -> [ s ]
          | Xk_xml.Xml_tree.Element e ->
              List.map (fun (a : Xk_xml.Xml_tree.attribute) -> a.attr_value) e.attrs
        in
        let words = List.concat_map tokens texts in
        List.iter
          (fun w ->
            if not (Hashtbl.mem rows w) then begin
              Hashtbl.add rows w [];
              seen := w :: !seen
            end)
          words;
        List.iter
          (fun w ->
            let tf = List.length (List.filter (String.equal w) words) in
            Hashtbl.replace rows w ((i, tf) :: Hashtbl.find rows w))
          (List.sort_uniq String.compare words)
  done;
  let by_term =
    Hashtbl.fold
      (fun w r acc ->
        let r = Array.of_list (List.rev r) in
        (w, Array.map fst r, Array.map snd r) :: acc)
      rows []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  (Array.of_list by_term, Array.of_list (List.rev !seen))

(* The stopwords the tokenizer leaves out, written out as its
   specification. *)
let stopwords =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "no"; "not"; "of"; "on"; "or"; "such"; "that";
    "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to"; "was";
    "will"; "with";
  ]

(* The first 8 bytes of a file, where every index file kind keeps its
   magic ([Index_io.magic], a [Index_io.retired] one, a manifest's);
   [None] for a missing, unreadable or shorter file. *)
let magic_of path =
  match In_channel.with_open_bin path (fun ic -> really_input_string ic 8) with
  | m -> Some m
  | exception (Sys_error _ | End_of_file) -> None

(* [Index_io.load_result] for a segment the test expects to load. *)
let load_index label path =
  match Xk_index.Index_io.load_result label path with
  | Ok idx -> idx
  | Error e ->
      Alcotest.failf "load %s: %s" path (Xk_index.Index_io.load_error_message e)

(* The term region written from the format, independently of
   [Index_io] and [Symbols]: a symbol table (a varint count, then per
   symbol a length byte and its bytes), every term as one byte (shared
   prefix length lsl 4 lor code length, a nibble of 15 followed by a
   varint of the rest) and the codes of its suffix (at each byte the
   index of the longest symbol there, else 255 and the byte; with no
   symbols, the suffix itself), the shared prefix the longest one with
   the term before, or none for a block's first term (its restart, one
   per 16); then each block's offset in the region.  [entry] may rewrite
   the bytes of one entry, [table] the offsets. *)
let spec_varint n =
  let b = Buffer.create 10 in
  Xk_storage.Varint.write b n;
  Buffer.contents b

let spec_codes syms s =
  if syms = [||] then s
  else begin
    let b = Buffer.create 16 and i = ref 0 in
    while !i < String.length s do
      let best = ref (-1) in
      Array.iteri
        (fun j sym ->
          let l = String.length sym in
          if
            l > 0
            && !i + l <= String.length s
            && String.sub s !i l = sym
            && (!best < 0 || l > String.length syms.(!best))
          then best := j)
        syms;
      if !best < 0 then begin
        Buffer.add_char b '\255';
        Buffer.add_char b s.[!i];
        incr i
      end
      else begin
        Buffer.add_char b (Char.chr !best);
        i := !i + String.length syms.(!best)
      end
    done;
    Buffer.contents b
  end

let spec_entry ~shared codes =
  let len = String.length codes in
  String.make 1 (Char.chr ((min shared 15 lsl 4) lor min len 15))
  ^ (if shared >= 15 then spec_varint (shared - 15) else "")
  ^ (if len >= 15 then spec_varint (len - 15) else "")
  ^ codes

let spec_table syms =
  spec_varint (Array.length syms)
  ^ String.concat ""
      (Array.to_list (Array.map (fun s -> String.make 1 (Char.chr (String.length s)) ^ s) syms))

let term_region ?(entry = fun _ e -> e) ?(table = Fun.id) ?(syms = [||]) terms =
  let b = Buffer.create 256 and offs = ref [] in
  Buffer.add_string b (spec_table syms);
  List.iteri
    (fun k t ->
      let shared =
        if k mod 16 = 0 then begin
          offs := Buffer.length b :: !offs;
          0
        end
        else
          let prev = List.nth terms (k - 1) in
          let shared = ref 0 in
          while
            !shared < min (String.length prev) (String.length t)
            && prev.[!shared] = t.[!shared]
          do
            incr shared
          done;
          !shared
      in
      Buffer.add_string b
        (entry k
           (spec_entry ~shared (spec_codes syms (String.sub t shared (String.length t - shared))))))
    terms;
  List.iter (fun off -> Buffer.add_int32_le b (Int32.of_int off)) (table (List.rev !offs));
  Buffer.contents b

(* The symbols at the start of a term region. *)
let symbols_of region =
  let c = Xk_storage.Varint.cursor region in
  Array.init (Xk_storage.Varint.read c) (fun _ ->
      let len = Char.code region.[c.pos] in
      Xk_storage.Varint.skip c 1;
      Xk_storage.Varint.take c len)

(* The term region of segment bytes [good]. *)
let term_region_of good =
  String.sub good 80 (Int64.to_int (String.get_int64_le good 36))

(* [good] with its term region replaced by [terms] (and its term count
   by [term_count]), every covering checksum recomputed. *)
let with_term_region ?term_count good terms =
  let terms_len = Int64.to_int (String.get_int64_le good 36) in
  let h = Bytes.of_string (String.sub good 0 80) in
  Option.iter (fun n -> Bytes.set_int64_le h 20 (Int64.of_int n)) term_count;
  Bytes.set_int64_le h 36 (Int64.of_int (String.length terms));
  Bytes.set_int32_le h 68 (Int32.of_int (Xk_storage.Crc32.string terms));
  Bytes.set_int32_le h 76
    (Int32.of_int (Xk_storage.Crc32.sub (Bytes.to_string h) ~pos:0 ~len:76));
  Bytes.to_string h ^ terms
  ^ String.sub good (80 + terms_len) (String.length good - 80 - terms_len)

(* Term regions of [terms] (in byte order, two or more, with 2 to 254
   distinct bytes) behind whatever checksums they are given, each with a
   symbol table no writer produces, named by the check it must fail.
   The base table is the terms' distinct bytes in order, one symbol
   each, so a term's codes sort as its bytes do; every region is
   otherwise well formed, so only the named check can refuse it. *)
let damaged_symbol_tables terms =
  let bytes =
    List.sort_uniq compare (List.concat_map (fun t -> List.of_seq (String.to_seq t)) terms)
  in
  let syms = Array.of_list (List.map (String.make 1) bytes) in
  let n = Array.length syms in
  (* Entry 1 with its codes rewritten. *)
  let entry1 f =
    let t0 = List.nth terms 0 and t1 = List.nth terms 1 in
    let shared = ref 0 in
    while !shared < min (String.length t0) (String.length t1) && t0.[!shared] = t1.[!shared] do
      incr shared
    done;
    let suffix = String.sub t1 !shared (String.length t1 - !shared) in
    term_region ~syms terms ~entry:(fun k e ->
        if k = 1 then spec_entry ~shared:!shared (f (spec_codes syms suffix)) else e)
  in
  let region = term_region ~syms terms in
  let table = spec_table syms in
  let entries = String.sub region (String.length table) (String.length region - String.length table) in
  [
    ("symbol of length 0", term_region ~syms:(Array.append [| "" |] syms) terms);
    ("symbol longer than 8 bytes", term_region ~syms:(Array.append syms [| String.make 9 '\255' |]) terms);
    ( "more than 255 symbols",
      term_region ~syms:(Array.init 256 (fun b -> String.make 1 (Char.chr b))) terms );
    ("code naming a missing symbol", entry1 (fun codes -> String.make 1 (Char.chr n) ^ codes));
    ("escape at a suffix's end", entry1 (fun codes -> codes ^ "\255"));
    ( "table whose decoded terms break byte order",
      spec_table (Array.init n (fun j -> syms.(n - 1 - j))) ^ entries );
  ]

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

(* The reference [Xk_index.Sharding.root_summary] must match, bit for
   bit: group every keyword's rows by top-level subtree through
   [Labeling.ancestor_at] and a table of per-keyword coverage masks, then
   take the per-keyword maxima of the root-damped contributions over all
   rows and over the rows outside keyword-complete subtrees. *)
let root_summary_reference sharding ~shard words :
    Xk_index.Sharding.root_summary =
  let idx = Xk_index.Sharding.index sharding shard in
  let lab = Xk_index.Index.label idx in
  let damping = Xk_index.Index.damping idx in
  let nw = List.length words in
  let ids = Array.of_list (List.map (Xk_index.Index.term_id idx) words) in
  let best_all = Array.make nw neg_infinity in
  let best_free = Array.make nw neg_infinity in
  let coverage : (int, bool array) Hashtbl.t = Hashtbl.create 64 in
  let top jl r =
    Xk_encoding.Labeling.ancestor_at lab (Xk_index.Jlist.node jl r) ~depth:2
  in
  Array.iteri
    (fun i id ->
      Option.iter
        (fun id ->
          let jl = Xk_index.Index.jlist idx id in
          for r = 0 to Xk_index.Jlist.length jl - 1 do
            Option.iter
              (fun top ->
                let mask =
                  match Hashtbl.find_opt coverage top with
                  | Some m -> m
                  | None ->
                      let m = Array.make nw false in
                      Hashtbl.add coverage top m;
                      m
                in
                mask.(i) <- true)
              (top jl r)
          done)
        id)
    ids;
  let complete mask = Array.for_all Fun.id mask in
  let full_subtree =
    nw > 0 && Hashtbl.fold (fun _ m acc -> acc || complete m) coverage false
  in
  Array.iteri
    (fun i id ->
      Option.iter
        (fun id ->
          let jl = Xk_index.Index.jlist idx id in
          for r = 0 to Xk_index.Jlist.length jl - 1 do
            let damped =
              Xk_index.Jlist.score jl r
              *. Xk_score.Damping.apply damping
                   (Xk_index.Jlist.row_len jl r - 1)
            in
            if damped > best_all.(i) then best_all.(i) <- damped;
            let free =
              match top jl r with
              | None -> true
              | Some top -> not (complete (Hashtbl.find coverage top))
            in
            if free && damped > best_free.(i) then best_free.(i) <- damped
          done)
        id)
    ids;
  {
    rs_best_all = best_all;
    rs_best_free = best_free;
    rs_full_subtree = full_subtree;
  }
