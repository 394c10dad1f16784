(* The JDewey inverted list of one keyword: document-ordered rows (one per
   node directly containing the keyword) with their local scores, plus the
   per-level columns the join-based algorithms scan.  The columns are the
   list's only copy of its JDewey numbers; all of them are built at once
   from the labeling ([Labeling.jdewey_columns]), so a list never changes
   after [make]. *)

type t = {
  nodes : int array;    (* node index per row, ascending *)
  scores : float array; (* local score g per row *)
  row_lens : int array; (* sequence length (node depth) per row *)
  columns : Column.t array; (* columns.(l-1) is level l *)
}

let length t = Array.length t.nodes
let max_len t = Array.length t.columns
let node t r = t.nodes.(r)
let score t r = t.scores.(r)
let row_len t r = t.row_lens.(r)
let nodes t = t.nodes
let scores t = t.scores

let column t ~level =
  if level < 1 || level > Array.length t.columns then
    Xk_util.Err.invalid "Jlist.column: level out of range";
  t.columns.(level - 1)

let make label ~nodes ~scores =
  if Array.length scores <> Array.length nodes then
    Xk_util.Err.invalid "Jlist.make: length mismatch";
  {
    nodes;
    scores;
    row_lens = Array.map (Xk_encoding.Labeling.depth label) nodes;
    columns =
      Array.map
        (fun (values, starts, counts) -> Column.of_arrays ~values ~starts ~counts)
        (Xk_encoding.Labeling.jdewey_columns label nodes);
  }

(* Serialized size of the list in the join-based layout: every column
   through the column codec, plus per-row node payloads (node ids as
   varints).  Used by the Table I accounting. *)
let encoded_size t =
  let cols =
    Array.fold_left (fun acc c -> acc + Column.encoded_size c) 0 t.columns
  in
  Array.fold_left (fun acc v -> acc + Xk_storage.Varint.size v) cols t.nodes
