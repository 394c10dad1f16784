(* The JDewey inverted list of one keyword: document-ordered rows (one per
   node directly containing the keyword) with their local scores, plus the
   per-level columns the join-based algorithms scan.  The columns are the
   list's only copy of its JDewey numbers.

   Columns are either built at once from the labeling
   ([Labeling.jdewey_columns]) or decoded on demand from a column store
   ({!Jstore}): the join algorithms only touch the columns of the levels
   they visit, which is the paper's "the algorithm does not read the whole
   JDewey sequences from the disk at once" I/O argument. *)

type t = {
  nodes : int array;    (* node index per row, ascending *)
  scores : float array; (* local score g per row *)
  row_lens : int array; (* sequence length (node depth) per row *)
  max_len : int;
  columns : Column.t option array; (* columns.(l-1) is level l *)
  loader : (int -> Column.t) option; (* decode level on miss *)
}

let length t = Array.length t.nodes
let max_len t = t.max_len
let node t r = t.nodes.(r)
let score t r = t.scores.(r)
let row_len t r = t.row_lens.(r)
let nodes t = t.nodes
let scores t = t.scores

let column t ~level =
  if level < 1 || level > t.max_len then
    Xk_util.Err.invalid "Jlist.column: level out of range";
  match t.columns.(level - 1) with
  | Some c -> c
  | None -> (
      match t.loader with
      | None ->
          (* eager lists always populate all columns *)
          Xk_util.Err.unreachable "Jlist.column: eager list missing a column"
      | Some load ->
          let c = load level in
          t.columns.(level - 1) <- Some c;
          c)

let make label ~nodes ~scores =
  if Array.length scores <> Array.length nodes then
    Xk_util.Err.invalid "Jlist.make: length mismatch";
  let columns =
    Array.map
      (fun (values, starts, counts) ->
        Some (Column.of_arrays ~values ~starts ~counts))
      (Xk_encoding.Labeling.jdewey_columns label nodes)
  in
  {
    nodes;
    scores;
    row_lens = Array.map (Xk_encoding.Labeling.depth label) nodes;
    max_len = Array.length columns;
    columns;
    loader = None;
  }

let make_lazy ~nodes ~scores ~row_lens ~max_len ~loader =
  let n = Array.length nodes in
  if Array.length scores <> n || Array.length row_lens <> n then
    Xk_util.Err.invalid "Jlist.make_lazy: length mismatch";
  {
    nodes;
    scores;
    row_lens;
    max_len;
    columns = Array.make max_len None;
    loader = Some loader;
  }

(* Serialized size of the list in the join-based layout: every column
   through the column codec, plus per-row node payloads (node ids as
   varints).  Used by the Table I accounting. *)
let encoded_size t =
  let cols = ref 0 in
  for level = 1 to t.max_len do
    cols := !cols + Column.encoded_size (column t ~level)
  done;
  let payload =
    Array.fold_left (fun acc v -> acc + Xk_storage.Varint.size v) 0 t.nodes
  in
  !cols + payload
