(* The JDewey inverted list of one keyword: document-ordered rows (one per
   node directly containing the keyword) with their JDewey sequences and
   local scores, plus the per-level columns the join-based algorithms scan.

   Columns may be materialized eagerly (from in-memory sequences) or
   decoded on demand from a column store ({!Jstore}): the join algorithms
   only touch the columns of the levels they visit, which is the paper's
   "the algorithm does not read the whole JDewey sequences from the disk
   at once" I/O argument.  The sequences themselves are only forced by
   consumers that need per-row values (the top-K cursors). *)

type t = {
  seqs : Xk_encoding.Jdewey.t array Lazy.t; (* ascending in JDewey order *)
  nodes : int array;                        (* node index per row *)
  scores : float array;                     (* local score g per row *)
  row_lens : int array;                     (* sequence length per row *)
  max_len : int;
  columns : Column.t option array; (* columns.(l-1) is level l *)
  loader : (int -> Column.t) option; (* decode level on miss *)
}

let length t = Array.length t.nodes
let max_len t = t.max_len
let seq t r = (Lazy.force t.seqs).(r)
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

let make ~seqs ~nodes ~scores =
  let n = Array.length seqs in
  if Array.length nodes <> n || Array.length scores <> n then
    Xk_util.Err.invalid "Jlist.make: length mismatch";
  let max_len = Array.fold_left (fun m s -> max m (Array.length s)) 0 seqs in
  let columns =
    Array.init max_len (fun i ->
        Some (Column.build seqs ~level:(i + 1)))
  in
  {
    seqs = Lazy.from_val seqs;
    nodes;
    scores;
    row_lens = Array.map Array.length seqs;
    max_len;
    columns;
    loader = None;
  }

(* A store-backed list: columns decode on first touch; sequences (needed
   only by per-row consumers such as the top-K cursors) reconstruct from
   all columns when forced. *)
let make_lazy ~nodes ~scores ~row_lens ~max_len ~loader =
  let n = Array.length nodes in
  if Array.length scores <> n || Array.length row_lens <> n then
    Xk_util.Err.invalid "Jlist.make_lazy: length mismatch";
  let columns = Array.make max_len None in
  let rec t =
    {
      seqs =
        lazy
          (let seqs = Array.init n (fun r -> Array.make row_lens.(r) 0) in
           for level = 1 to max_len do
             let c = column t ~level in
             for i = 0 to Column.num_runs c - 1 do
               let start = Column.start c i in
               for r = start to start + Column.count c i - 1 do
                 seqs.(r).(level - 1) <- Column.value c i
               done
             done
           done;
           seqs);
      nodes;
      scores;
      row_lens;
      max_len;
      columns;
      loader = Some loader;
    }
  in
  t

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
