(* One column of a JDewey inverted list: the level-l JDewey numbers of all
   sequences of length >= l, in list (= document) order.

   Rows holding the same number at level l are contiguous in the list — a
   consequence of Property 3.1 proved in the paper and re-checked as a
   qcheck property in the test suite — so the column is exactly a sorted
   sequence of runs (value, start_row, count) over consecutive row
   indices: the paper's (v, r, c) triples, which are both the in-memory
   working form of its second compression scheme and the unit of its
   range checking.

   The runs are stored as three parallel int arrays, one slot per run, so
   a column is four heap blocks whatever its length (about three words
   per run) and readers address a run by its index. *)

type t = {
  values : int array; (* strictly increasing *)
  starts : int array; (* first row of each run *)
  counts : int array; (* rows in each run, >= 1 *)
}

let num_runs t = Array.length t.values
let is_empty t = Array.length t.values = 0
let value t i = t.values.(i)
let start t i = t.starts.(i)
let count t i = t.counts.(i)

let of_arrays ~values ~starts ~counts =
  let n = Array.length values in
  if Array.length starts <> n || Array.length counts <> n then
    Xk_util.Err.invalid "Column.of_arrays: length mismatch";
  { values; starts; counts }

(* Binary search for the run holding [value]; -1 if none. *)
let find t value =
  let values = t.values in
  let lo = ref 0 and hi = ref (Array.length values - 1) in
  let res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = values.(mid) in
    if v = value then begin
      res := mid;
      lo := !hi + 1
    end
    else if v < value then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let encoded_size t =
  Xk_storage.Column_codec.encoded_size
    (Array.init (num_runs t) (fun i ->
         { Xk_storage.Column_codec.value = t.values.(i); count = t.counts.(i) }))
