(* Sparse index over a column (Section III-C: "in practice sparse indices
   can be built over columns to improve efficiency").  Every [stride]-th
   run's value is sampled; a probe binary-searches the samples and hands
   back a narrow run range for the column's own search to finish.  The
   sampled values are also what the Table I "sparse" column measures. *)

type t = {
  stride : int;
  values : int array; (* sampled run values *)
  positions : int array; (* run index of each sample *)
}

let default_stride = 64

let build ?(stride = default_stride) (c : Column.t) =
  if stride < 1 then Xk_util.Err.invalid "Sparse_index.build";
  let n = Column.num_runs c in
  let count = (n + stride - 1) / stride in
  let values = Array.make count 0 in
  let positions = Array.make count 0 in
  for i = 0 to count - 1 do
    values.(i) <- Column.value c (i * stride);
    positions.(i) <- i * stride
  done;
  { stride; values; positions }

(* Run-index window [lo, hi) guaranteed to contain [value] if present. *)
let probe t ~num_runs value =
  let n = Array.length t.values in
  if n = 0 then (0, 0)
  else begin
    (* Greatest sample <= value. *)
    let lo = ref 0 and hi = ref (n - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.values.(mid) <= value then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    if !best < 0 then (0, min t.stride num_runs)
    else
      let start = t.positions.(!best) in
      (start, min (start + t.stride) num_runs)
  end

let encoded_size t =
  Array.fold_left (fun a v -> a + Xk_storage.Varint.size v + 4) 0 t.values
