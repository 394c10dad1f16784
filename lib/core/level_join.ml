(* Per-level k-way join over JDewey columns (Section III-B/III-C).

   The join is a star equi-join on JDewey numbers with set semantics (runs
   already group duplicates).  The plan is left-deep from the smallest to
   the largest column; each subsequent join picks the merge join or the
   index join from the sizes of the current intermediate result and the
   next column - the dynamic optimization of Section III-C.  [Force_merge]
   and [Force_index] exist for the ablation benches.

   The intermediate result is held column-wise like the columns: the
   surviving values plus, per column joined so far, the run index of each
   value, compacted in place as each step filters it. *)

type plan = Dynamic | Force_merge | Force_index

(* Intermediate result size must be this many times smaller than the next
   column before the index join pays for its logarithmic probes. *)
let index_join_ratio = 16

type matches = { count : int; values : int array; runs : int array array }

type stats = {
  mutable merge_joins : int;
  mutable index_joins : int;
  mutable probes : int;
  mutable scanned : int;
}

let new_stats () = { merge_joins = 0; index_joins = 0; probes = 0; scanned = 0 }

let join ?stats ?(budget = Xk_resilience.Budget.unlimited) ~plan
    (cols : Xk_index.Column.t array) : matches =
  let stats = match stats with Some s -> s | None -> new_stats () in
  let k = Array.length cols in
  if k = 0 then Xk_util.Err.invalid "Level_join.join: no columns";
  (* Left-deep order: smallest column first (Section III-C). *)
  let order = Array.init k (fun i -> i) in
  Array.sort
    (fun a b ->
      Int.compare (Xk_index.Column.num_runs cols.(a))
        (Xk_index.Column.num_runs cols.(b)))
    order;
  let runs = Array.make k [||] in
  let first = cols.(order.(0)) in
  if Xk_index.Column.is_empty first then { count = 0; values = [||]; runs }
  else begin
    let len = ref (Xk_index.Column.num_runs first) in
    let values = Array.init !len (Xk_index.Column.value first) in
    runs.(order.(0)) <- Array.init !len Fun.id;
    for oi = 1 to k - 1 do
      let col = cols.(order.(oi)) in
      let here = Array.make !len 0 in
      runs.(order.(oi)) <- here;
      (* Intermediate value [m] survives with run [r] of [col]: move it
         down to the next kept slot.  The budget is polled once per
         intermediate value - granular enough to stop a long scan within
         milliseconds. *)
      let kept = ref 0 in
      let keep m r =
        values.(!kept) <- values.(m);
        for oj = 0 to oi - 1 do
          let a = runs.(order.(oj)) in
          a.(!kept) <- a.(m)
        done;
        here.(!kept) <- r;
        incr kept
      in
      let use_index =
        match plan with
        | Force_merge -> false
        | Force_index -> true
        | Dynamic -> !len * index_join_ratio < Xk_index.Column.num_runs col
      in
      if use_index then begin
        stats.index_joins <- stats.index_joins + 1;
        for m = 0 to !len - 1 do
          Xk_resilience.Budget.check budget;
          stats.probes <- stats.probes + 1;
          let r = Xk_index.Column.find col values.(m) in
          if r >= 0 then keep m r
        done
      end
      else begin
        stats.merge_joins <- stats.merge_joins + 1;
        let n = Xk_index.Column.num_runs col in
        let j = ref 0 in
        for m = 0 to !len - 1 do
          Xk_resilience.Budget.check budget;
          let value = values.(m) in
          while !j < n && Xk_index.Column.value col !j < value do
            incr j;
            stats.scanned <- stats.scanned + 1
          done;
          if !j < n && Xk_index.Column.value col !j = value then keep m !j
        done
      end;
      len := !kept
    done;
    { count = !len; values; runs }
  end
