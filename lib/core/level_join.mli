(** Per-level k-way star join over JDewey columns (paper Section III-B/C):
    left-deep from the smallest column, merge vs. index join chosen
    dynamically per step. *)

type plan =
  | Dynamic      (** Section III-C dynamic optimization *)
  | Force_merge  (** ablation: always merge join *)
  | Force_index  (** ablation: always index join *)

type matches = {
  count : int;  (** number of matches; only the first [count] slots count *)
  values : int array;  (** [values.(m)]: the [m]-th matched JDewey number *)
  runs : int array array;
      (** [runs.(i).(m)]: the index of match [m]'s run in input column [i] *)
}
(** The matches, column-wise, in ascending value order. *)

type stats = {
  mutable merge_joins : int;
  mutable index_joins : int;
  mutable probes : int;
  mutable scanned : int;
}

val new_stats : unit -> stats

val join :
  ?stats:stats ->
  ?budget:Xk_resilience.Budget.t ->
  plan:plan ->
  Xk_index.Column.t array ->
  matches
(** Values present in every column, ascending, with set semantics (runs
    already group duplicate numbers).  The budget is polled once per
    intermediate value; raises {!Xk_resilience.Budget.Expired} when it
    runs out (complete-result semantics admit no partial answer). *)
