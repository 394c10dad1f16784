(** Algorithm 1: join-based evaluation of the complete ELCA / SLCA result
    set (paper Sections III-B..III-F), bottom-up over JDewey columns with
    range-checked exclusion. *)

type semantics = Elca | Slca

type hit = {
  level : int;  (** tree depth of the result node (1 = root) *)
  value : int;  (** its JDewey number at that depth *)
  score : float;
}

val exclude :
  Xk_index.Column.t array -> Level_join.matches -> Erased.t array -> unit
(** [exclude cols ms erased] erases every match's full run from every
    list: [erased.(i)] belongs to the list of column [cols.(i)] (the
    exclusion of Section III-E, one batch per list). *)

val run :
  ?plan:Level_join.plan ->
  ?join_stats:Level_join.stats ->
  ?budget:Xk_resilience.Budget.t ->
  Xk_index.Jlist.t array ->
  Xk_score.Damping.t ->
  semantics ->
  hit list
(** All results, deepest level first; scores follow Section II-B (per
    keyword the best damped non-excluded witness, summed).  Raises
    {!Xk_resilience.Budget.Expired} if the budget runs out: a complete
    result set has no valid partial prefix. *)
