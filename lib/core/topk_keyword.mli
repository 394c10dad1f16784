(** Join-based top-K keyword search (paper Section IV-C): score-ordered
    length-grouped columns, a per-column top-K star join, cross-column
    ceilings (static, plus a dynamic alive-rows refinement), and the
    range-checked exclusion applied per drained column. *)

type threshold = Star_join.threshold = Classic | Tight

type semantics = Join_query.semantics = Elca | Slca

type hit = Join_query.hit = { level : int; value : int; score : float }

type stats = {
  mutable pulled : int;        (** sorted accesses (including dead rows) *)
  mutable dead_skipped : int;  (** erased rows encountered by cursors *)
  mutable columns : int;       (** columns entered *)
  mutable generated : int;     (** results completed in the bucket *)
  mutable early_exit_level : int;
      (** the level at which K results were out (0 = ran to the root) *)
}

val new_stats : unit -> stats

val topk :
  ?stats:stats ->
  ?threshold:threshold ->
  ?semantics:semantics ->
  ?budget:Xk_resilience.Budget.t ->
  Xk_index.Score_list.t array ->
  Xk_score.Damping.t ->
  k:int ->
  hit list
(** The K best results, best first, identical (up to ties) to running
    {!Join_query.run} and keeping the K top scores - property-tested in
    [test/test_core.ml].

    Anytime: every emitted result was confirmed against the
    unseen-results threshold, so when the budget expires mid-run the
    function returns early with the results emitted so far - a valid
    prefix of the full top-K under the same scores (never raises
    [Budget.Expired]).  Use [Budget.exhausted] to detect the partial
    case. *)

val topk_over :
  (module Star_join.S) ->
  stats:stats ->
  threshold:threshold ->
  semantics:semantics ->
  budget:Xk_resilience.Budget.t ->
  Xk_index.Score_list.t array ->
  Xk_score.Damping.t ->
  k:int ->
  hit list
(** {!topk} over another star join: the tests run it over a reference
    join. *)
