(** The hybrid planner of the paper's Section V-D discussion: route a top-K
    request to the top-K join or to complete evaluation from a
    join-cardinality estimate. *)

type choice = Use_topk | Use_complete

val estimate_results :
  Xk_index.Jlist.t array -> level_width:(int -> int) -> float
(** Expected number of matched JDewey numbers summed over levels, from the
    per-level distinct counts and level widths (textbook equi-join
    cardinality). *)

val choose :
  ?margin:float ->
  Xk_index.Jlist.t array ->
  level_width:(int -> int) ->
  k:int ->
  choice
(** [Use_topk] when the estimate exceeds [margin * k]. *)

val topk :
  ?stats:Topk_keyword.stats ->
  ?margin:float ->
  ?semantics:Join_query.semantics ->
  ?budget:Xk_resilience.Budget.t ->
  Xk_index.Score_list.t array ->
  Xk_score.Damping.t ->
  level_width:(int -> int) ->
  k:int ->
  Join_query.hit list
(** Anytime like {!Topk_keyword.topk} (never raises [Budget.Expired]):
    the top-K route returns its confirmed prefix on expiry; the complete
    route, which confirms nothing until it finishes, degrades to the
    empty partial result. *)
