(** Top-K star join (paper Section IV-A/B): sorted access, hash-bucket
    matching, and a threshold over the unseen results that permits
    non-blocking emission.  {!topk} runs it over ranked relations;
    [Topk_keyword] runs one {!join} per column of a keyword query. *)

type threshold =
  | Classic  (** the HRJN bound of Ilyas et al. *)
  | Tight    (** the paper's group-wise bound over partial results *)

type relation = { keys : int array; scores : float array }

type result = { key : int; total : float }

type stats = {
  mutable pulled : int;  (** sorted accesses performed *)
  mutable emitted : int;
  mutable bucket_peak : int;
}

val new_stats : unit -> stats

val relation : keys:int array -> scores:float array -> relation
(** Validates that scores are descending and above [neg_infinity], and
    that no key is [min_int]; keys must be unique within one relation. *)

val topk :
  ?stats:stats ->
  ?threshold:threshold ->
  relation array ->
  k:int ->
  result list
(** The K best star-join results (sum aggregate), best first.  Emits a
    result as soon as its total reaches the unseen-results bound.  The
    reference the tests hold {!join}'s callers to; it runs unbudgeted. *)

(** {2 The join, one set of lists at a time} *)

val dead : int
(** The key a join's [pull] reports for a dead row: the pull counts as a
    sorted access but joins nothing. *)

(** The join's interface: [Topk_keyword.topk_over] is written against it,
    and the tests hold this module to a reference implementation through
    it. *)
module type S = sig
  type 'a run
  (** K, the results generated but not yet confirmed against the
      threshold, the results emitted so far and the hash bucket - shared
      by every {!join} of one top-K query. *)

  val run : ?stats:stats -> k:int -> unit -> 'a run

  val complete : 'a run -> bool
  (** K results have been emitted. *)

  val join :
    'a run ->
    threshold:threshold ->
    budget:Xk_resilience.Budget.t ->
    below:float ->
    accept:(int -> bool) ->
    ceilings:float array ->
    next:float array ->
    pull:(int -> int) ->
    make:(int -> float -> 'a) ->
    unit
  (** Star-join [Array.length ceilings] lists into the run until K
      results are out, every list is exhausted or the budget trips.
      [next.(i)] is the score of list [i]'s next entry ([neg_infinity]
      once it is exhausted); [pull i] advances list [i], updates
      [next.(i)] and returns the entry's key or {!dead}.  [ceilings.(i)]
      bounds every score of list [i] (the [Classic] threshold).  A key
      every list has matched becomes [make key total] if [accept key]
      holds, and is emitted once its total reaches both the
      unseen-results threshold and [below], the bound on results the
      query's later joins can still produce. *)

  val finish : budget:Xk_resilience.Budget.t -> 'a run -> 'a list
  (** After the last {!join}: emits the remaining generated results
      (unless the budget tripped - those were never confirmed) and
      returns the results, best first.  Called once per run. *)
end

include S
(** The bucket is flat arrays kept per domain: a run takes its domain's
    bucket and {!finish} returns it, and a run that finds it taken
    allocates its own. *)
