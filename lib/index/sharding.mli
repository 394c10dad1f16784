(** Partitioned (sharded) indexing of one corpus.

    The corpus is split {e by document}: every top-level subtree (child
    of the root) is assigned to exactly one shard, and each shard is a
    self-contained {!Index.t} over a sub-document made of the shared root
    element plus its assigned subtrees.  Shards score with corpus-global
    statistics ({!Index.stats_override}), so every per-row score is
    bit-identical to the unsharded index — per-shard results merge into
    exactly the unsharded result set.

    Because all results below the root live entirely inside one
    top-level subtree, deep results of the sharded corpus are the
    disjoint union of the shards' deep results.  The only node whose
    result spans shards is the root itself; {!root_summary} extracts the
    per-shard evidence (best damped witness per keyword, with and
    without the exclusion induced by keyword-complete subtrees) from
    which a gather step reconstructs the root's ELCA/SLCA membership and
    exact score (see [Xk_exec.Shard_exec]). *)

type t

val partition :
  ?cache_capacity:int ->
  ?assignment:int array ->
  shards:int ->
  Xk_xml.Xml_tree.document ->
  t
(** Build a sharded index in memory.  Top-level subtree [i] goes to
    shard [i mod shards] unless [assignment] (top-level child index ->
    shard) says otherwise; its length must equal the number of
    top-level subtrees and its values must be in [\[0, shards)].
    [cache_capacity] as in {!Index.build}, applied per shard.
    Raises [Invalid_argument] on [shards < 1] or a malformed
    assignment. *)

val build_with :
  ?shards:int ->
  assignment:int array ->
  make:
    (shard:int ->
    Xk_encoding.Labeling.t ->
    stats:Index.stats_override ->
    (Index.t, 'e) result) ->
  Xk_xml.Xml_tree.document ->
  (t, 'e) result
(** Generalized constructor: [make] produces each shard's index from its
    sub-document labeling and the corpus-global statistics override
    (built fresh or loaded from a segment — see {!Shard_io}).  [shards]
    may exceed what the assignment names (trailing shards index a bare
    root).  Stops at the first error.  The [stats] handed to [make]
    resolve document frequencies lazily, so they are valid only once
    [build_with] returns. *)

val count : t -> int
(** Number of shards (some may hold no subtrees). *)

val index : t -> int -> Index.t
val assignment : t -> int array

val total_nodes : t -> int
(** Node count of the whole corpus (= every shard's scorer norm). *)

val to_global : t -> shard:int -> int -> int
(** Map a shard-local node index to the unsharded document's node index
    (the labelers are deterministic, so the mapping is positional). *)

val locate : t -> int -> int * int
(** Inverse of {!to_global}: global node index -> (shard, local node).
    The root, present in every shard, locates to shard 0.  Raises
    [Invalid_argument] when out of range. *)

val cache_stats : t -> Shard_cache.stats
(** {!Shard_cache.aggregate} over every shard's shape caches. *)

val size_reports : t -> Index_sizes.report array
(** Per-shard serialized-size accounting. *)

val size_report : t -> Index_sizes.report
(** {!Index_sizes.aggregate} of {!size_reports}. *)

(** {1 Root-result evidence}

    Per query keyword [i] (position in the given word list):
    [rs_best_all.(i)] is the best root-damped witness contribution in the
    shard (= [neg_infinity] when the keyword does not occur there);
    [rs_best_free.(i)] restricts to occurrences {e not} inside a
    keyword-complete top-level subtree — exactly the occurrences the
    join algorithm has not excluded when it reaches the root;
    [rs_full_subtree] reports whether any of the shard's top-level
    subtrees contains every query keyword (which forbids a root SLCA). *)
type root_summary = {
  rs_best_all : float array;
  rs_best_free : float array;
  rs_full_subtree : bool;
}

val root_summary :
  ?budget:Xk_resilience.Budget.t -> t -> shard:int -> string list -> root_summary
(** One pass over the shard's inverted lists of the given keywords
    (matching is case-insensitive, as in the engine).  Polls [budget] and
    raises [Xk_resilience.Budget.Expired] on expiry. *)
