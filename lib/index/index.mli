(** The corpus index: terms plus raw postings, with the
    algorithm-specific list shapes (Dewey postings, JDewey column lists,
    score-ordered lists) materialized per term on demand and cached.

    Every index reads its terms and rows from one v9 segment
    ({!Segment}): {!build} encodes one and opens its own bytes,
    {!Index_io} maps one from a file, {!Shard_io} every copy of one.
    Term ids are ranks in byte order, and a term's rows are decoded on
    first use.

    The shape caches are sharded, bounded LRU caches ({!Shard_cache}), so
    a built index is safe to share across domains: {!jlist}, {!posting},
    {!score_list} and {!warm} may be called concurrently, and each term's
    shape is materialized exactly once per cache residency. *)

type t

type stats_override = {
  so_total_nodes : int;  (** corpus-wide node count for the scorer norm *)
  so_df : string -> int;
      (** corpus-wide document frequency of a term.  Evaluated lazily, at
          list-shape materialization time, so the table behind it may be
          filled after construction (the sharded build does exactly
          that). *)
}
(** Corpus-global ranking statistics.  A partitioned index
    ({!Sharding}) scores each shard with the {e whole} corpus's node
    count and document frequencies, so per-row scores are bit-identical
    to the unsharded index and per-shard top-K results merge exactly. *)

val build :
  ?cache_capacity:int ->
  ?stats:stats_override ->
  Xk_encoding.Labeling.t ->
  t
(** One pass over the labeled tree; text nodes contribute their character
    data, elements their attribute values.  The segment is encoded once
    and opened through the checks a file gets.  [cache_capacity] (default
    8192) bounds each of the three shape caches; the least recently used
    term is evicted when a cache is full.  [stats] overrides the ranking
    statistics derived from this tree alone (sharded indices). *)

val of_segments : ?stats:stats_override -> Xk_encoding.Labeling.t -> Segment.t list -> t
(** Serve opened copies of one segment over the document they were
    encoded from, leaving out each copy that is not the first one's
    encoding ({!Segment.same_encoding}).  Raises [Invalid_argument] on
    an empty list. *)

val bytes : t -> string
(** The bytes of the copy rows are read from ({!Index_io.save}). *)

val label : t -> Xk_encoding.Labeling.t
val damping : t -> Xk_score.Damping.t
(** The depth damping of every score: {!Xk_score.Damping.default}. *)

val term_count : t -> int

val term_id : t -> string -> int option
(** Case-insensitive lookup. *)

val term : t -> int -> string

val df : t -> int -> int
(** Posting-list length of a term (= keyword frequency in the paper's
    experiments). *)

val jlist : t -> int -> Jlist.t
val posting : t -> int -> Posting.t
val score_list : t -> int -> Score_list.t

val warm : t -> int list -> unit
(** Materialize every list shape for the given terms (hot-cache setting). *)

val cache_stats : t -> Shard_cache.stats
(** Hit/miss/eviction counters and occupancy summed over the three shape
    caches (so [capacity] is three times the per-shape bound). *)

val raw_rows : t -> int -> int array * int array
(** Uncached (nodes, tfs) rows of a term, decoded afresh on every call,
    for whole-dictionary sweeps.  A copy that raises
    {!Segment.Segment_fault} is not read again: the read moves to the
    next copy, and the fault propagates only from the last one. *)

val local_scores : t -> int -> float array

val term_ids_exn : t -> string list -> int list
(** Ids for query words; raises [Invalid_argument] on unknown keywords. *)

val first_seen : t -> int -> int
(** [first_seen t i] is the id of the [i]-th term a fresh {!build} met
    in document order; [i] itself for an opened segment, which keeps no
    such order.  It only breaks {!terms_by_df}'s ties. *)

val terms_by_df : t -> int array
(** All term ids, most frequent first.  The unstable sort starts from
    {!first_seen} order, so a fresh {!build} breaks ties as it did when
    its ids were first-seen ids, and an opened segment by byte order. *)
