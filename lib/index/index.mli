(** The corpus index: dictionary plus raw postings, with the
    algorithm-specific list shapes (Dewey postings, JDewey column lists,
    score-ordered lists) materialized per term on demand and cached.

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
    data, elements their attribute values.  [cache_capacity] (default
    8192) bounds each of the three shape caches; the least recently used
    term is evicted when a cache is full.  [stats] overrides the ranking
    statistics derived from this tree alone (sharded indices). *)

val of_raw :
  ?stats:stats_override ->
  Xk_encoding.Labeling.t ->
  (string * int array * int array) list ->
  t
(** Reassemble an index from persisted (term, nodes, tfs) postings; used by
    the v2 loader ({!Index_io.load_result}).  Term ids are assigned in
    list order.  The arrays become the rows of a {!provider}, as
    {!build}'s do: every index reads its rows through one. *)

type provider = {
  pv_terms : int;  (** number of terms; ids are [0 .. pv_terms - 1] *)
  pv_row_count : int -> int;  (** posting-list length of a term, O(1) *)
  pv_rows : int -> int array * int array;
      (** decode a term's (nodes, tfs) rows.  Must be callable from any
          domain (pure decoding of immutable bytes); may raise the
          segment's typed fault exception on lazily-detected corruption. *)
}
(** The one row source of every index.  A zero-copy segment
    ({!Index_io} v5) decodes a term's rows from mapped postings on first
    use instead of materializing every posting at open; {!build} and
    {!of_raw} hand over the arrays they hold. *)

val of_provider :
  ?stats:stats_override ->
  dict:Xk_text.Dictionary.t ->
  Xk_encoding.Labeling.t ->
  provider ->
  t
(** Wrap a lazy rows source.  [dict] must already be interned in term-id
    order with per-term statistics set (the v5 loader reads them from the
    segment directory); raises [Invalid_argument] if its size differs
    from [pv_terms]. *)

val label : t -> Xk_encoding.Labeling.t
val dict : t -> Xk_text.Dictionary.t
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
(** Uncached (nodes, tfs) rows of a term, for whole-dictionary sweeps.
    Do not mutate them: an in-memory index hands out the arrays it
    holds. *)

val local_scores : t -> int -> float array

val term_ids_exn : t -> string list -> int list
(** Ids for query words; raises [Invalid_argument] on unknown keywords. *)

val terms_by_df : t -> int array
(** All term ids, most frequent first. *)
