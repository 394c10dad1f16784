(** Shared probe machinery for the index-driven baselines: deepest
    all-containing-ancestor candidates and scan-with-skip ELCA
    verification. *)

val cand_depth : Xk_index.Posting.t array -> int -> Xk_encoding.Dewey.t -> int
(** Depth of the node's deepest all-containing ancestor; the node itself
    belongs to the list at the given index. *)

val verify :
  Xk_index.Posting.t array ->
  Xk_score.Damping.t ->
  Xk_encoding.Dewey.t ->
  float option
(** [Some score] iff the node (given as its Dewey id) is an ELCA;
    occurrences under deeper all-containing nodes are excluded with whole
    subtrees skipped per probe. *)

val shortest_list : Xk_index.Posting.t array -> int
