(** Score-ordered organization of a JDewey list for top-K processing
    (paper Section IV-C, Figure 7): rows grouped by sequence length,
    descending local score within a group. *)

type group = { len : int; rows : int array (** descending local score *) }

type t

val make : Jlist.t -> Xk_score.Damping.t -> t

val jlist : t -> Jlist.t

val groups : t -> group array
(** Ascending [len]. *)

val max_damped : t -> level:int -> float
(** Static ceiling of the damped scores any row can contribute at a level;
    [neg_infinity] when the level is empty.  Implements the cross-column
    upper bounds (including the paper's column-skip rule). *)

val encoded_size : t -> int
(** On-disk bytes in the score-ordered layout (Table I, "Top-K Join"). *)
