(** The JDewey inverted list of one keyword: document-ordered rows
    (node, local score, sequence length) and per-level columns, which are
    the list's only copy of its JDewey numbers (paper Fig. 2(a)). *)

type t

val make :
  Xk_encoding.Labeling.t -> nodes:int array -> scores:float array -> t
(** The list of the given node indexes, with every column built at once
    by [Xk_encoding.Labeling.jdewey_columns].  Raises [Invalid_argument]
    if the nodes are not in document order or [scores] differs in
    length. *)

val length : t -> int
(** Number of rows (occurrences). *)

val max_len : t -> int
(** Longest sequence length = deepest populated level. *)

val node : t -> int -> int
val score : t -> int -> float
val row_len : t -> int -> int

val nodes : t -> int array
val scores : t -> float array
(** The list's own per-row arrays, shared so that other list shapes of
    the same term can reuse them: callers must not mutate them. *)

val column : t -> level:int -> Column.t
(** The column of one level, [1 .. max_len].  Raises [Invalid_argument]
    outside that range. *)

val encoded_size : t -> int
(** On-disk bytes in the join-based column layout (Table I accounting). *)
