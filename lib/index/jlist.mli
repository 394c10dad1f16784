(** The JDewey inverted list of one keyword: document-ordered rows with
    JDewey sequences and local scores, plus per-level columns. *)

type t

val make :
  seqs:Xk_encoding.Jdewey.t array ->
  nodes:int array ->
  scores:float array ->
  t
(** Rows must already be in JDewey (= document) order. *)

val make_lazy :
  nodes:int array ->
  scores:float array ->
  row_lens:int array ->
  max_len:int ->
  loader:(int -> Column.t) ->
  t
(** A store-backed list: [loader level] decodes a column on first touch
    (the paper's column-at-a-time disk reads); sequences reconstruct from
    all columns if a per-row consumer forces them. *)

val length : t -> int
(** Number of rows (occurrences). *)

val max_len : t -> int
(** Longest sequence length = deepest populated level. *)

val seq : t -> int -> Xk_encoding.Jdewey.t
val node : t -> int -> int
val score : t -> int -> float
val row_len : t -> int -> int

val nodes : t -> int array
val scores : t -> float array
(** The list's own per-row arrays, shared so that other list shapes of
    the same term can reuse them: callers must not mutate them. *)

val column : t -> level:int -> Column.t

val encoded_size : t -> int
(** On-disk bytes in the join-based column layout (Table I accounting). *)
