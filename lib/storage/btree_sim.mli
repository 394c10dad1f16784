(** Storage model of the BerkeleyDB B-tree layouts used by the paper's
    competitors, for Table I's index-size accounting. *)

val dewey_bytes : Xk_encoding.Dewey.t -> int

val composite_btree_size : (string * Xk_encoding.Dewey.t array) list -> int
(** Bytes of the single (keyword, Dewey) composite-key B-tree of the
    index-based baseline: one entry per occurrence, keyword bytes repeated
    per entry. *)

val per_list_btree_size : (string * Xk_encoding.Dewey.t array) list -> int
(** Bytes of RDIL's per-keyword B+-trees over document-ordered lists. *)
