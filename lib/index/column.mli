(** One column (tree level) of a JDewey inverted list, stored as sorted
    runs of equal numbers over contiguous row indices — the paper's
    (v, r, c) triples, its second compression scheme and the unit of range
    checking.  Runs are addressed by index [0 .. num_runs - 1], in
    ascending value order. *)

type t

val of_arrays : values:int array -> starts:int array -> counts:int array -> t
(** A column from complete runs: run [i] is
    [(values.(i), starts.(i), counts.(i))], as
    [Xk_encoding.Labeling.jdewey_columns] builds them.  The column takes
    the arrays over; raises [Invalid_argument] if their lengths differ. *)

val num_runs : t -> int

val is_empty : t -> bool

val value : t -> int -> int
(** The JDewey number of run [i]. *)

val start : t -> int -> int
(** The first row of run [i]. *)

val count : t -> int -> int
(** The number of rows in run [i]. *)

val find : t -> int -> int
(** Index of the run holding a JDewey number, by binary search; [-1] if
    the column does not hold it. *)

val encoded_size : t -> int
(** Bytes of the column through [Xk_storage.Column_codec]. *)
