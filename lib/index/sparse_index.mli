(** Sparse index over a column: every 64th run value, probed to narrow a
    binary search to one stride of 64 runs. *)

type t

val build : Column.t -> t

val probe : t -> num_runs:int -> int -> int * int
(** [probe t ~num_runs v] is a run-index window [\[lo, hi)] that contains
    [v]'s run if the column holds it. *)

val encoded_size : t -> int
