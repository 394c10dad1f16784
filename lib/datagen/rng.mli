(** Deterministic SplitMix64 generator: corpora and workloads must be
    reproducible from a seed across runs and machines. *)

type t

val create : int -> t

val int : t -> int -> int
(** Uniform in [0, bound); raises on non-positive bound. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val range : t -> int -> int -> int
(** Uniform in [lo, hi] inclusive. *)

val sample : t -> n:int -> k:int -> int array
(** [k] distinct values from [0, n). *)

val shuffle : t -> 'a array -> unit

val split : t -> t
(** An independent generator seeded from this one. *)
