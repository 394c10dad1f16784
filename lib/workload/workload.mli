(** Query workload construction for the experiments (paper Section V):
    frequency-bucketed random keyword sets and equal-frequency sets.
    Control terms (digit-suffixed) never enter random workloads. *)

type query = string list

val has_digit : string -> bool

val terms_in_df_range : Xk_index.Index.t -> lo:int -> hi:int -> int array
(** Non-control term ids with df in [lo, hi], most frequent first. *)

val pick_near :
  drawn:string list -> Xk_datagen.Rng.t -> Xk_index.Index.t -> near:int -> string
(** A random term with df in a factor-2 window of [near], uniform over
    the whole window; the window widens while it holds no term outside
    [drawn], so a caller that re-draws on a term it already has always
    finishes.  Raises [Invalid_argument] only when every usable term of
    the corpus is in [drawn]. *)

val max_df : Xk_index.Index.t -> int
(** Highest df over non-control terms (the experiments' "high
    frequency"). *)

val random_queries :
  Xk_datagen.Rng.t ->
  Xk_index.Index.t ->
  k:int ->
  high:int ->
  low:int ->
  n:int ->
  query list
(** [n] queries of [k] distinct keywords: one near [high], the rest near
    [low] - the Figure 9/10 workload shape. *)

val equal_freq_queries :
  Xk_datagen.Rng.t -> Xk_index.Index.t -> k:int -> freq:int -> n:int -> query list
