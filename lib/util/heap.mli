(** Binary max-heap keyed by float priorities. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> float -> 'a -> unit

val top_at_least : 'a t -> float -> bool
(** [top_at_least h bound]: the heap is non-empty and its highest priority
    is [>= bound].  Allocates nothing. *)

val top_at_least_cell : 'a t -> float array -> int -> bool
(** [top_at_least_cell h a i] is [top_at_least h a.(i)], for a caller
    that asks after every step: a float argument is boxed when the call
    is not inlined, a float array cell is not. *)

val pop_value : 'a t -> 'a
(** Remove the highest-priority element and return its value; allocates
    nothing.  Raises [Invalid_argument] on an empty heap. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, highest priority first. *)
