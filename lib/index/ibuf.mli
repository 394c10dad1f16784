(** Growable int arrays used while accumulating postings. *)

type t

val create : unit -> t
val push : t -> int -> unit
val length : t -> int
val get : t -> int -> int
