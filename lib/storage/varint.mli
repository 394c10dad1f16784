(** LEB128 variable-length integer codec. *)

val write : Buffer.t -> int -> unit
(** Unsigned LEB128; raises [Invalid_argument] on negatives. *)

val write_signed : Buffer.t -> int -> unit
(** Zig-zag + LEB128, for signed deltas. *)

type cursor = { data : string; mutable pos : int }

val cursor : string -> cursor
val cursor_at : string -> int -> cursor
val at_end : cursor -> bool
val read : cursor -> int
val read_signed : cursor -> int

val read_opt : cursor -> int option
(** Like {!read} but [None] when the data ends mid-value or the value
    runs past 9 bytes, leaving the cursor untouched — for parsers of
    possibly-torn input (crash recovery), where short reads are
    expected rather than bugs. *)

val size : int -> int
(** Encoded byte length of an unsigned value. *)
