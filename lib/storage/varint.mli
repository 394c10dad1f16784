(** LEB128 variable-length integer codec, and the one reader of payload
    bytes: every decoder of untrusted bytes reads through a {!cursor}
    and reports damage as {!Malformed}, which {!decode} turns into an
    [Error]. *)

val write : Buffer.t -> int -> unit
(** Unsigned LEB128; raises [Invalid_argument] on negatives. *)

val size : int -> int
(** Encoded byte length of an unsigned value. *)

exception Malformed of string
(** The bytes do not decode: a varint runs past the cursor's stop, over
    9 bytes or to a negative value, or a count or length runs past the
    bytes left. *)

val malformed : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Malformed} with a formatted message. *)

type cursor = private { data : string; mutable pos : int; stop : int }
(** Reads [data] from [pos]; no read goes at or past [stop].  Private,
    so [0 <= pos <= stop <= length data] always holds. *)

val slice : string -> pos:int -> stop:int -> cursor
(** Raises [Invalid_argument] unless [0 <= pos <= stop <= length]. *)

val cursor_at : string -> int -> cursor
(** A cursor from an offset to the end of the data. *)

val cursor : string -> cursor
val at_end : cursor -> bool

val read : cursor -> int
(** One varint: non-negative and at most 9 bytes, else {!Malformed}. *)

val count : cursor -> width:int -> int
(** A varint counting elements of at least [width] bytes each; checked
    against the bytes left before anything is allocated for it. *)

val skip : cursor -> int -> unit
(** Step over the next [n] bytes. *)

val take : cursor -> int -> string
(** The next [n] bytes. *)

val string : cursor -> string
(** A length-prefixed string. *)

val decode :
  whole:bool -> (cursor -> 'a) -> cursor -> ('a, string) result
(** Run a decoder over the cursor; only {!Malformed} becomes [Error].
    [whole] also rejects bytes left before the stop. *)
