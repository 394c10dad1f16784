(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) - the integrity checksum of
    the on-disk index segments. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of a substring, as a non-negative int in [0, 2^32). *)

val string : string -> int
(** [string s = sub s ~pos:0 ~len:(String.length s)]. *)

val update : int -> string -> pos:int -> len:int -> int
(** Incremental form: feed more bytes into a running checksum. *)
