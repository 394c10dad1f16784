(** A static symbol table for short strings (FSST: Boncz, Neumann and
    Leis, VLDB 2020): at most 255 symbols of 1-8 bytes, each coded as
    one byte, its index, and code 255 escaping one literal byte.  An
    empty table codes every byte as itself.  The segment term region
    codes its front-coded suffixes with one table per segment. *)

type t = private string array
(** The symbols, indexed by their codes. *)

val empty : t

val train : string array -> t
(** A table for the strings, deterministic in them, trained on every
    k-th string (a sample of about 3 KB): two generations of greedy
    coding, each keeping the 255 symbols, single bytes and pairs of
    neighbouring codes that covered the most bytes, then passes that
    drop every symbol saving no more bytes of the sample than its table
    entry costs ([1 + length]). *)

val write_table : Buffer.t -> t -> unit
(** A varint count, then per symbol a length byte and its bytes. *)

val read_table : Varint.cursor -> t
(** The table at the cursor.  Raises {!Varint.Malformed} on more than
    255 symbols, a symbol of length 0 or above 8, or bytes running past
    the cursor's stop. *)

type coder
(** A table indexed for greedy coding. *)

val coder : t -> coder

val encode : coder -> Buffer.t -> string -> unit
(** Append the codes of a string: at each byte the longest symbol that
    matches, else an escape and the byte. *)

type scratch = { mutable bytes : Bytes.t; mutable len : int }
(** A growable byte buffer whose first [len] bytes are the decoded
    string: unlike a [Buffer.t], it is read and truncated in place. *)

val scratch : unit -> scratch

val decode : t -> string -> pos:int -> len:int -> scratch -> unit
(** Append the bytes that the [len] codes at [pos] stand for, growing
    the buffer as needed.  Raises {!Varint.Malformed} on a code naming
    no symbol, an escape as the last code, or a range outside the
    string. *)
