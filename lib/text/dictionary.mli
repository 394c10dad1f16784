(** Term dictionary: interns terms to dense ids and tracks per-term document
    frequency (nodes directly containing the term). *)

type t

val create : ?size:int -> unit -> t
(** [size] presizes the table for a known term count (a fixed word
    list), avoiding every rehash and growth copy during bulk interning. *)

val intern : t -> string -> int
(** Id of a term, allocating a fresh id on first sight.  Ids are dense
    and in first-seen order; bytes are compared exactly (no folding). *)

val find : t -> string -> int option
(** Id of a term, comparing bytes exactly. *)

val intern_folded : t -> string -> pos:int -> len:int -> int
(** [intern_folded t s ~pos ~len] interns the ASCII-lowercased bytes
    [s.[pos .. pos + len - 1]], hashing and comparing them in place: a
    term string is allocated only on first sight.  It finds exactly the
    id that [intern t (String.lowercase_ascii (String.sub s pos len))]
    would.  Raises [Invalid_argument] when the span is not inside [s]. *)

val find_folded : t -> string -> pos:int -> len:int -> int option
(** Lookup counterpart of {!intern_folded}. *)

val term : t -> int -> string
val size : t -> int

val df : t -> int -> int
val bump_df : t -> int -> unit

