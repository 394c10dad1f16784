(** The in-memory delta segment: the net effect of every WAL record
    since the last compaction, as a persistent (immutable) value.

    A delta is a pair of maps — pending upserts (document id to its
    current document, with the record bytes that carry it) and pending
    deletes.  Applying [Put] records an upsert and cancels any pending
    delete of the same id; applying [Drop] records a delete and drops
    any pending upsert.  Because
    values are immutable, a published snapshot keeps whatever delta it
    was built from no matter how many operations land afterwards —
    that is the snapshot-isolation half of the live store. *)

type t

val empty : t
val is_empty : t -> bool

val apply : t -> Wal.entry -> t

val ops : t -> int
(** Number of document ids the delta currently touches (upserts plus
    deletes); the live store's auto-compaction threshold watches it. *)

val upserts : t -> Wal.doc list
(** Pending upserts in ascending document-id order. *)

val deletes : t -> int list
(** Pending deletes in ascending document-id order (ids whose latest
    operation is [Delete]). *)

val is_deleted : t -> int -> bool

val touches : t -> int -> bool
(** Whether the delta upserts or deletes this document id — a sealed
    segment holding a touched id is {e dirty} and must be rebuilt
    rather than served from its saved index. *)
