(** Write-ahead log for live index mutation.

    One append-only file per live store.  The header is a magic string,
    a format version and the {e base LSN} — the log sequence number the
    durable (compacted) state already covers, so replay after a crash
    applies only records the segments have not absorbed.  Each record is
    an {!Xk_storage.Framed} frame ([varint length | varint crc32 |
    payload]).  A batch of records is written, then fsynced once before
    any of them is acknowledged (group commit), which makes every
    acknowledged operation recoverable.  Recovery reads the log
    through {!Index_io.read_mapped} under {!Index_io.retrying}, where
    storage faults are injected, so a torn read is re-read rather than
    mistaken for a torn tail.

    A crash mid-append leaves a {e torn} final record: the declared
    length runs past the end of the file, or the checksum of the bytes
    that did land does not match.  {!open_existing} heals that tail —
    the file is truncated back to the last intact record and the torn
    suffix is gone, exactly the pre-mutation state the writer never got
    to acknowledge.  Damage {e before} the tail is different: an
    earlier record can only fail its CRC through bit rot, not through a
    crash, so it is reported as {!Corrupted} rather than silently
    dropped; so is a record length that is negative or longer than 9
    bytes, which no prefix of a valid frame holds.

    The writer cooperates with {!Xk_resilience.Chaos} crash drills: an
    armed [crash@wal-append] makes {!append_batch} write the batch's
    records whole except the last, and only a prefix of that one,
    before dying — the torn write that recovery must heal. *)

type op =
  | Insert of { doc_id : int; subtree : Xk_xml.Xml_tree.node }
      (** insert-or-replace: the document with this id becomes
          [subtree] *)
  | Delete of { doc_id : int }

type record = { lsn : int; op : op }

type error =
  | Corrupted of string
      (** bad magic, version, a malformed record length, or a checksum
          failure before the final record — damage replay must not
          paper over *)
  | Io of string  (** the OS refused an open/map/write *)

val error_message : error -> string

type t
(** An open log with its write channel positioned at the end.  Handles
    are single-writer: the live store serializes access through its
    writer token. *)

val create : ?fsync:bool -> base_lsn:int -> string -> (t, error) result
(** Create (or replace) the log at a path with a fresh header, by a
    durable atomic write ({!Xk_storage.Durable.write_string_atomically}).
    [fsync:false] skips every sync (tests only). *)

val open_existing :
  ?fsync:bool -> string -> (t * record list, error) result
(** Open an existing log for recovery: parse the header, decode every
    intact record, truncate a torn tail in place, and return the handle
    positioned for appending together with the surviving records in
    append order.  Records at or below the base LSN have already been
    compacted into segments; the caller skips them during replay. *)

type entry
(** An operation with its encoded record payload. *)

val canonical : op -> (entry, string) result
(** Encode an operation and decode it back.  {!entry_op} of the result
    is exactly what recovery reconstructs from the record, and
    {!append_batch} writes the same bytes, so each subtree is encoded
    once.  [Error] when the subtree does not survive the codec. *)

val entry_op : entry -> op

val append_batch : t -> entry list -> (int, int * error) result
(** Group commit: frame and write every record of the batch in order,
    then fsync once; returns the LSN of the last record.  The batch is
    durable when [append_batch] returns.  [Error (n, e)]: writing record
    [n + 1] failed, the [n] records before it were written and synced
    (the LSN advanced by [n]) and the rest were not written.  An empty
    batch writes and syncs nothing.  Fires the [wal-append] (torn last
    record), [wal-pre-fsync] and [wal-post-fsync] crash points, once per
    batch. *)

val append : t -> op -> (int, error) result
(** {!append_batch} of one record; returns its LSN. *)

val base_lsn : t -> int
val lsn : t -> int
(** LSN of the last record written or recovered (= [base_lsn] when the
    log is empty). *)

val close : t -> unit

(** {1 Subtree codec}

    Shared with the sealed-segment document files: a flag byte (0 =
    element, serialized XML with no XML declaration; 1 = raw text) then
    a length-prefixed byte string.  The decoder also accepts an element
    that carries the declaration, as older logs and document files
    store it. *)

val encode_subtree : Buffer.t -> Xk_xml.Xml_tree.node -> unit

val decode_subtree :
  Xk_storage.Varint.cursor -> (Xk_xml.Xml_tree.node, string) result
