(** Fault-tolerant index persistence, in two on-disk generations.

    {b v2} ("XKIDX002") is a checksummed varint stream: magic/version
    header, CRC-32 payload checksum, then dictionary + delta-coded
    postings.  Loading reads the whole file and materializes every
    posting list.

    {b v5} ("XKIDX005") is the compressed zero-copy segment: a fixed
    72-byte header with its own CRC-32, the concatenated term bytes, the
    postings (per term, node ids as delta varints, then only when the
    term's cf differs from its df a sparse tf section: a varint count
    and a (position gap, tf - 2) varint pair per row whose tf is above
    1) and a directory (one u32 CRC-32 per block of 64 consecutive term
    ids, over that block's postings, then per term varint term length,
    df, cf - df and postings length), back to back with no padding, so
    every byte is under a checksum.  Loading memory-maps the file
    ({!Xk_storage.Mmap}), verifies the header, terms and directory
    checksums, interns the dictionary from the directory (statistics
    included — no posting is touched), and decodes a term's rows lazily
    from the mapped postings on first access; the first decode of any
    term of a block verifies that block's checksum once.  Open cost is
    O(dictionary); the kernel pages postings in on demand.  Scores are
    bit-identical to the v2 path: both feed the same (tf, df) integers
    to the same scorer.

    {!save} writes v5; {!load_result} dispatches on the magic, so v2
    segments keep loading (copied out of the map) and {!save_v2} keeps
    the writer for them.  A retired v3 ("XKIDX003") or v4 ("XKIDX004")
    segment, like a v1 one, is rejected as {!Corrupted} with a message
    asking for a rebuild.

    Every read attempt maps the file once and reads the magic from the
    map; a v2 segment is copied out of that same map.  Storage faults
    are injected in {!Xk_storage.Mmap.map}, so fault drills exercise
    this production reader, lazy open included.  {!read_mapped} and
    {!retrying} are the read path of every other durable file too, and
    the v2 container is the shared {!Xk_storage.Framed} one.

    Reads classify their failures — {!Truncated} (the file ends before
    the declared layout), {!Corrupted} (bad magic, version, checksum or
    structure), {!Io_failed} (an injected transient IO failure, or a
    file that cannot be mapped) — and the transient class, plus
    checksum mismatches and header anomalies (either can be a torn
    read, which a re-read heals), is retried with exponential backoff
    before an error is reported.  Structural anomalies behind a
    verified checksum, and map failures, are fatal and skip the
    retries. *)

type error =
  | Truncated of string  (** file shorter than the declared layout *)
  | Corrupted of string
      (** bad magic/version, persistent checksum mismatch, malformed
          structure, or a document/node-count mismatch *)
  | Io_failed of string
      (** injected transient IO failures that survived every retry, or
          a file that cannot be mapped (missing, unreadable, marked
          unmappable) *)

type load_error = { error : error; attempts : int }
(** A load failure plus the number of read attempts the shared
    {!Xk_resilience.Retry} policy made before reporting it, so an
    exhausted retry budget is distinguishable from a first-try
    permanent failure. *)

val error_message : error -> string

type attempt_error =
  [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]
(** The outcome classes of one read attempt, before the retry policy:
    every class but [`Fatal] is retried. *)

val read_mapped : ?len:int -> string -> (string, attempt_error) result
(** One read attempt through {!Xk_storage.Mmap.map}, classified like
    a segment read: a copy of the file (or of its first [len] bytes)
    from a map closed before this returns, so the caller may truncate
    the file.  Every durable file but a segment is read this way. *)

val of_framed : Xk_storage.Framed.error -> attempt_error
(** A {!Xk_storage.Framed} verdict as a read-attempt outcome: [`Crc]
    for a checksum mismatch, [`Suspect] for the rest, so every one is
    re-read before it is reported. *)

val magics : string list
(** The segment magics, v1 to v5 in order. *)

val read_magic : known:string list -> string -> string option
(** The file's magic if it is one of [known], read through
    {!read_mapped} under {!retrying}.  An unknown magic is re-read (a
    torn map of a file no longer than its magic tears the magic). *)

val retrying :
  ?retries:int ->
  ?backoff_ms:float ->
  (unit -> ('a, attempt_error) result) ->
  ('a, load_error) result
(** Run read attempts under the segment retry policy of {!load_result}:
    every class but [`Fatal] is retried, up to [retries] (default 4)
    times with exponential backoff from [backoff_ms] (default 1.0). *)

val load_error_message : load_error -> string

exception Segment_fault of string
(** Raised by the {e lazy} v5 row decoder: the checksum of a term's
    block fails (every term of that block faults, every other term
    still decodes), its postings do not decode (a varint runs past the
    slice, node ids are not strictly increasing or reach the node count,
    tf exception positions are not strictly increasing below df, or the
    tfs do not sum to cf), or the mapping was closed under the reader.  Eager-open failures never use
    this — they are returned as {!load_error} values.  Raised at query
    time, it propagates out of list materialization; the replicated
    executor's failover-on-raise treats it like any other replica
    failure. *)

val save : Index.t -> string -> unit
(** Write a v5 segment durably and atomically: temp file, fsync,
    rename, directory fsync ({!Xk_storage.Durable}).  Raises
    [Invalid_argument] if a term frequency is below 1. *)

val save_v2 : Index.t -> string -> unit
(** Write the v2 varint-stream format (for compatibility fixtures and
    the loader benches). *)

val load_result :
  ?stats:Index.stats_override ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?verify_columns:bool ->
  Xk_encoding.Labeling.t ->
  string ->
  (Index.t, load_error) result
(** Load a segment of either generation (dispatch on the magic),
    retrying transient IO errors and checksum mismatches up to [retries]
    (default 4) times with exponential backoff starting at [backoff_ms]
    (default 1.0).  Never raises on bad input.  [stats] overrides the
    ranking statistics as in {!Index.of_raw} (sharded segments, see
    {!Shard_io}).  [verify_columns] (default false) makes a v5 open
    verify and decode every term's postings eagerly instead of lazily —
    the paranoid mode for replica-fallback paths that must reject a
    damaged segment at open time rather than at first query. *)

val verify : ?retries:int -> ?backoff_ms:float -> string -> (unit, load_error) result
(** Check a segment without building an index.  v2: framing, payload
    CRC and the payload's structure.  v5: {e full} verification —
    header, terms and directory checksums, the exact file size, every
    block checksum and every term's postings structure — since the lazy
    load path deliberately defers the postings checks.  Same retry
    policy as {!load_result}.  Replica writers run this after each copy
    so a damaged replica is caught at save time, not at failover time. *)

val read_verified :
  ?retries:int -> ?backoff_ms:float -> string -> (string, load_error) result
(** {!verify}, returning the bytes of the map that passed it, so a torn
    read never reaches a byte-for-byte replica copy. *)

(** {1 Introspection} — for tests, drills and benches.  The reads map
    the file and retry like a load. *)

val file_size : string -> int
(** Size of the file in bytes; raises [Sys_error] if it cannot be
    stat'ed. *)

val format_version : string -> int option
(** Generation of the segment at a path, from its magic: [Some 1], [2],
    [3] or [4] (retired, no longer loadable) or [5], or [None] for an
    unrecognized, missing or unreadable file. *)

type layout = {
  node_count : int;
  term_count : int;
  total_rows : int;
  terms_off : int;
  terms_len : int;
  postings_off : int;
  postings_len : int;
  dir_off : int;
  dir_len : int;
  file_size : int;  (** header + the three region lengths *)
}
(** Region geometry of a v5 segment: the header, then the terms,
    postings and directory regions back to back.  Exposed so a fault
    drill can corrupt one specific region. *)

val layout : string -> (layout, error) result
(** Parse and verify a v5 header, returning its geometry; [Io_failed]
    if the file cannot be read. *)
