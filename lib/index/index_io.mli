(** Fault-tolerant index persistence, in two on-disk generations.

    {b v2} ("XKIDX002") is a checksummed varint stream: magic/version
    header, CRC-32 payload checksum, then dictionary + delta-coded
    postings.  Loading reads the whole file and materializes every
    posting list.

    {b v4} ("XKIDX004") is the compressed zero-copy segment: a fixed
    72-byte header with its own CRC-32, the concatenated term bytes, the
    postings (per term, node ids as delta varints, then varint term
    frequencies only when the term's cf differs from its df) and a
    varint directory (term length, df, cf - df, postings length and a
    u32 CRC-32 of the term's postings), back to back with no padding,
    so every byte is under a checksum.  Loading memory-maps the file
    ({!Xk_storage.Mmap}), verifies the header, terms and directory
    checksums, interns the dictionary from the directory (statistics
    included — no posting is touched), and decodes a term's rows lazily
    from the mapped postings on first access, verifying that term's
    checksum once.  Open cost is O(dictionary); the kernel pages
    postings in on demand.  Scores are bit-identical to the v2 path:
    both feed the same (tf, df) integers to the same scorer.

    {!save} writes v4; {!load_result} dispatches on the magic, so v2
    segments keep loading through the channel path and {!save_v2} keeps
    the writer for them.  A retired v3 ("XKIDX003") segment, like a v1
    one, is rejected as {!Corrupted} with a message asking for a
    rebuild.

    Reads classify their failures — {!Truncated} (the file ends before
    the declared layout), {!Corrupted} (bad magic, version, checksum or
    structure), {!Io_failed} (the transient class: OS errors, injected
    faults, and map failures) — and the transient class, plus checksum
    mismatches and header anomalies (either can be a torn read, which a
    re-read heals), is retried with exponential backoff before an error
    is reported.  Structural anomalies behind a verified checksum are
    fatal and skip the retries.  {!Xk_resilience.Fault_injection} hooks
    into the read path; when injection is active a v4 segment is read
    through the byte-mangling hook into process memory and every term is
    verified and decoded eagerly, so injected corruption anywhere in the
    file is detected at open. *)

type error =
  | Truncated of string  (** file shorter than the declared layout *)
  | Corrupted of string
      (** bad magic/version, persistent checksum mismatch, malformed
          structure, or a document/node-count mismatch *)
  | Io_failed of string
      (** transient IO failures that survived every retry, or a failed
          (or injected) memory-map of a v4 segment *)

type load_error = { error : error; attempts : int }
(** A load failure plus the number of read attempts the shared
    {!Xk_resilience.Retry} policy made before reporting it, so an
    exhausted retry budget is distinguishable from a first-try
    permanent failure. *)

val error_message : error -> string

val load_error_message : load_error -> string

exception Format_error of string
(** Raised by the legacy {!load} wrapper, with {!error_message} applied. *)

exception Segment_fault of string
(** Raised by the {e lazy} v4 row decoder: a term's postings checksum
    fails on first access, its postings do not decode (a varint runs
    past the slice, node ids are not strictly increasing or reach the
    node count, tfs are below 1 or do not sum to cf), or the mapping was
    closed under the reader.  Eager-open failures never use
    this — they are returned as {!load_error} values.  Raised at query
    time, it propagates out of list materialization; the replicated
    executor's failover-on-raise treats it like any other replica
    failure. *)

val save : Index.t -> string -> unit
(** Write a v4 segment durably and atomically: temp file, fsync,
    rename, directory fsync ({!Xk_storage.Durable}).  Raises
    [Invalid_argument] if a term frequency is below 1. *)

val save_v2 : Index.t -> string -> unit
(** Write the v2 varint-stream format (for compatibility fixtures and
    the loader benches). *)

val load_result :
  ?damping:Xk_score.Damping.t ->
  ?cache_capacity:int ->
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
    {!Shard_io}).  [verify_columns] (default false) makes a v4 open
    verify and decode every term's postings eagerly instead of lazily —
    the paranoid mode for replica-fallback paths that must reject a
    damaged segment at open time rather than at first query. *)

val verify : ?retries:int -> ?backoff_ms:float -> string -> (unit, load_error) result
(** Check a segment without building an index.  v2: framing + payload
    CRC.  v4: {e full} verification — header, terms and directory
    checksums, the exact file size, and every term's postings checksum
    and structure — since the lazy load path deliberately defers the
    per-term checks.  Same retry policy as {!load_result}.  Replica writers run
    this after each copy so a damaged replica is caught at save time,
    not at failover time. *)

val load : ?damping:Xk_score.Damping.t -> Xk_encoding.Labeling.t -> string -> Index.t
(** {!load_result}, raising {!Format_error} on any error (legacy API). *)

(** {1 Introspection} — for tests, drills and benches.  None of these
    leaks a channel. *)

val file_size : string -> int
(** Size of the file in bytes; raises [Sys_error] if it cannot be
    opened. *)

val format_version : string -> int option
(** Generation of the segment at a path, from its magic: [Some 1], [2],
    [3] (retired, no longer loadable) or [4], or [None] for an
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
(** Region geometry of a v4 segment: the header, then the terms,
    postings and directory regions back to back.  Exposed so a fault
    drill can corrupt one specific region. *)

val layout : string -> (layout, error) result
(** Parse and verify a v4 header, returning its geometry; [Io_failed]
    if the file cannot be read. *)
