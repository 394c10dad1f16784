(** Fault-tolerant index persistence: the v9 ("XKIDX009") segment
    ({!Segment}, which documents the format) on disk, the one loadable
    generation.

    Loading memory-maps the file ({!Xk_storage.Mmap}), reads the magic
    from the map and opens the segment over it ({!Segment.open_}): the
    header, terms and directory are verified and decoded, and every
    term's postings are decoded from the map on first use.  Scores are
    bit-identical to a fresh {!Index.build}, which reads its own bytes
    through the same reader.

    Every earlier generation is retired: a v1-v8 segment, like a v1-v2
    shard manifest ({!Shard_io}), is refused by one rule
    ({!refuse_retired}) as {!Corrupted} with a message asking for a
    rebuild, on the first attempt.

    Every read attempt maps the file once and reads the magic from the
    map.  Storage faults are injected in {!Xk_storage.Mmap.map}, so
    fault drills exercise this production reader, lazy open included.
    {!read_mapped} and {!retrying} are the read path of every other
    durable file too.

    Reads classify their failures - {!Truncated} (the file ends before
    the declared layout), {!Corrupted} (bad magic, version, checksum or
    structure, or a retired generation), {!Io_failed} (an injected
    transient IO failure, or a file that cannot be mapped) - and the
    transient class, plus checksum mismatches and header anomalies
    (either can be a torn read, which a re-read heals), is retried with
    exponential backoff before an error is reported.  Structural
    anomalies behind a verified checksum, a retired magic, and map
    failures are fatal and skip the retries. *)

type error = Segment.error =
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

val error_message : ?kind:string -> error -> string
(** The error, naming the file by [kind] (default ["segment"]):
    ["corrupted manifest: ..."] for a shard manifest. *)

type attempt_error = Segment.attempt_error
(** The outcome classes of one read attempt, before the retry policy:
    every class but [`Fatal] is retried. *)

val read_mapped : string -> (string, attempt_error) result
(** One read attempt through {!Xk_storage.Mmap.map}, classified like
    a segment read: a copy of the file from a map closed before this
    returns, so the caller may truncate
    the file.  Every durable file but a segment is read this way. *)

val of_framed : Xk_storage.Framed.error -> attempt_error
(** A {!Xk_storage.Framed} verdict as a read-attempt outcome: [`Crc]
    for a checksum mismatch, [`Suspect] for the rest, so every one is
    re-read before it is reported. *)

val retired : (string * string) list
(** The retired generations of both index file kinds: each magic with
    the generation it names (["v2 segment"], ["v1 manifest"], ...). *)

val refuse_retired : string -> (unit, attempt_error) result
(** The retired-magic rule, over a file's leading bytes: [`Fatal
    (Corrupted "retired <generation> format; rebuild the index")] when
    they start with a {!retired} magic, [Ok ()] otherwise.  The bytes
    of such a file are intact, so a re-read cannot change the outcome. *)

val magic : string
(** The magic of the one loadable segment generation (v9). *)

val retrying :
  ?retries:int ->
  ?backoff_ms:float ->
  (unit -> ('a, attempt_error) result) ->
  ('a, load_error) result
(** Run read attempts under the segment retry policy of {!load_result}:
    every class but [`Fatal] is retried, up to [retries] (default 4)
    times with exponential backoff from [backoff_ms] (default 1.0). *)

val load_error_message : ?kind:string -> load_error -> string
(** {!error_message}, with the attempt count when there was a retry. *)

exception Segment_fault of string
(** {!Segment.Segment_fault}, raised by a lazily opened index's row
    decoder ({!Segment.rows}); eager-open failures are returned as
    {!load_error} values. *)

val save : Index.t -> string -> unit
(** Write the bytes of the index's segment durably and atomically:
    temp file, fsync, rename, directory fsync ({!Xk_storage.Durable}). *)

val load_result :
  ?stats:Index.stats_override ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?verify_columns:bool ->
  Xk_encoding.Labeling.t ->
  string ->
  (Index.t, load_error) result
(** Load a segment, retrying transient IO errors and checksum mismatches
    up to [retries] (default 4) times with exponential backoff starting
    at [backoff_ms] (default 1.0).  Never raises on bad input.  [stats]
    overrides the ranking statistics as in {!Index.of_segment} (sharded
    segments, see {!Shard_io}).  [verify_columns] (default false) makes
    the open verify and decode every term's postings eagerly instead of
    lazily —
    the paranoid mode for replica-fallback paths that must reject a
    damaged segment at open time rather than at first query. *)

val verify : ?retries:int -> ?backoff_ms:float -> string -> (unit, load_error) result
(** Check a segment without building an index, and {e fully} —
    header, terms and directory checksums, the exact file size, the term
    region's structure and order, every block checksum and every term's
    postings structure — since the lazy load path deliberately defers
    the postings checks.  Same retry
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

val layout : string -> (Segment.layout, error) result
(** Parse and verify a segment header, returning its region geometry,
    so a fault drill can corrupt one specific region; [Io_failed] if
    the file cannot be read. *)
