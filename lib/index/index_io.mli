(** Fault-tolerant index persistence: the v9 ("XKIDX009") compressed
    zero-copy segment, the one loadable generation.

    A segment is a fixed 80-byte header with its own CRC-32 (it records
    the node count and M, the count of term-bearing nodes), the term
    region (a symbol table of at most 255 symbols of 1-8 bytes,
    {!Xk_storage.Symbols}, trained at save on the region's own suffixes
    and left empty when it would not shrink the region; then the terms
    in byte order, front-coded in blocks of 16 - every entry one byte
    [shared lsl 4 lor code_len], a nibble of 15 extended by a varint,
    then the suffix's codes, a symbol's index or 255 and a literal byte;
    a block's first entry shares nothing - then a table of each block's
    offset), the postings (one bit stream per block of 64 consecutive
    term ids, padded to a byte only at its end: per term the gaps
    between its nodes' ranks among the term-bearing nodes, Rice-coded
    with a parameter k derived from the term's df and M, then only when
    the term's cf differs from its df Elias-gamma tf codes: the count,
    and a (position gap + 1, tf - 1) pair per row whose tf is above 1)
    and a directory (per block a u32 CRC-32 over that block's postings
    and a varint byte length of them, then one bit stream: the gamma
    code of every term's df, then of the count + 1 of the terms whose cf
    differs from their df, and per such term of its id gap and of
    cf - df), back to back with no padding, so every byte is under a
    checksum.  A term's id is its rank in byte order.  A node is
    term-bearing when {!Xk_encoding.Labeling.term_bearing} admits it
    (a text node, or an element with attributes): only those nodes can
    hold a term, so a row's node is coded as its rank among them.
    Loading memory-maps the file ({!Xk_storage.Mmap}), verifies the
    header, terms and directory checksums, checks the node count and M
    against the document, checks the symbol table and the term region's
    structure and strict byte order (decoding every suffix) in one pass,
    decodes the directory (statistics included - no posting is touched)
    and hands {!Index.of_provider} the term region, where a lookup
    binary-searches the block heads and scans one block, decoding terms
    into a scratch buffer, and a lazy row decoder.  The first decode of
    any term of a block verifies that block's checksum and decodes the
    block's terms in the same pass, which yields their bit offsets; the
    block publishes them atomically, and later decodes read the bytes
    one term's bits lie in.  Decoding works in rank space; a decode that
    keeps rows maps ranks to node ids through an array of M node ids
    built by the first such decode.  No dictionary, no per-term offset
    and no rank map is built at open: open cost is one pass over the
    terms and the directory, and the kernel pages postings in on demand.
    Scores are bit-identical to a fresh {!Index.build}: both feed the
    same (tf, df) integers to the same scorer.

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

val error_message : ?kind:string -> error -> string
(** The error, naming the file by [kind] (default ["segment"]):
    ["corrupted manifest: ..."] for a shard manifest. *)

type attempt_error =
  [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]
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
(** Raised by the {e lazy} row decoder: the checksum of a term's
    block fails or the block's terms do not decode to its length or
    leave nonzero pad bits (every term of that block faults, every other
    term still decodes), its postings do not decode (a unary run or a
    code runs past the block, ranks reach M, a gamma
    code is longer than 61 bits, tf exception positions are not strictly
    increasing below df, or the tfs do not sum to cf), or the mapping
    was closed under the reader.  Eager-open failures never use
    this — they are returned as {!load_error} values.  Raised at query
    time, it propagates out of list materialization; the replicated
    executor's failover-on-raise treats it like any other replica
    failure. *)

val encode : Index.t -> string
(** The bytes of the segment of an index.  The terms are written in
    byte order, so an opened segment's term ids are their ranks in that
    order, whatever ids [idx] gave them.  Raises [Invalid_argument] if a
    term has no rows, a term frequency is below 1, a term occurs twice,
    a term's node ids are not strictly increasing below the node count,
    or a row sits at a node that cannot hold terms. *)

val save : Index.t -> string -> unit
(** Write {!encode}'s bytes durably and atomically: temp file, fsync,
    rename, directory fsync ({!Xk_storage.Durable}). *)

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
    overrides the ranking statistics as in {!Index.of_provider} (sharded
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

type layout = {
  node_count : int;
  term_nodes : int;  (** M, the term-bearing nodes *)
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
(** Region geometry of a segment: the header, then the terms,
    postings and directory regions back to back.  Exposed so a fault
    drill can corrupt one specific region. *)

val layout : string -> (layout, error) result
(** Parse and verify a segment header, returning its geometry; [Io_failed]
    if the file cannot be read. *)
