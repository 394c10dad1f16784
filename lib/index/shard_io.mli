(** Persistence for sharded indices: one CRC-checked manifest plus N
    {!Index_io} segment replicas per shard.

    The manifest records the partition (subtree-to-shard assignment and
    shard count) and each shard's replica basenames; segments live next
    to the manifest, so a saved shard set can be moved as a directory.
    Loading re-derives each shard's sub-document from the corpus and the
    stored assignment, then attaches the shard segments with
    corpus-global ranking statistics — exactly what {!Sharding.partition}
    builds in memory.

    Replicas are the storage failure domain: each copy is written and
    verified independently at save time, and the loader keeps every
    copy that opens ({!load_result}), so a shard is lost only when
    {e every} replica fails with [Corrupted] / [Truncated] / [Io_failed].
    Failures are typed per layer: a bad manifest is {!Manifest}, a lost
    shard is {!Shard} and carries every replica's failure with its
    attempt count.  Both layers run the same retry/fault-injection
    machinery as {!Index_io}.

    This module does not classify copies: [Xk_index.Repair.scrub] does,
    running {!Index_io.verify} over {!replica_files} through the
    scrubber ([Xk_resilience.Scrub.run]). *)

type error =
  | Manifest of { error : Index_io.error; attempts : int }
      (** the manifest itself failed to load, after [attempts] reads *)
  | Shard of { shard : int; failures : (string * Index_io.load_error) list }
      (** every replica of a shard failed; one entry per replica file *)

val error_message : error -> string

val segment_path : string -> shard:int -> string
(** Where shard [shard] of the manifest at [path] stores its primary
    segment ([path] with a [.NNN.seg] suffix) — replica 0. *)

val replica_path : string -> shard:int -> replica:int -> string
(** Replica [replica] of shard [shard]: replica 0 is {!segment_path},
    further copies add an [.rN] infix ([path.NNN.rN.seg]). *)

exception Verify_failed of string
(** Raised by {!save} when a freshly written replica fails its
    post-save framing/CRC verification. *)

val save :
  ?replicas:int ->
  ?endpoints:(string * int) array array ->
  Sharding.t ->
  string ->
  unit
(** Write the manifest at [path] and [replicas] (default 1) segment
    copies per shard beside it: the bytes each shard's index holds
    ({!Index.bytes}) are written to every copy, each
    atomically (temp file + rename) and each verified
    ({!Index_io.verify}) after the write.
    [endpoints], when given, records a serving (host, port) per replica
    — shape [shards x replicas] — so a gather tier can dial the fleet
    straight from the manifest.  Raises [Invalid_argument] on
    [replicas < 1] or a mis-shaped [endpoints], and {!Verify_failed} if
    a written copy does not read back clean. *)

val load_result :
  ?retries:int ->
  ?backoff_ms:float ->
  Xk_xml.Xml_tree.document ->
  string ->
  (Sharding.t, error) result
(** Load a sharded index of [doc] from the manifest at [path].  Each
    shard's index keeps every replica that opens ({!Index.of_segments}),
    so a read that meets damage the open does not check moves to the
    next copy ({!Index.raw_rows}).  Transient IO errors and checksum
    mismatches are retried per file with exponential backoff (defaults
    as in {!Index_io.load_result}); never raises on bad input. *)

val replica_files : string -> (string array array, error) result
(** The full replica paths recorded in the manifest at [path], indexed
    [shard][replica].  Chaos drivers use this to map (shard, replica)
    corruption targets onto segment files. *)

val endpoints : string -> ((string * int) option array array, error) result
(** The serving endpoints recorded in the manifest at [path], indexed
    [shard][replica]; [None] per replica with no endpoint. *)

val partition_spec : string -> (int * int array, error) result
(** The shard count and subtree-to-shard assignment recorded in the
    manifest at [path] — what a repair rebuild needs to re-partition the
    corpus exactly as the stored shards were ({!Sharding.partition}
    [~assignment]). *)
