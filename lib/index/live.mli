(** Crash-safe live index mutation.

    A live store is a directory holding the mutable corpus:

    - [live.manifest] — root element identity, the next document id,
      the durable LSN and the sealed generation list (CRC-framed,
      replaced atomically);
    - [seg-<gen>.docs] — a sealed generation's documents (id plus
      serialized subtree, CRC-framed), the source of truth.  Each entry
      is the document's WAL insert payload without its op byte: every
      document the store holds keeps those bytes ({!Wal.doc}), from
      the batch that added it, the record that replayed it or its
      slice of the [.docs] file it was loaded from, so compaction
      concatenates them and prints no subtree;
    - [seg-<gen>.idx] — the generation's saved {!Index_io} segment, a
      tokenization cache rebuilt from the [.docs] file if damaged;
    - [wal.log] — the {!Wal} of every mutation since the last
      compaction.

    Mutations go WAL-first: a batch's operations are encoded once
    ({!Wal.canonical}), framed and
    appended, then fsynced once (group commit), before any of them is
    applied to the in-memory {!Delta}; then the batch publishes one
    fresh {!Snapshot} with a single atomic pointer swap.  A batch that
    reaches [auto_compact] compacts first, on the batch's own state, and
    the snapshot it publishes loads the generation just sealed rather
    than indexing the delta in memory.  Readers pin whatever snapshot
    is current and keep it for the whole query — concurrent mutation
    and compaction never move data under them.  A single writer token (compare-and-swap, no lock held
    across IO) serializes mutators; a second concurrent mutator gets
    {!error.Busy} instead of blocking.

    {!compact} folds the delta and any dirty generations into a new
    sealed generation (documents first, then the index segment, each
    written atomically and the index verified after writing), publishes
    a manifest whose durable LSN covers every absorbed record, rotates
    the WAL, and only then unlinks replaced files.  A crash between any
    two of those steps recovers to either the pre- or post-compaction
    state: {!open_} replays only WAL records above the manifest's
    durable LSN, heals a torn WAL tail, and removes orphaned segment
    and temp files no manifest references.

    Every durability step doubles as a {!Xk_resilience.Chaos} crash
    point ([crash@<step>], steps in {!crash_steps}), which is how the
    recovery drills in [test/test_live.ml] and the CI crash matrix
    exercise the whole crash surface. *)

type error =
  | Busy  (** another mutation or compaction holds the writer token *)
  | Unknown_doc of int  (** replace/remove of a document id not live *)
  | Unstorable of string
      (** a subtree that does not survive serialization (rejected
          before anything reaches the WAL) *)
  | Corrupt of string
      (** manifest, segment or WAL damage recovery cannot heal *)
  | Io of string

val error_message : error -> string

type t

type mutation =
  | Add of Xk_xml.Xml_tree.node  (** insert; the store assigns the id *)
  | Replace of int * Xk_xml.Xml_tree.node
  | Remove of int

val create :
  ?fsync:bool ->
  ?auto_compact:int ->
  root_tag:string ->
  ?root_attrs:Xk_xml.Xml_tree.attribute list ->
  string ->
  (t, error) result
(** [create ~root_tag dir] initializes an empty store in [dir]
    (created if missing; refused if a manifest already exists).
    [auto_compact] compacts automatically once the delta touches that
    many documents.  [fsync:false] disables syncing (tests only). *)

val open_ :
  ?fsync:bool ->
  ?auto_compact:int ->
  string ->
  (t, error) result
(** Open an existing store, running recovery: load the manifest and
    sealed generations, replay WAL records above the durable LSN,
    truncate a torn WAL tail, delete orphaned files, and build the
    initial snapshot. *)

val close : t -> unit

val snapshot : t -> Snapshot.t
(** The currently published snapshot.  Immutable — safe to query while
    mutations and compactions run. *)

val lsn : t -> int
val doc_count : t -> int
val pending_ops : t -> int
(** Documents the un-compacted delta touches. *)

val sealed_gens : t -> int list
val dir : t -> string

val mutate : t -> mutation list -> (int list, error) result
(** Apply one batch: validate every operation (so a bad batch fails
    before its first WAL write), append every record and fsync the log
    once, then publish a single snapshot covering the whole batch.
    When the delta reaches [auto_compact], compaction runs before that
    publish and the snapshot serves the new sealed generation from its
    segment; if compaction fails, the uncompacted state is published
    and the compaction error returned.  Returns the document id each
    operation touched, in batch order.  On an IO error mid-batch the
    records already written are synced, applied and published — disk
    and memory never disagree. *)

val compact : t -> (unit, error) result
(** Fold the delta and dirty generations into a new sealed generation
    and reset the WAL.  A no-op when nothing changed since the last
    compaction.  Readers are unaffected: the published snapshot is
    reused, only the storage layout changes. *)

val crash_steps : string list
(** Every crash point the mutation and compaction paths fire, in
    execution order — the CI crash matrix iterates exactly this
    list. *)
