(** An immutable, queryable view of the live store at one LSN.

    A snapshot is a {!Sharding.t} over the store's current documents:
    shard 0 is the in-memory delta segment, shards 1..n are the sealed
    on-disk segments.  Building through {!Sharding.build_with} hands
    every shard the corpus-global statistics of {e this} snapshot's
    document set, so scores are bit-identical to an unsharded index
    rebuilt from scratch over the same documents — mutation never
    perturbs ranking, it only changes the corpus.

    Sealed segments whose documents the delta does not touch load their
    saved {!Index_io} segment (skipping tokenization); dirty or unsaved
    segments rebuild from their subtrees.  A load failure of a saved
    segment falls back to rebuilding — a damaged segment file degrades
    to extra work, never to a failed snapshot.

    Snapshots are immutable: readers that pinned one keep answering
    from it while the writer publishes successors. *)

type group = {
  g_docs : Wal.doc list;
      (** the group's documents (id and top-level subtree), ascending
          by id *)
  g_index : string option;
      (** saved {!Index_io} segment built over exactly these documents
          (attr-free root), or [None] to tokenize from scratch *)
}

type t

val build :
  root_tag:string ->
  root_attrs:Xk_xml.Xml_tree.attribute list ->
  lsn:int ->
  group list ->
  t
(** [build ~root_tag ~root_attrs ~lsn groups] assembles the snapshot
    document (shared root plus every group's subtrees in ascending
    document-id order) and indexes it with one shard per group.  The
    first group is the delta shard and must come first even when empty
    — it is the only shard whose sub-document keeps the root
    attributes, so sealed shards stay position-stable across
    compactions.  Document ids must be unique across groups. *)

val lsn : t -> int
val document : t -> Xk_xml.Xml_tree.document
(** The reconstructed corpus: original root (tag and attributes) with
    every live subtree, in ascending document-id order.  An
    {!Xk_core.Engine} built over this document is the from-scratch
    reference the snapshot's answers are compared against. *)

val doc_ids : t -> int array
(** Document id of each top-level child of {!document}, ascending. *)

val doc_count : t -> int
val sharding : t -> Sharding.t
(** Query through [Xk_exec.Shard_exec.create] over this. *)

val rebuilt : t -> int
(** Saved segments that failed to load and were rebuilt from their
    subtrees while this snapshot was built. *)
