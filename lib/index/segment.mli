(** The v9 ("XKIDX009") compressed segment: the one layout every
    {!Index.t} reads its terms and rows from.  {!Index.build} encodes it
    and opens its own bytes ({!Xk_storage.Mmap.of_string}); {!Index_io}
    maps a file and opens that.

    A fixed 80-byte header with its own CRC-32 (it records the node
    count and M, the count of term-bearing nodes), then the term region
    (a trained symbol table, then the terms in byte order, front-coded
    in blocks of 16, and a table of each block's offset), the postings
    (one bit stream per block of 64 term ids: per term the gaps between
    its nodes' ranks among the term-bearing nodes, Rice-coded, then
    Elias-gamma tf exceptions when its cf differs from its df) and the
    directory (per block a CRC-32 and a byte length, then every term's
    df and each tf-bearing term's cf - df as gamma codes), back to back,
    every byte under a checksum; [segment.ml] specifies every bit.  A
    term's id is its rank in byte order.

    {!open_} verifies the header, terms and directory checksums, checks
    the node count and M against the document, checks the term region's
    structure and strict byte order, and decodes the directory; no
    posting is touched, and no dictionary, per-term offset or rank map
    is built.  A term's rows are decoded on first use: the first decode
    of a block verifies its checksum and publishes its terms' bit
    offsets atomically.  Every reader is safe to call from any domain. *)

val magic : string
(** The magic of the one loadable segment generation (v9). *)

type error =
  | Truncated of string  (** shorter than the declared layout *)
  | Corrupted of string
      (** bad magic/version, checksum mismatch, malformed structure, or
          a document/node-count mismatch *)
  | Io_failed of string  (** a failed or injected-failing read *)

val error_message : ?kind:string -> error -> string
(** The error, naming the file by [kind] (default ["segment"]). *)

type attempt_error =
  [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]
(** The outcome classes of one read attempt: every class but [`Fatal]
    may be a torn read, which a re-read heals. *)

val classify : attempt_error -> error

exception Bad of attempt_error
(** Raised by {!header}, {!open_} and {!verify} on the first anomaly:
    [`Crc] for a checksum mismatch, [`Suspect] for a truncation,
    [`Fatal] for malformed structure behind a verified checksum. *)

exception Segment_fault of string
(** Raised by {!rows}: the checksum of a term's block fails or the
    block's terms do not decode to its length or leave nonzero pad bits
    (every term of that block faults, every other term still decodes),
    its postings do not decode (a unary run or a code runs past the
    block, ranks reach M, a gamma code is longer than 61 bits, tf
    exception positions are not strictly increasing below df, or the
    tfs do not sum to cf), or the map was closed under the reader.
    Raised at query time, it propagates out of list materialization;
    the replicated executor's failover-on-raise treats it like any other
    replica failure. *)

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
    postings and directory regions back to back. *)

val encode :
  Xk_encoding.Labeling.t ->
  terms:string array ->
  starts:int array ->
  nodes:int array ->
  tfs:int array ->
  string
(** The bytes of the segment over a labeled document whose term [id] is
    [terms.(id)], with rows [(nodes.(i), tfs.(i))] for [i] from
    [starts.(id)] below [starts.(id + 1)].  Raises [Invalid_argument] if
    [starts] does not run from 0 to the row count in [terms + 1]
    entries, the terms are not in strict byte order, a term has no rows,
    a term frequency is below 1, a term's node ids are not strictly
    increasing below the node count, or a row sits at a node that cannot
    hold terms. *)

type t
(** An opened segment: the checked term region, the decoded directory
    and the bytes the postings are decoded from. *)

val header : Xk_storage.Mmap.t -> layout
(** Parse and authenticate the header alone; raises {!Bad}. *)

val open_ : ?verify_columns:bool -> Xk_encoding.Labeling.t -> Xk_storage.Mmap.t -> t
(** Open a segment over the document it was encoded from; raises {!Bad}.
    [verify_columns] (default false) verifies and decodes every term's
    postings now instead of at first use. *)

val verify : Xk_storage.Mmap.t -> unit
(** Check a segment fully, with no document: header, terms and
    directory checksums, the exact size, the term region's structure and
    order, every block checksum and every term's postings structure.
    Raises {!Bad}. *)

val term_count : t -> int
val df : t -> int -> int

val term_of : t -> int -> string
(** The term of an id. *)

val find_term : t -> string -> int option
(** The id of a word, ASCII case folded; [None] when absent. *)

val rows : t -> Xk_encoding.Labeling.t -> int -> int array * int array
(** Decode a term's fresh (nodes, tfs) rows; [label] is the document
    {!open_} checked.  Raises {!Segment_fault}. *)

val bytes : t -> string
(** A copy of the segment's bytes. *)
