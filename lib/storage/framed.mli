(** The CRC-framed container of every durable file: the one place its
    bytes are assembled and checked.

    A {e frame} is [varint length | varint CRC-32 | payload].  A WAL
    record is one bare frame; a whole file (shard manifest, v2 segment,
    live-store manifest and documents) is [magic | varint version] and
    one frame.  The checks are total: every input gets a typed {!error},
    which each caller maps onto its own error type. *)

type span = { pos : int; len : int }
(** A payload's offset and length in the checked bytes. *)

type error =
  | Short_input  (** fewer bytes than the magic *)
  | Bad_magic of string  (** the leading magic-sized bytes, as found *)
  | Bad_version of int
  | Header_cut  (** the data ends inside a header varint *)
  | Bad_varint
      (** a header varint is negative or runs past 9 bytes: no prefix
          of a valid frame holds either *)
  | Short_payload of { have : int; want : int }
      (** the declared payload runs past the end of the data *)
  | Trailing of int  (** bytes after a whole file's payload *)
  | Crc_mismatch of span  (** the payload window whose checksum failed *)

val error_message : error -> string

val file : magic:string -> version:int -> string -> string
(** The bytes of a whole framed file around a payload. *)

val record : string -> string
(** The bytes of one frame (a WAL record) around a payload. *)

val header : magic:string -> version:int -> string -> (int, error) result
(** Check [magic | varint version] and return the offset past it (the
    WAL's header fields and records follow). *)

val check : magic:string -> version:int -> string -> (span, error) result
(** Check a whole framed file, in this order: the magic, the version,
    the frame header, the payload's length (short, then trailing) and
    its checksum. *)

val read_record : string -> pos:int -> (span, error) result
(** Check the frame at [pos] of a record stream; the next one starts at
    [span.pos + span.len]. *)
