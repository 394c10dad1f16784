(** Length-prefixed, CRC-framed binary message layer — the unit of
    exchange between the gather tier and a shard server.

    One frame on the wire:

    {v
    offset  size  field
    0       2     magic "XK"
    2       1     protocol version (currently 1)
    3       1     frame kind
    4       4     payload length, big-endian
    8       4     CRC-32 of the whole frame with this field zeroed
                  (magic, version, kind, length and payload), big-endian
    12      n     payload
    v}

    The checksum covers every other byte of the frame, so any single-bit
    corruption — in the header fields or the payload — surfaces as a
    typed {!error}; nothing in this module ever lets an exception escape
    on malformed input.  Payloads above [limit] (default 16 MiB) are
    refused before any allocation proportional to
    the claimed length. *)

type kind = Ping | Pong | Query | Reply

type error =
  | Io of string  (** connection-level failure: refused, reset, EOF mid-frame *)
  | Timeout  (** the socket receive timeout expired *)
  | Closed  (** clean EOF at a frame boundary *)
  | Bad_magic of string
  | Bad_version of int
  | Bad_kind of int
  | Oversized of { length : int; limit : int }
  | Truncated of { expected : int; got : int }
      (** the input ends before the header or the declared payload *)
  | Trailing of int  (** whole-string decode: bytes left after the frame *)
  | Crc_mismatch of { expected : int; actual : int }
  | Malformed of string  (** the payload does not decode (see {!Wire}) *)

val error_message : error -> string

val version : int

val encode : kind -> string -> string
(** A complete frame for the payload.  Raises [Invalid_argument] only on
    a payload longer than 16 MiB — a caller bug, not input. *)

val decode : ?limit:int -> string -> (kind * string, error) result
(** Decode exactly one frame spanning the whole string; never raises.
    Validation order: header presence, magic, version, kind, length
    bounds, payload presence, trailing bytes, checksum. *)

val write_fd : Unix.file_descr -> kind -> string -> (unit, error) result
(** Write one frame, looping over partial writes.  [EPIPE]/reset map to
    [Io]; a send timeout maps to [Timeout]. *)

val read_fd : Unix.file_descr -> (kind * string, error) result
(** Read exactly one frame of at most 16 MiB of payload.  EOF before
    the first header byte is [Closed]; EOF inside a frame is [Io]; a
    receive timeout ([SO_RCVTIMEO]) is [Timeout].  Never raises. *)
