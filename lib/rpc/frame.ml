(* The RPC frame codec.  The CRC-32 is computed over the whole frame
   with the checksum field zeroed, so every byte — magic, version, kind,
   length and payload — is covered: any single-bit flip either fails a
   field check or fails the checksum.  All entry points return typed
   errors; malformed input can never raise. *)

type kind = Ping | Pong | Query | Reply

type error =
  | Io of string
  | Timeout
  | Closed
  | Bad_magic of string
  | Bad_version of int
  | Bad_kind of int
  | Oversized of { length : int; limit : int }
  | Truncated of { expected : int; got : int }
  | Trailing of int
  | Crc_mismatch of { expected : int; actual : int }
  | Malformed of string

let error_message = function
  | Io msg -> "io: " ^ msg
  | Timeout -> "timed out waiting for a frame"
  | Closed -> "connection closed"
  | Bad_magic m -> Printf.sprintf "bad frame magic %S" m
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Bad_kind k -> Printf.sprintf "unknown frame kind %d" k
  | Oversized { length; limit } ->
      Printf.sprintf "frame claims %d payload bytes (limit %d)" length limit
  | Truncated { expected; got } ->
      Printf.sprintf "frame cut short: %d of %d bytes" got expected
  | Trailing n -> Printf.sprintf "%d trailing bytes after the frame" n
  | Crc_mismatch { expected; actual } ->
      Printf.sprintf "frame checksum mismatch (stored %08x, computed %08x)"
        expected actual
  | Malformed msg -> "malformed payload: " ^ msg

let magic = "XK"
let version = 1
let header_size = 12
let crc_offset = 8
let default_limit = 16 * 1024 * 1024

let kind_byte = function Ping -> 0 | Pong -> 1 | Query -> 2 | Reply -> 3

let kind_of_byte = function
  | 0 -> Some Ping
  | 1 -> Some Pong
  | 2 -> Some Query
  | 3 -> Some Reply
  | _ -> None

(* The frame checksum over its pieces: header bytes [0, 8) of [head],
   the checksum field as four zero bytes, then [len] payload bytes of
   [body] from [pos].  Neither side copies a frame to zero the field. *)
let zero_crc = String.make 4 '\000'

let checksum ~head body ~pos ~len =
  let crc = Xk_storage.Crc32.update 0 head ~pos:0 ~len:crc_offset in
  let crc = Xk_storage.Crc32.update crc zero_crc ~pos:0 ~len:4 in
  Xk_storage.Crc32.update crc body ~pos ~len

let encode k payload =
  let n = String.length payload in
  if n > default_limit then
    Xk_util.Err.invalidf "Frame.encode: %d-byte payload exceeds the limit" n;
  let b = Bytes.create (header_size + n) in
  Bytes.blit_string magic 0 b 0 2;
  Bytes.set_uint8 b 2 version;
  Bytes.set_uint8 b 3 (kind_byte k);
  Bytes.set_int32_be b 4 (Int32.of_int n);
  let head = Bytes.sub_string b 0 crc_offset in
  let crc = checksum ~head payload ~pos:0 ~len:n in
  Bytes.set_int32_be b crc_offset (Int32.of_int crc);
  Bytes.blit_string payload 0 b header_size n;
  Bytes.unsafe_to_string b

let u32_be s pos =
  Int32.to_int (String.get_int32_be s pos) land 0xFFFFFFFF

(* Validate one frame held entirely in [s]; shared by the pure decoder
   and the stream reader (which reads header and payload into one
   buffer). *)
let check_frame ?(limit = default_limit) s =
  let len = String.length s in
  if len < header_size then
    Error (Truncated { expected = header_size; got = len })
  else if String.sub s 0 2 <> magic then Error (Bad_magic (String.sub s 0 2))
  else if String.get_uint8 s 2 <> version then
    Error (Bad_version (String.get_uint8 s 2))
  else
    match kind_of_byte (String.get_uint8 s 3) with
    | None -> Error (Bad_kind (String.get_uint8 s 3))
    | Some kind ->
        let plen = u32_be s 4 in
        if plen > limit then Error (Oversized { length = plen; limit })
        else if len < header_size + plen then
          Error (Truncated { expected = header_size + plen; got = len })
        else if len > header_size + plen then
          Error (Trailing (len - header_size - plen))
        else
          let stored = u32_be s crc_offset in
          let actual = checksum ~head:s s ~pos:header_size ~len:plen in
          if stored <> actual then
            Error (Crc_mismatch { expected = stored; actual })
          else Ok (kind, String.sub s header_size plen)

let decode ?limit s = check_frame ?limit s

(* --- Stream IO -------------------------------------------------------- *)

(* Loop [Unix.read] until [buf] holds [n] bytes from [off].  [eof_error]
   distinguishes "clean close before any byte" from "stream died
   mid-frame". *)
let read_exactly fd buf ~off n ~eof_error =
  let rec go pos =
    if pos >= off + n then Ok ()
    else
      match Unix.read fd buf pos (off + n - pos) with
      | 0 -> Error (if pos = off then eof_error else Io "EOF inside a frame")
      | r -> go (pos + r)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          Error Timeout
      | exception Unix.Unix_error (EINTR, _, _) -> go pos
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  in
  go off

let read_fd fd =
  let header = Bytes.create header_size in
  match read_exactly fd header ~off:0 header_size ~eof_error:Closed with
  | Error _ as e -> e
  | Ok () -> (
      (* Pre-check the fixed fields so an oversized or foreign header is
         refused before the payload allocation. *)
      let h = Bytes.unsafe_to_string header in
      if String.sub h 0 2 <> magic then Error (Bad_magic (String.sub h 0 2))
      else if String.get_uint8 h 2 <> version then
        Error (Bad_version (String.get_uint8 h 2))
      else
        let plen = u32_be h 4 in
        if plen > default_limit then
          Error (Oversized { length = plen; limit = default_limit })
        else
          let frame = Bytes.create (header_size + plen) in
          Bytes.blit header 0 frame 0 header_size;
          match
            read_exactly fd frame ~off:header_size plen
              ~eof_error:(Io "EOF inside a frame")
          with
          | Error _ as e -> e
          | Ok () -> check_frame (Bytes.unsafe_to_string frame))

let write_fd fd k payload =
  let s = encode k payload in
  let n = String.length s in
  let rec go off =
    if off >= n then Ok ()
    else
      match Unix.write_substring fd s off (n - off) with
      | r -> go (off + r)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
          Error Timeout
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  in
  go 0
