(* The CRC-framed container (see the interface).  The checks are total,
   and their order decides which verdict a damaged input gets. *)

type span = { pos : int; len : int }

type error =
  | Short_input
  | Bad_magic of string
  | Bad_version of int
  | Header_cut
  | Bad_varint
  | Short_payload of { have : int; want : int }
  | Trailing of int
  | Crc_mismatch of span

let error_message = function
  | Short_input -> "shorter than the magic"
  | Bad_magic _ -> "bad magic"
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Header_cut -> "header cut short"
  | Bad_varint -> "header varint negative or longer than 9 bytes"
  | Short_payload { have; want } ->
      Printf.sprintf "payload has %d of %d bytes" have want
  | Trailing n -> Printf.sprintf "%d trailing bytes after the payload" n
  | Crc_mismatch _ -> "payload checksum mismatch"

let frame_into buf payload =
  Varint.write buf (String.length payload);
  Varint.write buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

let record payload = frame_into (Buffer.create (String.length payload + 10)) payload

let file ~magic ~version payload =
  let buf = Buffer.create (String.length magic + String.length payload + 20) in
  Buffer.add_string buf magic;
  Varint.write buf version;
  frame_into buf payload

let ( let* ) = Result.bind

(* A header varint.  A crash can cut one short, but no prefix of a
   valid frame holds a negative value or a tenth byte; both need nine
   bytes, which a cut varint does not have. *)
let field (c : Varint.cursor) =
  let left = c.stop - c.pos in
  match Varint.read c with
  | v -> Ok v
  | exception Varint.Malformed _ ->
      Error (if left >= 9 then Bad_varint else Header_cut)

let frame ~whole (c : Varint.cursor) =
  let* len = field c in
  let* crc = field c in
  let pos = c.pos in
  let have = String.length c.data - pos in
  if have < len then Error (Short_payload { have; want = len })
  else if whole && have > len then Error (Trailing (have - len))
  else if Crc32.sub c.data ~pos ~len <> crc then Error (Crc_mismatch { pos; len })
  else Ok { pos; len }

let header ~magic ~version data =
  let mlen = String.length magic in
  if String.length data < mlen then Error Short_input
  else if not (String.starts_with ~prefix:magic data) then
    Error (Bad_magic (String.sub data 0 mlen))
  else
    let c = Varint.cursor_at data mlen in
    let* v = field c in
    if v <> version then Error (Bad_version v) else Ok c.pos

let check ~magic ~version data =
  let* pos = header ~magic ~version data in
  frame ~whole:true (Varint.cursor_at data pos)

let read_record data ~pos = frame ~whole:false (Varint.cursor_at data pos)
