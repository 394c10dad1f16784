(* LEB128 variable-length integers, the base codec for every on-disk
   structure in the repository, and the one reader of payload bytes. *)

let write buf n =
  if n < 0 then Xk_util.Err.invalid "Varint.write: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max n 0) 1

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

type cursor = { data : string; mutable pos : int; stop : int }

let slice data ~pos ~stop =
  if pos < 0 || pos > stop || stop > String.length data then
    Xk_util.Err.invalid "Varint.slice: bounds outside the data";
  { data; pos; stop }

let cursor_at data pos = slice data ~pos ~stop:(String.length data)
let cursor data = cursor_at data 0

let at_end c = c.pos >= c.stop

(* At most 9 bytes: the ninth carries bits 56-62 and must end the value
   with bit 62 clear, so a value is never negative.  [slice] and [skip]
   keep [0 <= pos <= stop <= length data], and the interface makes the
   type private, which makes the unchecked get safe. *)
let read c =
  let pos = ref c.pos and acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !pos >= c.stop then raise (Malformed "varint runs past its slice");
    let b = Char.code (String.unsafe_get c.data !pos) in
    incr pos;
    if !shift = 56 && b >= 0x40 then raise (Malformed "varint overflows");
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  c.pos <- !pos;
  !acc

let count c ~width =
  let n = read c in
  if n > (c.stop - c.pos) / width then
    malformed "count %d exceeds the payload" n;
  n

let skip c n =
  if n < 0 || n > c.stop - c.pos then
    malformed "%d bytes wanted, %d left" n (c.stop - c.pos);
  c.pos <- c.pos + n

let take c n =
  let pos = c.pos in
  skip c n;
  String.sub c.data pos n

let string c = take c (read c)

let decode ~whole f c =
  match f c with
  | v when whole && c.pos < c.stop ->
      ignore v;
      Error (Printf.sprintf "%d trailing payload bytes" (c.stop - c.pos))
  | v -> Ok v
  | exception Malformed m -> Error m
