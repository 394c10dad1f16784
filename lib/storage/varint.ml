(* LEB128 variable-length integers, the base codec for every on-disk
   structure in the repository. *)

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

(* Zig-zag encoding for signed deltas. *)
let write_signed buf n =
  let z = if n >= 0 then n lsl 1 else ((-n) lsl 1) - 1 in
  write buf z

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }
let cursor_at data pos = { data; pos }
let at_end c = c.pos >= String.length c.data

let read c =
  let rec go shift acc =
    if c.pos >= String.length c.data then
      Xk_util.Err.invalid "Varint.read: truncated input";
    let b = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_signed c =
  let z = read c in
  if z land 1 = 0 then z lsr 1 else -((z + 1) lsr 1)

(* Total variant for parsers of possibly-torn input (WAL recovery):
   short input is an expected outcome there, not a programming error.
   A value runs over at most 9 bytes (63 bits): a tenth is never read. *)
let read_opt c =
  let len = String.length c.data in
  let rec go shift acc pos =
    if pos >= len || shift > 56 then None
    else
      let b = Char.code c.data.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then begin
        c.pos <- pos + 1;
        Some acc
      end
      else go (shift + 7) acc (pos + 1)
  in
  go 0 0 c.pos

let size n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go (max n 0) 1
