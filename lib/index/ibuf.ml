(* Growable int arrays used while accumulating postings.  Values live in
   fixed chunks of [chunk] ints, so growing allocates one chunk and never
   copies what was pushed before. *)

let chunk_bits = 12
let chunk = 1 lsl chunk_bits

type t = { mutable chunks : int array array; mutable len : int }

let create () = { chunks = [||]; len = 0 }

let push b x =
  let c = b.len lsr chunk_bits and k = b.len land (chunk - 1) in
  if k = 0 then begin
    if c = Array.length b.chunks then begin
      let chunks = Array.make (max 8 (2 * c)) [||] in
      Array.blit b.chunks 0 chunks 0 c;
      b.chunks <- chunks
    end;
    b.chunks.(c) <- Array.make chunk 0
  end;
  b.chunks.(c).(k) <- x;
  b.len <- b.len + 1

let length b = b.len
let get b i = b.chunks.(i lsr chunk_bits).(i land (chunk - 1))
