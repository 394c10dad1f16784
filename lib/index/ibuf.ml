(* Growable int arrays used while accumulating postings. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let data = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let length b = b.len
let get b i = b.data.(i)
