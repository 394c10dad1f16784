(* Term dictionary: interns term strings to dense integer ids and tracks
   each term's document frequency (the number of nodes directly
   containing it).

   The id table is open addressing with linear probing, kept at most half
   full.  Each slot is two ints of [slots], the key's hash and its id + 1
   (0 = empty), so a probe reads one place before it compares bytes.  A
   key is hashed and compared where it lies: the tokenizer's path interns
   a span of its source text, ASCII-folded on the fly, and allocates a
   term string only the first time it sees the term.  Whole-string
   [intern]/[find] compare bytes exactly. *)

type t = {
  mutable slots : int array; (* 2 * capacity: hash, id + 1 *)
  mutable terms : string array;
  mutable dfs : int array;
  mutable len : int;
}

let pow2_at_least n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 16

(* [size] presizes the table and arrays: a caller that knows the exact
   term count skips every rehash and growth copy. *)
let create ?(size = 1024) () =
  let size = max 16 size in
  {
    slots = Array.make (2 * pow2_at_least (2 * size)) 0;
    terms = Array.make size "";
    dfs = Array.make size 0;
    len = 0;
  }

(* FNV-1a over the (folded) bytes of the span [pos, pos + len) of [s],
   with a final mix so the low bits used as the slot index depend on
   every byte.  The span is checked here, once, so that hashing and
   comparing may read it unchecked. *)
let hash ~fold s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    Xk_util.Err.invalid "Dictionary: span outside its string";
  let h = ref 0x811c9dc5 in
  for k = pos to pos + len - 1 do
    let c = String.unsafe_get s k in
    h := (!h lxor Char.code (if fold then Char.lowercase_ascii c else c)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let equal_span ~fold term s pos len =
  String.length term = len
  &&
  let same = ref true in
  for k = 0 to len - 1 do
    let c = String.unsafe_get s (pos + k) in
    if String.unsafe_get term k <> if fold then Char.lowercase_ascii c else c then
      same := false
  done;
  !same

(* Slot (even index into [slots]) holding the key's id, or the empty
   slot where it would go; linear probing from slot [i]. *)
let rec probe t ~fold h s pos len i =
  let v = t.slots.(i + 1) in
  if v = 0 || (t.slots.(i) = h && equal_span ~fold t.terms.(v - 1) s pos len) then i
  else probe t ~fold h s pos len ((i + 2) land (Array.length t.slots - 1))

let start t h = (2 * h) land (Array.length t.slots - 1)

let grow t =
  let cap = Array.length t.terms in
  let extend a x =
    let b = Array.make (2 * cap) x in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.terms <- extend t.terms "";
  t.dfs <- extend t.dfs 0;
  let old = t.slots in
  let slots = Array.make (2 * Array.length old) 0 in
  let mask = Array.length slots - 1 in
  let rec free i = if slots.(i + 1) = 0 then i else free ((i + 2) land mask) in
  for j = 0 to (Array.length old / 2) - 1 do
    let h = old.(2 * j) and v = old.((2 * j) + 1) in
    if v > 0 then begin
      let i = free ((2 * h) land mask) in
      slots.(i) <- h;
      slots.(i + 1) <- v
    end
  done;
  t.slots <- slots

(* [slots] holds at least twice as many slots as [terms] has entries, so
   growing the arrays before [len] reaches their capacity keeps the table
   at most half full. *)
let rec intern_at ~fold t s pos len =
  let h = hash ~fold s pos len in
  let i = probe t ~fold h s pos len (start t h) in
  let v = t.slots.(i + 1) in
  if v > 0 then v - 1
  else if t.len = Array.length t.terms then begin
    grow t;
    intern_at ~fold t s pos len
  end
  else begin
    let id = t.len in
    t.terms.(id) <-
      (if fold then String.init len (fun k -> Char.lowercase_ascii s.[pos + k])
       else String.sub s pos len);
    t.slots.(i) <- h;
    t.slots.(i + 1) <- id + 1;
    t.len <- id + 1;
    id
  end

let find_at ~fold t s pos len =
  let h = hash ~fold s pos len in
  let v = t.slots.(probe t ~fold h s pos len (start t h) + 1) in
  if v = 0 then None else Some (v - 1)

let intern t w = intern_at ~fold:false t w 0 (String.length w)
let find t w = find_at ~fold:false t w 0 (String.length w)
let intern_folded t s ~pos ~len = intern_at ~fold:true t s pos len
let find_folded t s ~pos ~len = find_at ~fold:true t s pos len
let term t id = t.terms.(id)
let size t = t.len
let df t id = t.dfs.(id)
let bump_df t id = t.dfs.(id) <- t.dfs.(id) + 1
