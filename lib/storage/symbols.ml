(* A static symbol table for short strings, after FSST (Boncz, Neumann
   and Leis, "FSST: fast random access string compression", VLDB 2020):
   at most 255 symbols of 1-8 bytes, each coded as one byte, its index;
   code 255 escapes one literal byte.  An empty table codes every byte
   as itself.

   Training starts from an empty table and runs two generations over a
   sample of the strings: code the sample greedily (longest symbol
   first), credit each symbol used, each single byte and each pair of
   neighbouring codes with the bytes they cover, and keep the 255 best
   candidates.  Final passes drop every symbol that does not save more
   bytes of the sample than its table entry costs, so a small or
   incompressible sample gets a small or empty table. *)

let max_symbols = 255
let max_len = 8
let escape = 255
let generations = 2

(* Training reads every k-th string, k chosen to keep the sample near
   this many bytes. *)
let sample_bytes = 3072

type t = string array

let empty = [||]

(* The symbols by first byte, longest first: the candidates of a greedy
   match. *)
type index = { syms : t; first : int array array }

let index syms =
  let lists = Array.make 256 [] in
  for j = Array.length syms - 1 downto 0 do
    let b = Char.code syms.(j).[0] in
    lists.(b) <- j :: lists.(b)
  done;
  let by_length a b = Int.compare (String.length syms.(b)) (String.length syms.(a)) in
  { syms; first = Array.map (fun l -> Array.of_list (List.stable_sort by_length l)) lists }

(* The longest symbol that [s] holds at [i], or -1. *)
let longest ix s i =
  let cands = ix.first.(Char.code s.[i]) in
  let rest = String.length s - i in
  let found = ref (-1) and c = ref 0 in
  while !found < 0 && !c < Array.length cands do
    let j = cands.(!c) in
    let sym = ix.syms.(j) in
    let l = String.length sym in
    if l <= rest then begin
      let k = ref 1 in
      while !k < l && String.unsafe_get sym !k = String.unsafe_get s (i + !k) do
        incr k
      done;
      if !k = l then found := j
    end;
    incr c
  done;
  !found

(* Code [s] greedily: [f i j] for each code, [j] the symbol matching at
   byte [i], or -1 for a byte that must be escaped. *)
let iter_codes ix s f =
  let i = ref 0 in
  while !i < String.length s do
    let j = longest ix s !i in
    f !i j;
    i := !i + if j < 0 then 1 else String.length ix.syms.(j)
  done

(* Candidates of a generation are codes and pairs of codes: a symbol j
   is code j, a literal byte b code 256 + b, and a pair key
   512 + a * 512 + b.  Pair counts live in an open-addressing table of
   int keys. *)
type pairs = { keys : int array; counts : int array }

let pair_slot p key =
  let mask = Array.length p.keys - 1 in
  let h = ref ((key * 0x9E3779B1) lsr 7 land mask) in
  while p.keys.(!h) <> -1 && p.keys.(!h) <> key do
    h := (!h + 1) land mask
  done;
  !h

let code_bytes ix c = if c < 256 then ix.syms.(c) else String.make 1 (Char.chr (c - 256))
let code_length ix c = if c < 256 then String.length ix.syms.(c) else 1

(* Keep the [max_symbols] largest of the packed candidates
   [gain lsl 20 lor (key_mask - key)] in a min-heap, so a tie goes to
   the smaller key. *)
let key_mask = (1 lsl 20) - 1

let swap heap i j =
  let t = heap.(i) in
  heap.(i) <- heap.(j);
  heap.(j) <- t

let top heap size v =
  if !size < Array.length heap then begin
    let i = ref !size in
    heap.(!i) <- v;
    incr size;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      swap heap ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done
  end
  else if v > heap.(0) then begin
    heap.(0) <- v;
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      let m = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
      if m < !size && heap.(m) < heap.(!i) then begin
        swap heap m !i;
        i := m
      end
      else fin := true
    done
  end

(* One generation: code [sample] with [ix], credit every code, the first
   byte of every multi-byte symbol and every pair of neighbouring codes
   that fits a symbol with the bytes they cover, and keep the best
   candidates (by bytes covered, ties to the smaller key), each string
   once. *)
let generation ix pairs sample =
  Array.fill pairs.keys 0 (Array.length pairs.keys) (-1);
  let singles = Array.make 512 0 in
  Array.iter
    (fun s ->
      let prev = ref (-1) in
      iter_codes ix s (fun i j ->
          let c = if j < 0 then 256 + Char.code s.[i] else j in
          singles.(c) <- singles.(c) + 1;
          if j >= 0 then begin
            let b = 256 + Char.code s.[i] in
            singles.(b) <- singles.(b) + 1
          end;
          if !prev >= 0 && code_length ix !prev + code_length ix c <= max_len then begin
            let key = 512 + (!prev * 512) + c in
            let h = pair_slot pairs key in
            if pairs.keys.(h) = -1 then begin
              pairs.keys.(h) <- key;
              pairs.counts.(h) <- 0
            end;
            pairs.counts.(h) <- pairs.counts.(h) + 1
          end;
          prev := c))
    sample;
  let heap = Array.make max_symbols 0 and size = ref 0 in
  Array.iteri
    (fun c n ->
      if n > 0 then top heap size (((n * code_length ix c) lsl 20) lor (key_mask - c)))
    singles;
  Array.iteri
    (fun h key ->
      if key >= 0 then
        let a = (key - 512) / 512 and b = (key - 512) mod 512 in
        let gain = pairs.counts.(h) * (code_length ix a + code_length ix b) in
        top heap size ((gain lsl 20) lor (key_mask - key)))
    pairs.keys;
  let best = Array.sub heap 0 !size in
  Array.sort (fun a b -> Int.compare b a) best;
  let seen = Hashtbl.create 512 in
  Array.to_list best
  |> List.filter_map (fun v ->
         let key = key_mask - (v land key_mask) in
         let sym =
           if key < 512 then code_bytes ix key
           else code_bytes ix ((key - 512) / 512) ^ code_bytes ix ((key - 512) mod 512)
         in
         if Hashtbl.mem seen sym then None
         else begin
           Hashtbl.add seen sym ();
           Some sym
         end)
  |> Array.of_list

(* How often a greedy coding of [sample] uses each symbol. *)
let uses ix sample =
  let u = Array.make (Array.length ix.syms) 0 in
  Array.iter (fun s -> iter_codes ix s (fun _ j -> if j >= 0 then u.(j) <- u.(j) + 1)) sample;
  u

(* A symbol of length l used u times saves u bytes over escapes (l = 1)
   or u (l - 1) over single-byte codes, and its entry costs 1 + l bytes.
   Dropping symbols shifts the uses of the rest, so the pass repeats
   until every symbol left pays (or three times). *)
let rec prune sample syms rounds =
  let u = uses (index syms) sample in
  let pays j sym =
    let l = String.length sym in
    (if l = 1 then u.(j) else u.(j) * (l - 1)) > 1 + l
  in
  let kept = Array.of_list (List.filteri pays (Array.to_list syms)) in
  if rounds = 0 || Array.length kept = Array.length syms then kept
  else prune sample kept (rounds - 1)

let train strings =
  let total = Array.fold_left (fun n s -> n + String.length s) 0 strings in
  let stride = 1 + ((total - 1) / sample_bytes) in
  let sample =
    Array.init ((Array.length strings + stride - 1) / stride) (fun i -> strings.(i * stride))
  in
  let sampled = Array.fold_left (fun n s -> n + String.length s) 0 sample in
  let slots = ref 1024 in
  while !slots < 2 * sampled do
    slots := 2 * !slots
  done;
  let pairs = { keys = Array.make !slots (-1); counts = Array.make !slots 0 } in
  let syms = ref empty in
  for _ = 1 to generations do
    syms := generation (index !syms) pairs sample
  done;
  prune sample !syms 2

(* The table: a varint count, then per symbol a length byte and its
   bytes. *)
let write_table buf syms =
  Varint.write buf (Array.length syms);
  Array.iter
    (fun s ->
      Buffer.add_char buf (Char.chr (String.length s));
      Buffer.add_string buf s)
    syms

type coder = index

let coder = index

let encode ix buf s =
  if Array.length ix.syms = 0 then Buffer.add_string buf s
  else
    iter_codes ix s (fun i j ->
        if j < 0 then begin
          Buffer.add_char buf (Char.chr escape);
          Buffer.add_char buf s.[i]
        end
        else Buffer.add_char buf (Char.chr j))

let read_table (c : Varint.cursor) =
  let n = Varint.read c in
  if n > max_symbols then Varint.malformed "%d symbols, at most %d" n max_symbols;
  Array.init n (fun j ->
      if Varint.at_end c then Varint.malformed "symbol %d runs past the table" j;
      let len = Char.code c.data.[c.pos] in
      Varint.skip c 1;
      if len < 1 || len > max_len then
        Varint.malformed "symbol %d has length %d, not 1-%d" j len max_len;
      Varint.take c len)

type scratch = { mutable bytes : Bytes.t; mutable len : int }

let scratch () = { bytes = Bytes.create 64; len = 0 }

(* Room for [need] bytes, keeping the [len] already decoded. *)
let reserve b need =
  if need > Bytes.length b.bytes then begin
    let grown = Bytes.create (max need (2 * Bytes.length b.bytes)) in
    Bytes.blit b.bytes 0 grown 0 b.len;
    b.bytes <- grown
  end

(* Each code stands for at most [max_len] bytes, so one reservation
   covers the suffix and the loop writes without a check per code. *)
let decode syms s ~pos ~len b =
  let n = Array.length syms in
  if pos < 0 || len < 0 || pos > String.length s - len then
    Varint.malformed "suffix past the region";
  if n = 0 then begin
    reserve b (b.len + len);
    Bytes.blit_string s pos b.bytes b.len len;
    b.len <- b.len + len
  end
  else begin
    reserve b (b.len + (max_len * len));
    let stop = pos + len in
    let i = ref pos and at = ref b.len in
    while !i < stop do
      let code = Char.code (String.unsafe_get s !i) in
      if code < n then begin
        let sym = syms.(code) in
        let l = String.length sym in
        Bytes.unsafe_blit_string sym 0 b.bytes !at l;
        at := !at + l;
        incr i
      end
      else if code = escape then begin
        if !i + 1 >= stop then Varint.malformed "escape at the end of a suffix";
        Bytes.unsafe_set b.bytes !at (String.unsafe_get s (!i + 1));
        incr at;
        i := !i + 2
      end
      else Varint.malformed "code %d names no symbol of %d" code n
    done;
    b.len <- !at
  end
