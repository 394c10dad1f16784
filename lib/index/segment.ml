(* The v9 ("XKIDX009") compressed segment codec: the one layout every
   index reads its terms and rows from, whether it was built in memory
   ([Index.build] encodes, then opens its own bytes) or mapped from a
   file ([Index_io]).  Four parts back to back, no padding, every byte
   under a CRC-32:

     header    fixed 80 bytes: magic, version u32, then u64 node count,
               term count, total rows, terms/postings/directory lengths
               and M, the count of term-bearing nodes; terms_crc u32,
               dir_crc u32, header_crc u32 (over itself)
     terms     a symbol table ({!Xk_storage.Symbols}: a varint count of
               at most 255, then per symbol a length byte of 1-8 and its
               bytes; empty when coding would not shrink the region),
               then the terms in byte order, front-coded in blocks of
               16: every entry is one byte [shared lsl 4 lor code_len],
               a nibble of 15 meaning "15 plus a varint that follows",
               then the suffix's codes (a symbol's index, or 255 and a
               literal byte; with an empty table, the suffix itself); a
               block's first entry (its restart) shares nothing.  Then
               one u32 per block, the region offset of its restart
               entry                                      [terms_crc]
     postings  per block of 64 consecutive term ids one bit stream,
               least significant bit first, zero bits to the next byte
               only at its end.  Per term: the ranks of its nodes among
               the term-bearing nodes, as gaps (rank - previous rank -
               1, the first rank itself) Rice-coded with the term's k,
               each as q = gap lsr k zero bits, a one bit and the gap's
               k low bits; then, only when cf <> df, the tf exceptions
               as Elias-gamma codes (v >= 1 as n zero bits, a one bit
               and the n bits of v below its top bit): the count, then
               per row whose tf is above 1 its position gap + 1 (the
               first position absolute) and tf - 1   [its block's CRC]
     dir       per block a u32 CRC over the block's postings and a
               varint byte length of them; then one bit stream, zero
               bits to the next byte only at its end: per term the gamma
               code of its df, then gamma (t + 1) for the t terms whose
               cf <> df, and per such term in id order the gamma codes
               of its id gap (id - previous id, the first id + 1) and of
               cf - df                                     [dir_crc]

   A node is term-bearing when the index tokenizes it
   ([Labeling.term_bearing]: a text node, or an element with
   attributes); no other node can hold a term, so a row's node is coded
   as its rank among the M term-bearing nodes in document order and the
   gaps range over M, not over the node count.  The open checks the
   header's M against the document's count in O(1), beside the node
   count.  Decoding works in rank space (every rank below M), so
   [verify] needs no document; only a decode that keeps rows maps ranks
   to node ids, through the select array (the term-bearing nodes in
   order), built from the labeling by the first such decode and
   published through an [Atomic].

   A term's id is its rank in byte order.  Every shared prefix is the
   longest one, so an entry's first suffix byte is where it passes its
   predecessor: the open decodes every suffix and checks strict byte
   order entry by entry, and a lookup binary-searches the restarts and
   scans one block.  A term's Rice parameter follows from its df and M
   ([rice_k]), so no byte stores it.  The block lengths tile the
   postings region exactly, so the block CRCs cover it byte for byte; a
   term's bit offset inside its block is found by decoding the terms
   before it, which the first read of a block does once.  cf = df means
   every tf is 1 (a tf is at least 1), which is why most terms store no
   tf codes at all, and the rows that are not listed as exceptions have
   tf 1.  Every df is at least 1, so a gamma code holds it.

   Opening a segment (a mapped file, or the bytes a build has just
   encoded) checks and decodes the header, terms and directory, and no
   posting: the first decode of any term of a block verifies that
   block's CRC and decodes its terms in the same pass, which yields
   their bit offsets, published through the block's [Atomic].  A read
   raises [Bad] with the class of its first anomaly, which [Index_io]
   retries when a re-read can heal it; a decode on behalf of a query
   raises [Segment_fault] instead. *)

(* Int-specialised: [Stdlib.min] is polymorphic, and on the decode and
   write paths its call to the generic compare costs more than the
   arithmetic around it. *)
let min (a : int) b = if a <= b then a else b

let magic = "XKIDX009"
let version = 9

type error =
  | Truncated of string
  | Corrupted of string
  | Io_failed of string

let error_message ?(kind = "segment") = function
  | Truncated msg -> Printf.sprintf "truncated %s: %s" kind msg
  | Corrupted msg -> Printf.sprintf "corrupted %s: %s" kind msg
  | Io_failed msg -> "io error: " ^ msg

(* The outcome classes of one read attempt.  [`Transient], [`Crc] and
   [`Suspect] are the retryable classes: [`Suspect] carries a
   header-level anomaly (bad magic, version, truncation) that a torn read
   can cause just as well as real corruption - a re-read distinguishes
   the two, and the carried error is reported if every retry sees it
   again.  Only [`Fatal] skips retrying: it is raised after the checksum
   verified, for a file that cannot be mapped, or for a retired
   generation whose magic is intact, so a re-read cannot change the
   outcome. *)
type attempt_error =
  [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]

(* Structured parse failure, classified like every attempt error:
   [`Crc] and truncation may be torn reads (retry), structural errors
   behind a verified checksum are fatal.  Declared over the full attempt
   error type so a caught payload needs no variant coercion. *)
exception Bad of attempt_error

exception Segment_fault of string
(* Raised by the lazy row decoder (see the .mli). *)

let bad_crc msg = raise (Bad (`Crc msg))
let bad_trunc msg = raise (Bad (`Suspect (Truncated msg)))
let bad_struct msg = raise (Bad (`Fatal (Corrupted msg)))

let classify = function
  | `Transient msg -> Io_failed msg
  | `Crc msg -> Corrupted msg
  | `Suspect e | `Fatal e -> e

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

let header_size = 80

(* Terms per postings block: one CRC and one byte length each. *)
let block_terms = 64

(* Terms per front-coding block of the term region: each block starts
   with a whole term, its restart. *)
let restart_terms = 16

let restarts n = (n + restart_terms - 1) / restart_terms
let blocks n = (n + block_terms - 1) / block_terms

(* The Rice parameter of a term with [df] rows among [nodes] ranks: the
   largest k with df * 2^k <= nodes, so 2^k is at most the mean gap
   between its ranks plus one.  Integers only, so writer and reader
   agree on every host. *)
let rice_k ~nodes df =
  let rec go k = if nodes lsr (k + 1) >= df then go (k + 1) else k in
  if df = 0 then 0 else go 0

(* The region geometry follows from the header's three lengths: the
   regions sit back to back behind the header. *)
type layout = {
  node_count : int;
  term_nodes : int;
  term_count : int;
  total_rows : int;
  terms_off : int;
  terms_len : int;
  postings_off : int;
  postings_len : int;
  dir_off : int;
  dir_len : int;
  file_size : int;
}

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_u64 buf v = Buffer.add_int64_le buf (Int64.of_int v)

(* A bit writer, least significant bit first, into a growing byte
   array: [len] bytes are written, and [acc] holds the [n] < 8 bits not
   yet flushed to them. *)
type bit_writer = {
  mutable bytes : Bytes.t;
  mutable len : int;
  mutable acc : int;
  mutable n : int;
}

(* Append the [bits] <= 48 low bits of [v]. *)
let put w v bits =
  w.acc <- w.acc lor (v lsl w.n);
  w.n <- w.n + bits;
  while w.n >= 8 do
    if w.len = Bytes.length w.bytes then begin
      let grown = Bytes.create (2 * w.len) in
      Bytes.blit w.bytes 0 grown 0 w.len;
      w.bytes <- grown
    end;
    Bytes.set w.bytes w.len (Char.unsafe_chr (w.acc land 0xff));
    w.len <- w.len + 1;
    w.acc <- w.acc lsr 8;
    w.n <- w.n - 8
  done

(* One code: [q] zero bits, a one bit, then the [bits] low bits of [v],
   in one [put] when they fit 48 bits; else the zeros 48 at a time, and
   more than 48 low bits as 24, then the rest. *)
let put_code w q bits v =
  if q + 1 + bits <= 48 then
    put w ((((v land ((1 lsl bits) - 1)) lsl 1) lor 1) lsl q) (q + 1 + bits)
  else begin
    let q = ref q in
    while !q > 0 do
      let m = min !q 48 in
      put w 0 m;
      q := !q - m
    done;
    put w 1 1;
    if bits > 48 then begin
      put w (v land 0xFFFFFF) 24;
      put w ((v lsr 24) land ((1 lsl (bits - 24)) - 1)) (bits - 24)
    end
    else put w (v land ((1 lsl bits) - 1)) bits
  end

(* The Elias-gamma code of [v] >= 1: n zero bits, a one bit and the n
   bits of [v] below its top bit, n = floor (log2 v). *)
let put_gamma w v =
  let rec top n = if v lsr (n + 1) = 0 then n else top (n + 1) in
  let n = top 0 in
  put_code w n n v

(* The ranks of the nodes among the term-bearing nodes, as a rank
   directory: per block of 32 nodes, the term-bearing nodes before it and
   a mask of its own.  Two words per 32 nodes, not one per node: a
   transient array of a word per node paced the major GC into a larger
   heap for the rest of the process (on the benchmark's [warm_zipf], 8%
   more [top_heap_words] and 1.4 MB more peak RSS). *)
type ranks = { before : int array; masks : int array }

let ranks label =
  let n = Xk_encoding.Labeling.node_count label in
  let before = Array.make ((n lsr 5) + 1) 0 and masks = Array.make ((n lsr 5) + 1) 0 in
  let m = ref 0 in
  for i = 0 to n - 1 do
    let b = i lsr 5 in
    if i land 31 = 0 then before.(b) <- !m;
    if Xk_encoding.Labeling.term_bearing (Xk_encoding.Labeling.xml_node label i) then begin
      masks.(b) <- masks.(b) lor (1 lsl (i land 31));
      incr m
    end
  done;
  { before; masks }

(* The set bits of a 32-bit value. *)
let popcount v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  ((((v + (v lsr 4)) land 0x0F0F0F0F) * 0x01010101) lsr 24) land 0xff

(* The rank of node [i], or -1 when it cannot hold a term. *)
let rank r i =
  let b = i lsr 5 and bit = 1 lsl (i land 31) in
  let mask = r.masks.(b) in
  if mask land bit = 0 then -1 else r.before.(b) + popcount (mask land (bit - 1))

(* The ranks of one term's nodes, [nodes.(pos)] to [nodes.(stop - 1)],
   Rice-coded with parameter [k]. *)
let put_rice w ~k ranks nodes ~pos ~stop =
  let prev = ref (-1) in
  for i = pos to stop - 1 do
    let r = rank ranks nodes.(i) in
    let gap = r - !prev - 1 in
    prev := r;
    put_code w (gap lsr k) k gap
  done

(* The tf codes of a term whose cf differs from its df, its tfs
   [tfs.(pos)] to [tfs.(stop - 1)]: the count of rows with tf above 1,
   then (position gap + 1, tf - 1) per such row, the first position
   absolute. *)
let put_tf_exceptions w tfs ~pos ~stop =
  let count = ref 0 in
  for i = pos to stop - 1 do
    if tfs.(i) > 1 then incr count
  done;
  put_gamma w !count;
  let prev = ref 0 in
  for i = 0 to stop - pos - 1 do
    let tf = tfs.(pos + i) in
    if tf > 1 then begin
      put_gamma w (i - !prev + 1);
      put_gamma w (tf - 1);
      prev := i
    end
  done

(* Length of the longest common prefix of [a] and [b]. *)
let common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

(* The term region of terms already in strict byte order, their suffixes
   coded with [syms]: the table, the front-coded entries (the nibble
   byte, the varint tail of a field that does not fit its nibble, the
   codes), then the restart table. *)
let term_region syms sorted suffixes =
  let buf = Buffer.create 4096 in
  Xk_storage.Symbols.write_table buf syms;
  let coder = Xk_storage.Symbols.coder syms in
  let codes = Buffer.create 64 in
  let table = Buffer.create (4 * restarts (Array.length sorted)) in
  Array.iteri
    (fun k term ->
      if k mod restart_terms = 0 then add_u32 table (Buffer.length buf);
      let shared = String.length term - String.length suffixes.(k) in
      Buffer.clear codes;
      Xk_storage.Symbols.encode coder codes suffixes.(k);
      let len = Buffer.length codes in
      Buffer.add_char buf (Char.chr ((min shared 15 lsl 4) lor min len 15));
      if shared >= 15 then Xk_storage.Varint.write buf (shared - 15);
      if len >= 15 then Xk_storage.Varint.write buf (len - 15);
      Buffer.add_buffer buf codes)
    sorted;
  Buffer.add_buffer buf table;
  Buffer.contents buf

(* The region with a table trained on the suffixes, unless that is not
   shorter than the uncoded region: an empty table (one byte), then per
   entry its nibble byte, varint tails and suffix, and the restart
   table. *)
let write_terms sorted =
  let suffixes =
    Array.mapi
      (fun k term ->
        let shared = if k mod restart_terms = 0 then 0 else common_prefix sorted.(k - 1) term in
        String.sub term shared (String.length term - shared))
      sorted
  in
  let coded = term_region (Xk_storage.Symbols.train suffixes) sorted suffixes in
  let tail v = if v >= 15 then Xk_storage.Varint.size (v - 15) else 0 in
  let raw = ref (1 + (4 * restarts (Array.length sorted))) in
  Array.iteri
    (fun k suffix ->
      let len = String.length suffix in
      raw := !raw + 1 + tail (String.length sorted.(k) - len) + tail len + len)
    suffixes;
  if String.length coded < !raw then coded
  else term_region Xk_storage.Symbols.empty sorted suffixes

(* Close a bit stream at a byte boundary: zero bits to the byte. *)
let pad w = if w.n > 0 then put w 0 (8 - w.n)

let encode label ~terms ~starts ~nodes ~tfs =
  let node_count = Xk_encoding.Labeling.node_count label in
  let term_nodes = Xk_encoding.Labeling.term_node_count label in
  let ranks = ranks label in
  let term_count = Array.length terms in
  if
    Array.length starts <> term_count + 1
    || starts.(0) <> 0
    || starts.(term_count) <> Array.length nodes
    || Array.length tfs <> Array.length nodes
  then Xk_util.Err.invalid "Segment.encode: starts, nodes and tfs do not match";
  for k = 1 to term_count - 1 do
    if String.compare terms.(k - 1) terms.(k) >= 0 then
      Xk_util.Err.invalidf "Segment.encode: term %S is not past %S in byte order" terms.(k)
        terms.(k - 1)
  done;
  let writer size = { bytes = Bytes.create size; len = 0; acc = 0; n = 0 } in
  (* The postings, and the directory's bit stream. *)
  let w = writer 65536 and dw = writer (max 16 (term_count / 2)) in
  let table = Buffer.create (6 * blocks term_count) in
  let tf_terms = Ibuf.create () in
  let block_start = ref 0 in
  for id = 0 to term_count - 1 do
    let term = terms.(id) and pos = starts.(id) and stop = starts.(id + 1) in
    let df = stop - pos in
    if df <= 0 then Xk_util.Err.invalidf "Segment.encode: term %S has no rows" term;
    let cf = ref 0 in
    for i = pos to stop - 1 do
      let n = nodes.(i) and tf = tfs.(i) in
      if tf < 1 then Xk_util.Err.invalidf "Segment.encode: term %S has a tf below 1" term;
      if n >= node_count || (i > pos && n <= nodes.(i - 1)) || n < 0 then
        Xk_util.Err.invalidf
          "Segment.encode: term %S has node ids not increasing below the node count" term;
      if rank ranks n < 0 then
        Xk_util.Err.invalidf "Segment.encode: term %S has a row at node %d, which holds no terms"
          term n;
      cf := !cf + tf
    done;
    put_rice w ~k:(rice_k ~nodes:term_nodes df) ranks nodes ~pos ~stop;
    if !cf <> df then begin
      put_tf_exceptions w tfs ~pos ~stop;
      Ibuf.push tf_terms id;
      Ibuf.push tf_terms (!cf - df)
    end;
    put_gamma dw df;
    if (id + 1) mod block_terms = 0 || id = term_count - 1 then begin
      pad w;
      let len = w.len - !block_start in
      add_u32 table
        (Xk_storage.Crc32.sub (Bytes.unsafe_to_string w.bytes) ~pos:!block_start ~len);
      Xk_storage.Varint.write table len;
      block_start := w.len
    end
  done;
  put_gamma dw ((Ibuf.length tf_terms / 2) + 1);
  let prev = ref (-1) in
  for j = 0 to (Ibuf.length tf_terms / 2) - 1 do
    let id = Ibuf.get tf_terms (2 * j) in
    put_gamma dw (id - !prev);
    put_gamma dw (Ibuf.get tf_terms ((2 * j) + 1));
    prev := id
  done;
  pad dw;
  Buffer.add_subbytes table dw.bytes 0 dw.len;
  let terms = write_terms terms and dir = Buffer.contents table in
  let header = Buffer.create header_size in
  Buffer.add_string header magic;
  add_u32 header version;
  add_u64 header node_count;
  add_u64 header term_count;
  add_u64 header (Array.length nodes);
  add_u64 header (String.length terms);
  add_u64 header w.len;
  add_u64 header (String.length dir);
  add_u64 header term_nodes;
  add_u32 header (Xk_storage.Crc32.string terms);
  add_u32 header (Xk_storage.Crc32.string dir);
  add_u32 header (Xk_storage.Crc32.string (Buffer.contents header));
  let tl = String.length terms in
  let seg = Bytes.create (header_size + tl + w.len + String.length dir) in
  Buffer.blit header 0 seg 0 header_size;
  Bytes.blit_string terms 0 seg header_size tl;
  Bytes.blit w.bytes 0 seg (header_size + tl) w.len;
  Bytes.blit_string dir 0 seg (header_size + tl + w.len) (String.length dir);
  Bytes.unsafe_to_string seg

(* ------------------------------------------------------------------ *)
(* Reader                                                             *)
(* ------------------------------------------------------------------ *)

(* Every region is read by copying it out of the map, and each checksum
   runs over the same copy its fields are parsed from: a page torn
   between checksum and parse cannot slip through. *)

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Parse and authenticate the fixed header from [h], the first bytes of
   a [size]-byte file; returns the geometry and the header bytes, which
   carry the terms and directory checksums. *)
let parse_header ~size h : layout * string =
  if size < header_size then bad_trunc "shorter than the segment header";
  if Xk_storage.Crc32.sub h ~pos:0 ~len:(header_size - 4) <> u32_at h 76 then
    bad_crc "header checksum mismatch";
  (* The header is authentic past this point: every further anomaly is
     structural, not a torn read. *)
  let v = u32_at h 8 in
  if v <> version then
    bad_struct (Printf.sprintf "v%d magic but version %d" version v);
  let u64 pos =
    let v = String.get_int64_le h pos in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0
    then bad_struct (Printf.sprintf "header field at %d exceeds host int" pos)
    else Int64.to_int v
  in
  let terms_len = u64 36 and postings_len = u64 44 and dir_len = u64 52 in
  (* Each length is checked against the file before they are summed, so
     the sum cannot overflow. *)
  if terms_len > size || postings_len > size || dir_len > size then
    bad_trunc (Printf.sprintf "a region is longer than the %d-byte file" size);
  let lay =
    {
      node_count = u64 12;
      term_nodes = u64 60;
      term_count = u64 20;
      total_rows = u64 28;
      terms_off = header_size;
      terms_len;
      postings_off = header_size + terms_len;
      postings_len;
      dir_off = header_size + terms_len + postings_len;
      dir_len;
      file_size = header_size + terms_len + postings_len + dir_len;
    }
  in
  if size < lay.file_size then
    bad_trunc (Printf.sprintf "file has %d of %d bytes" size lay.file_size);
  if size > lay.file_size then
    bad_struct
      (Printf.sprintf "%d trailing bytes after the directory"
         (size - lay.file_size));
  (* A term's df code takes a bit at least and each block 5 bytes of
     CRC and length, which bounds the per-term and per-block arrays the
     open allocates by the file.  A Rice-coded row takes one bit at
     least, which bounds the rows by the postings' bits. *)
  if lay.term_count > 8 * dir_len || 5 * blocks lay.term_count > dir_len then
    bad_struct "term count exceeds what the directory can hold";
  if lay.total_rows / 8 > postings_len then
    bad_struct "row count exceeds what the postings can hold";
  (lay, h)

let map_header m =
  let size = Xk_storage.Mmap.size m in
  parse_header ~size (Xk_storage.Mmap.sub_string m ~pos:0 ~len:(min size header_size))

(* The checked term region and decoded directory, plus the map the
   postings are read from. *)
type t = {
  sg_map : Xk_storage.Mmap.t;
  sg_lay : layout;
  sg_terms : string;  (* the checked term region, copied out *)
  sg_syms : Xk_storage.Symbols.t;  (* its symbol table *)
  sg_table : int;  (* offset of the restart table in [sg_terms] *)
  sg_dfs : int array;
  sg_extras : int array;  (* cf - df *)
  sg_block_crcs : int array;  (* one per [block_terms] term ids *)
  sg_block_offs : int array;  (* file offset of each block, then the region end *)
  (* Per block, empty until its CRC has been verified, then the bit
     offset of each of its terms in the block and the offset where its
     last term ends.  Two domains may both verify a block; each
     publishes equal offsets. *)
  sg_offsets : int array Atomic.t array;
  (* The select array of [select], empty until a decode keeps rows. *)
  sg_select : int array Atomic.t;
}

(* One front-coded entry of the term region at [c]: the nibble byte and
   the varint tail of a field that does not fit its nibble.  [head]
   returns the byte, [field] a field from its nibble. *)
let head (c : Xk_storage.Varint.cursor) =
  if Xk_storage.Varint.at_end c then Xk_storage.Varint.malformed "entry runs past the region";
  let b = Char.code c.data.[c.pos] in
  Xk_storage.Varint.skip c 1;
  b

let field c nibble =
  if nibble < 15 then nibble
  else
    let v = Xk_storage.Varint.read c in
    if v > max_int - 15 then Xk_storage.Varint.malformed "entry field overflows";
    15 + v

(* The first [a.len] bytes of [a] against those of [b] in byte
   order. *)
let compare_scratch (a : Xk_storage.Symbols.scratch) (b : Xk_storage.Symbols.scratch) =
  let n = min a.len b.len in
  let rec go i =
    if i = n then Int.compare a.len b.len
    else
      let d = Char.compare (Bytes.unsafe_get a.bytes i) (Bytes.unsafe_get b.bytes i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

(* Check the term region of [n] terms in one pass: the symbol table is
   well formed, the restart table fits and names exactly the offset of
   each block's first entry, which shares nothing, every entry lies
   inside the entries and its codes decode, every shared prefix is at
   most the previous term and every term sorts strictly after it, and
   the entries end where the table starts.  Returns the symbol table and
   the restart table's offset.  The previous term and a restart are
   decoded into two scratch buffers and compared in place; nothing is
   allocated per term. *)
let check_terms terms n =
  let fail msg = bad_struct ("term region: " ^ msg) in
  let table = String.length terms - (4 * restarts n) in
  if table < 0 then fail "restart table longer than the region";
  let c = Xk_storage.Varint.slice terms ~pos:0 ~stop:table in
  let syms =
    try Xk_storage.Symbols.read_table c
    with Xk_storage.Varint.Malformed msg -> fail ("symbol table: " ^ msg)
  in
  let prev = ref (Xk_storage.Symbols.scratch ()) and cur = ref (Xk_storage.Symbols.scratch ()) in
  (try
     for id = 0 to n - 1 do
       let start = c.pos in
       let h = head c in
       let shared = field c (h lsr 4) in
       let len = field c (h land 15) in
       let pos = c.pos in
       Xk_storage.Varint.skip c len;
       let p = !prev in
       let prev_len = p.len in
       if shared > prev_len then
         fail (Printf.sprintf "term %d shares more than the previous term" id);
       if id mod restart_terms = 0 then begin
         if u32_at terms (table + (4 * (id / restart_terms))) <> start then
           fail (Printf.sprintf "restart %d disagrees with the entries" (id / restart_terms));
         if shared > 0 then fail (Printf.sprintf "restart %d shares a prefix" (id / restart_terms));
         let q = !cur in
         q.len <- 0;
         Xk_storage.Symbols.decode syms terms ~pos ~len q;
         if id > 0 && compare_scratch q p <= 0 then
           fail (Printf.sprintf "term %d out of byte order" id);
         prev := q;
         cur := p
       end
       else begin
         (* The shared prefix is the longest one, so the first suffix
            byte is where the term passes the previous one. *)
         let passed = if shared < prev_len then Bytes.unsafe_get p.bytes shared else '\000' in
         p.len <- shared;
         Xk_storage.Symbols.decode syms terms ~pos ~len p;
         if p.len = shared || (shared < prev_len && Bytes.unsafe_get p.bytes shared <= passed)
         then fail (Printf.sprintf "term %d out of byte order" id)
       end
     done
   with Xk_storage.Varint.Malformed msg -> fail msg);
  if c.pos <> table then fail "entries do not end at the restart table";
  (syms, table)

(* The trailing zero bits of each nonzero byte. *)
let trailing_zeros =
  String.init 256 (fun b ->
      let rec go i = if b = 0 || (b lsr i) land 1 = 1 then i else go (i + 1) in
      Char.chr (go 0))

(* A bit reader over [s] below byte [stop], least significant bit
   first, for the directory's codes: [acc] holds the [avail] bits loaded
   but not consumed, and no bit above them. *)
type bit_reader = {
  s : string;
  stop : int;
  mutable next : int;
  mutable acc : int;
  mutable avail : int;
}

(* Load bytes until more than 48 bits are held or the stream ends. *)
let fill r =
  while r.avail <= 48 && r.next < r.stop do
    r.acc <- r.acc lor (Char.code (String.unsafe_get r.s r.next) lsl r.avail);
    r.avail <- r.avail + 8;
    r.next <- r.next + 1
  done

(* The next [n] <= 48 bits. *)
let take r n fail =
  if r.avail < n then fill r;
  if r.avail < n then fail "code runs past the directory";
  let v = r.acc land ((1 lsl n) - 1) in
  r.acc <- r.acc lsr n;
  r.avail <- r.avail - n;
  v

(* One Elias-gamma code.  At most 61 zero bits lead it, so its value
   lies in 1 .. 2^62 - 1: a longer run is refused before it could wrap
   to zero or below. *)
let gamma r fail =
  fill r;
  let q = ref 0 in
  while r.acc = 0 do
    if r.next >= r.stop then fail "code runs past the directory";
    q := !q + r.avail;
    r.avail <- 0;
    fill r
  done;
  let a = ref r.acc and z = ref 0 in
  while !a land 0xff = 0 do
    a := !a lsr 8;
    z := !z + 8
  done;
  let z = !z + Char.code (String.unsafe_get trailing_zeros (!a land 0xff)) in
  let q = !q + z in
  if q > 61 then fail "gamma code too long";
  r.acc <- r.acc lsr (z + 1);
  r.avail <- r.avail - z - 1;
  let low =
    if q <= 48 then take r q fail
    else
      let lo = take r 24 fail in
      lo lor (take r (q - 24) fail lsl 24)
  in
  (1 lsl q) lor low

(* Decode the directory in one pass: the block table, then the df of
   every term and the cf - df of the terms the tf list names.  The block
   lengths must tile the postings region, the dfs sum to the row count
   and each block's rows fit its bits (a row takes one bit at least),
   the tf list's ids increase below the term count, and the stream end
   in the directory's last byte with zero pad bits: any overlap, gap or
   overhang is structural corruption. *)
let parse_dir m ((lay, h) : layout * string) =
  let dir = Xk_storage.Mmap.sub_string m ~pos:lay.dir_off ~len:lay.dir_len in
  if Xk_storage.Crc32.string dir <> u32_at h 72 then
    bad_crc "directory checksum mismatch";
  let terms = Xk_storage.Mmap.sub_string m ~pos:lay.terms_off ~len:lay.terms_len in
  if Xk_storage.Crc32.string terms <> u32_at h 68 then
    bad_crc "terms-region checksum mismatch";
  let n = lay.term_count in
  let syms, table = check_terms terms n in
  let nblocks = blocks n in
  let block_crcs = Array.make nblocks 0 in
  let block_offs = Array.make (nblocks + 1) lay.postings_off in
  let c = Xk_storage.Varint.cursor dir in
  (try
     for b = 0 to nblocks - 1 do
       let at = c.pos in
       Xk_storage.Varint.skip c 4;
       block_crcs.(b) <- u32_at dir at;
       let len = Xk_storage.Varint.read c in
       if len > lay.dir_off - block_offs.(b) then
         bad_struct (Printf.sprintf "block %d overhangs the postings region" b);
       block_offs.(b + 1) <- block_offs.(b) + len
     done
   with Xk_storage.Varint.Malformed msg -> bad_struct ("block table: " ^ msg));
  if block_offs.(nblocks) <> lay.dir_off then
    bad_struct "blocks do not cover the postings region";
  let dfs = Array.make n 0 and extras = Array.make n 0 in
  let r = { s = dir; stop = lay.dir_len; next = c.pos; acc = 0; avail = 0 } in
  let entry = ref 0 in
  let fail msg = bad_struct (Printf.sprintf "directory entry %d: %s" !entry msg) in
  let rows = ref 0 and bits = ref 0 in
  for id = 0 to n - 1 do
    entry := id;
    if id mod block_terms = 0 then begin
      let b = id / block_terms in
      bits := 8 * (block_offs.(b + 1) - block_offs.(b))
    end;
    let df = gamma r fail in
    if df > !bits then fail "more rows than postings bits";
    bits := !bits - df;
    dfs.(id) <- df;
    rows := !rows + df
  done;
  let fail msg = bad_struct ("directory tf list: " ^ msg) in
  let prev = ref (-1) in
  let t = gamma r fail - 1 in
  for _ = 1 to t do
    let gap = gamma r fail in
    if gap > n - 1 - !prev then fail "term id past the term count";
    prev := !prev + gap;
    extras.(!prev) <- gamma r fail
  done;
  if (8 * r.next) - r.avail + 7 < 8 * lay.dir_len then
    bad_struct "trailing bytes in the directory";
  if r.acc <> 0 then bad_struct "directory has nonzero pad bits";
  if !rows <> lay.total_rows then
    bad_struct "directory does not cover the posting rows";
  {
    sg_map = m;
    sg_lay = lay;
    sg_terms = terms;
    sg_syms = syms;
    sg_table = table;
    sg_dfs = dfs;
    sg_extras = extras;
    sg_block_crcs = block_crcs;
    sg_block_offs = block_offs;
    sg_offsets = Array.init nblocks (fun _ -> Atomic.make [||]);
    sg_select = Atomic.make [||];
  }

(* The restart entry of front-coding block [r]: a cursor just past its
   codes, their offset and their length. *)
let restart sg r =
  let c =
    Xk_storage.Varint.cursor_at sg.sg_terms (u32_at sg.sg_terms (sg.sg_table + (4 * r)))
  in
  let len = field c (head c land 15) in
  let pos = c.pos in
  Xk_storage.Varint.skip c len;
  (c, pos, len)

let decode_suffix sg ~pos ~len b = Xk_storage.Symbols.decode sg.sg_syms sg.sg_terms ~pos ~len b

(* The term of id [id]: its block's restart, then the block's entries up
   to [id], each keeping its shared prefix of the one before. *)
let term_of sg id =
  let r = id / restart_terms in
  let c, pos, len = restart sg r in
  let b = Xk_storage.Symbols.scratch () in
  decode_suffix sg ~pos ~len b;
  for _ = (r * restart_terms) + 1 to id do
    let h = head c in
    let shared = field c (h lsr 4) in
    let len = field c (h land 15) in
    b.len <- shared;
    decode_suffix sg ~pos:c.pos ~len b;
    Xk_storage.Varint.skip c len
  done;
  Bytes.sub_string b.bytes 0 b.len

(* Length of the common prefix of [w] from [from] and [b]. *)
let common w ~from (b : Xk_storage.Symbols.scratch) =
  let n = min (String.length w - from) b.len in
  let rec go i =
    if i < n && String.unsafe_get w (from + i) = Bytes.unsafe_get b.bytes i then go (i + 1)
    else i
  in
  go 0

(* The id of word [w], ASCII case folded: binary search for the last
   block whose restart is at most [w], then one scan of that block.  The
   scan carries [m], the prefix [w] shares with the entry before, which
   sorts before [w]: an entry sharing more of that entry also sorts
   before [w], one sharing less sorts after it, and only one sharing
   exactly [m] bytes is decoded and compared, from byte [m] on.  Terms
   are decoded into one scratch buffer. *)
let find_term sg w =
  let w = String.lowercase_ascii w in
  let n = sg.sg_lay.term_count in
  let b = Xk_storage.Symbols.scratch () in
  (* [w] against the restart of block [r]: their common prefix, and
     whether [w] sorts before, at or after it. *)
  let against r =
    let _, pos, len = restart sg r in
    b.len <- 0;
    decode_suffix sg ~pos ~len b;
    let len = b.len in
    let k = common w ~from:0 b in
    let order =
      if k < len && k < String.length w then Char.compare w.[k] (Bytes.get b.bytes k)
      else Int.compare (String.length w) len
    in
    (k, order)
  in
  let rec search lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if snd (against mid) >= 0 then search mid hi else search lo mid
  in
  if n = 0 || snd (against 0) < 0 then None
  else
    let r = search 0 (restarts n) in
    let c, _, _ = restart sg r in
    let last = min n ((r + 1) * restart_terms) - 1 in
    let rec scan id m =
      if id > last then None
      else
        let h = head c in
        let shared = field c (h lsr 4) in
        let len = field c (h land 15) in
        let pos = c.pos in
        Xk_storage.Varint.skip c len;
        if shared > m then scan (id + 1) m
        else if shared < m then None
        else begin
          b.len <- 0;
          decode_suffix sg ~pos ~len b;
          let len = b.len in
          let k = common w ~from:m b in
          if k = len && m + k = String.length w then Some id
          else if k < len && (m + k = String.length w || w.[m + k] < Bytes.get b.bytes k) then None
          else scan (id + 1) (m + k)
        end
    in
    match against r with
    | _, 0 -> Some (r * restart_terms)
    | m, _ -> scan ((r * restart_terms) + 1) m

let term_fault id msg = bad_struct (Printf.sprintf "term %d postings: %s" id msg)
let no_rows = ([||], [||])

(* Decode term [id]'s rows from the bit stream [s], bytes below [stop],
   starting at bit [!at] and leaving [!at] at the bit where the term
   ends; the rows' nodes are returned as their ranks.  The stream must
   hold df Rice-coded ranks, strictly increasing below M, then, when
   cf <> df, gamma codes: a count of at most df, and that many
   (position gap + 1, tf - 1) pairs
   with strictly increasing positions below df and df + sum (tf - 1) =
   cf.  One loop reads every code, Rice or gamma, as a unary quotient q
   and then k bits (Rice) or q bits (gamma), its reader state in local
   variables.  Raises [Bad] [`Fatal] on malformed content.  [keep:false]
   checks everything but allocates no rows, so a block walk allocates
   nothing per term. *)
let decode_term ~keep sg id s ~stop at =
  let df = sg.sg_dfs.(id) and extra = sg.sg_extras.(id) in
  let last = sg.sg_lay.term_nodes - 1 in
  let k = rice_k ~nodes:sg.sg_lay.term_nodes df in
  let nodes = if keep then Array.make df 0 else [||] in
  let tfs = if keep then Array.make df 1 else [||] in
  (* [next] is the next byte to load; [acc] holds the [avail] bits
     loaded but not consumed, and no bit above them. *)
  let next = ref (!at lsr 3) and acc = ref 0 and avail = ref 0 in
  if !next < stop then begin
    acc := Char.code (String.unsafe_get s !next) lsr (!at land 7);
    avail := 8 - (!at land 7);
    incr next
  end;
  let codes = ref (if extra > 0 then df + 1 else df) in
  let i = ref 0 and prev = ref (-1) and pos = ref 0 and extra = ref extra in
  while !i < !codes do
    (* Top the bits up to more than 48 (or to [stop]) once per code. *)
    if !avail <= 48 then
      while !avail <= 48 && !next < stop do
        acc := !acc lor (Char.code (String.unsafe_get s !next) lsl !avail);
        avail := !avail + 8;
        incr next
      done;
    (* The unary quotient: the zero bits before the next one bit. *)
    let q = ref 0 in
    while !acc = 0 do
      q := !q + !avail;
      avail := 0;
      if !next >= stop then term_fault id "unary run past the block's end";
      while !avail <= 48 && !next < stop do
        acc := !acc lor (Char.code (String.unsafe_get s !next) lsl !avail);
        avail := !avail + 8;
        incr next
      done
    done;
    let a = ref !acc and z = ref 0 in
    while !a land 0xff = 0 do
      a := !a lsr 8;
      z := !z + 8
    done;
    let z = !z + Char.code (String.unsafe_get trailing_zeros (!a land 0xff)) in
    acc := !acc lsr (z + 1);
    avail := !avail - z - 1;
    let q = !q + z in
    let rice = !i < df in
    let width =
      if rice then begin
        let room = last - !prev - 1 in
        if room < 0 || q > room lsr k then term_fault id "rank out of range";
        k
      end
      else if q > 61 then term_fault id "gamma code too long"
      else q
    in
    (* The code's low bits: one step, or 48 at a time for a code wider
       than 48 bits. *)
    let low =
      if width <= 48 then begin
        if !avail < width then begin
          while !avail <= 48 && !next < stop do
            acc := !acc lor (Char.code (String.unsafe_get s !next) lsl !avail);
            avail := !avail + 8;
            incr next
          done;
          if !avail < width then term_fault id "code runs past the block's end"
        end;
        let v = !acc land ((1 lsl width) - 1) in
        acc := !acc lsr width;
        avail := !avail - width;
        v
      end
      else begin
        let low = ref 0 and got = ref 0 in
        while !got < width do
          let m = min (width - !got) 48 in
          if !avail < m then
            while !avail <= 48 && !next < stop do
              acc := !acc lor (Char.code (String.unsafe_get s !next) lsl !avail);
              avail := !avail + 8;
              incr next
            done;
          if !avail < m then term_fault id "code runs past the block's end";
          low := !low lor ((!acc land ((1 lsl m) - 1)) lsl !got);
          acc := !acc lsr m;
          avail := !avail - m;
          got := !got + m
        done;
        !low
      end
    in
    if rice then begin
      let gap = (q lsl k) lor low in
      if gap > last - !prev - 1 then term_fault id "rank out of range";
      prev := !prev + gap + 1;
      if keep then nodes.(!i) <- !prev
    end
    else begin
      let v = (1 lsl q) lor low in
      let j = !i - df in
      if j = 0 then begin
        if v > df then term_fault id "bad tf exception count";
        codes := df + 1 + (2 * v)
      end
      else if j land 1 = 1 then begin
        if j > 1 && v = 1 then term_fault id "tf exceptions not increasing";
        if v - 1 > df - 1 - !pos then term_fault id "tf exception past the rows";
        pos := !pos + v - 1
      end
      else begin
        if v > !extra then term_fault id "tfs exceed cf";
        extra := !extra - v;
        if keep then tfs.(!pos) <- v + 1
      end
    end;
    incr i
  done;
  if !extra <> 0 then term_fault id "tfs do not sum to cf";
  at := (8 * !next) - !avail;
  if keep then (nodes, tfs) else no_rows

(* Copy block [b]'s postings out of the map, check them against the
   block's CRC, and walk its terms in the same pass: each must decode,
   and together they must end in the block's last byte, whose bits past
   them are zero.  Publishes the bit offsets the walk finds, and returns
   the rows of term [want] (if it is in the block), which the walk
   keeps. *)
let verified_block ?(want = -1) sg b =
  let off = sg.sg_block_offs.(b) in
  let len = sg.sg_block_offs.(b + 1) - off in
  let s = Xk_storage.Mmap.sub_string sg.sg_map ~pos:off ~len in
  if Xk_storage.Crc32.string s <> sg.sg_block_crcs.(b) then
    bad_crc (Printf.sprintf "block %d postings checksum mismatch" b);
  let first = b * block_terms in
  let count = min sg.sg_lay.term_count (first + block_terms) - first in
  let offs = Array.make (count + 1) 0 in
  let at = ref 0 and kept = ref no_rows in
  for i = 0 to count - 1 do
    offs.(i) <- !at;
    let id = first + i in
    let rs = decode_term ~keep:(id = want) sg id s ~stop:len at in
    if id = want then kept := rs
  done;
  offs.(count) <- !at;
  if (!at + 7) / 8 <> len then
    bad_struct (Printf.sprintf "block %d length disagrees with its terms" b);
  if !at land 7 <> 0 && Char.code s.[len - 1] lsr (!at land 7) <> 0 then
    bad_struct (Printf.sprintf "block %d has nonzero pad bits" b);
  Atomic.set sg.sg_offsets.(b) offs;
  !kept

(* The node id of each rank: the term-bearing nodes of [label] in
   document order.  Built by the first decode that keeps rows and
   published through the segment, so the open allocates none of it; two
   domains may both build it, and each publishes an equal array. *)
let select sg label =
  let sel = Atomic.get sg.sg_select in
  if Array.length sel > 0 then sel
  else begin
    let sel = Array.make (Xk_encoding.Labeling.term_node_count label) 0 and r = ref 0 in
    for i = 0 to Xk_encoding.Labeling.node_count label - 1 do
      if Xk_encoding.Labeling.term_bearing (Xk_encoding.Labeling.xml_node label i) then begin
        sel.(!r) <- i;
        incr r
      end
    done;
    Atomic.set sg.sg_select sel;
    sel
  end

(* Decode one term's rows: in the walk that verifies its block, if no
   decode has yet, else from exactly the bytes its bits lie in; then
   map its ranks to node ids through [select].  Raises [Bad]: [`Crc] on
   a checksum mismatch, [`Fatal] on malformed content behind a verified
   checksum. *)
let decode_rows sg label id =
  let b = id / block_terms and i = id mod block_terms in
  let offs = Atomic.get sg.sg_offsets.(b) in
  let ((nodes, _) as kept) =
    if Array.length offs = 0 then verified_block ~want:id sg b
    else begin
      let lo = offs.(i) / 8 and hi = (offs.(i + 1) + 7) / 8 in
      let s = Xk_storage.Mmap.sub_string sg.sg_map ~pos:(sg.sg_block_offs.(b) + lo) ~len:(hi - lo) in
      let at = ref (offs.(i) - (8 * lo)) in
      let kept = decode_term ~keep:true sg id s ~stop:(hi - lo) at in
      if !at <> offs.(i + 1) - (8 * lo) then term_fault id "trailing bits";
      kept
    end
  in
  let sel = select sg label in
  for j = 0 to Array.length nodes - 1 do
    nodes.(j) <- sel.(nodes.(j))
  done;
  kept

(* Full verification of a parsed segment: every block's CRC holds and
   every term decodes from the checked copy. *)
let decode_all sg =
  for b = 0 to blocks sg.sg_lay.term_count - 1 do
    ignore (verified_block sg b)
  done

(* ------------------------------------------------------------------ *)
(* Opening, and what an index reads                                   *)
(* ------------------------------------------------------------------ *)

let header m = fst (map_header m)

let open_ ?(verify_columns = false) label m =
  let ((lay, _) as header) = map_header m in
  if lay.node_count <> Xk_encoding.Labeling.node_count label then
    bad_struct
      (Printf.sprintf "index built over %d nodes, document has %d"
         lay.node_count
         (Xk_encoding.Labeling.node_count label));
  if lay.term_nodes <> Xk_encoding.Labeling.term_node_count label then
    bad_struct
      (Printf.sprintf "index built over %d term-bearing nodes, document has %d"
         lay.term_nodes
         (Xk_encoding.Labeling.term_node_count label));
  let sg = parse_dir m header in
  if verify_columns then decode_all sg;
  sg

let verify m = decode_all (parse_dir m (map_header m))
let term_count sg = sg.sg_lay.term_count
let df sg id = sg.sg_dfs.(id)

let rows sg label id =
  let fault msg =
    raise (Segment_fault (Printf.sprintf "%s: %s" (Xk_storage.Mmap.path sg.sg_map) msg))
  in
  try decode_rows sg label id with
  | Bad e -> fault (error_message (classify e))
  | Xk_storage.Mmap.Fault e -> fault (Xk_storage.Mmap.error_message e)

let bytes sg = Xk_storage.Mmap.sub_string sg.sg_map ~pos:0 ~len:(Xk_storage.Mmap.size sg.sg_map)

