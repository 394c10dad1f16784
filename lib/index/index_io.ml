(* Index persistence.

   Two on-disk generations are read:

   v2 ("XKIDX002") — a checksummed varint stream: magic | version varint
   | payload-length varint | payload CRC-32 varint | payload (node
   count, term count, then per term the bytes, row count, delta-coded
   node ids and tf values).  Loading reads the whole file through a
   channel and materializes every posting.

   v4 ("XKIDX004") — the compressed zero-copy segment.  Four parts back
   to back, no padding, every byte under a CRC-32:

     header    fixed 72 bytes: magic, version u32, then u64 node count,
               term count, total rows, terms/postings/directory lengths,
               terms_crc u32, dir_crc u32, header_crc u32 (over itself)
     terms     all term bytes concatenated in id order     [terms_crc]
     postings  per term: node ids as delta varints (first id absolute),
               then varint tfs only when cf <> df          [rows_crc]
     dir       per term: varint term_len, df, cf - df, postings_len,
               then rows_crc u32                            [dir_crc]

   The directory's postings lengths tile the postings region exactly, so
   the per-term rows_crcs cover it byte for byte.  cf = df means every
   tf is 1 (a tf is at least 1), which is why most terms store no tf
   column at all.

   Opening a v4 segment maps the file, verifies the header, terms and
   directory checksums, decodes the directory in one pass, interns the
   dictionary from it (statistics come from the directory, not from
   counting rows), and hands {!Index.of_provider} a lazy row decoder: a
   term's rows are decoded from the mapped postings on first use, with
   that term's rows_crc verified once.  Open cost is O(dictionary), not
   O(postings).

   The read path classifies failures (truncation vs. corruption vs.
   transient IO) and retries the transient class — OS errors, injected
   faults, and checksum mismatches, which a re-read distinguishes from
   media corruption (a torn read heals, a corrupt file does not).
   Structural errors found after a covering checksum verified are fatal:
   the bytes are authentic, retrying cannot help.  Saving goes through a
   temp file + rename, so a crashed writer never leaves a half-written
   segment under the live name.

   Fault injection cannot mangle a mapped page, so whenever injection is
   active for the process (or the path is marked corrupt) the v4 open
   switches to a string-backed reader fed through the same
   {!Xk_resilience.Fault_injection.mangle_read} hook as v2, and verifies
   and decodes every term eagerly, so a single flipped byte anywhere in
   the file is detected on that read, exactly as the chaos drills
   expect. *)

let magic = "XKIDX002"
let magic_v1 = "XKIDX001"
let magic_v3 = "XKIDX003"
let magic_v4 = "XKIDX004"
let version = 2

type error =
  | Truncated of string
  | Corrupted of string
  | Io_failed of string

type load_error = { error : error; attempts : int }

let error_message = function
  | Truncated msg -> "truncated segment: " ^ msg
  | Corrupted msg -> "corrupted segment: " ^ msg
  | Io_failed msg -> "io error: " ^ msg

let load_error_message { error; attempts } =
  if attempts > 1 then
    Printf.sprintf "%s (after %d attempts)" (error_message error) attempts
  else error_message error

exception Format_error of string

exception Segment_fault of string
(* Raised by the lazy v4 row decoder (see the .mli). *)

(* ------------------------------------------------------------------ *)
(* v2 writer (varint stream)                                          *)
(* ------------------------------------------------------------------ *)

let encode_payload (idx : Index.t) =
  let buf = Buffer.create (1 lsl 20) in
  let label = Index.label idx in
  Xk_storage.Varint.write buf (Xk_encoding.Labeling.node_count label);
  let terms = Index.term_count idx in
  Xk_storage.Varint.write buf terms;
  for id = 0 to terms - 1 do
    let term = Index.term idx id in
    Xk_storage.Varint.write buf (String.length term);
    Buffer.add_string buf term;
    let nodes, tfs = Index.raw_rows idx id in
    Xk_storage.Varint.write buf (Array.length nodes);
    let prev = ref 0 in
    Array.iter
      (fun n ->
        Xk_storage.Varint.write buf (n - !prev);
        prev := n)
      nodes;
    Array.iter (fun tf -> Xk_storage.Varint.write buf tf) tfs
  done;
  Buffer.contents buf

let save_v2 (idx : Index.t) path =
  let payload = encode_payload idx in
  let header = Buffer.create 32 in
  Buffer.add_string header magic;
  Xk_storage.Varint.write header version;
  Xk_storage.Varint.write header (String.length payload);
  Xk_storage.Varint.write header (Xk_storage.Crc32.string payload);
  Xk_storage.Durable.write_atomically path (fun oc ->
      Buffer.output_buffer oc header;
      output_string oc payload)

(* ------------------------------------------------------------------ *)
(* v4 writer (compressed segment)                                     *)
(* ------------------------------------------------------------------ *)

let header_size = 72

(* The region geometry follows from the header's three lengths: the
   regions sit back to back behind the header. *)
type layout = {
  node_count : int;
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

let save (idx : Index.t) path =
  let term_count = Index.term_count idx in
  let terms = Buffer.create 4096 in
  let postings = Buffer.create 65536 in
  let dir = Buffer.create (8 * term_count) in
  let slice = Buffer.create 256 in
  let total_rows = ref 0 in
  for id = 0 to term_count - 1 do
    let term = Index.term idx id in
    let nodes, tfs = Index.raw_rows idx id in
    let df = Array.length nodes in
    if Array.exists (fun tf -> tf < 1) tfs then
      Xk_util.Err.invalidf "Index_io.save: term %S has a tf below 1" term;
    let cf = Array.fold_left ( + ) 0 tfs in
    Buffer.clear slice;
    let prev = ref 0 in
    Array.iter
      (fun n ->
        Xk_storage.Varint.write slice (n - !prev);
        prev := n)
      nodes;
    if cf <> df then Array.iter (Xk_storage.Varint.write slice) tfs;
    let rows = Buffer.contents slice in
    Buffer.add_string terms term;
    Buffer.add_string postings rows;
    Xk_storage.Varint.write dir (String.length term);
    Xk_storage.Varint.write dir df;
    Xk_storage.Varint.write dir (cf - df);
    Xk_storage.Varint.write dir (String.length rows);
    add_u32 dir (Xk_storage.Crc32.string rows);
    total_rows := !total_rows + df
  done;
  let terms = Buffer.contents terms and dir = Buffer.contents dir in
  let header = Buffer.create header_size in
  Buffer.add_string header magic_v4;
  add_u32 header 4;
  add_u64 header (Xk_encoding.Labeling.node_count (Index.label idx));
  add_u64 header term_count;
  add_u64 header !total_rows;
  add_u64 header (String.length terms);
  add_u64 header (Buffer.length postings);
  add_u64 header (String.length dir);
  add_u32 header (Xk_storage.Crc32.string terms);
  add_u32 header (Xk_storage.Crc32.string dir);
  add_u32 header (Xk_storage.Crc32.string (Buffer.contents header));
  assert (Buffer.length header = header_size);
  Xk_storage.Durable.write_atomically path (fun oc ->
      Buffer.output_buffer oc header;
      output_string oc terms;
      Buffer.output_buffer oc postings;
      output_string oc dir)

(* ------------------------------------------------------------------ *)
(* v2 reader                                                          *)
(* ------------------------------------------------------------------ *)

(* Payload decoding.  The CRC has already been verified when this runs, so
   structural errors indicate a logic-level mismatch and are classified as
   corruption (with the node-count check carrying its own message). *)

exception Decode of string

let decode_payload ?damping ?cache_capacity ?stats
    (label : Xk_encoding.Labeling.t) data ~pos : Index.t =
  let c = Xk_storage.Varint.cursor_at data pos in
  let nodes_expected = Xk_storage.Varint.read c in
  if nodes_expected <> Xk_encoding.Labeling.node_count label then
    raise
      (Decode
         (Printf.sprintf "index built over %d nodes, document has %d"
            nodes_expected
            (Xk_encoding.Labeling.node_count label)));
  let terms = Xk_storage.Varint.read c in
  let entries = ref [] in
  (try
     for _ = 1 to terms do
       let tlen = Xk_storage.Varint.read c in
       if c.pos + tlen > String.length data then raise (Decode "term cut short");
       let term = String.sub data c.pos tlen in
       c.pos <- c.pos + tlen;
       let rows = Xk_storage.Varint.read c in
       if rows < 0 then raise (Decode "negative row count");
       let nodes = Array.make rows 0 in
       let prev = ref 0 in
       for r = 0 to rows - 1 do
         prev := !prev + Xk_storage.Varint.read c;
         if !prev >= nodes_expected then raise (Decode "node id out of range");
         nodes.(r) <- !prev
       done;
       let tfs = Array.init rows (fun _ -> Xk_storage.Varint.read c) in
       entries := (term, nodes, tfs) :: !entries
     done
   with Invalid_argument _ -> raise (Decode "payload structure cut short"));
  Index.of_raw ?damping ?cache_capacity ?stats label (List.rev !entries)

(* One read attempt, with fault-injection hooks and typed classification.
   [`Transient], [`Crc] and [`Suspect] are the retryable classes:
   [`Suspect] carries a header-level anomaly (bad magic, version,
   truncation) that a torn read can cause just as well as real corruption
   - a re-read distinguishes the two, and the carried error is reported
   if every retry sees it again.  Only [`Fatal] skips retrying: it is
   raised after the checksum verified, or for a retired generation whose
   magic is intact, so a re-read cannot change the outcome. *)
(* Framing check shared by the loader and {!verify}: magic, version,
   declared payload length, payload CRC.  Returns the payload offset. *)
let check_framing data :
    (int, [> `Crc of string | `Suspect of error | `Fatal of error ]) result =
  let mlen = String.length magic in
  if String.length data < mlen then
    Error (`Suspect (Truncated "shorter than the segment magic"))
  else
    let m = String.sub data 0 mlen in
    if m = magic_v1 then
      Error
        (`Suspect
          (Corrupted "legacy v1 segment without checksum; rebuild the index"))
    else if m = magic_v3 then
      Error
        (`Fatal
          (Corrupted "retired v3 segment format; rebuild the index"))
    else if m <> magic then Error (`Suspect (Corrupted "bad magic"))
    else
      match
        let c = Xk_storage.Varint.cursor_at data mlen in
        let v = Xk_storage.Varint.read c in
        let plen = Xk_storage.Varint.read c in
        let crc = Xk_storage.Varint.read c in
        (v, plen, crc, c.pos)
      with
      | exception Invalid_argument _ ->
          Error (`Suspect (Truncated "header cut short"))
      | v, _, _, _ when v <> version ->
          Error (`Suspect (Corrupted (Printf.sprintf "unsupported version %d" v)))
      | _, plen, crc, body ->
          let avail = String.length data - body in
          if avail < plen then
            Error
              (`Suspect
                (Truncated
                   (Printf.sprintf "payload has %d of %d bytes" avail plen)))
          else if avail > plen then
            Error
              (`Suspect
                (Corrupted
                   (Printf.sprintf "%d trailing bytes after the payload"
                      (avail - plen))))
          else if Xk_storage.Crc32.sub data ~pos:body ~len:plen <> crc then
            Error (`Crc "payload checksum mismatch")
          else Ok body

(* Whole-file and magic-sized reads that close their channel on every
   path. *)
let with_in path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let read_file path =
  with_in path (fun ic -> really_input_string ic (in_channel_length ic))

let read_magic path =
  with_in path (fun ic ->
      really_input_string ic (min (String.length magic) (in_channel_length ic)))

let read_all path :
    (string, [> `Transient of string ]) result =
  match
    Xk_resilience.Fault_injection.before_io ~path;
    Xk_resilience.Fault_injection.mangle_read ~path (read_file path)
  with
  | exception Xk_resilience.Fault_injection.Injected_io msg ->
      Error (`Transient msg)
  | exception Sys_error msg -> Error (`Transient msg)
  | data -> Ok data

(* ------------------------------------------------------------------ *)
(* v4 reader                                                          *)
(* ------------------------------------------------------------------ *)

(* The zero-copy reader works over a mapped file; the fault-injection
   reader works over a string fed through [mangle_read].  Every region is
   read by copying it out, so the two differ only in where the copy comes
   from, and each checksum runs over the same copy its fields are parsed
   from: a page torn between checksum and parse cannot slip through. *)
type reader = Map of Xk_storage.Mmap.t | Str of string

let rd_size = function
  | Map m -> Xk_storage.Mmap.size m
  | Str s -> String.length s

(* Callers check the range against the verified header first; the Mmap
   accessor re-checks it and the closed flag. *)
let rd_sub r ~pos ~len =
  match r with
  | Map m -> Xk_storage.Mmap.sub_string m ~pos ~len
  | Str s -> String.sub s pos len

(* Structured parse failure, classified like the v2 attempt errors:
   [`Crc] and truncation may be torn reads (retry), structural errors
   behind a verified checksum are fatal.  Declared over the full attempt
   error type so a caught payload needs no variant coercion. *)
exception Bad of
    [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]

let bad_crc msg = raise (Bad (`Crc msg))
let bad_trunc msg = raise (Bad (`Suspect (Truncated msg)))
let bad_struct msg = raise (Bad (`Fatal (Corrupted msg)))

let classify = function
  | `Transient msg -> Io_failed msg
  | `Crc msg -> Corrupted msg
  | `Suspect e | `Fatal e -> e

(* LEB128 read from [s] at [!pos], bounded by the end of [s] and by the
   host's 63-bit int.  A varint that runs past its slice or overflows
   raises [Bad_varint], which each caller turns into structural
   corruption with its own context: never an [Invalid_argument]. *)
exception Bad_varint of string

let varint s pos =
  let len = String.length s in
  let acc = ref 0 and shift = ref 0 and more = ref true in
  (* At most 9 bytes: [shift] reaches 56 on the ninth, which must end
     the varint within 62 bits. *)
  while !more do
    if !pos >= len then raise (Bad_varint "varint runs past its slice");
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    if !shift = 56 && b >= 0x40 then raise (Bad_varint "varint overflows");
    acc := !acc lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    more := b land 0x80 <> 0
  done;
  !acc

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Parse and authenticate the fixed header; returns the geometry and the
   header bytes, which carry the terms and directory checksums. *)
let parse_header (r : reader) : layout * string =
  let size = rd_size r in
  if size < header_size then bad_trunc "shorter than the v4 header";
  let h = rd_sub r ~pos:0 ~len:header_size in
  if Xk_storage.Crc32.sub h ~pos:0 ~len:(header_size - 4) <> u32_at h 68 then
    bad_crc "header checksum mismatch";
  (* The header is authentic past this point: every further anomaly is
     structural, not a torn read. *)
  let v = u32_at h 8 in
  if v <> 4 then bad_struct (Printf.sprintf "v4 magic but version %d" v);
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
  (* A directory entry takes at least 8 bytes and a posting row at least
     one, which bounds every array the open allocates by the file. *)
  if lay.term_count > dir_len / 8 then
    bad_struct "term count exceeds what the directory can hold";
  if lay.total_rows > postings_len then
    bad_struct "row count exceeds what the postings can hold";
  (lay, h)

(* Decoded v4 directory plus the reader it indexes into: the persistent
   state behind the lazy row provider. *)
type segment = {
  sg_path : string;
  sg_reader : reader;
  sg_lay : layout;
  sg_terms : string;  (* the CRC-verified terms region, copied out *)
  sg_term_offs : int array;  (* into [sg_terms] *)
  sg_term_lens : int array;
  sg_post_offs : int array;  (* file offsets *)
  sg_post_lens : int array;
  sg_dfs : int array;
  sg_cfs : int array;
  sg_rows_crcs : int array;
  (* One flag per term: has this term's rows_crc been verified?  Written
     without synchronization — a benign race: two domains may both verify
     the same slice, and a stale read only causes a redundant check. *)
  sg_verified : Bytes.t;
}

(* Decode the directory in one pass into per-term arrays.  The entries
   must tile the terms region, the postings region and the row count
   exactly: any overlap, gap or overhang is structural corruption. *)
let parse_dir path (r : reader) ((lay, h) : layout * string) : segment =
  let dir = rd_sub r ~pos:lay.dir_off ~len:lay.dir_len in
  if Xk_storage.Crc32.string dir <> u32_at h 64 then
    bad_crc "directory checksum mismatch";
  let terms = rd_sub r ~pos:lay.terms_off ~len:lay.terms_len in
  if Xk_storage.Crc32.string terms <> u32_at h 60 then
    bad_crc "terms-region checksum mismatch";
  let n = lay.term_count in
  let term_offs = Array.make n 0
  and term_lens = Array.make n 0
  and post_offs = Array.make n 0
  and post_lens = Array.make n 0
  and dfs = Array.make n 0
  and cfs = Array.make n 0
  and rows_crcs = Array.make n 0 in
  let pos = ref 0 and entry = ref 0 in
  let fail msg =
    bad_struct (Printf.sprintf "directory entry %d: %s" !entry msg)
  in
  let next_term = ref 0 and next_post = ref lay.postings_off and rows = ref 0 in
  (try
     for id = 0 to n - 1 do
       entry := id;
       let term_len = varint dir pos in
       let df = varint dir pos in
       let extra = varint dir pos in
       let post_len = varint dir pos in
       if !pos + 4 > lay.dir_len then fail "cut short";
       rows_crcs.(id) <- u32_at dir !pos;
       pos := !pos + 4;
       if term_len > lay.terms_len - !next_term then
         fail "term bytes overhang the terms region";
       if post_len > lay.dir_off - !next_post then
         fail "postings overhang the postings region";
       (* Each node id takes a byte at least, each stored tf another. *)
       if df > post_len || (extra > 0 && df > post_len - df) then
         fail "more rows than postings bytes";
       if df = 0 && extra > 0 then fail "tfs without rows";
       if extra > max_int - df then fail "cf overflows";
       term_offs.(id) <- !next_term;
       term_lens.(id) <- term_len;
       post_offs.(id) <- !next_post;
       post_lens.(id) <- post_len;
       dfs.(id) <- df;
       cfs.(id) <- df + extra;
       next_term := !next_term + term_len;
       next_post := !next_post + post_len;
       rows := !rows + df
     done
   with Bad_varint msg -> fail msg);
  if !pos <> lay.dir_len then bad_struct "trailing bytes in the directory";
  if !next_term <> lay.terms_len then
    bad_struct "directory does not cover the terms region";
  if !next_post <> lay.dir_off then
    bad_struct "directory does not cover the postings region";
  if !rows <> lay.total_rows then
    bad_struct "directory does not cover the posting rows";
  {
    sg_path = path;
    sg_reader = r;
    sg_lay = lay;
    sg_terms = terms;
    sg_term_offs = term_offs;
    sg_term_lens = term_lens;
    sg_post_offs = post_offs;
    sg_post_lens = post_lens;
    sg_dfs = dfs;
    sg_cfs = cfs;
    sg_rows_crcs = rows_crcs;
    sg_verified = Bytes.make (max 1 n) '\000';
  }

(* Decode one term's rows from its postings slice, verifying the slice's
   rows_crc at most once per segment (the flag write is unsynchronized —
   a benign race, see [sg_verified]).  The slice must decode to exactly
   df strictly increasing node ids below the node count, then, when
   cf <> df, df tfs of at least 1 summing to cf, using every byte.
   Raises [Bad]: [`Crc] on a checksum mismatch, [`Fatal] on malformed
   content behind a verified checksum.  [keep:false] checks everything
   but returns empty arrays, so a full verification allocates no rows. *)
let decode_rows ?(keep = true) sg id =
  let s =
    rd_sub sg.sg_reader ~pos:sg.sg_post_offs.(id) ~len:sg.sg_post_lens.(id)
  in
  if Bytes.unsafe_get sg.sg_verified id = '\000' then begin
    if Xk_storage.Crc32.string s <> sg.sg_rows_crcs.(id) then
      bad_crc (Printf.sprintf "term %d postings checksum mismatch" id);
    Bytes.unsafe_set sg.sg_verified id '\001'
  end;
  let fail msg = bad_struct (Printf.sprintf "term %d postings: %s" id msg) in
  let df = sg.sg_dfs.(id) and cf = sg.sg_cfs.(id) in
  let last = sg.sg_lay.node_count - 1 in
  let pos = ref 0 in
  match
    let nodes = Array.make (if keep then df else 0) 0 in
    let prev = ref 0 in
    for i = 0 to df - 1 do
      let d = varint s pos in
      if i > 0 && d = 0 then fail "node ids not increasing";
      if d > last - !prev then fail "node id out of range";
      prev := !prev + d;
      if keep then nodes.(i) <- !prev
    done;
    let tfs =
      if cf = df then Array.make (Array.length nodes) 1
      else begin
        let tfs = Array.make (Array.length nodes) 0 and sum = ref 0 in
        for i = 0 to df - 1 do
          let tf = varint s pos in
          if tf < 1 then fail "tf below 1";
          if tf > cf - !sum then fail "tfs exceed cf";
          sum := !sum + tf;
          if keep then tfs.(i) <- tf
        done;
        if !sum <> cf then fail "tfs do not sum to cf";
        tfs
      end
    in
    (nodes, tfs)
  with
  | exception Bad_varint msg -> fail msg
  | rows -> if !pos <> String.length s then fail "trailing bytes" else rows

(* Intern the dictionary in id order with the directory's statistics:
   this — not row decoding — is the open-time cost of a v4 segment. *)
let dict_of_segment sg =
  let dict = Xk_text.Dictionary.create ~size:sg.sg_lay.term_count () in
  for id = 0 to sg.sg_lay.term_count - 1 do
    let term = String.sub sg.sg_terms sg.sg_term_offs.(id) sg.sg_term_lens.(id) in
    let got = Xk_text.Dictionary.intern dict term in
    if got <> id then
      bad_struct (Printf.sprintf "duplicate term in directory (id %d)" id);
    Xk_text.Dictionary.set_stats dict id ~df:sg.sg_dfs.(id) ~cf:sg.sg_cfs.(id)
  done;
  dict

(* Full verification of a parsed segment: every term decodes. *)
let decode_all sg =
  for id = 0 to sg.sg_lay.term_count - 1 do
    ignore (decode_rows ~keep:false sg id)
  done

let open_v4 ?damping ?cache_capacity ?stats ~verify_columns label path
    (r : reader) : Index.t =
  let ((lay, _) as header) = parse_header r in
  if lay.node_count <> Xk_encoding.Labeling.node_count label then
    bad_struct
      (Printf.sprintf "index built over %d nodes, document has %d"
         lay.node_count
         (Xk_encoding.Labeling.node_count label));
  let sg = parse_dir path r header in
  if verify_columns then decode_all sg;
  let dict = dict_of_segment sg in
  let fault msg = raise (Segment_fault (Printf.sprintf "%s: %s" path msg)) in
  let provider : Index.provider =
    {
      pv_terms = lay.term_count;
      pv_row_count = (fun id -> sg.sg_dfs.(id));
      pv_rows =
        (fun id ->
          try decode_rows sg id with
          | Bad e -> fault (error_message (classify e))
          | Xk_storage.Mmap.Fault e -> fault (Xk_storage.Mmap.error_message e));
    }
  in
  Index.of_provider ?damping ?cache_capacity ?stats ~dict label provider

(* One v4 open attempt.  The mmap path is the production one; whenever
   fault injection is active for the process (or this path is marked
   corrupt) the segment is instead read through the byte-level
   [mangle_read] hook into a string and verified eagerly and completely,
   because a mapped page cannot be mangled and lazy verification would
   let an injected flip go undetected until first touch. *)
let attempt_v4 ?damping ?cache_capacity ?stats ~verify_columns label path :
    ( Index.t,
      [ `Transient of string
      | `Crc of string
      | `Suspect of error
      | `Fatal of error ] )
    result =
  let module FI = Xk_resilience.Fault_injection in
  if FI.unmappable ~path then
    Error
      (`Fatal
        (Io_failed
           (Printf.sprintf "injected map failure for %s" path)))
  else if FI.enabled () || FI.marked_corrupt ~path then
    match read_all path with
    | Error _ as e -> e
    | Ok data -> (
        match
          open_v4 ?damping ?cache_capacity ?stats ~verify_columns:true label
            path (Str data)
        with
        | idx -> Ok idx
        | exception Bad e -> Error e)
  else
    match Xk_storage.Mmap.map path with
    | Error e ->
        Error (`Fatal (Io_failed (Xk_storage.Mmap.error_message e)))
    | Ok m -> (
        match
          open_v4 ?damping ?cache_capacity ?stats ~verify_columns label path
            (Map m)
        with
        | idx -> Ok idx
        | exception Bad e ->
            Xk_storage.Mmap.close m;
            Error e)

(* ------------------------------------------------------------------ *)
(* Dispatch, retry policy, public API                                 *)
(* ------------------------------------------------------------------ *)

(* Sniff the magic to pick the generation.  Runs the [before_io] hook so
   the transient-fault drills fire once per load attempt on the v4 path
   too (the v2 path re-reads the whole file afterwards; its per-path
   attempt counter has already been consumed, so the retry arithmetic is
   unchanged). *)
let sniff_magic path : (string, [> `Transient of string ]) result =
  match
    Xk_resilience.Fault_injection.before_io ~path;
    read_magic path
  with
  | exception Xk_resilience.Fault_injection.Injected_io msg ->
      Error (`Transient msg)
  | exception Sys_error msg -> Error (`Transient msg)
  | m -> Ok m

let attempt ?damping ?cache_capacity ?stats ~verify_columns label path :
    ( Index.t,
      [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]
    )
    result =
  match sniff_magic path with
  | Error _ as e -> e
  | Ok m when m = magic_v4 ->
      attempt_v4 ?damping ?cache_capacity ?stats ~verify_columns label path
  | Ok _ -> (
      match read_all path with
      | Error _ as e -> e
      | Ok data -> (
          match check_framing data with
          | Error _ as e -> e
          | Ok body -> (
              match
                decode_payload ?damping ?cache_capacity ?stats label data
                  ~pos:body
              with
              | idx -> Ok idx
              | exception Decode msg -> Error (`Fatal (Corrupted msg)))))

let retryable = function
  | `Transient _ | `Crc _ | `Suspect _ -> true
  | `Fatal _ -> false

let load_result ?damping ?cache_capacity ?stats ?(retries = 4)
    ?(backoff_ms = 1.0) ?(verify_columns = false) label path =
  match
    Xk_resilience.Retry.with_backoff_info ~retries ~backoff_ms ~retryable
      (fun () ->
        attempt ?damping ?cache_capacity ?stats ~verify_columns label path)
  with
  | Ok idx, _ -> Ok idx
  | Error e, attempts -> Error { error = classify e; attempts }

let is_v4 data =
  String.length data >= String.length magic_v4
  && String.sub data 0 (String.length magic_v4) = magic_v4

(* Verification without building an index.  For a v2 segment this checks
   the header and the payload checksum; for v4 it is a {e full}
   verification — every region checksum, every term's rows_crc and the
   structure of every term's postings — because the lazy load path
   deliberately defers the per-term checks that the v2 load performs
   implicitly, and the replica writers that call [verify] after each
   copy need equivalent coverage. *)
let verify_attempt path :
    ( unit,
      [ `Transient of string | `Crc of string | `Suspect of error | `Fatal of error ]
    )
    result =
  match read_all path with
  | Error _ as e -> e
  | Ok data ->
      if is_v4 data then
        let r = Str data in
        match decode_all (parse_dir path r (parse_header r)) with
        | () -> Ok ()
        | exception Bad e -> Error e
      else
        match check_framing data with
        | Error _ as e -> e
        | Ok _body -> Ok ()

let verify ?(retries = 4) ?(backoff_ms = 1.0) path =
  match
    Xk_resilience.Retry.with_backoff_info ~retries ~backoff_ms ~retryable
      (fun () -> verify_attempt path)
  with
  | Ok (), _ -> Ok ()
  | Error e, attempts -> Error { error = classify e; attempts }

let load ?damping label path =
  match load_result ?damping label path with
  | Ok idx -> idx
  | Error e -> raise (Format_error (load_error_message e))

(* Introspection for tests and benches: how big is a file, which
   generation is it, and where do a v4 segment's regions live (so a
   drill can corrupt a specific region with surgical precision). *)
let file_size path = with_in path in_channel_length

let format_version path =
  match read_magic path with
  | exception (Sys_error _ | End_of_file) -> None
  | m ->
      if m = magic_v1 then Some 1
      else if m = magic then Some 2
      else if m = magic_v3 then Some 3
      else if m = magic_v4 then Some 4
      else None

let layout path =
  match read_file path with
  | exception Sys_error msg -> Error (Io_failed msg)
  | exception End_of_file -> Error (Io_failed (path ^ ": changed while read"))
  | data when not (is_v4 data) -> Error (Corrupted "not a v4 segment")
  | data -> (
      match parse_header (Str data) with
      | lay, _ -> Ok lay
      | exception Bad e -> Error (classify e))
