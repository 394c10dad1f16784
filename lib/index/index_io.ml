(* Index persistence.

   Two on-disk generations are read:

   v2 ("XKIDX002") — a checksummed varint stream in the shared
   Xk_storage.Framed container: magic | version varint | payload-length
   varint | payload CRC-32 varint | payload (node count, term count,
   then per term the bytes, row count, delta-coded node ids and tf
   values).  Loading copies the whole file out of its map and
   materializes every posting.

   v5 ("XKIDX005") — the compressed zero-copy segment.  Four parts back
   to back, no padding, every byte under a CRC-32:

     header    fixed 72 bytes: magic, version u32, then u64 node count,
               term count, total rows, terms/postings/directory lengths,
               terms_crc u32, dir_crc u32, header_crc u32 (over itself)
     terms     all term bytes concatenated in id order     [terms_crc]
     postings  per term: node ids as delta varints (first id absolute),
               then, only when cf <> df, the tf exceptions: a varint
               count, then per row whose tf is above 1 a varint pair
               (position gap, tf - 2), the first position absolute
                                                      [its block's CRC]
     dir       one u32 CRC per block of 64 consecutive term ids, over
               the block's postings back to back; then per term varint
               term_len, df, cf - df, postings_len           [dir_crc]

   The directory's postings lengths tile the postings region exactly, so
   the block CRCs cover it byte for byte.  cf = df means every tf is 1
   (a tf is at least 1), which is why most terms store no tf section at
   all, and the rows that are not listed as exceptions have tf 1.

   Opening a v5 segment maps the file, verifies the header, terms and
   directory checksums, decodes the directory in one pass, interns the
   dictionary from it (statistics come from the directory, not from
   counting rows), and hands {!Index.of_provider} a lazy row decoder: a
   term's rows are decoded from the mapped postings on first use, and
   the first decode of any term of a block verifies that block's CRC
   once.  Open cost is O(dictionary), not O(postings).

   Every read attempt maps the file once ({!Xk_storage.Mmap.map}) and
   reads the magic from the map; a v2 segment is copied out of that same
   map and decoded from the copy.  The map is also where storage faults
   are injected, so fault drills exercise exactly this reader.  Every
   other durable file is read through [read_mapped] and [retrying] too.

   The read path classifies failures (truncation vs. corruption vs.
   transient IO) and retries the transient class — injected IO faults,
   and checksum mismatches, which a re-read distinguishes from media
   corruption (a torn read heals, a corrupt file does not).  Structural
   errors found after a covering checksum verified are fatal: the bytes
   are authentic, retrying cannot help.  So is a file that cannot be
   mapped at all, and a retired generation (v3, v4) whose magic is
   intact.  Saving goes through a temp file + rename, so a crashed
   writer never leaves a half-written segment under the live name. *)

let magic = "XKIDX002"
let magic_v1 = "XKIDX001"
let magic_v3 = "XKIDX003"
let magic_v4 = "XKIDX004"
let magic_v5 = "XKIDX005"
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

exception Segment_fault of string
(* Raised by the lazy v5 row decoder (see the .mli). *)

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
  Xk_storage.Durable.write_string_atomically path
    (Xk_storage.Framed.file ~magic ~version (encode_payload idx))

(* ------------------------------------------------------------------ *)
(* v5 writer (compressed segment)                                     *)
(* ------------------------------------------------------------------ *)

let header_size = 72

(* Terms per postings checksum block. *)
let block_terms = 64

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

(* The tf section of a term whose cf differs from its df: the count of
   rows with tf above 1, then (position gap, tf - 2) per such row, the
   first position absolute. *)
let write_tf_exceptions buf tfs =
  Xk_storage.Varint.write buf
    (Array.fold_left (fun n tf -> if tf > 1 then n + 1 else n) 0 tfs);
  let prev = ref 0 in
  Array.iteri
    (fun i tf ->
      if tf > 1 then begin
        Xk_storage.Varint.write buf (i - !prev);
        Xk_storage.Varint.write buf (tf - 2);
        prev := i
      end)
    tfs

let save (idx : Index.t) path =
  let term_count = Index.term_count idx in
  let terms = Buffer.create 4096 in
  let postings = Buffer.create 65536 in
  let crcs = Buffer.create (4 * (term_count / block_terms + 1)) in
  let entries = Buffer.create (6 * term_count) in
  let block_start = ref 0 and total_rows = ref 0 in
  for id = 0 to term_count - 1 do
    let term = Index.term idx id in
    let nodes, tfs = Index.raw_rows idx id in
    let df = Array.length nodes in
    if Array.exists (fun tf -> tf < 1) tfs then
      Xk_util.Err.invalidf "Index_io.save: term %S has a tf below 1" term;
    let cf = Array.fold_left ( + ) 0 tfs in
    let start = Buffer.length postings in
    let prev = ref 0 in
    Array.iter
      (fun n ->
        Xk_storage.Varint.write postings (n - !prev);
        prev := n)
      nodes;
    if cf <> df then write_tf_exceptions postings tfs;
    Buffer.add_string terms term;
    Xk_storage.Varint.write entries (String.length term);
    Xk_storage.Varint.write entries df;
    Xk_storage.Varint.write entries (cf - df);
    Xk_storage.Varint.write entries (Buffer.length postings - start);
    total_rows := !total_rows + df;
    if (id + 1) mod block_terms = 0 || id = term_count - 1 then begin
      add_u32 crcs
        (Xk_storage.Crc32.string
           (Buffer.sub postings !block_start (Buffer.length postings - !block_start)));
      block_start := Buffer.length postings
    end
  done;
  let terms = Buffer.contents terms
  and dir = Buffer.contents crcs ^ Buffer.contents entries in
  let header = Buffer.create header_size in
  Buffer.add_string header magic_v5;
  add_u32 header 5;
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

(* Payload decoding.  The CRC has already been verified when this runs,
   so structural errors indicate a logic-level mismatch and are
   classified as corruption.  A count is checked against the bytes left
   before anything is built for it: each row takes at least two bytes.
   Every term is listed once, node ids strictly increase and stay below
   the node count the payload was built over, and a tf is at least 1,
   as [save_v2] writes them; the v5 reader holds its segments to the
   same rules. *)
let decode_payload c =
  let nodes = Xk_storage.Varint.read c in
  let terms = Xk_storage.Varint.count c ~width:1 in
  let seen = Hashtbl.create terms in
  let entries =
    List.init terms (fun _ ->
        let term = Xk_storage.Varint.string c in
        if Hashtbl.mem seen term then
          Xk_storage.Varint.malformed "duplicate term %S" term;
        Hashtbl.add seen term ();
        let rows = Xk_storage.Varint.count c ~width:2 in
        let prev = ref 0 in
        let ids =
          Array.init rows (fun i ->
              let gap = Xk_storage.Varint.read c in
              if i > 0 && gap = 0 then
                Xk_storage.Varint.malformed "node ids not increasing";
              prev := !prev + gap;
              if !prev >= nodes then
                Xk_storage.Varint.malformed "node id out of range";
              !prev)
        in
        let tfs =
          Array.init rows (fun _ ->
              let tf = Xk_storage.Varint.read c in
              if tf < 1 then Xk_storage.Varint.malformed "tf %d below 1" tf;
              tf)
        in
        (term, ids, tfs))
  in
  (nodes, entries)

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

(* A framing verdict as a read-attempt outcome.  Every anomaly before
   the checksum can be a torn read, so all of them are retried. *)
let of_framed (e : Xk_storage.Framed.error) : attempt_error =
  let msg = Xk_storage.Framed.error_message e in
  match e with
  | Crc_mismatch _ -> `Crc msg
  | Short_input | Header_cut | Short_payload _ -> `Suspect (Truncated msg)
  | Bad_magic _ | Bad_version _ | Bad_varint | Trailing _ ->
      `Suspect (Corrupted msg)

(* The v2 framing and payload, shared by the loader and {!verify}:
   the node count and the rows. *)
let check_v2 data =
  match Xk_storage.Framed.check ~magic ~version data with
  | Ok { pos; len } ->
      Xk_storage.Varint.(
        decode ~whole:false decode_payload (slice data ~pos ~stop:(pos + len)))
      |> Result.map_error (fun msg -> `Fatal (Corrupted msg))
  | Error (Bad_magic m) when m = magic_v1 ->
      Error
        (`Suspect
          (Corrupted "legacy v1 segment without checksum; rebuild the index"))
  | Error (Bad_magic m) when m = magic_v3 || m = magic_v4 ->
      Error
        (`Fatal
          (Corrupted
             (Printf.sprintf "retired v%c segment format; rebuild the index"
                m.[String.length m - 1])))
  | Error e -> Error (of_framed e)

(* ------------------------------------------------------------------ *)
(* v5 reader                                                          *)
(* ------------------------------------------------------------------ *)

(* Every region is read by copying it out of the map, and each checksum
   runs over the same copy its fields are parsed from: a page torn
   between checksum and parse cannot slip through. *)

(* Structured parse failure, classified like the v2 attempt errors:
   [`Crc] and truncation may be torn reads (retry), structural errors
   behind a verified checksum are fatal.  Declared over the full attempt
   error type so a caught payload needs no variant coercion. *)
exception Bad of attempt_error

let bad_crc msg = raise (Bad (`Crc msg))
let bad_trunc msg = raise (Bad (`Suspect (Truncated msg)))
let bad_struct msg = raise (Bad (`Fatal (Corrupted msg)))

let classify = function
  | `Transient msg -> Io_failed msg
  | `Crc msg -> Corrupted msg
  | `Suspect e | `Fatal e -> e

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF

(* Parse and authenticate the fixed header from [h], the first bytes of
   a [size]-byte file; returns the geometry and the header bytes, which
   carry the terms and directory checksums. *)
let parse_header ~size h : layout * string =
  if size < header_size then bad_trunc "shorter than the v5 header";
  if Xk_storage.Crc32.sub h ~pos:0 ~len:(header_size - 4) <> u32_at h 68 then
    bad_crc "header checksum mismatch";
  (* The header is authentic past this point: every further anomaly is
     structural, not a torn read. *)
  let v = u32_at h 8 in
  if v <> 5 then bad_struct (Printf.sprintf "v5 magic but version %d" v);
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
  (* A directory entry takes at least 4 bytes and a posting row at least
     one, which bounds every array the open allocates by the file. *)
  if lay.term_count > dir_len / 4 then
    bad_struct "term count exceeds what the directory can hold";
  if lay.total_rows > postings_len then
    bad_struct "row count exceeds what the postings can hold";
  (lay, h)

let map_header m =
  let size = Xk_storage.Mmap.size m in
  parse_header ~size (Xk_storage.Mmap.sub_string m ~pos:0 ~len:(min size header_size))

(* Decoded v5 directory plus the map it indexes into: the persistent
   state behind the lazy row provider. *)
type segment = {
  sg_path : string;
  sg_map : Xk_storage.Mmap.t;
  sg_lay : layout;
  sg_terms : string;  (* the CRC-verified terms region, copied out *)
  sg_term_offs : int array;  (* into [sg_terms] *)
  sg_term_lens : int array;
  sg_post_offs : int array;  (* file offsets *)
  sg_post_lens : int array;
  sg_dfs : int array;
  sg_cfs : int array;
  sg_block_crcs : int array;  (* one per [block_terms] term ids *)
  (* One flag per block: has its CRC been verified?  Written without
     synchronization — a benign race: two domains may both verify the
     same block, and a stale read only causes a redundant check. *)
  sg_verified : Bytes.t;
}

let blocks n = (n + block_terms - 1) / block_terms

(* Decode the directory in one pass into per-term arrays.  The entries
   must tile the terms region, the postings region and the row count
   exactly: any overlap, gap or overhang is structural corruption. *)
let parse_dir path m ((lay, h) : layout * string) : segment =
  let dir = Xk_storage.Mmap.sub_string m ~pos:lay.dir_off ~len:lay.dir_len in
  if Xk_storage.Crc32.string dir <> u32_at h 64 then
    bad_crc "directory checksum mismatch";
  let terms = Xk_storage.Mmap.sub_string m ~pos:lay.terms_off ~len:lay.terms_len in
  if Xk_storage.Crc32.string terms <> u32_at h 60 then
    bad_crc "terms-region checksum mismatch";
  let n = lay.term_count in
  (* The header bounds [n] by a quarter of the directory, which keeps
     the block CRCs inside it. *)
  let nblocks = blocks n in
  let block_crcs = Array.init nblocks (fun b -> u32_at dir (4 * b)) in
  let term_offs = Array.make n 0
  and term_lens = Array.make n 0
  and post_offs = Array.make n 0
  and post_lens = Array.make n 0
  and dfs = Array.make n 0
  and cfs = Array.make n 0 in
  let c = Xk_storage.Varint.cursor_at dir (4 * nblocks) and entry = ref 0 in
  let fail msg =
    bad_struct (Printf.sprintf "directory entry %d: %s" !entry msg)
  in
  let next_term = ref 0 and next_post = ref lay.postings_off and rows = ref 0 in
  (try
     for id = 0 to n - 1 do
       entry := id;
       let term_len = Xk_storage.Varint.read c in
       let df = Xk_storage.Varint.read c in
       let extra = Xk_storage.Varint.read c in
       let post_len = Xk_storage.Varint.read c in
       if term_len > lay.terms_len - !next_term then
         fail "term bytes overhang the terms region";
       if post_len > lay.dir_off - !next_post then
         fail "postings overhang the postings region";
       (* Each node id takes a byte at least; a tf section at least three
          (the count and one exception pair). *)
       if df > post_len || (extra > 0 && post_len - df < 3) then
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
   with Xk_storage.Varint.Malformed msg -> fail msg);
  if c.pos <> lay.dir_len then bad_struct "trailing bytes in the directory";
  if !next_term <> lay.terms_len then
    bad_struct "directory does not cover the terms region";
  if !next_post <> lay.dir_off then
    bad_struct "directory does not cover the postings region";
  if !rows <> lay.total_rows then
    bad_struct "directory does not cover the posting rows";
  {
    sg_path = path;
    sg_map = m;
    sg_lay = lay;
    sg_terms = terms;
    sg_term_offs = term_offs;
    sg_term_lens = term_lens;
    sg_post_offs = post_offs;
    sg_post_lens = post_lens;
    sg_dfs = dfs;
    sg_cfs = cfs;
    sg_block_crcs = block_crcs;
    sg_verified = Bytes.make (max 1 nblocks) '\000';
  }

(* Copy block [b]'s postings out of the map, check them against the
   block's CRC and mark the block verified.  Returns the copy and its
   file offset, so the caller decodes from the bytes it checked. *)
let verified_block sg b =
  let first = b * block_terms in
  let last = min sg.sg_lay.term_count (first + block_terms) - 1 in
  let off = sg.sg_post_offs.(first) in
  let len = sg.sg_post_offs.(last) + sg.sg_post_lens.(last) - off in
  let s = Xk_storage.Mmap.sub_string sg.sg_map ~pos:off ~len in
  if Xk_storage.Crc32.string s <> sg.sg_block_crcs.(b) then
    bad_crc (Printf.sprintf "block %d postings checksum mismatch" b);
  Bytes.unsafe_set sg.sg_verified b '\001';
  (s, off)

(* Decode term [id]'s rows from [s], whose byte 0 sits at file offset
   [base].  The slice must decode to exactly df strictly increasing node
   ids below the node count, then, when cf <> df, a tf exception list:
   a count of at least 1, and that many (position gap, tf - 2) pairs
   with strictly increasing positions below df and df + sum (tf - 1) =
   cf, using every byte.  Raises [Bad] [`Fatal] on malformed content.
   [keep:false] checks everything but returns empty arrays, so a full
   verification allocates no rows. *)
let decode_slice ~keep sg id s ~base =
  let fail msg = bad_struct (Printf.sprintf "term %d postings: %s" id msg) in
  let df = sg.sg_dfs.(id) and cf = sg.sg_cfs.(id) in
  let last = sg.sg_lay.node_count - 1 in
  let pos = sg.sg_post_offs.(id) - base in
  let c = Xk_storage.Varint.slice s ~pos ~stop:(pos + sg.sg_post_lens.(id)) in
  match
    let nodes = Array.make (if keep then df else 0) 0 in
    let prev = ref 0 in
    for i = 0 to df - 1 do
      let d = Xk_storage.Varint.read c in
      if i > 0 && d = 0 then fail "node ids not increasing";
      if d > last - !prev then fail "node id out of range";
      prev := !prev + d;
      if keep then nodes.(i) <- !prev
    done;
    let tfs = Array.make (Array.length nodes) 1 in
    if cf <> df then begin
      let count = Xk_storage.Varint.read c in
      if count < 1 || count > df then fail "bad tf exception count";
      let at = ref 0 and extra = ref (cf - df) in
      for i = 0 to count - 1 do
        let gap = Xk_storage.Varint.read c in
        if i > 0 && gap = 0 then fail "tf exceptions not increasing";
        if gap > df - 1 - !at then fail "tf exception past the rows";
        at := !at + gap;
        let tf2 = Xk_storage.Varint.read c in
        if tf2 >= !extra then fail "tfs exceed cf";
        extra := !extra - tf2 - 1;
        if keep then tfs.(!at) <- tf2 + 2
      done;
      if !extra <> 0 then fail "tfs do not sum to cf"
    end;
    (nodes, tfs)
  with
  | exception Xk_storage.Varint.Malformed msg -> fail msg
  | rows -> if c.pos <> c.stop then fail "trailing bytes" else rows

(* Decode one term's rows, verifying its block's CRC first if no decode
   has yet (the flag write is unsynchronized — a benign race, see
   [sg_verified]).  Raises [Bad]: [`Crc] on a checksum mismatch,
   [`Fatal] on malformed content behind a verified checksum. *)
let decode_rows sg id =
  let b = id / block_terms in
  if Bytes.unsafe_get sg.sg_verified b = '\000' then
    let s, base = verified_block sg b in
    decode_slice ~keep:true sg id s ~base
  else
    let base = sg.sg_post_offs.(id) in
    decode_slice ~keep:true sg id
      (Xk_storage.Mmap.sub_string sg.sg_map ~pos:base ~len:sg.sg_post_lens.(id))
      ~base

(* Intern the dictionary in id order with the directory's statistics:
   this — not row decoding — is the open-time cost of a v5 segment. *)
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

(* Full verification of a parsed segment: every block's CRC holds and
   every term decodes from the checked copy. *)
let decode_all sg =
  for b = 0 to blocks sg.sg_lay.term_count - 1 do
    let s, base = verified_block sg b in
    for id = b * block_terms to min sg.sg_lay.term_count ((b + 1) * block_terms) - 1 do
      ignore (decode_slice ~keep:false sg id s ~base)
    done
  done

let open_v5 ?stats ~verify_columns label path m :
    Index.t =
  let ((lay, _) as header) = map_header m in
  if lay.node_count <> Xk_encoding.Labeling.node_count label then
    bad_struct
      (Printf.sprintf "index built over %d nodes, document has %d"
         lay.node_count
         (Xk_encoding.Labeling.node_count label));
  let sg = parse_dir path m header in
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
  Index.of_provider ?stats ~dict label provider

(* ------------------------------------------------------------------ *)
(* Attempts, retry policy, public API                                 *)
(* ------------------------------------------------------------------ *)

(* One attempt maps the file once and runs [f] over the map.  mmap
   cannot map zero bytes, so an empty file is classified here, as the
   truncation it is. *)
let with_map path f : (_, attempt_error) result =
  match Xk_storage.Mmap.map path with
  | Error (Xk_storage.Mmap.Transient msg) -> Error (`Transient msg)
  | Error e -> (
      match Unix.stat path with
      | { Unix.st_size = 0; _ } -> Error (`Suspect (Truncated "empty file"))
      | _ | (exception Unix.Unix_error _) ->
          Error (`Fatal (Io_failed (Xk_storage.Mmap.error_message e))))
  | Ok m -> (
      match f m with
      | r -> r
      | exception Bad e ->
          Xk_storage.Mmap.close m;
          Error e)

let map_is_v5 m =
  let n = String.length magic_v5 in
  Xk_storage.Mmap.size m >= n && Xk_storage.Mmap.sub_string m ~pos:0 ~len:n = magic_v5

let map_contents m = Xk_storage.Mmap.sub_string m ~pos:0 ~len:(Xk_storage.Mmap.size m)

(* The map is closed once copied: a caller may truncate the file next. *)
let read_mapped ?len path =
  with_map path (fun m ->
      let len = min (Xk_storage.Mmap.size m) (Option.value len ~default:max_int) in
      let data = Xk_storage.Mmap.sub_string m ~pos:0 ~len in
      Xk_storage.Mmap.close m;
      Ok data)

let attempt ?stats ~verify_columns label path =
  with_map path (fun m ->
      if map_is_v5 m then
        Ok (open_v5 ?stats ~verify_columns label path m)
      else
        Result.bind (check_v2 (map_contents m)) (fun (nodes, entries) ->
            let have = Xk_encoding.Labeling.node_count label in
            if nodes <> have then
              Error
                (`Fatal
                  (Corrupted
                     (Printf.sprintf "index built over %d nodes, document has %d"
                        nodes have)))
            else Ok (Index.of_raw ?stats label entries)))

let retryable = function
  | `Transient _ | `Crc _ | `Suspect _ -> true
  | `Fatal _ -> false

let retrying ?(retries = 4) ?(backoff_ms = 1.0) attempt =
  match
    Xk_resilience.Retry.with_backoff_info ~retries ~backoff_ms ~retryable attempt
  with
  | Ok v, _ -> Ok v
  | Error e, attempts -> Error { error = classify e; attempts }

let load_result ?stats ?retries ?backoff_ms
    ?(verify_columns = false) label path =
  retrying ?retries ?backoff_ms (fun () ->
      attempt ?stats ~verify_columns label path)

(* Verification without building an index.  For a v2 segment this checks
   the header and the payload checksum and decodes the payload, as a
   load does; for v5 it is a {e full} verification — every region
   checksum, every block CRC and the structure of every term's postings
   — because the lazy load path deliberately defers the per-term checks,
   and the replica writers that call [verify] after each copy need
   equivalent coverage. *)
let verified path m =
  if map_is_v5 m then Ok (decode_all (parse_dir path m (map_header m)))
  else Result.map ignore (check_v2 (map_contents m))

let verify ?retries ?backoff_ms path =
  retrying ?retries ?backoff_ms (fun () -> with_map path (verified path))

(* The bytes are copied out of the very map that verified, so a torn
   read cannot slip in between the check and the copy. *)
let read_verified ?retries ?backoff_ms path =
  retrying ?retries ?backoff_ms (fun () ->
      with_map path (fun m ->
          Result.map (fun () -> map_contents m) (verified path m)))

(* Introspection for tests and benches: how big is a file, which
   generation is it, and where do a v5 segment's regions live (so a
   drill can corrupt a specific region with surgical precision). *)
let file_size path =
  try (Unix.stat path).Unix.st_size
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let magics = [ magic_v1; magic; magic_v3; magic_v4; magic_v5 ]

(* A torn map of a file no longer than its magic tears the magic itself,
   so an unknown magic is re-read before it is believed. *)
let read_magic ~known path =
  retrying (fun () ->
      Result.bind (read_mapped ~len:(String.length magic) path) (fun m ->
          if List.mem m known then Ok m
          else Error (`Suspect (Corrupted "unknown magic"))))
  |> Result.to_option

let format_version path =
  Option.bind (read_magic ~known:magics path) (fun m ->
      List.find_index (String.equal m) magics |> Option.map succ)

let layout path =
  retrying (fun () ->
      with_map path (fun m ->
          if map_is_v5 m then Ok (fst (map_header m))
          else Error (`Fatal (Corrupted "not a v5 segment"))))
  |> Result.map_error (fun (e : load_error) -> e.error)
