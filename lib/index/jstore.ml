(* Column-oriented on-disk storage for JDewey inverted lists - the layout
   of the paper's Figure 2(a): each keyword's list is stored by column
   (one compressed blob per tree level) next to a row payload (node ids,
   local scores, sequence lengths).

   Readers decode one column at a time, which is what makes Algorithm 1's
   I/O pattern real: a query touches only the levels it joins (starting at
   the minimum of the lists' depths) and never pays for the rest of the
   sequences.  The [stats] counters expose exactly how many bytes each
   query decoded; the experiment harness reports them.

   File layout: magic | data blobs | directory | directory offset (8 B).
   The directory holds, per term: the term bytes, row/level counts and the
   (offset, length) of the payload and of every column blob. *)

let magic = "XKCOL001"

exception Format_error of string

type stats = {
  mutable payloads_decoded : int;
  mutable columns_decoded : int;
  mutable bytes_decoded : int;
}

type entry = {
  term : string;
  rows : int;
  max_len : int;
  payload_off : int;
  payload_len : int;
  cols : (int * int) array; (* per level: offset, length *)
}

type t = {
  data : string;
  entries : entry array;
  by_term : (string, int) Hashtbl.t;
  stats : stats;
  cache : (int, Jlist.t) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

let add_payload buf (nodes : int array) (row_lens : int array)
    (scores : float array) =
  Xk_storage.Varint.write buf (Array.length nodes);
  let prev = ref 0 in
  Array.iter
    (fun n ->
      Xk_storage.Varint.write buf (n - !prev);
      prev := n)
    nodes;
  Array.iter (fun l -> Xk_storage.Varint.write buf l) row_lens;
  Array.iter (fun s -> Buffer.add_int64_le buf (Int64.bits_of_float s)) scores

let write (idx : Index.t) path =
  let label = Index.label idx in
  let data = Buffer.create (1 lsl 20) in
  Buffer.add_string data magic;
  let dir = Buffer.create (1 lsl 16) in
  let terms = Index.term_count idx in
  Xk_storage.Varint.write dir terms;
  for id = 0 to terms - 1 do
    let term = Index.term idx id in
    let nodes, _tfs = Index.raw_rows idx id in
    let scores = Index.local_scores idx id in
    let jl = Jlist.make label ~nodes ~scores in
    let row_lens = Array.init (Array.length nodes) (Jlist.row_len jl) in
    let max_len = Jlist.max_len jl in
    Xk_storage.Varint.write dir (String.length term);
    Buffer.add_string dir term;
    Xk_storage.Varint.write dir (Array.length nodes);
    Xk_storage.Varint.write dir max_len;
    let payload_off = Buffer.length data in
    add_payload data nodes row_lens scores;
    Xk_storage.Varint.write dir payload_off;
    Xk_storage.Varint.write dir (Buffer.length data - payload_off);
    for level = 1 to max_len do
      let col = Jlist.column jl ~level in
      let off = Buffer.length data in
      let (_ : Xk_storage.Column_codec.scheme) =
        Xk_storage.Column_codec.encode data (Column.to_codec_runs col)
      in
      Xk_storage.Varint.write dir off;
      Xk_storage.Varint.write dir (Buffer.length data - off)
    done
  done;
  let dir_off = Buffer.length data in
  Buffer.add_buffer data dir;
  Buffer.add_int64_le data (Int64.of_int dir_off);
  let oc = open_out_bin path in
  Buffer.output_buffer oc data;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let open_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let data = really_input_string ic len in
  close_in ic;
  if len < String.length magic + 8 then raise (Format_error "file too short");
  if String.sub data 0 (String.length magic) <> magic then
    raise (Format_error "bad magic");
  let dir_off = Int64.to_int (String.get_int64_le data (len - 8)) in
  if dir_off < 0 || dir_off >= len - 8 then
    raise (Format_error "bad directory offset");
  let c = Xk_storage.Varint.cursor_at data dir_off in
  let terms = Xk_storage.Varint.read c in
  let by_term = Hashtbl.create (2 * terms) in
  let entries =
    Array.init terms (fun id ->
        let tlen = Xk_storage.Varint.read c in
        if c.pos + tlen > len then raise (Format_error "truncated term");
        let term = String.sub data c.pos tlen in
        Xk_storage.Varint.skip c tlen;
        let rows = Xk_storage.Varint.read c in
        let max_len = Xk_storage.Varint.read c in
        let payload_off = Xk_storage.Varint.read c in
        let payload_len = Xk_storage.Varint.read c in
        let cols =
          Array.init max_len (fun _ ->
              let off = Xk_storage.Varint.read c in
              let clen = Xk_storage.Varint.read c in
              (off, clen))
        in
        Hashtbl.replace by_term term id;
        { term; rows; max_len; payload_off; payload_len; cols })
  in
  {
    data;
    entries;
    by_term;
    stats = { payloads_decoded = 0; columns_decoded = 0; bytes_decoded = 0 };
    cache = Hashtbl.create 64;
  }

let term_count t = Array.length t.entries
let term t id = t.entries.(id).term
let term_id t w = Hashtbl.find_opt t.by_term (String.lowercase_ascii w)
let stats t = t.stats

let reset_stats t =
  t.stats.payloads_decoded <- 0;
  t.stats.columns_decoded <- 0;
  t.stats.bytes_decoded <- 0

(* Total on-disk bytes of one term (payload plus all columns). *)
let term_bytes t id =
  let e = t.entries.(id) in
  Array.fold_left (fun a (_, l) -> a + l) e.payload_len e.cols

let decode_payload t (e : entry) =
  t.stats.payloads_decoded <- t.stats.payloads_decoded + 1;
  t.stats.bytes_decoded <- t.stats.bytes_decoded + e.payload_len;
  let c = Xk_storage.Varint.cursor_at t.data e.payload_off in
  let rows = Xk_storage.Varint.read c in
  if rows <> e.rows then raise (Format_error "row count mismatch");
  let nodes = Array.make rows 0 in
  let prev = ref 0 in
  for r = 0 to rows - 1 do
    prev := !prev + Xk_storage.Varint.read c;
    nodes.(r) <- !prev
  done;
  let row_lens = Array.init rows (fun _ -> Xk_storage.Varint.read c) in
  let scores =
    Array.init rows (fun _ ->
        let v = String.get_int64_le t.data c.pos in
        Xk_storage.Varint.skip c 8;
        Int64.float_of_bits v)
  in
  (nodes, row_lens, scores)

(* Decode the level-[level] column: the codec stores (value, count) runs
   over the column's own row sequence; start rows are recovered from the
   list's row lengths (rows shorter than [level] are absent). *)
let decode_column t (e : entry) (row_lens : int array) ~level =
  let off, len = e.cols.(level - 1) in
  t.stats.columns_decoded <- t.stats.columns_decoded + 1;
  t.stats.bytes_decoded <- t.stats.bytes_decoded + len;
  let raw =
    Xk_storage.Column_codec.decode (Xk_storage.Varint.cursor_at t.data off)
  in
  (* Row indexes of the rows this column covers, in order. *)
  let covered = ref [] in
  for r = Array.length row_lens - 1 downto 0 do
    if row_lens.(r) >= level then covered := r :: !covered
  done;
  let covered = Array.of_list !covered in
  let pos = ref 0 in
  let starts =
    Array.map
      (fun (r : Xk_storage.Column_codec.run) ->
        let start_row = covered.(!pos) in
        (* Contiguity of same-value rows is a theorem of the encoding
           (DESIGN.md); check it instead of trusting the file. *)
        if covered.(!pos + r.count - 1) <> start_row + r.count - 1 then
          raise (Format_error "non-contiguous run");
        pos := !pos + r.count;
        start_row)
      raw
  in
  Column.of_arrays
    ~values:(Array.map (fun (r : Xk_storage.Column_codec.run) -> r.value) raw)
    ~starts
    ~counts:(Array.map (fun (r : Xk_storage.Column_codec.run) -> r.count) raw)

let jlist t id : Jlist.t =
  match Hashtbl.find_opt t.cache id with
  | Some jl -> jl
  | None ->
      let e = t.entries.(id) in
      let nodes, row_lens, scores = decode_payload t e in
      let jl =
        Jlist.make_lazy ~nodes ~scores ~row_lens ~max_len:e.max_len
          ~loader:(fun level -> decode_column t e row_lens ~level)
      in
      Hashtbl.replace t.cache id jl;
      jl

let file_size path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  n
