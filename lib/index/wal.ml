(* Append-only write-ahead log.  Records are Xk_storage.Framed frames
   ([varint len | varint crc | payload]), self-delimiting, so recovery
   can walk the file without trusting anything but the bytes
   themselves: a record cut short, or a final record whose checksum
   fails, is a torn tail from a crash mid-append and is truncated away;
   a checksum failure with intact records after it, or a length no
   crash can leave, is reported as corruption instead.

   Recovery reads the log through Index_io's mapped read and retry
   policy, where storage faults are injected, and closes the map before
   it truncates.  Every byte-level read is total: recovery parses files
   that are torn by construction, and a decoder that raises on short
   input would turn the expected case into an exception. *)

module Varint = Xk_storage.Varint
module Framed = Xk_storage.Framed
module Chaos = Xk_resilience.Chaos

let magic = "XKWAL001"
let version = 1

type op =
  | Insert of { doc_id : int; subtree : Xk_xml.Xml_tree.node }
  | Delete of { doc_id : int }

type doc = { doc_id : int; subtree : Xk_xml.Xml_tree.node; payload : string }
type entry = Put of doc | Drop of { doc_id : int; payload : string }
type record = { lsn : int; entry : entry }

type error = Corrupted of string | Io of string

let error_message = function
  | Corrupted m -> "corrupted WAL: " ^ m
  | Io m -> "WAL IO failure: " ^ m

type t = {
  w_path : string;
  w_fsync : bool;
  w_base : int;
  mutable w_oc : out_channel option;
  mutable w_lsn : int;
}

let ( let* ) = Result.bind

(* Subtree codec, shared with the sealed-segment document files.  The
   length is counted before the subtree is printed, so the bytes go
   straight into the caller's buffer. *)

let subtree_length (node : Xk_xml.Xml_tree.node) =
  match node with
  | Element e -> Xk_xml.Xml_print.element_length e
  | Text s -> String.length s

let add_subtree buf (node : Xk_xml.Xml_tree.node) len =
  match node with
  | Element e ->
      Buffer.add_char buf '\000';
      Varint.write buf len;
      Xk_xml.Xml_print.add_element buf e
  | Text s ->
      Buffer.add_char buf '\001';
      Varint.write buf len;
      Buffer.add_string buf s

let encode_subtree buf node = add_subtree buf node (subtree_length node)

let subtree cur =
  let flag = Varint.take cur 1 in
  let bytes = Varint.string cur in
  match flag.[0] with
  | '\000' -> (
      match Xk_xml.Xml_parser.parse_string ~keep_ws:true bytes with
      | Ok doc -> Xk_xml.Xml_tree.Element doc.root
      | Error e -> Varint.malformed "bad subtree XML: %s" e.message)
  | '\001' -> Xk_xml.Xml_tree.Text bytes
  | c -> Varint.malformed "bad subtree flag 0x%02x" (Char.code c)

let encode_op op =
  match op with
  | Insert { doc_id; subtree } ->
      let len = subtree_length subtree in
      let buf =
        Buffer.create (2 + Varint.size doc_id + Varint.size len + len)
      in
      Buffer.add_char buf '\001';
      Varint.write buf doc_id;
      add_subtree buf subtree len;
      Buffer.contents buf
  | Delete { doc_id } ->
      let buf = Buffer.create (1 + Varint.size doc_id) in
      Buffer.add_char buf '\002';
      Varint.write buf doc_id;
      Buffer.contents buf

let decode_op payload =
  Varint.decode ~whole:false
    (fun cur ->
      let tag = Varint.take cur 1 in
      let doc_id = Varint.read cur in
      match tag.[0] with
      | '\001' -> Insert { doc_id; subtree = subtree cur }
      | '\002' -> Delete { doc_id }
      | c -> Varint.malformed "bad op tag 0x%02x" (Char.code c))
    (Varint.cursor payload)

let entry_of op payload =
  match op with
  | Insert { doc_id; subtree } -> Put { doc_id; subtree; payload }
  | Delete { doc_id } -> Drop { doc_id; payload }

let payload = function Put { payload; _ } | Drop { payload; _ } -> payload

(* The payload is printed once.  A subtree that [reads_back] decodes
   from it as itself, so the op is kept as it is.  Any other subtree
   takes the round trip, and its record carries the encoding of the tree
   it reads back as, which is what a [.docs] entry and a replayed record
   hold for it. *)
let canonical op =
  let bytes = encode_op op in
  match op with
  | Insert { subtree = Element e; _ } when not (Xk_xml.Xml_parser.reads_back e) ->
      Result.map (fun op -> entry_of op (encode_op op)) (decode_op bytes)
  | Insert _ | Delete _ -> Ok (entry_of op bytes)

(* A [.docs] payload: the count, then per document its insert record's
   payload without the tag byte, so a sealed generation's file is
   concatenated from the bytes its records already hold. *)
let encode_docs docs =
  let n = List.length docs in
  let size =
    List.fold_left (fun acc d -> acc + String.length d.payload - 1) (Varint.size n) docs
  in
  let buf = Buffer.create size in
  Varint.write buf n;
  List.iter
    (fun d -> Buffer.add_substring buf d.payload 1 (String.length d.payload - 1))
    docs;
  Buffer.contents buf

(* Each document's payload is rebuilt from its entry's bytes. *)
let read_doc (cur : Varint.cursor) =
  let start = cur.pos in
  let doc_id = Varint.read cur in
  let subtree = subtree cur in
  let n = cur.pos - start in
  let b = Bytes.create (n + 1) in
  Bytes.set b 0 '\001';
  Bytes.blit_string cur.data start b 1 n;
  { doc_id; subtree; payload = Bytes.unsafe_to_string b }

let decode_docs =
  Varint.decode ~whole:false (fun cur ->
      List.init (Varint.count cur ~width:1) (fun _ -> read_doc cur))

let header_bytes ~base_lsn =
  let buf = Buffer.create 16 in
  Buffer.add_string buf magic;
  Varint.write buf version;
  Varint.write buf base_lsn;
  Buffer.contents buf

let open_append path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let handle ~fsync ~base_lsn ~lsn path =
  {
    w_path = path;
    w_fsync = fsync;
    w_base = base_lsn;
    w_oc = Some (open_append path);
    w_lsn = lsn;
  }

(* A durable atomic write: no instant shows [path] with a half-written
   header. *)
let create ?(fsync = true) ~base_lsn path =
  match
    Xk_storage.Durable.write_string_atomically ~fsync path
      (header_bytes ~base_lsn);
    handle ~fsync ~base_lsn ~lsn:base_lsn path
  with
  | t -> Ok t
  | exception Sys_error m -> Error (Io m)

(* One recovery read attempt: the header, then every record.  Returns
   the base LSN, the decoded records, the offset past the last intact
   record and the file size; a torn tail shows up as [keep < size]. *)
let recover path =
  let* data = Index_io.read_mapped path in
  let size = String.length data in
  let corrupt msg = Error (`Suspect (Index_io.Corrupted msg)) in
  let* pos =
    Result.map_error Index_io.of_framed (Framed.header ~magic ~version data)
  in
  let cur = Varint.cursor_at data pos in
  match Varint.read cur with
  | exception Varint.Malformed m -> corrupt ("header: " ^ m)
  | base ->
      let rec go acc lsn pos =
        let torn () = Ok (base, List.rev acc, pos, size) in
        if pos = size then torn ()
        else
          match Framed.read_record data ~pos with
          | Ok { pos = p; len } -> (
              let payload = String.sub data p len in
              match decode_op payload with
              | Ok op ->
                  let entry = entry_of op payload in
                  go ({ lsn = lsn + 1; entry } :: acc) (lsn + 1) (p + len)
              | Error m ->
                  (* valid checksum, undecodable bytes: not crash damage *)
                  Error (`Fatal (Index_io.Corrupted ("bad record: " ^ m))))
          | Error (Header_cut | Short_payload _) -> torn ()
          | Error (Crc_mismatch s) when s.pos + s.len = size -> torn ()
          | Error (Crc_mismatch _) ->
              Error
                (`Crc
                  (Printf.sprintf
                     "record checksum mismatch at offset %d (not the final \
                      record)"
                     pos))
          | Error e ->
              corrupt
                (Printf.sprintf "record at offset %d: %s" pos
                   (Framed.error_message e))
      in
      go [] base cur.pos

let open_existing ?(fsync = true) path =
  match Index_io.retrying (fun () -> recover path) with
  | Error { error = Io_failed m; _ } -> Error (Io m)
  | Error { error = Truncated m | Corrupted m; _ } -> Error (Corrupted m)
  | Ok (base_lsn, records, keep, size) -> (
      match
        if keep < size then begin
          (* heal the torn tail in place; the map is closed already *)
          Unix.truncate path keep;
          if fsync then begin
            Xk_storage.Durable.fsync_file path;
            Xk_storage.Durable.fsync_dir (Filename.dirname path)
          end
        end;
        handle ~fsync ~base_lsn ~lsn:(base_lsn + List.length records) path
      with
      | t -> Ok (t, records)
      | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
      | exception Sys_error m -> Error (Io m))

(* Group commit: every frame of the batch is written and flushed in
   turn, then one fsync covers them all.  A write that fails stops the
   batch; the frames before it have landed whole, so they are synced
   and count as appended. *)
let append_batch t entries =
  match t.w_oc with
  | None -> Error (0, Io "log is closed")
  | Some oc ->
      let last = List.length entries - 1 in
      let written = ref 0 in
      let write i e =
        let data = Framed.record (payload e) in
        if i = last && Chaos.crash_armed "wal-append" then begin
          (* a torn write: half the batch's last frame reaches the file,
             then the process dies.  No cleanup — recovery must heal
             this. *)
          output_string oc (String.sub data 0 (String.length data / 2));
          flush oc;
          Chaos.crash_point "wal-append"
        end;
        output_string oc data;
        flush oc;
        incr written
      in
      let failure =
        match List.iteri write entries with
        | () -> None
        | exception Sys_error m -> Some (Io m)
      in
      if !written > 0 then begin
        Chaos.crash_point "wal-pre-fsync";
        if t.w_fsync then
          Xk_storage.Durable.fsync_fd (Unix.descr_of_out_channel oc);
        Chaos.crash_point "wal-post-fsync";
        t.w_lsn <- t.w_lsn + !written
      end;
      match failure with
      | None -> Ok t.w_lsn
      | Some e -> Error (!written, e)

let append t op =
  Result.map_error snd
    (append_batch t [ entry_of op (encode_op op) ])

let base_lsn t = t.w_base
let lsn t = t.w_lsn

let close t =
  match t.w_oc with
  | None -> ()
  | Some oc ->
      t.w_oc <- None;
      close_out_noerr oc
