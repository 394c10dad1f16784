(* Varint, column codec, Dewey codec and the B-tree size model. *)

open Xk_storage

let check = Alcotest.check
let tc = Alcotest.test_case

let varint_roundtrip () =
  let values = [ 0; 1; 127; 128; 300; 16_383; 16_384; 1_000_000; max_int ] in
  let buf = Buffer.create 64 in
  List.iter (Varint.write buf) values;
  let c = Varint.cursor (Buffer.contents buf) in
  List.iter (fun v -> check Alcotest.int "value" v (Varint.read c)) values;
  check Alcotest.bool "at end" true (Varint.at_end c)

let varint_negative () =
  let buf = Buffer.create 4 in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Varint.write: negative") (fun () -> Varint.write buf (-1))

let varint_size () =
  check Alcotest.int "1 byte" 1 (Varint.size 127);
  check Alcotest.int "2 bytes" 2 (Varint.size 128);
  check Alcotest.int "3 bytes" 3 (Varint.size 16_384)

let truncated () =
  let buf = Buffer.create 4 in
  Varint.write buf 1_000_000;
  let s = Buffer.contents buf in
  let c = Varint.cursor (String.sub s 0 (String.length s - 1)) in
  Alcotest.check_raises "truncated"
    (Varint.Malformed "varint runs past its slice") (fun () ->
      ignore (Varint.read c));
  (* A slice's stop bounds every read, though the data goes on. *)
  let c = Varint.slice s ~pos:0 ~stop:(String.length s - 1) in
  Alcotest.check_raises "past the stop"
    (Varint.Malformed "varint runs past its slice") (fun () ->
      ignore (Varint.read c))

(* The one reader's bounds: at most 9 bytes, never negative, and counts
   and lengths within the bytes left; [decode] turns only [Malformed]
   into an error. *)
let reader_bounds () =
  let read s = Varint.decode ~whole:true Varint.read (Varint.cursor s) in
  let result = Alcotest.(result int string) in
  check result "nine bytes" (Ok max_int) (read (String.make 8 '\xff' ^ "\x3f"));
  check result "ten bytes" (Error "varint overflows")
    (read (String.make 9 '\x80' ^ "\x01"));
  check result "bit 62 set" (Error "varint overflows")
    (read (String.make 8 '\xff' ^ "\x7f"));
  check result "trailing" (Error "1 trailing payload bytes") (read "\x01\x00");
  check result "leading part" (Ok 1)
    (Varint.decode ~whole:false Varint.read (Varint.cursor "\x01\x00"));
  let str = Varint.decode ~whole:true Varint.string in
  check Alcotest.(result string string) "string" (Ok "ab") (str (Varint.cursor "\x02ab"));
  check Alcotest.(result string string) "string past the payload"
    (Error "3 bytes wanted, 2 left") (str (Varint.cursor "\x03ab"));
  let count width s = Varint.decode ~whole:false (Varint.count ~width) (Varint.cursor s) in
  check result "count fits" (Ok 2) (count 2 "\x02abcd");
  check result "count exceeds" (Error "count 3 exceeds the payload") (count 2 "\x03abcde");
  Alcotest.check_raises "decode passes other exceptions"
    (Invalid_argument "bug") (fun () ->
      ignore (Varint.decode ~whole:false (fun _ -> invalid_arg "bug") (Varint.cursor "")))

let runs_of_list l =
  Array.of_list (List.map (fun (v, c) -> { Column_codec.value = v; count = c }) l)

let column_roundtrip_cases () =
  let cases =
    [
      [];
      [ (1, 1) ];
      [ (1, 5); (2, 1); (9, 3) ];
      [ (5, 1); (6, 1); (7, 1); (8, 1) ];
      [ (1, 100); (2, 200); (1000, 1) ];
      List.init 500 (fun i -> ((i * 3) + 1, 1 + (i mod 4)));
    ]
  in
  List.iter
    (fun case ->
      let runs = runs_of_list case in
      let buf = Buffer.create 64 in
      let (_ : Column_codec.scheme) = Column_codec.encode buf runs in
      let decoded = Column_codec.decode (Varint.cursor (Buffer.contents buf)) in
      check Alcotest.bool "roundtrip" true (runs = decoded))
    cases

let column_scheme_choice () =
  (* Many duplicates -> RLE; all distinct -> Delta. *)
  check Alcotest.bool "rle" true
    (Column_codec.choose_scheme (runs_of_list [ (1, 10); (2, 20) ]) = Column_codec.Rle);
  check Alcotest.bool "delta" true
    (Column_codec.choose_scheme (runs_of_list [ (1, 1); (2, 1); (3, 1) ])
    = Column_codec.Delta)

let column_rle_compresses () =
  (* A highly duplicated column must be much smaller than raw entries. *)
  let runs = runs_of_list (List.init 50 (fun i -> (i + 1, 1000))) in
  let bytes = Column_codec.encoded_size runs in
  check Alcotest.bool "compressed below one byte per row" true (bytes < 50_000 / 8)

let column_codec_prop =
  QCheck.Test.make ~count:300 ~name:"column codec roundtrip (random runs)"
    QCheck.(pair (int_bound 1_000_000) (int_range 0 400))
    (fun (seed, n) ->
      let rng = Xk_datagen.Rng.create seed in
      let v = ref 0 in
      let runs =
        Array.init n (fun _ ->
            v := !v + 1 + Xk_datagen.Rng.int rng 50;
            { Column_codec.value = !v; count = 1 + Xk_datagen.Rng.int rng 20 })
      in
      let buf = Buffer.create 64 in
      let scheme =
        if Xk_datagen.Rng.bool rng then Column_codec.Delta else Column_codec.Rle
      in
      Column_codec.encode_with buf scheme runs;
      Column_codec.decode (Varint.cursor (Buffer.contents buf)) = runs)

let dewey_codec_roundtrip () =
  let ids =
    Array.of_list
      (List.map Xk_encoding.Dewey.of_string
         [ "1"; "1.1"; "1.1.4"; "1.1.5"; "1.2.3.4.5"; "1.10" ])
  in
  let buf = Buffer.create 64 in
  Dewey_codec.encode buf ids;
  let back = Dewey_codec.decode (Varint.cursor (Buffer.contents buf)) in
  check Alcotest.bool "roundtrip" true (ids = back)

let dewey_codec_prop =
  QCheck.Test.make ~count:200 ~name:"dewey codec roundtrip (random trees)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xk_datagen.Rng.create seed in
      let d = Xk_datagen.Random_tree.generate rng in
      let lab = Xk_encoding.Labeling.label d in
      let ids =
        Array.init (Xk_encoding.Labeling.node_count lab) (fun i ->
            Xk_encoding.Labeling.dewey lab i)
      in
      let buf = Buffer.create 256 in
      Dewey_codec.encode buf ids;
      Dewey_codec.decode (Varint.cursor (Buffer.contents buf)) = ids)

let dewey_codec_compresses () =
  (* Shared prefixes must be stored once: a long chain of siblings under a
     deep path should cost far less than re-encoding full paths. *)
  let deep = Xk_encoding.Dewey.of_string "1.2.3.4.5.6.7.8" in
  let ids = Array.init 1000 (fun i -> Xk_encoding.Dewey.child deep (i + 1)) in
  let bytes = Dewey_codec.encoded_size ids in
  check Alcotest.bool "prefix sharing" true (bytes < 1000 * 6)

let crc32_vectors () =
  (* IEEE 802.3 check values. *)
  check Alcotest.int "empty" 0 (Crc32.string "");
  check Alcotest.int "check string" 0xCBF43926 (Crc32.string "123456789");
  check Alcotest.int "single byte" 0xD202EF8D (Crc32.string "\x00")

let crc32_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let n = String.length s in
  let split = n / 3 in
  let inc =
    Crc32.update (Crc32.update 0 s ~pos:0 ~len:split) s ~pos:split
      ~len:(n - split)
  in
  check Alcotest.int "incremental = one-shot" (Crc32.string s) inc;
  check Alcotest.int "sub window" (Crc32.string "quick")
    (Crc32.sub s ~pos:4 ~len:5)

let crc32_detects_flips () =
  let s = Bytes.of_string (String.init 256 Char.chr) in
  let reference = Crc32.string (Bytes.to_string s) in
  for i = 0 to Bytes.length s - 1 do
    let orig = Bytes.get s i in
    Bytes.set s i (Char.chr (Char.code orig lxor 0x01));
    if Crc32.string (Bytes.to_string s) = reference then
      Alcotest.failf "single-bit flip at byte %d undetected" i;
    Bytes.set s i orig
  done

let btree_sizes () =
  let mk n = Array.init n (fun i -> Xk_encoding.Dewey.of_string (Printf.sprintf "1.%d.2" (i + 1))) in
  let postings = [ ("alpha", mk 1000); ("beta", mk 10) ] in
  let composite = Btree_sim.composite_btree_size postings in
  let per_list = Btree_sim.per_list_btree_size postings in
  check Alcotest.bool "composite dominated by big term" true (composite > 1000 * 10);
  (* The B+-tree must cost more than the raw prefix-compressed list but not
     orders of magnitude more. *)
  let raw = Array.fold_left (fun a d -> a + Btree_sim.dewey_bytes d) 0 (snd (List.hd postings)) in
  check Alcotest.bool "per-list above raw bytes" true (per_list > raw);
  check Alcotest.bool "per-list within 10x of raw" true (per_list < 10 * raw);
  (* The composite B-tree repeats keyword bytes per occurrence: doubling
     the long list should roughly double the size. *)
  let composite2 = Btree_sim.composite_btree_size [ ("alpha", mk 2000); ("beta", mk 10) ] in
  check Alcotest.bool "grows linearly" true
    (float_of_int composite2 /. float_of_int composite > 1.6)

(* --- mmap ------------------------------------------------------------ *)

let with_tmp_file data f =
  let path = Filename.temp_file "xk_mmap" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc data;
      close_out oc;
      f path)

module Chaos = Xk_resilience.Chaos

(* Storage faults fire inside [Mmap.map], so the cases that read exact
   bytes pin the fault state to none, whatever the environment asks. *)
let fault_free f =
  Chaos.configure Chaos.no_faults;
  Fun.protect ~finally:Chaos.reset f

let map_ok path =
  match Mmap.map path with
  | Ok m -> m
  | Error e -> Alcotest.failf "map: %s" (Mmap.error_message e)

let with_map data f =
  with_tmp_file data (fun path -> fault_free (fun () -> f (map_ok path)))

let mmap_accessors () =
  let data = "\x01\x02\x03\x04\x05\x06\x07\x08hello" in
  with_tmp_file data (fun path ->
      fault_free @@ fun () ->
      let m = map_ok path in
      check Alcotest.int "size" (String.length data) (Mmap.size m);
      check Alcotest.string "path" path (Mmap.path m);
      check Alcotest.string "sub_string" "hello" (Mmap.sub_string m ~pos:8 ~len:5);
      check Alcotest.string "whole map" data (Mmap.sub_string m ~pos:0 ~len:(Mmap.size m)));
  (* A copy of bytes in memory reads like a map of them. *)
  let m = Mmap.of_string data in
  check Alcotest.int "in-memory size" (String.length data) (Mmap.size m);
  check Alcotest.string "in-memory sub_string" "\x03\x04" (Mmap.sub_string m ~pos:2 ~len:2)

let mmap_bounds_and_close () =
  let faults m =
    (match Mmap.sub_string m ~pos:14 ~len:4 with
    | _ -> Alcotest.fail "out-of-bounds window not rejected"
    | exception Mmap.Fault (Mmap.Bounds _) -> ());
    (match Mmap.sub_string m ~pos:(-1) ~len:2 with
    | _ -> Alcotest.fail "negative pos not rejected"
    | exception Mmap.Fault (Mmap.Bounds _) -> ());
    check Alcotest.bool "open before close" false (Mmap.is_closed m);
    Mmap.close m;
    Mmap.close m (* idempotent *);
    check Alcotest.bool "closed" true (Mmap.is_closed m);
    match Mmap.sub_string m ~pos:0 ~len:1 with
    | _ -> Alcotest.fail "closed handle still readable"
    | exception Mmap.Fault (Mmap.Closed _) -> ()
  in
  let data = String.init 16 Char.chr in
  with_map data faults;
  faults (Mmap.of_string data)

(* The fault seam: every injected storage fault lands in one map's
   private pages, never in the file or in any other map. *)
let mmap_fault_seam () =
  let data = String.init 64 (fun i -> Char.chr (i * 37 land 0xff)) in
  let bytes m = Mmap.sub_string m ~pos:0 ~len:(Mmap.size m) in
  let diffs m =
    let b = bytes m in
    List.filter (fun i -> b.[i] <> data.[i]) (List.init (String.length data) Fun.id)
  in
  with_tmp_file data (fun path ->
      let on_disk () = Crc32.string (In_channel.with_open_bin path In_channel.input_all) in
      let disk_crc = Crc32.string data in
      fault_free @@ fun () ->
      (* A marked map reads its middle byte flipped; the file does not. *)
      Chaos.mark_corrupt ~path;
      let marked = map_ok path in
      check Alcotest.(list int) "marked map flips the middle byte" [ 32 ] (diffs marked);
      check Alcotest.int "on-disk crc unchanged" disk_crc (on_disk ());
      (* After heal a fresh map is clean; the damaged one stays damaged. *)
      Chaos.heal ~path;
      check Alcotest.string "healed map is clean" data (bytes (map_ok path));
      check Alcotest.(list int) "the marked handle keeps its pages" [ 32 ] (diffs marked);
      (* A torn map flips a header byte in that handle only. *)
      Chaos.configure { Chaos.no_faults with corrupt_reads = 1 };
      let torn = map_ok path in
      let next = map_ok path in
      check Alcotest.(list int) "torn map flips byte 8" [ 8 ] (diffs torn);
      check Alcotest.string "the next map is clean" data (bytes next);
      check Alcotest.(list int) "the torn flip stays in its handle" [ 8 ] (diffs torn);
      check Alcotest.int "on-disk crc still unchanged" disk_crc (on_disk ());
      (* A transient failure is its own error class; the retry maps. *)
      Chaos.configure { Chaos.no_faults with io_failures = 1 };
      (match Mmap.map path with
      | Error (Mmap.Transient _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Mmap.error_message e)
      | Ok _ -> Alcotest.fail "injected IO failure mapped");
      check Alcotest.string "the retry maps clean" data (bytes (map_ok path));
      (* An unmappable mark refuses the map. *)
      Chaos.mark_unmappable ~path;
      match Mmap.map path with
      | Error (Mmap.Map_failed _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Mmap.error_message e)
      | Ok _ -> Alcotest.fail "unmappable path mapped")

let mmap_failures () =
  (match Mmap.map "/nonexistent/xk/segment.seg" with
  | Ok _ -> Alcotest.fail "mapped a missing file"
  | Error (Mmap.Map_failed _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mmap.error_message e));
  with_tmp_file "" (fun path ->
      match Mmap.map path with
      | Ok _ -> Alcotest.fail "mapped an empty file"
      | Error (Mmap.Map_failed _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Mmap.error_message e))

(* --- v2 segment fixture ------------------------------------------------ *)

(* Literal bytes of an Index_io v2 segment (a checksummed varint stream)
   as the v2 writer wrote them for [v2_fixture_xml], committed so the
   retired-format refusal is pinned by historical bytes, not by a
   hand-made magic. *)
let v2_fixture_xml =
  "<bib><book year=\"2010\"><title>top k keyword search</title><author>chen</author></book><book><title>xml databases keyword</title></book></bib>"

let v2_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x32\x02\x44\xad\xd1\xce\x81\x05\x09\x07\x04\x32\x30\x31\x30\x01\x01\x01\x03\x74\x6f\x70\x01\x03\x01\x07\x6b\x65\x79\x77\x6f\x72\x64\x02\x03\x05\x01\x01\x06\x73\x65\x61\x72\x63\x68\x01\x03\x01\x04\x63\x68\x65\x6e\x01\x05\x01\x03\x78\x6d\x6c\x01\x08\x01\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x01\x08\x01"

(* --- retired segment generations ------------------------------------ *)

(* Literal bytes of the v4 segment the previous release's [save] wrote
   for [v2_fixture_xml]: the 72-byte header (magic, version 4, 9 nodes,
   7 terms, 8 rows, then the 36/8/56-byte terms, postings and directory
   lengths and the three CRCs), the term bytes, one or two node-id
   varints per term and the directory with a u32 CRC per term. *)
let v4_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x34\x04\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x24\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x38\x00\x00\x00\x00\x00\x00\x00\x85\xf6\x9e\xd7\xaf\x72\x64\xdc\xfc\xbb\xcb\xd5\x32\x30\x31\x30\x74\x6f\x70\x6b\x65\x79\x77\x6f\x72\x64\x73\x65\x61\x72\x63\x68\x63\x68\x65\x6e\x78\x6d\x6c\x64\x61\x74\x61\x62\x61\x73\x65\x73\x01\x03\x03\x05\x03\x05\x08\x08\x04\x01\x00\x01\x1b\xdf\x05\xa5\x03\x01\x00\x01\x37\xbe\x0b\x4b\x07\x02\x00\x02\xb3\xb5\x9e\x1a\x06\x01\x00\x01\x37\xbe\x0b\x4b\x04\x01\x00\x01\x02\x1b\x68\xa2\x03\x01\x00\x01\xbf\x67\xd9\xdc\x09\x01\x00\x01\xbf\x67\xd9\xdc"

(* A segment of a retired format is reported as non-retryable
   corruption (rebuild the index) on the first attempt, by the loader
   and by [verify] alike, while introspection still names it. *)
let segment_retired ~version bytes =
  let doc = Xk_xml.Xml_parser.parse_string_exn v2_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  let module Chaos = Xk_resilience.Chaos in
  (* Injected transient faults would add attempts of their own. *)
  Chaos.configure Chaos.no_faults;
  Fun.protect ~finally:Chaos.reset @@ fun () ->
  with_tmp_file bytes (fun path ->
      let retired = Printf.sprintf "retired v%d segment format; rebuild the index" version in
      check Alcotest.(option string)
        (Printf.sprintf "magic names v%d" version)
        (Some (Printf.sprintf "v%d segment" version))
        (Option.bind (Tutil.magic_of path) (fun m ->
             List.assoc_opt m Xk_index.Index_io.retired));
      (match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Corrupted msg; attempts = 1 } ->
          check Alcotest.string "load message" retired msg
      | Error e ->
          Alcotest.failf "v%d load: wrong error %s" version
            (Xk_index.Index_io.load_error_message e)
      | Ok _ -> Alcotest.failf "v%d segment loaded" version);
      match Xk_index.Index_io.verify ~backoff_ms:0. path with
      | Error { error = Corrupted msg; attempts = 1 } ->
          check Alcotest.string "verify message" retired msg
      | Error e ->
          Alcotest.failf "v%d verify: wrong error %s" version
            (Xk_index.Index_io.load_error_message e)
      | Ok () -> Alcotest.failf "v%d segment verified" version)

let v2_segment_retired () = segment_retired ~version:2 v2_fixture_bytes

let v3_segment_retired () =
  segment_retired ~version:3 ("XKIDX003" ^ String.make 92 '\000')

let v4_segment_retired () = segment_retired ~version:4 v4_fixture_bytes

(* --- v5 segment fixture (retired) ------------------------------------ *)

(* A corpus with repeated words, so the fixtures pin the tf exception
   lists: "keyword" occurs twice in the first title, "xml" three times
   in the second. *)
let v5_fixture_xml =
  "<bib><book year=\"2010\"><title>top k keyword search keyword</title><author>chen</author></book><book><title>xml databases keyword xml xml</title></book></bib>"

(* Literal bytes of the v5 segment the previous release's [save] wrote
   for [v5_fixture_xml]: the 72-byte header (magic, version 5, 9 nodes,
   7 terms, 8 rows, then the 36/14/32-byte terms, postings and
   directory lengths and the three CRCs), the term bytes in first-seen
   order, the postings and the directory: one block CRC, then per term
   its length, df, cf - df and postings length. *)
let v5_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x35\x05\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x24\x00\x00\x00\x00\x00\x00\x00\x0e\x00\x00\x00\x00\x00\x00\x00\x20\x00\x00\x00\x00\x00\x00\x00\x85\xf6\x9e\xd7\x31\x7f\x1a\x7e\xb5\x18\xff\x9b\x32\x30\x31\x30\x74\x6f\x70\x6b\x65\x79\x77\x6f\x72\x64\x73\x65\x61\x72\x63\x68\x63\x68\x65\x6e\x78\x6d\x6c\x64\x61\x74\x61\x62\x61\x73\x65\x73\x01\x03\x03\x05\x01\x00\x00\x03\x05\x08\x01\x00\x01\x08\x0a\xff\x5c\xe6\x04\x01\x00\x01\x03\x01\x00\x01\x07\x02\x01\x05\x06\x01\x00\x01\x04\x01\x00\x01\x03\x01\x02\x04\x09\x01\x00\x01"

let v5_segment_retired () = segment_retired ~version:5 v5_fixture_bytes

(* --- v6 segment fixture (retired) ------------------------------------ *)

(* Literal bytes of the v6 segment the previous release's [save] wrote
   for [v5_fixture_xml]:
   the 72-byte header (magic, version 6, 9 nodes, 7 terms, 8 rows, then
   the 53/14/25-byte terms, postings and directory lengths and the
   three CRCs); the term region: the seven terms in byte order ("2010", "chen",
   "databases", "keyword", "search", "top", "xml"), one front-coding
   block whose restart is 04 "2010" and whose other entries share no
   prefix (00, suffix length, suffix), then the one-entry restart table
   (offset 0); the postings in that order ("keyword" adds the exception
   list 01 00 00 - one row, position 0, tf 2 - and "xml" 01 00 01 -
   position 0, tf 3); and the directory: one block CRC, then per term
   its df, cf - df and postings length. *)
let v6_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x36\x06\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x35\x00\x00\x00\x00\x00\x00\x00\x0e\x00\x00\x00\x00\x00\x00\x00\x19\x00\x00\x00\x00\x00\x00\x00\x0d\xcd\xf5\x07\xe4\x75\xf8\x8c\x7e\x5b\xd7\xbb\x04\x32\x30\x31\x30\x00\x04\x63\x68\x65\x6e\x00\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x00\x07\x6b\x65\x79\x77\x6f\x72\x64\x00\x06\x73\x65\x61\x72\x63\x68\x00\x03\x74\x6f\x70\x00\x03\x78\x6d\x6c\x00\x00\x00\x00\x01\x05\x08\x03\x05\x01\x00\x00\x03\x03\x08\x01\x00\x01\x6a\x9e\x62\x4d\x01\x00\x01\x01\x00\x01\x01\x00\x01\x02\x01\x05\x01\x00\x01\x01\x00\x01\x01\x02\x04"

let v6_segment_retired () = segment_retired ~version:6 v6_fixture_bytes

(* --- v7 segment fixture (retired) ------------------------------------ *)

(* Literal bytes of the v7 segment the previous release's [save] wrote
   for [v5_fixture_xml]:
   the 72-byte header (magic, version 7, 9 nodes, 7 terms, 8 rows, then
   the 47/13/17-byte terms, postings and directory lengths and
   the three CRCs); the term region: the seven terms in byte order
   ("2010", "chen", "databases", "keyword", "search", "top", "xml"), one
   front-coding block whose entries share no prefix (one byte 0x0L, the
   suffix length L, then the suffix), then the one-entry restart table
   (offset 0); the postings in that order, each term's node ids
   Rice-coded with k = 3 (one row among 9 nodes) or k = 2 (two rows) and
   padded to a byte ("keyword" adds the exception list 01 00 00 - one
   row, position 0, tf 2 - and "xml" 01 00 01 - position 0, tf 3); and
   the directory: the block's CRC and byte length, then per term
   [df lsl 1 lor has_tfs] and, for the two flagged terms, cf - df. *)
let v7_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x37\x07\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x2f\x00\x00\x00\x00\x00\x00\x00\x0d\x00\x00\x00\x00\x00\x00\x00\x11\x00\x00\x00\x00\x00\x00\x00\x75\xfe\xc7\x9d\x8c\xe6\x54\xe7\x8c\xc7\x63\x0c\x04\x32\x30\x31\x30\x04\x63\x68\x65\x6e\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x07\x6b\x65\x79\x77\x6f\x72\x64\x06\x73\x65\x61\x72\x63\x68\x03\x74\x6f\x70\x03\x78\x6d\x6c\x00\x00\x00\x00\x03\x0b\x02\x17\x01\x00\x00\x07\x07\x02\x01\x00\x01\xd3\xc7\xa0\x3a\x0d\x00\x00\x00\x02\x02\x02\x05\x01\x02\x02\x03\x02"

let v7_segment_retired () = segment_retired ~version:7 v7_fixture_bytes

(* --- v8 segment fixture (retired) ------------------------------------ *)

(* Literal bytes of the v8 segment the previous release's [save] wrote
   for [v5_fixture_xml]:
   the 72-byte header (magic, version 8, 9 nodes, 7 terms, 8 rows, then
   the 48/6/17-byte terms, postings and directory lengths and the three
   CRCs); the term region: an empty symbol table (00: coding 38 suffix
   bytes would not pay for one), the seven terms in byte order ("2010",
   "chen", "databases", "keyword", "search", "top", "xml"), one
   front-coding block whose entries share no prefix (one byte 0x0L, the
   suffix length L, then the suffix), then the one-entry restart table
   (offset 1, past the table); the postings: one bit stream for the one
   block, each term's node ids Rice-coded with k = 3 (one row among 9
   nodes) or k = 2 (two rows), "keyword" adding the gamma codes 1 1 1
   (one exception, position 0, tf 2) and "xml" 1 1 010 (position 0,
   tf 3), zero bits to the byte only at the end; and the directory: the
   block's CRC and byte length, then per term [df lsl 1 lor has_tfs]
   and, for the two flagged terms, cf - df. *)
let v8_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x38\x08\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x30\x00\x00\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x11\x00\x00\x00\x00\x00\x00\x00\xf0\x81\x2a\x32\xdb\x78\x47\x3b\x0c\x04\x38\xdd\x00\x04\x32\x30\x31\x30\x04\x63\x68\x65\x6e\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x07\x6b\x65\x79\x77\x6f\x72\x64\x06\x73\x65\x61\x72\x63\x68\x03\x74\x6f\x70\x03\x78\x6d\x6c\x01\x00\x00\x00\xb3\xe2\xf2\x3b\xb1\x00\x63\x1f\x07\x86\x06\x00\x00\x00\x02\x02\x02\x05\x01\x02\x02\x03\x02"

let v8_segment_retired () = segment_retired ~version:8 v8_fixture_bytes

(* --- v9 segment fixture ---------------------------------------------- *)

(* Literal bytes of the v9 segment [save] writes for [v5_fixture_xml]:
   the 80-byte header (magic, version 9, 9 nodes, 7 terms, 8 rows, the
   48/4/8-byte terms, postings and directory lengths, M = 4 term-bearing
   nodes - the book with a year attribute and the three texts - and the
   three CRCs); the term region as in v8 (an empty symbol table, the
   seven terms in byte order, one front-coding block, a one-entry
   restart table); the postings: one bit stream for the one block, each
   term's ranks among the 4 term-bearing nodes Rice-coded with k = 2
   (one row) or k = 1 (two rows), "keyword" adding the gamma codes 1 1 1
   (one exception, position 0, tf 2) and "xml" 1 1 010 (position 0,
   tf 3), 32 bits and no pad; and the directory: the block's CRC and
   varint byte length 4, then one bit stream: the dfs as gamma codes
   (1 1 1 010 1 1 1), gamma 3 for the two tf-bearing terms, then
   "keyword" (id gap 4, cf - df 1) and "xml" (id gap 3, cf - df 2). *)
let v9_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x39\x09\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x30\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\xf0\x81\x2a\x32\xfa\x0a\x4f\x12\x43\xd5\x95\x56\x00\x04\x32\x30\x31\x30\x04\x63\x68\x65\x6e\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x07\x6b\x65\x79\x77\x6f\x72\x64\x06\x73\x65\x61\x72\x63\x68\x03\x74\x6f\x70\x03\x78\x6d\x6c\x01\x00\x00\x00\xe9\xff\xdb\x17\x50\x7c\xb4\xd5\x04\xd7\x4d\x5a"

(* The committed bytes carry the v9 magic and load to an index that
   agrees row for row with [Tutil.tally], which tokenizes the document
   without the index, and score for score with the scorer fed each
   row's (tf, df). *)
let v9_fixture_loads () =
  let doc = Xk_xml.Xml_parser.parse_string_exn v5_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  with_tmp_file v9_fixture_bytes (fun path ->
      check Alcotest.(option string) "v9 magic" (Some Xk_index.Index_io.magic)
        (Tutil.magic_of path);
      match Xk_index.Index_io.load_result label path with
      | Error e ->
          Alcotest.failf "fixture load: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok idx ->
          let model, _ = Tutil.tally label in
          let scorer =
            Xk_score.Scorer.make ~total_nodes:(Xk_encoding.Labeling.node_count label)
          in
          check Alcotest.int "term count" (Array.length model)
            (Xk_index.Index.term_count idx);
          Array.iter
            (fun (w, nodes, tfs) ->
              match Xk_index.Index.term_id idx w with
              | None -> Alcotest.failf "term %S missing from fixture" w
              | Some fid ->
                  let n2, t2 = Xk_index.Index.raw_rows idx fid in
                  check Alcotest.(array int) ("nodes of " ^ w) nodes n2;
                  check Alcotest.(array int) ("tfs of " ^ w) tfs t2;
                  let df = Array.length nodes in
                  let s1 = Array.map (fun tf -> Xk_score.Scorer.local_score scorer ~tf ~df) tfs in
                  let s2 = Xk_index.Index.local_scores idx fid in
                  check Alcotest.bool
                    ("scores of " ^ w ^ " bit-identical")
                    true (s1 = s2))
            model;
          check Alcotest.(list string) "ids in byte order"
            [ "2010"; "chen"; "databases"; "keyword"; "search"; "top"; "xml" ]
            (List.init (Xk_index.Index.term_count idx) (Xk_index.Index.term idx)))

(* Bytes as the escapes a fixture is written in, so a mismatch shows
   the bytes the writer produced. *)
let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "\\x%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

(* The writer must keep producing exactly the committed bytes: the
   fixture pins the writer, not just the reader. *)
let v9_writer_stable () =
  let doc = Xk_xml.Xml_parser.parse_string_exn v5_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  let idx = Xk_index.Index.build label in
  let path = Filename.temp_file "xk_fixture" ".seg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xk_index.Index_io.save idx path;
      let data = In_channel.with_open_bin path In_channel.input_all in
      check Alcotest.string "bytes identical" (hex v9_fixture_bytes) (hex data))

(* The introspection calls are total on missing and unreadable paths and
   leave no channel open behind them. *)
let introspection_total () =
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None
  in
  let before = open_fds () in
  let missing = "/nonexistent/xk/segment.seg" in
  let dir = Filename.get_temp_dir_name () in
  List.iter
    (fun path ->
      check Alcotest.(option string) ("no magic for " ^ path) None (Tutil.magic_of path);
      (match Xk_index.Index_io.layout path with
      | Error (Io_failed _) -> ()
      | Error e ->
          Alcotest.failf "layout %s: wrong error %s" path
            (Xk_index.Index_io.error_message e)
      | Ok _ -> Alcotest.failf "layout of %s" path);
      match Xk_index.Index_io.file_size path with
      | exception Sys_error _ -> ()
      | _ -> ())
    [ missing; dir ];
  check Alcotest.(option int) "no channel leaked" before (open_fds ())

let suite =
  [
    ( "storage",
      [
        tc "varint roundtrip" `Quick varint_roundtrip;
        tc "varint negative rejected" `Quick varint_negative;
        tc "varint size" `Quick varint_size;
        tc "varint truncated input" `Quick truncated;
        tc "varint reader bounds" `Quick reader_bounds;
        tc "column codec roundtrips" `Quick column_roundtrip_cases;
        tc "column scheme choice" `Quick column_scheme_choice;
        tc "rle compresses duplicates" `Quick column_rle_compresses;
        tc "dewey codec roundtrip" `Quick dewey_codec_roundtrip;
        tc "dewey codec shares prefixes" `Quick dewey_codec_compresses;
        tc "crc32 known vectors" `Quick crc32_vectors;
        tc "crc32 incremental" `Quick crc32_incremental;
        tc "crc32 detects bit flips" `Quick crc32_detects_flips;
        tc "btree size model" `Quick btree_sizes;
        QCheck_alcotest.to_alcotest column_codec_prop;
        QCheck_alcotest.to_alcotest dewey_codec_prop;
      ] );
    ( "storage.mmap",
      [
        tc "accessors" `Quick mmap_accessors;
        tc "bounds and close faults" `Quick mmap_bounds_and_close;
        tc "map failures are values" `Quick mmap_failures;
        tc "fault seam" `Quick mmap_fault_seam;
      ] );
    ( "storage.v2-fixture",
      [ tc "committed v2 segment rejected once" `Quick v2_segment_retired ] );
    ( "storage.v4-fixture",
      [
        tc "committed v4 segment rejected once" `Quick v4_segment_retired;
        tc "retired v3 segment rejected once" `Quick v3_segment_retired;
        tc "introspection is total" `Quick introspection_total;
      ] );
    ( "storage.v5-fixture",
      [ tc "committed v5 segment rejected once" `Quick v5_segment_retired ] );
    ( "storage.v6-fixture",
      [ tc "committed v6 segment rejected once" `Quick v6_segment_retired ] );
    ( "storage.v7-fixture",
      [ tc "committed v7 segment rejected once" `Quick v7_segment_retired ] );
    ( "storage.v8-fixture",
      [ tc "committed v8 segment rejected once" `Quick v8_segment_retired ] );
    ( "storage.v9-fixture",
      [
        tc "committed v9 segment loads" `Quick v9_fixture_loads;
        tc "v9 writer reproduces fixture bytes" `Quick v9_writer_stable;
      ] );
  ]
