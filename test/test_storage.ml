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

let varint_signed () =
  let values = [ 0; -1; 1; -64; 64; -1_000_000; 1_000_000 ] in
  let buf = Buffer.create 64 in
  List.iter (Varint.write_signed buf) values;
  let c = Varint.cursor (Buffer.contents buf) in
  List.iter (fun v -> check Alcotest.int "signed" v (Varint.read_signed c)) values

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
    (Invalid_argument "Varint.read: truncated input") (fun () ->
      ignore (Varint.read c))

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
      check Alcotest.int "u8" 1 (Mmap.u8 m 0);
      check Alcotest.int "u8 at" 8 (Mmap.u8 m 7);
      check Alcotest.int "u32" 0x04030201 (Mmap.u32 m 0);
      check Alcotest.int "u32 shifted" 0x05040302 (Mmap.u32 m 1);
      check Alcotest.int "u64" 0x0807060504030201 (Mmap.u64 m 0);
      check Alcotest.string "sub_string" "hello" (Mmap.sub_string m ~pos:8 ~len:5);
      check Alcotest.int "crc over window"
        (Crc32.sub data ~pos:8 ~len:5)
        (Mmap.crc32 m ~pos:8 ~len:5);
      check Alcotest.int "incremental crc" (Crc32.string data)
        (Mmap.crc32_update (Mmap.crc32 m ~pos:0 ~len:4) m ~pos:4
           ~len:(String.length data - 4)))

let mmap_bounds_and_close () =
  with_map (String.init 16 Char.chr) (fun m ->
      (match Mmap.u32 m 14 with
      | _ -> Alcotest.fail "out-of-bounds u32 not rejected"
      | exception Mmap.Fault (Mmap.Bounds _) -> ());
      (match Mmap.sub_string m ~pos:(-1) ~len:2 with
      | _ -> Alcotest.fail "negative pos not rejected"
      | exception Mmap.Fault (Mmap.Bounds _) -> ());
      check Alcotest.bool "open before close" false (Mmap.is_closed m);
      Mmap.close m;
      Mmap.close m (* idempotent *);
      check Alcotest.bool "closed" true (Mmap.is_closed m);
      match Mmap.u8 m 0 with
      | _ -> Alcotest.fail "closed handle still readable"
      | exception Mmap.Fault (Mmap.Closed _) -> ())

let mmap_u64_overflow () =
  (* A stored 64-bit value whose top bits exceed the host's 63-bit int
     cannot be a valid offset and must fault, not wrap. *)
  with_map "\x00\x00\x00\x00\x00\x00\x00\xff" (fun m ->
      match Mmap.u64 m 0 with
      | v -> Alcotest.failf "overflowing u64 decoded to %d" v
      | exception Mmap.Fault (Mmap.Bounds _) -> ())

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

(* --- v2 segment compatibility fixture -------------------------------- *)

(* Literal bytes of an Index_io v2 segment as written by the previous
   release's writer, committed so the channel load path keeps accepting
   historical segments byte-for-byte even now that [save] writes v4.
   Generated from [v2_fixture_xml] with [Index.build] + the v2 writer. *)
let v2_fixture_xml =
  "<bib><book year=\"2010\"><title>top k keyword search</title><author>chen</author></book><book><title>xml databases keyword</title></book></bib>"

let v2_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x32\x02\x44\xad\xd1\xce\x81\x05\x09\x07\x04\x32\x30\x31\x30\x01\x01\x01\x03\x74\x6f\x70\x01\x03\x01\x07\x6b\x65\x79\x77\x6f\x72\x64\x02\x03\x05\x01\x01\x06\x73\x65\x61\x72\x63\x68\x01\x03\x01\x04\x63\x68\x65\x6e\x01\x05\x01\x03\x78\x6d\x6c\x01\x08\x01\x09\x64\x61\x74\x61\x62\x61\x73\x65\x73\x01\x08\x01"

(* Load [bytes] as a segment over [v2_fixture_xml] and check it sniffs
   as [version] and agrees row for row and score for score with a fresh
   build. *)
let fixture_loads ~version bytes =
  let doc = Xk_xml.Xml_parser.parse_string_exn v2_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  with_tmp_file bytes (fun path ->
      check
        Alcotest.(option int)
        (Printf.sprintf "sniffs as v%d" version)
        (Some version)
        (Xk_index.Index_io.format_version path);
      match Xk_index.Index_io.load_result label path with
      | Error e ->
          Alcotest.failf "fixture load: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok idx ->
          let fresh = Xk_index.Index.build label in
          check Alcotest.int "term count"
            (Xk_index.Index.term_count fresh)
            (Xk_index.Index.term_count idx);
          for id = 0 to Xk_index.Index.term_count fresh - 1 do
            let w = Xk_index.Index.term fresh id in
            match Xk_index.Index.term_id idx w with
            | None -> Alcotest.failf "term %S missing from fixture" w
            | Some fid ->
                let n1, t1 = Xk_index.Index.raw_rows fresh id in
                let n2, t2 = Xk_index.Index.raw_rows idx fid in
                check Alcotest.(array int) ("nodes of " ^ w) n1 n2;
                check Alcotest.(array int) ("tfs of " ^ w) t1 t2;
                let s1 = Xk_index.Index.local_scores fresh id in
                let s2 = Xk_index.Index.local_scores idx fid in
                check Alcotest.bool
                  ("scores of " ^ w ^ " bit-identical")
                  true (s1 = s2)
          done)

(* The writer must keep producing exactly the committed bytes: the
   fixture pins the writer, not just the reader. *)
let writer_stable ~save bytes =
  let doc = Xk_xml.Xml_parser.parse_string_exn v2_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  let idx = Xk_index.Index.build label in
  let path = Filename.temp_file "xk_fixture" ".seg" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      save idx path;
      let ic = open_in_bin path in
      let data =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check Alcotest.int "fixture length" (String.length bytes)
        (String.length data);
      check Alcotest.bool "bytes identical" true (data = bytes))

let v2_fixture_loads () = fixture_loads ~version:2 v2_fixture_bytes

let v2_writer_stable () =
  writer_stable ~save:Xk_index.Index_io.save_v2 v2_fixture_bytes

(* --- v4 segment fixture ---------------------------------------------- *)

(* Literal bytes of the v4 segment [save] writes for [v2_fixture_xml]:
   the 72-byte header (magic, version 4, 9 nodes, 7 terms, 8 rows, then
   the 36/8/56-byte terms, postings and directory lengths and the three
   CRCs), the term bytes, one or two node-id varints per term (no term
   here repeats within a node, so no tf column) and the directory. *)
let v4_fixture_bytes =
  "\x58\x4b\x49\x44\x58\x30\x30\x34\x04\x00\x00\x00\x09\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x24\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x38\x00\x00\x00\x00\x00\x00\x00\x85\xf6\x9e\xd7\xaf\x72\x64\xdc\xfc\xbb\xcb\xd5\x32\x30\x31\x30\x74\x6f\x70\x6b\x65\x79\x77\x6f\x72\x64\x73\x65\x61\x72\x63\x68\x63\x68\x65\x6e\x78\x6d\x6c\x64\x61\x74\x61\x62\x61\x73\x65\x73\x01\x03\x03\x05\x03\x05\x08\x08\x04\x01\x00\x01\x1b\xdf\x05\xa5\x03\x01\x00\x01\x37\xbe\x0b\x4b\x07\x02\x00\x02\xb3\xb5\x9e\x1a\x06\x01\x00\x01\x37\xbe\x0b\x4b\x04\x01\x00\x01\x02\x1b\x68\xa2\x03\x01\x00\x01\xbf\x67\xd9\xdc\x09\x01\x00\x01\xbf\x67\xd9\xdc"

let v4_fixture_loads () = fixture_loads ~version:4 v4_fixture_bytes

let v4_writer_stable () =
  writer_stable ~save:Xk_index.Index_io.save v4_fixture_bytes

(* A segment of the retired v3 format is reported as non-retryable
   corruption (rebuild the index) on the first attempt, by the loader
   and by [verify] alike, while introspection still names it. *)
let v3_segment_retired () =
  let doc = Xk_xml.Xml_parser.parse_string_exn v2_fixture_xml in
  let label = Xk_encoding.Labeling.label doc in
  let module Chaos = Xk_resilience.Chaos in
  (* Injected transient faults would add attempts of their own. *)
  Chaos.configure Chaos.no_faults;
  Fun.protect ~finally:Chaos.reset @@ fun () ->
  with_tmp_file ("XKIDX003" ^ String.make 92 '\000') (fun path ->
      check Alcotest.(option int) "sniffs as v3" (Some 3)
        (Xk_index.Index_io.format_version path);
      (match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Corrupted _; attempts = 1 } -> ()
      | Error e ->
          Alcotest.failf "v3 load: wrong error %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok _ -> Alcotest.fail "v3 segment loaded");
      match Xk_index.Index_io.verify ~backoff_ms:0. path with
      | Error { error = Corrupted _; attempts = 1 } -> ()
      | Error e ->
          Alcotest.failf "v3 verify: wrong error %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok () -> Alcotest.fail "v3 segment verified")

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
      check Alcotest.(option int) ("no version for " ^ path) None
        (Xk_index.Index_io.format_version path);
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
        tc "varint signed" `Quick varint_signed;
        tc "varint negative rejected" `Quick varint_negative;
        tc "varint size" `Quick varint_size;
        tc "varint truncated input" `Quick truncated;
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
        tc "u64 overflow rejected" `Quick mmap_u64_overflow;
        tc "map failures are values" `Quick mmap_failures;
        tc "fault seam" `Quick mmap_fault_seam;
      ] );
    ( "storage.v2-fixture",
      [
        tc "committed v2 segment loads" `Quick v2_fixture_loads;
        tc "v2 writer reproduces fixture bytes" `Quick v2_writer_stable;
      ] );
    ( "storage.v4-fixture",
      [
        tc "committed v4 segment loads" `Quick v4_fixture_loads;
        tc "v4 writer reproduces fixture bytes" `Quick v4_writer_stable;
        tc "retired v3 segment rejected once" `Quick v3_segment_retired;
        tc "introspection is total" `Quick introspection_total;
      ] );
  ]
