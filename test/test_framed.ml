(* The shared frame codec ([Xk_storage.Framed]): its verdicts, the
   fixed inputs that once raised or decoded to a value no encoder
   writes, one never-raise property over every framed decoder (the
   durable files, the segment and the RPC frames with their [Wire]
   payloads), and fault drills for the durable reads that go through
   the mapped read path ([Index_io.read_mapped]), where [Chaos] injects
   storage faults. *)

module Framed = Xk_storage.Framed
module Varint = Xk_storage.Varint
module Chaos = Xk_resilience.Chaos
module Wal = Xk_index.Wal
module Live = Xk_index.Live
module Index_io = Xk_index.Index_io
module Shard_io = Xk_index.Shard_io
module Repair = Xk_index.Repair
module Frame = Xk_rpc.Frame
module Wire = Xk_rpc.Wire
module Engine = Xk_core.Engine
module Tree = Xk_xml.Xml_tree

let check = Alcotest.check
let tc = Alcotest.test_case

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "xk_framed" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let varint n =
  let b = Buffer.create 10 in
  Varint.write b n;
  Buffer.contents b

let str s = varint (String.length s) ^ s

(* Run [f] under these fault classes, then restore the environment's. *)
let with_faults faults f =
  Fun.protect ~finally:Chaos.reset (fun () ->
      Chaos.configure faults;
      f ())

let drill_faults = { Chaos.no_faults with io_failures = 1; corrupt_reads = 1 }

(* --- Codec ------------------------------------------------------------ *)

let verdict =
  Alcotest.testable
    (fun ppf (r : (Framed.span, Framed.error) result) ->
      match r with
      | Ok { pos; len } -> Format.fprintf ppf "Ok {pos=%d; len=%d}" pos len
      | Error e -> Format.pp_print_string ppf (Framed.error_message e))
    ( = )

let codec_verdicts () =
  let magic = "XKTEST01" and version = 3 in
  let file = Framed.file ~magic ~version "payload" in
  let body = String.length file - 7 in
  let verdict_of data = Framed.check ~magic ~version data in
  check verdict "round trip" (Ok { pos = body; len = 7 }) (verdict_of file);
  check verdict "short input" (Error Short_input) (verdict_of "XKTE");
  check verdict "bad magic" (Error (Bad_magic "XKTEST02"))
    (verdict_of (Framed.file ~magic:"XKTEST02" ~version "payload"));
  check verdict "bad version" (Error (Bad_version 4))
    (verdict_of (Framed.file ~magic ~version:4 "payload"));
  check verdict "header cut short" (Error Header_cut) (verdict_of magic);
  check verdict "short payload"
    (Error (Short_payload { have = 6; want = 7 }))
    (verdict_of (String.sub file 0 (String.length file - 1)));
  check verdict "trailing bytes" (Error (Trailing 1)) (verdict_of (file ^ "x"));
  let flipped = Bytes.of_string file in
  Bytes.set flipped body 'P';
  check verdict "checksum mismatch"
    (Error (Crc_mismatch { pos = body; len = 7 }))
    (verdict_of (Bytes.to_string flipped));
  (* Record streams: frames back to back, each checked on its own. *)
  let stream = Framed.record "abc" ^ Framed.record "" ^ Framed.record "de" in
  let rec payloads pos =
    if pos = String.length stream then []
    else
      match Framed.read_record stream ~pos with
      | Ok { pos; len } -> String.sub stream pos len :: payloads (pos + len)
      | Error e -> Alcotest.failf "record at %d: %s" pos (Framed.error_message e)
  in
  check Alcotest.(list string) "records" [ "abc"; ""; "de" ] (payloads 0);
  (* A length no crash-torn prefix can hold: negative, or a tenth byte. *)
  let negative = String.make 8 '\xff' ^ "\x7f\x00xyz" in
  check verdict "negative length" (Error Bad_varint)
    (Framed.read_record negative ~pos:0);
  check verdict "ten-byte length" (Error Bad_varint)
    (Framed.read_record (String.make 9 '\x80' ^ "\x01\x00") ~pos:0);
  check verdict "torn length" (Error Header_cut)
    (Framed.read_record (String.make 8 '\x80') ~pos:0);
  Alcotest.check_raises "read stops at nine bytes"
    (Varint.Malformed "varint overflows") (fun () ->
      ignore (Varint.read (Varint.cursor (String.make 9 '\x80' ^ "\x01"))))

(* --- Fixed inputs that once raised ------------------------------------ *)

(* A WAL record length of eight 0xFF bytes and one 0x7F decodes to -1. *)
let wal_negative_length =
  "XKWAL001" ^ varint 1 ^ varint 0 ^ String.make 8 '\xff' ^ "\x7f" ^ varint 0
  ^ "xyz"

(* CRC-valid manifest and v2 segment payloads with a 2^40 count.  The v2
   inputs here and below once raised or loaded; the v2 format is retired
   now, so each is refused by its magic before its payload is read. *)
let huge = 1 lsl 40

let manifest_huge_count =
  Framed.file ~magic:"XKSHM003" ~version:3 (varint 1 ^ varint huge ^ varint 0)

let v2_huge_rows =
  Framed.file ~magic:"XKIDX002" ~version:2
    (varint 2 ^ varint 1 ^ str "a" ^ varint huge ^ varint 0)

(* A CRC-valid v2 segment whose every tf is 0: a query on its term once
   raised in the scorer. *)
let v2_zero_tf =
  Framed.file ~magic:"XKIDX002" ~version:2
    (varint 2 ^ varint 1 ^ str "a" ^ varint 2 ^ varint 0 ^ varint 1 ^ varint 0
   ^ varint 0)

let two_node_doc = { Tree.root = Tree.element "r" [ Tree.elem "a" [] ] }

(* Two CRC-valid v2 payloads over a five-node document that no encoder
   writes: the term "xml" listed twice (rows at nodes 2 and 4), and one
   "xml" list whose node-id gaps are 2, 0, 0.  Both once loaded: the
   first as two term ids with one dictionary entry, the second with node
   2 counted three times toward df. *)
let v2_duplicate_term =
  Framed.file ~magic:"XKIDX002" ~version:2
    (varint 5 ^ varint 2
    ^ str "xml" ^ varint 1 ^ varint 2 ^ varint 1
    ^ str "xml" ^ varint 1 ^ varint 4 ^ varint 1)

let v2_zero_gap =
  Framed.file ~magic:"XKIDX002" ~version:2
    (varint 5 ^ varint 1 ^ str "xml" ^ varint 3 ^ varint 2 ^ varint 0 ^ varint 0
   ^ varint 1 ^ varint 1 ^ varint 1)

(* Query payloads with a varint no encoder writes: a 12-byte shard
   number, and a 9-byte tick budget with bit 62 set.  Both once decoded
   to -1. *)
let query =
  {
    Wire.q_shard = 0;
    q_words = [ "xml" ];
    q_semantics = Engine.Elca;
    q_mode = Engine.Topk (Topk_join, 10);
    q_deadline_ms = None;
    q_ticks = None;
  }

let query_long_shard =
  let q = Wire.encode_query query in
  String.make 11 '\xff' ^ "\x7f" ^ String.sub q 1 (String.length q - 1)

let query_negative_ticks =
  let q = Wire.encode_query query in
  String.sub q 0 (String.length q - 1) ^ "\x01" ^ String.make 8 '\xff' ^ "\x7f"

let fixed_wal_negative_length () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      write_file path wal_negative_length;
      (match Wal.open_existing ~fsync:false path with
      | Error (Wal.Corrupted _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Wal.error_message e)
      | Ok _ -> Alcotest.fail "a negative record length was accepted");
      check Alcotest.string "not truncated as a torn tail" wal_negative_length
        (read_file path);
      (* The same log behind a live store. *)
      let store = Filename.concat dir "store" in
      (match Live.create ~fsync:false ~root_tag:"lib" store with
      | Ok st -> Live.close st
      | Error e -> Alcotest.failf "create: %s" (Live.error_message e));
      write_file (Filename.concat store "wal.log") wal_negative_length;
      match Live.open_ ~fsync:false store with
      | Error (Live.Corrupt _) -> ()
      | Error e -> Alcotest.failf "wrong error: %s" (Live.error_message e)
      | Ok _ -> Alcotest.fail "live store opened over a corrupt log")

let fatal_corruption what = function
  | Error (Shard_io.Manifest { error = Corrupted _; attempts = 1 }) -> ()
  | Error e -> Alcotest.failf "%s: wrong error %s" what (Shard_io.error_message e)
  | Ok _ -> Alcotest.failf "%s: accepted" what

(* Fault-free maps: one attempt shows the error is fatal, not retried. *)
let fixed_manifest_huge_count () =
  with_faults Chaos.no_faults @@ fun () ->
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "huge.shards" in
      write_file path manifest_huge_count;
      fatal_corruption "replica_files" (Shard_io.replica_files path);
      fatal_corruption "endpoints" (Shard_io.endpoints path);
      fatal_corruption "partition_spec" (Shard_io.partition_spec path);
      fatal_corruption "load_result" (Shard_io.load_result two_node_doc path))

(* Refused as retired on the first attempt, by the loader and the
   verifier, whatever the payload. *)
let rejects_v2 data () = Test_storage.segment_retired ~version:2 data

let fixed_query_varints () =
  let malformed what data =
    match Wire.decode_query data with
    | Error (Frame.Malformed _) -> ()
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Frame.error_message e)
    | Ok q ->
        Alcotest.failf "%s: decoded (shard %d, ticks %s)" what q.q_shard
          (Option.fold ~none:"none" ~some:string_of_int q.q_ticks)
  in
  malformed "12-byte shard" query_long_shard;
  malformed "9-byte negative ticks" query_negative_ticks

(* --- Damaged term regions --------------------------------------------- *)

(* Twenty words sharing prefixes: two front-coding blocks of the term
   region ("kw0", "kw1", "kw10" .. "kw19", "kw2" .. "kw9"). *)
let terms_doc =
  {
    Tree.root =
      Tree.element "lib"
        (List.init 20 (fun i -> Tree.elem "w" [ Tree.text (Printf.sprintf "kw%d" i) ]));
  }

let terms_doc_words =
  List.sort compare (List.init 20 (Printf.sprintf "kw%d"))

(* Term regions behind valid checksums that no writer produces, each
   named by the check it must fail: front-coding damage under the
   writer's own symbol table ([Tutil.term_region] is the format's
   encoder), and symbol tables no writer produces
   ([Tutil.damaged_symbol_tables]). *)
let damaged_term_regions good =
  let w = terms_doc_words in
  let syms = Tutil.symbols_of (Tutil.term_region_of good) in
  let term_region = Tutil.term_region ~syms in
  let entry ~shared suffix = Tutil.spec_entry ~shared (Tutil.spec_codes syms suffix) in
  let with_term_region = Tutil.with_term_region in
  let swap i j = List.mapi (fun k t -> if k = i then List.nth w j else if k = j then List.nth w i else t) w in
  let dup i = List.mapi (fun k t -> if k = i then List.nth w (i - 1) else t) w in
  [
    ( "one-byte entry sharing more than the previous term",
      with_term_region good
        (term_region w ~entry:(fun k e ->
             if k = 1 then entry ~shared:(String.length (List.nth w 0) + 1) "x" else e)) );
    ( "restart sharing a prefix",
      with_term_region good
        (term_region w ~entry:(fun k e -> if k = 16 then entry ~shared:1 "w17" else e)) );
    ("unsorted terms", with_term_region good (term_region (swap 3 4)));
    ("duplicate term", with_term_region good (term_region (dup 5)));
    ("duplicate restart term", with_term_region good (term_region (dup 16)));
    ( "entry past the region",
      with_term_region good
        (term_region w ~entry:(fun k e -> if k = 19 then "\x0f" ^ varint 85 ^ "x" else e)) );
    ( "restart table off its entry",
      with_term_region good
        (term_region w ~table:(List.mapi (fun i o -> if i > 0 then o + 1 else o))) );
    ("restart table shorter than the term count", with_term_region ~term_count:15 good (term_region w));
    ("restart table longer than the term count", with_term_region ~term_count:17 good (term_region w));
  ]
  @ List.map (fun (what, region) -> (what, with_term_region good region)) (Tutil.damaged_symbol_tables w)

let terms_segment dir =
  let path = Filename.concat dir "terms.seg" in
  Index_io.save (Xk_index.Index.build (Xk_encoding.Labeling.label terms_doc)) path;
  path

(* Each damaged region is refused as corruption of the term region on
   the first attempt, by the loader and the verifier alike; the
   undamaged region, re-encoded, still loads. *)
let damaged_term_regions_corrupted () =
  with_faults Chaos.no_faults @@ fun () ->
  with_tmpdir (fun dir ->
      let path = terms_segment dir in
      let good = read_file path in
      let label = Xk_encoding.Labeling.label terms_doc in
      let syms = Tutil.symbols_of (Tutil.term_region_of good) in
      check Alcotest.bool "the spec encoder writes the writer's bytes" true
        (Tutil.with_term_region good (Tutil.term_region ~syms terms_doc_words) = good);
      List.iter
        (fun (what, data) ->
          write_file path data;
          let is_term_corruption = function
            | Error { Index_io.error = Corrupted msg; attempts = 1 } ->
                String.starts_with ~prefix:"term region: " msg
            | Error _ | Ok _ -> false
          in
          check Alcotest.bool (what ^ ": load") true
            (is_term_corruption (Result.map ignore (Index_io.load_result ~retries:0 label path)));
          check Alcotest.bool (what ^ ": verify") true
            (is_term_corruption (Index_io.verify ~retries:0 path)))
        (damaged_term_regions good))

(* --- Never raise ------------------------------------------------------ *)

let small_doc =
  {
    Tree.root =
      Tree.element "lib"
        [
          Tree.elem "book" [ Tree.text "xml keyword search" ];
          Tree.elem "book" [ Tree.text "top k ranking" ];
          Tree.elem "book" [ Tree.text "xml ranking" ];
        ];
  }

let live_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Live.error_message e)

(* A live store with one sealed generation and two unsealed records,
   kept tiny: a decoder that rejects an input re-reads it first, so
   every rejected prefix costs the retry backoff.  Returns its files by
   name. *)
let live_fixture dir =
  let st = live_ok "create" (Live.create ~fsync:false ~root_tag:"l" dir) in
  let book words = Tree.elem "b" [ Tree.text words ] in
  ignore (live_ok "add" (Live.mutate st [ Live.Add (book "x") ]));
  live_ok "compact" (Live.compact st);
  ignore
    (live_ok "mutate" (Live.mutate st [ Live.Add (book "y"); Live.Remove 0 ]));
  Live.close st;
  Array.to_list (Sys.readdir dir)
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let restore dir files =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  List.iter (fun (f, data) -> write_file (Filename.concat dir f) data) files

(* One decoder under fuzz: the file it reads, its intact bytes, a way to
   re-frame a mutated payload with a valid CRC, and the run itself. *)
type target = {
  name : string;
  good : string;
  reframe : (string -> string) -> string;
  extra : string list; (* fixed cases, e.g. the inputs that once raised *)
  run : string -> unit; (* write the input, decode it; may only raise a bug *)
}

let whole_file ~magic ~version good mutate =
  match Framed.check ~magic ~version good with
  | Ok { pos; len } -> Framed.file ~magic ~version (mutate (String.sub good pos len))
  | Error e -> Alcotest.failf "fixture %s: %s" magic (Framed.error_message e)

(* A WAL: header, then records; one record's payload is mutated. *)
let wal_reframe rng good mutate =
  match Framed.header ~magic:"XKWAL001" ~version:1 good with
  | Error e -> Alcotest.failf "fixture wal: %s" (Framed.error_message e)
  | Ok pos ->
      let c = Varint.cursor_at good pos in
      ignore (Varint.read c);
      let rec records pos =
        if pos = String.length good then []
        else
          match Framed.read_record good ~pos with
          | Ok s -> String.sub good s.pos s.len :: records (s.pos + s.len)
          | Error e -> Alcotest.failf "fixture wal: %s" (Framed.error_message e)
      in
      let rs = records c.pos in
      let k = Random.State.int rng (List.length rs) in
      String.sub good 0 c.pos
      ^ String.concat ""
          (List.mapi (fun i r -> Framed.record (if i = k then mutate r else r)) rs)

let mutate rng payload =
  let n = String.length payload in
  match Random.State.int rng 4 with
  | 0 when n > 0 -> String.sub payload 0 (Random.State.int rng n)
  | 1 -> payload ^ String.make 1 (Char.chr (Random.State.int rng 256))
  | _ when n > 0 ->
      let b = Bytes.of_string payload in
      Bytes.set b (Random.State.int rng n) (Char.chr (Random.State.int rng 256));
      Bytes.to_string b
  | _ -> "\x00"

(* Random damage: bit flips, garbage behind the magic, payload mutations
   re-framed with a valid CRC (so the payload decoders are reached), and
   the target's fixed cases. *)
let random_inputs rng t =
  let n = String.length t.good in
  let flip () =
    let b = Bytes.of_string t.good in
    let i = Random.State.int rng n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int rng 8)));
    Bytes.to_string b
  in
  let garbage () =
    String.sub t.good 0 (min 8 n)
    ^ String.init (Random.State.int rng 48) (fun _ ->
          Char.chr (Random.State.int rng 256))
  in
  List.init 8 (fun _ -> flip ())
  @ List.init 4 (fun _ -> garbage ())
  @ List.init 8 (fun _ -> t.reframe (mutate rng))
  @ t.extra

(* A segment with one postings block: a mutated term region,
   postings region or directory tail is re-sealed by recomputing the
   block CRC and length, the region lengths, the terms and directory
   CRCs and the header CRC, so the damage reaches the structural checks
   behind them. *)
let reseal rng good mutate =
  let u64 pos = Int64.to_int (String.get_int64_le good pos) in
  let terms_len = u64 36 and postings_len = u64 44 and dir_len = u64 52 in
  if u64 20 > 64 then Alcotest.fail "fixture segment: more than one block";
  let region off len = String.sub good off len in
  let terms = region 80 terms_len in
  let postings = region (80 + terms_len) postings_len in
  let dir = region (80 + terms_len + postings_len) dir_len in
  let terms, postings, entries =
    let c = Xk_storage.Varint.cursor_at dir 4 in
    ignore (Xk_storage.Varint.read c);
    let entries = String.sub dir c.pos (dir_len - c.pos) in
    match Random.State.int rng 3 with
    | 0 -> (mutate terms, postings, entries)
    | 1 -> (terms, mutate postings, entries)
    | _ -> (terms, postings, mutate entries)
  in
  let le32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  let dir =
    let b = Buffer.create (String.length entries + 8) in
    Buffer.add_string b (le32 (Xk_storage.Crc32.string postings));
    Xk_storage.Varint.write b (String.length postings);
    Buffer.contents b ^ entries
  in
  let h = Bytes.of_string (String.sub good 0 80) in
  Bytes.set_int64_le h 36 (Int64.of_int (String.length terms));
  Bytes.set_int64_le h 44 (Int64.of_int (String.length postings));
  Bytes.set_int64_le h 52 (Int64.of_int (String.length dir));
  Bytes.set_int32_le h 68 (Int32.of_int (Xk_storage.Crc32.string terms));
  Bytes.set_int32_le h 72 (Int32.of_int (Xk_storage.Crc32.string dir));
  Bytes.set_int32_le h 76
    (Int32.of_int (Xk_storage.Crc32.sub (Bytes.to_string h) ~pos:0 ~len:76));
  Bytes.to_string h ^ terms ^ postings ^ dir

(* A segment that loads must also verify, and answer a query on each of
   its terms: a value the decoders let through must be one the engine
   can serve. *)
let serve_segment label path =
  match Index_io.load_result ~retries:0 ~verify_columns:true label path with
  | Error _ -> ()
  | Ok idx ->
      (match Index_io.verify ~retries:0 path with
      | Ok () -> ()
      | Error e ->
          failwith ("loads but fails verify: " ^ Index_io.load_error_message e));
      let e = Engine.of_index idx in
      for id = 0 to Xk_index.Index.term_count idx - 1 do
        let words = [ Xk_index.Index.term idx id ] in
        ignore (Engine.query e words);
        ignore (Engine.query_topk e words ~k:3)
      done

(* An RPC frame around a [Wire] payload: the frame decoder, then the
   payload decoder on what it accepts. *)
let rpc_target name kind payload ~decode ~extra =
  {
    name;
    good = Frame.encode kind payload;
    reframe = (fun mutate -> Frame.encode kind (mutate payload));
    extra = List.map (Frame.encode kind) extra;
    run =
      (fun data ->
        match Frame.decode data with
        | Ok (_, p) -> decode p
        | Error _ -> ());
  }

let targets rng dir =
  let live = Filename.concat dir "live" in
  Sys.mkdir live 0o700;
  let files = live_fixture live in
  let live_target name ~magic =
    {
      name;
      good = List.assoc name files;
      reframe = whole_file ~magic ~version:1 (List.assoc name files);
      extra = [];
      run =
        (fun data ->
          restore live files;
          write_file (Filename.concat live name) data;
          match Live.open_ ~fsync:false live with
          | Ok st -> Live.close st
          | Error _ -> ());
    }
  in
  let wal = Filename.concat dir "wal.log" in
  let shards = Filename.concat dir "c.shards" in
  let sharded = Xk_index.Sharding.partition ~shards:2 small_doc in
  Shard_io.save ~endpoints:[| [| ("localhost", 7001) |]; [| ("h", 2) |] |] sharded
    shards;
  (* The retired v1 and v2 manifest layouts: no endpoints, and v1 no
     replica lists either, but only the magic is read. *)
  let retired_payload =
    let a = Xk_index.Sharding.assignment sharded in
    varint 2 ^ varint (Array.length a)
    ^ String.concat "" (Array.to_list (Array.map varint a))
    ^ varint 1 ^ str "c.shards.000.seg" ^ varint 1 ^ str "c.shards.001.seg"
  in
  let seg = terms_segment dir in
  let label = Xk_encoding.Labeling.label terms_doc in
  let reply =
    Wire.Served
      {
        s_summary =
          Some
            {
              rs_best_all = [| 1.5; infinity |];
              rs_best_free = [| 0.5 |];
              rs_full_subtree = true;
            };
        s_outcome =
          Done [ { node = 3; score = 2.5 }; { node = 7; score = 1.0 } ];
        s_bound = neg_infinity;
      }
  in
  [
    {
      name = "wal.log";
      good = List.assoc "wal.log" files;
      reframe = wal_reframe rng (List.assoc "wal.log" files);
      extra = [ wal_negative_length ];
      run =
        (fun data ->
          write_file wal data;
          match Wal.open_existing ~fsync:false wal with
          | Ok (w, _) -> Wal.close w
          | Error _ -> ());
    };
    live_target "live.manifest" ~magic:"XKLIV001";
    live_target "seg-0001.docs" ~magic:"XKDOC001";
    {
      name = "v3.shards";
      good = read_file shards;
      reframe = whole_file ~magic:"XKSHM003" ~version:3 (read_file shards);
      extra =
        [
          manifest_huge_count;
          Framed.file ~magic:"XKSHM002" ~version:2 retired_payload;
          Framed.file ~magic:"XKSHM001" ~version:1 retired_payload;
        ];
      run =
        (fun data ->
          write_file shards data;
          ignore (Shard_io.load_result ~retries:0 small_doc shards));
    };
    {
      name = "segment";
      good = read_file seg;
      reframe = reseal rng (read_file seg);
      extra =
        [ v2_huge_rows; v2_zero_tf; v2_duplicate_term; v2_zero_gap ]
        @ List.map snd (damaged_term_regions (read_file seg));
      run =
        (fun data ->
          write_file seg data;
          (match Index_io.load_result ~retries:0 label seg with
          | Ok idx -> (
              try
                for id = 0 to Xk_index.Index.term_count idx - 1 do
                  ignore (Xk_index.Index.raw_rows idx id)
                done
              with Index_io.Segment_fault _ -> ())
          | Error _ -> ());
          serve_segment label seg);
    };
    rpc_target "query frame" Frame.Query (Wire.encode_query query)
      ~extra:[ query_long_shard; query_negative_ticks ]
      ~decode:(fun p -> ignore (Wire.decode_query p));
    rpc_target "reply frame" Frame.Reply (Wire.encode_reply reply) ~extra:[]
      ~decode:(fun p -> ignore (Wire.decode_reply p));
  ]

(* Every framed decoder is total: each input decodes to a value or a
   typed error.  A decoder that rejects an input re-reads it first, so
   the deterministic inputs (every strict prefix) run once, and the
   random ones under the property. *)
let never_raise ~fail rng inputs =
  with_tmpdir (fun dir ->
      with_faults Chaos.no_faults (fun () ->
          List.for_all
            (fun t ->
              List.for_all
                (fun data ->
                  match t.run data with
                  | () -> true
                  | exception e ->
                      fail
                        (Printf.sprintf "%s: %d-byte input raised %s" t.name
                           (String.length data) (Printexc.to_string e)))
                (inputs t))
            (targets rng dir)))

let prefixes_never_raise () =
  check Alcotest.bool "every strict prefix decodes or errs" true
    (never_raise ~fail:Alcotest.fail (Random.State.make [| 2010 |]) (fun t ->
         List.init (String.length t.good) (String.sub t.good 0)))

let never_raises_prop =
  QCheck.Test.make ~count:2 ~name:"framed decoders never raise on damage"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      never_raise
        ~fail:(QCheck.Test.fail_reportf "%s")
        rng (random_inputs rng))

(* --- Drills: the reads that moved onto the mapped path ---------------- *)

(* A torn or failed map of the log is re-read, never mistaken for a torn
   tail: every unsealed record survives and the file is untouched. *)
let drill_wal_reopen () =
  with_tmpdir (fun dir ->
      let n = 5 in
      let st = live_ok "create" (Live.create ~fsync:false ~root_tag:"lib" dir) in
      for i = 1 to n do
        ignore
          (live_ok "add"
             (Live.mutate st
                [ Live.Add (Tree.elem "book" [ Tree.text (Printf.sprintf "w%d" i) ]) ]))
      done;
      Live.close st;
      let wal = Filename.concat dir "wal.log" in
      let before = read_file wal in
      with_faults drill_faults (fun () ->
          let st = live_ok "reopen" (Live.open_ ~fsync:false dir) in
          check Alcotest.int "every unsealed record replayed" n (Live.lsn st);
          check Alcotest.int "every document live" n (Live.doc_count st);
          Live.close st;
          check Alcotest.string "wal.log byte-identical" before (read_file wal);
          (* The log is read through the map: an unmappable one fails. *)
          Chaos.mark_unmappable ~path:wal;
          match Live.open_ ~fsync:false dir with
          | Error (Live.Io _) -> ()
          | Error e -> Alcotest.failf "wrong error: %s" (Live.error_message e)
          | Ok _ -> Alcotest.fail "opened over an unmappable log"))

let drill_live_manifest () =
  with_tmpdir (fun dir ->
      ignore (live_fixture dir);
      with_faults drill_faults (fun () ->
          let expect_corrupt file =
            Chaos.mark_corrupt ~path:(Filename.concat dir file);
            (match Live.open_ ~fsync:false dir with
            | Error (Live.Corrupt _) -> ()
            | Error e -> Alcotest.failf "%s: wrong error %s" file (Live.error_message e)
            | Ok _ -> Alcotest.failf "%s: damaged read accepted" file);
            Chaos.heal ~path:(Filename.concat dir file)
          in
          expect_corrupt "live.manifest";
          expect_corrupt "seg-0001.docs";
          Live.close (live_ok "healed reopen" (Live.open_ ~fsync:false dir))))

let drill_repair_source () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "c.shards" in
      Shard_io.save ~replicas:2 (Xk_index.Sharding.partition ~shards:2 small_doc) path;
      let files =
        match Shard_io.replica_files path with
        | Ok f -> f
        | Error e -> Alcotest.failf "replica_files: %s" (Shard_io.error_message e)
      in
      let src = files.(0).(0) and target = files.(0).(1) in
      let damage () =
        let b = Bytes.of_string (read_file target) in
        let i = Bytes.length b / 2 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5a));
        write_file target (Bytes.to_string b)
      in
      let scrub () =
        match Repair.scrub path with
        | Ok r -> r
        | Error e -> Alcotest.failf "scrub: %s" (Shard_io.error_message e)
      in
      damage ();
      let report = scrub () in
      (* Fresh fault counters: the source's next maps fail, then tear. *)
      with_faults drill_faults (fun () ->
          match (Repair.repair report).outcomes with
          | [ Repair.Repaired { source = From_replica s; _ } ] ->
              check Alcotest.string "copied from the clean replica" src s;
              check Alcotest.string "healed bytes are the source's"
                (read_file src) (read_file target);
              check Alcotest.bool "healed copy verifies clean" true
                (Result.is_ok (Index_io.verify target))
          | os ->
              Alcotest.failf "outcomes: %s"
                (String.concat "; " (List.map Repair.outcome_line os)));
      (* A source whose maps read damaged since the scrub is never
         copied, even though its file is intact. *)
      damage ();
      let report = scrub () in
      let damaged = read_file target in
      with_faults drill_faults (fun () ->
          Chaos.mark_corrupt ~path:src;
          match (Repair.repair report).outcomes with
          | [ Repair.Unrepairable _ ] ->
              check Alcotest.string "target left alone" damaged (read_file target)
          | os ->
              Alcotest.failf "outcomes: %s"
                (String.concat "; " (List.map Repair.outcome_line os))))

let drill_manifest_read () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "c.shards" in
      Shard_io.save (Xk_index.Sharding.partition ~shards:2 small_doc) path;
      with_faults drill_faults (fun () ->
          (match Shard_io.load_result small_doc path with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "load: %s" (Shard_io.error_message e));
          Chaos.mark_unmappable ~path;
          match Shard_io.load_result small_doc path with
          | Error (Shard_io.Manifest _) -> ()
          | Error e ->
              Alcotest.failf "unmappable manifest: wrong error %s"
                (Shard_io.error_message e)
          | Ok _ -> Alcotest.fail "the manifest read bypassed the map"))

let suite =
  [
    ( "framed",
      [
        tc "codec verdicts" `Quick codec_verdicts;
        tc "negative WAL record length" `Quick fixed_wal_negative_length;
        tc "manifest count past the payload" `Quick fixed_manifest_huge_count;
        tc "v2 row count past the payload" `Quick (rejects_v2 v2_huge_rows);
        tc "v2 zero tf" `Quick (rejects_v2 v2_zero_tf);
        tc "v2 duplicate term" `Quick (rejects_v2 v2_duplicate_term);
        tc "v2 node ids not increasing" `Quick (rejects_v2 v2_zero_gap);
        tc "query varints no encoder writes" `Quick fixed_query_varints;
        tc "v8 damaged term regions are corruption" `Quick damaged_term_regions_corrupted;
        tc "every strict prefix never raises" `Quick prefixes_never_raise;
        QCheck_alcotest.to_alcotest never_raises_prop;
      ] );
    ( "framed.drills",
      [
        tc "WAL reopen under torn maps" `Quick drill_wal_reopen;
        tc "damaged live manifest and docs" `Quick drill_live_manifest;
        tc "repair copies only verified bytes" `Quick drill_repair_source;
        tc "manifest read under a transient fault" `Quick drill_manifest_read;
      ] );
  ]
