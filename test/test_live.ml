(* Crash-safe live mutation.

   The load-bearing property: crash the process at ANY durability step
   of a mutation or compaction, reopen the directory, and the recovered
   store is some per-operation prefix of the batch — never a torn state
   — with top-K answers bit-identical to a from-scratch engine over the
   surviving documents.  Around it: WAL framing and torn-tail healing,
   delta semantics, snapshot isolation under concurrent mutation, and
   compaction durability. *)

open Xk_index
module Chaos = Xk_resilience.Chaos
module Engine = Xk_core.Engine
module Shard_exec = Xk_exec.Shard_exec
module Query_service = Xk_exec.Query_service

let check = Alcotest.check
let tc = Alcotest.test_case

let with_tmpdir f =
  let dir = Filename.temp_file "xk_live" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Live.error_message e)

let wal_ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Wal.error_message e)

(* Subtrees that exercise both node kinds, drawn from the random-tree
   generator's documents. *)
let subtree_pool seed =
  let doc = Tutil.random_doc seed in
  match doc.root.children with
  | [] -> [ Xk_xml.Xml_tree.elem "item" [ Xk_xml.Xml_tree.text "kw0 kw1" ] ]
  | cs -> cs

let nth_subtree pool i = List.nth pool (i mod List.length pool)

(* Round-trip a subtree the way the WAL codec does (print, then parse
   keeping whitespace): what the store itself holds after a mutation,
   hence what recovery reconstructs. *)
let canon (node : Xk_xml.Xml_tree.node) =
  match node with
  | Text _ -> node
  | Element e -> (
      match
        Xk_xml.Xml_parser.parse_string ~keep_ws:true
          (Xk_xml.Xml_print.element_to_string e)
      with
      | Ok d -> Element d.root
      | Error err -> Alcotest.failf "subtree does not round-trip: %s" err.message)

(* --- WAL framing ------------------------------------------------------ *)

let wal_ops =
  [
    Wal.Insert
      {
        doc_id = 0;
        subtree = Xk_xml.Xml_tree.elem "a" [ Xk_xml.Xml_tree.text "kw0" ];
      };
    Wal.Insert { doc_id = 1; subtree = Xk_xml.Xml_tree.Text "kw1 kw2" };
    Wal.Delete { doc_id = 0 };
    Wal.Insert
      {
        doc_id = 2;
        subtree =
          Xk_xml.Xml_tree.elem "b"
            ~attrs:[ Xk_xml.Xml_tree.attr "x" "kw3" ]
            [ Xk_xml.Xml_tree.elem "c" []; Xk_xml.Xml_tree.text "kw0" ];
      };
  ]

let op_equal a b =
  match (a, b) with
  | Wal.Delete { doc_id = x }, Wal.Delete { doc_id = y } -> x = y
  | Wal.Insert { doc_id = x; subtree = sx }, Wal.Insert { doc_id = y; subtree = sy }
    ->
      x = y
      && Xk_xml.Xml_tree.equal
           { root = Xk_xml.Xml_tree.element "r" [ sx ] }
           { root = Xk_xml.Xml_tree.element "r" [ sy ] }
  | _ -> false

let op_of_entry : Wal.entry -> Wal.op = function
  | Put d -> Insert { doc_id = d.doc_id; subtree = d.subtree }
  | Drop d -> Delete { doc_id = d.doc_id }

let entry_of_op op =
  match Wal.canonical op with
  | Ok e -> e
  | Error m -> Alcotest.failf "operation does not encode: %s" m

let wal_roundtrip () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = wal_ok "create" (Wal.create ~fsync:false ~base_lsn:7 path) in
      List.iter
        (fun op -> ignore (wal_ok "append" (Wal.append w op)))
        wal_ops;
      check Alcotest.int "lsn after appends" 11 (Wal.lsn w);
      Wal.close w;
      let w, records = wal_ok "reopen" (Wal.open_existing ~fsync:false path) in
      check Alcotest.int "base lsn" 7 (Wal.base_lsn w);
      check Alcotest.int "records" (List.length wal_ops) (List.length records);
      List.iteri
        (fun i (r : Wal.record) ->
          check Alcotest.int "lsn sequence" (8 + i) r.lsn;
          if not (op_equal (List.nth wal_ops i) (op_of_entry r.entry)) then
            Alcotest.failf "record %d does not round-trip" i)
        records;
      Wal.close w)

let file_size path = (Unix.stat path).Unix.st_size

let wal_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = wal_ok "create" (Wal.create ~fsync:false ~base_lsn:0 path) in
      List.iter (fun op -> ignore (wal_ok "append" (Wal.append w op))) wal_ops;
      Wal.close w;
      let intact = file_size path in
      (* Simulate a crash mid-append: a dangling half record. *)
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      output_string oc "\xf3\x01\x9a";
      close_out oc;
      let w, records = wal_ok "heal" (Wal.open_existing ~fsync:false path) in
      check Alcotest.int "all intact records survive" (List.length wal_ops)
        (List.length records);
      check Alcotest.int "torn tail truncated away" intact (file_size path);
      (* The healed log accepts appends again. *)
      ignore (wal_ok "append after heal" (Wal.append w (Wal.Delete { doc_id = 9 })));
      Wal.close w;
      let _, records = wal_ok "reopen" (Wal.open_existing ~fsync:false path) in
      check Alcotest.int "post-heal append recovered" (List.length wal_ops + 1)
        (List.length records))

let wal_truncated_payload () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = wal_ok "create" (Wal.create ~fsync:false ~base_lsn:0 path) in
      List.iter (fun op -> ignore (wal_ok "append" (Wal.append w op))) wal_ops;
      Wal.close w;
      (* Chop the final record mid-payload. *)
      Unix.truncate path (file_size path - 2);
      let _, records = wal_ok "heal" (Wal.open_existing ~fsync:false path) in
      check Alcotest.int "final record dropped" (List.length wal_ops - 1)
        (List.length records))

let wal_midfile_corruption () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = wal_ok "create" (Wal.create ~fsync:false ~base_lsn:0 path) in
      List.iter (fun op -> ignore (wal_ok "append" (Wal.append w op))) wal_ops;
      Wal.close w;
      (* Flip a byte in the middle of the file: an EARLY record's payload.
         That is bit rot, not a torn write - it must NOT be healed. *)
      let data = In_channel.with_open_bin path In_channel.input_all in
      let pos = 14 in
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc b);
      match Wal.open_existing ~fsync:false path with
      | Error (Wal.Corrupted _) -> ()
      | Error (Wal.Io m) -> Alcotest.failf "expected Corrupted, got Io %s" m
      | Ok _ -> Alcotest.fail "mid-file corruption slipped through recovery")

let wal_bad_magic () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "NOTAWAL0\x01\x00");
      match Wal.open_existing ~fsync:false path with
      | Error (Wal.Corrupted _) -> ()
      | _ -> Alcotest.fail "bad magic accepted")

(* A log written before subtrees dropped their XML declaration: header
   (base LSN 0), an insert of [<a x="kw3">kw0<c/></a>] whose payload
   carries the 39-byte [<?xml ...?>] line, a text insert and a delete. *)
let prolog_wal =
  "XKWAL001\x01\x00A\xe4\xf3\xfd\xcb\x04\x01\x00\x00=<?xml version=\"1.0\" \
   encoding=\"UTF-8\"?>\n\
   <a x=\"kw3\">kw0<c/></a>\x0b\xd6\xb2\xee\xbd\x01\x01\x01\x01\x07kw1 \
   kw2\x02\xfd\xe0\xbd\x9f\x07\x02\x00"

let wal_reads_prolog_records () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      Out_channel.with_open_bin path (fun oc -> output_string oc prolog_wal);
      let w, records = wal_ok "open" (Wal.open_existing ~fsync:false path) in
      Wal.close w;
      let expected =
        [
          Wal.Insert
            {
              doc_id = 0;
              subtree =
                Xk_xml.Xml_tree.elem "a"
                  ~attrs:[ Xk_xml.Xml_tree.attr "x" "kw3" ]
                  [ Xk_xml.Xml_tree.text "kw0"; Xk_xml.Xml_tree.elem "c" [] ];
            };
          Wal.Insert { doc_id = 1; subtree = Xk_xml.Xml_tree.Text "kw1 kw2" };
          Wal.Delete { doc_id = 0 };
        ]
      in
      check Alcotest.int "records" 3 (List.length records);
      List.iter2
        (fun op (r : Wal.record) ->
          if not (op_equal op (op_of_entry r.entry)) then
            Alcotest.failf "record %d does not decode as written" r.lsn)
        expected records;
      check Alcotest.int "nothing healed away" (String.length prolog_wal)
        (file_size path);
      (* what this codec writes for the same subtree has no declaration *)
      let buf = Buffer.create 64 in
      (match List.hd expected with
      | Wal.Insert { subtree; _ } -> Wal.encode_subtree buf subtree
      | Wal.Delete _ -> ());
      check Alcotest.string "encoded subtree" "\000\022<a x=\"kw3\">kw0<c/></a>"
        (Buffer.contents buf))

(* [Wal.canonical] keeps a subtree that reads back and encodes it once;
   any other subtree normalizes exactly as the codec round trip does,
   and its record carries the normalized tree's encoding. *)
let wal_canonical_paths () =
  let payload_of op =
    match entry_of_op op with
    | Put d -> d.payload
    | Drop d -> d.payload
  in
  let encoded node =
    let buf = Buffer.create 64 in
    Wal.encode_subtree buf node;
    "\001\005" ^ Buffer.contents buf
  in
  let good = Xk_xml.Xml_tree.elem "a" ~attrs:[ Xk_xml.Xml_tree.attr "k" "<&\"" ]
      [ Xk_xml.Xml_tree.text "x & y" ] in
  (match entry_of_op (Wal.Insert { doc_id = 5; subtree = good }) with
  | Put d ->
      check Alcotest.bool "subtree kept as it is" true (d.subtree == good);
      check Alcotest.string "payload" (encoded good) d.payload
  | Drop _ -> Alcotest.fail "insert became a delete");
  let odd =
    Xk_xml.Xml_tree.elem "ab\n" [ Xk_xml.Xml_tree.text "x"; Xk_xml.Xml_tree.text "y" ]
  in
  let normal = Xk_xml.Xml_tree.elem "ab" [ Xk_xml.Xml_tree.text "xy" ] in
  let e = entry_of_op (Wal.Insert { doc_id = 5; subtree = odd }) in
  check Alcotest.bool "normalized as the round trip does" true
    (op_equal (Wal.Insert { doc_id = 5; subtree = canon odd }) (op_of_entry e));
  check Alcotest.bool "to tag ab with one text" true
    (op_equal (Wal.Insert { doc_id = 5; subtree = normal }) (op_of_entry e));
  check Alcotest.string "payload encodes the normalized tree" (encoded normal)
    (payload_of (Wal.Insert { doc_id = 5; subtree = odd }));
  check Alcotest.string "delete payload" "\002\005" (payload_of (Wal.Delete { doc_id = 5 }))

(* --- Delta semantics -------------------------------------------------- *)

let sub = Xk_xml.Xml_tree.elem "d" [ Xk_xml.Xml_tree.text "kw0" ]

let upsert_ids d = List.map (fun (u : Wal.doc) -> u.doc_id) (Delta.upserts d)

let delta_semantics () =
  let d = Delta.empty in
  check Alcotest.bool "empty" true (Delta.is_empty d);
  let d = Delta.apply d (entry_of_op (Wal.Insert { doc_id = 3; subtree = sub })) in
  let d = Delta.apply d (entry_of_op (Wal.Insert { doc_id = 1; subtree = sub })) in
  check (Alcotest.list Alcotest.int) "upserts ascending" [ 1; 3 ]
    (upsert_ids d);
  check Alcotest.int "ops" 2 (Delta.ops d);
  (* delete cancels the pending upsert *)
  let d = Delta.apply d (entry_of_op (Wal.Delete { doc_id = 3 })) in
  check (Alcotest.list Alcotest.int) "upsert dropped" [ 1 ]
    (upsert_ids d);
  check (Alcotest.list Alcotest.int) "delete recorded" [ 3 ] (Delta.deletes d);
  check Alcotest.bool "is_deleted" true (Delta.is_deleted d 3);
  check Alcotest.bool "touches delete" true (Delta.touches d 3);
  check Alcotest.bool "touches upsert" true (Delta.touches d 1);
  check Alcotest.bool "touches other" false (Delta.touches d 2);
  (* re-insert cancels the pending delete *)
  let d = Delta.apply d (entry_of_op (Wal.Insert { doc_id = 3; subtree = sub })) in
  check (Alcotest.list Alcotest.int) "undeleted" [] (Delta.deletes d);
  check (Alcotest.list Alcotest.int) "re-upserted" [ 1; 3 ]
    (upsert_ids d)

(* --- Query helpers ---------------------------------------------------- *)

let queries = [ [ "kw0"; "kw1" ]; [ "kw2" ]; [ "kw0"; "kw2"; "kw3" ] ]

let exec_topk sx words ~k =
  match Shard_exec.exec sx (Engine.topk_request ~k words) with
  | Query_service.Ok hits -> hits
  | o ->
      Alcotest.failf "query [%s] did not complete: %s"
        (String.concat " " words)
        (match o with
        | Query_service.Partial _ -> "Partial"
        | Degraded _ -> "Degraded"
        | Failed { message; _ } -> "Failed: " ^ message
        | Timeout -> "Timeout"
        | Rejected -> "Rejected"
        | Ok _ -> "Ok")

(* Exact equality: the snapshot's sharded answers must be bit-identical
   to the from-scratch engine, ties aside. *)
let same_topk ~(full : Xk_baselines.Hit.t list) (a : Xk_baselines.Hit.t list)
    (b : Xk_baselines.Hit.t list) =
  let scores hs = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) hs in
  scores a = scores b
  && List.for_all
       (fun (h : Xk_baselines.Hit.t) ->
         List.exists
           (fun (f : Xk_baselines.Hit.t) -> f.node = h.node && f.score = h.score)
           full)
       (a @ b)

(* Every query answered through the snapshot's shards must match a
   from-scratch engine built over the snapshot's own document. *)
let check_parity msg snap =
  let engine = Engine.create (Snapshot.document snap) in
  let sx = Shard_exec.create ~domains:2 (Snapshot.sharding snap) in
  Fun.protect
    ~finally:(fun () -> Shard_exec.shutdown sx)
    (fun () ->
      List.iter
        (fun words ->
          let full = Engine.query engine words in
          let expected = Engine.query_topk engine words ~k:4 in
          let actual = exec_topk sx words ~k:4 in
          if not (same_topk ~full expected actual) then
            Alcotest.failf "%s: [%s] expected [%s], got [%s]" msg
              (String.concat " " words)
              (Tutil.pp_hits expected) (Tutil.pp_hits actual))
        queries)

(* --- Live store basics ------------------------------------------------ *)

let live_insert_query () =
  with_tmpdir (fun dir ->
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let pool = subtree_pool 42 in
      let ids =
        ok_exn "mutate"
          (Live.mutate t [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2) ])
      in
      check (Alcotest.list Alcotest.int) "assigned ids" [ 0; 1; 2 ] ids;
      check Alcotest.int "doc count" 3 (Live.doc_count t);
      check Alcotest.int "lsn" 3 (Live.lsn t);
      check_parity "after insert" (Live.snapshot t);
      Live.close t)

let live_replace_remove () =
  with_tmpdir (fun dir ->
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let pool = subtree_pool 43 in
      let _ =
        ok_exn "seed"
          (Live.mutate t
             [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2) ])
      in
      let ids =
        ok_exn "edit"
          (Live.mutate t [ Live.Replace (1, nth_subtree pool 3); Remove 0 ])
      in
      check (Alcotest.list Alcotest.int) "touched ids" [ 1; 0 ] ids;
      check Alcotest.int "doc count after remove" 2 (Live.doc_count t);
      let snap = Live.snapshot t in
      check
        (Alcotest.list Alcotest.int)
        "surviving ids" [ 1; 2 ]
        (Array.to_list (Snapshot.doc_ids snap));
      check_parity "after edit" snap;
      (* Unknown ids are typed errors, rejected before any WAL write. *)
      let lsn = Live.lsn t in
      (match Live.mutate t [ Live.Replace (0, nth_subtree pool 0) ] with
      | Error (Live.Unknown_doc 0) -> ()
      | _ -> Alcotest.fail "replace of removed doc accepted");
      (match Live.mutate t [ Live.Remove 77 ] with
      | Error (Live.Unknown_doc 77) -> ()
      | _ -> Alcotest.fail "remove of unknown doc accepted");
      check Alcotest.int "failed batches leave no WAL records" lsn (Live.lsn t);
      Live.close t)

let live_reopen () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 44 in
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let _ =
        ok_exn "seed"
          (Live.mutate t
             [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2); Add (nth_subtree pool 3) ])
      in
      let _ = ok_exn "edit" (Live.mutate t [ Live.Remove 2 ]) in
      let before = Snapshot.document (Live.snapshot t) in
      Live.close t;
      let t = ok_exn "reopen" (Live.open_ ~fsync:false dir) in
      check Alcotest.bool "content survives reopen" true
        (Xk_xml.Xml_tree.equal before (Snapshot.document (Live.snapshot t)));
      check Alcotest.int "lsn survives" 5 (Live.lsn t);
      (* New inserts never reuse ids: next_doc recovered from the WAL. *)
      let ids = ok_exn "insert" (Live.mutate t [ Live.Add (nth_subtree pool 4) ]) in
      check (Alcotest.list Alcotest.int) "fresh id" [ 4 ] ids;
      check_parity "after reopen" (Live.snapshot t);
      Live.close t)

let live_create_refuses_existing () =
  with_tmpdir (fun dir ->
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      Live.close t;
      match Live.create ~fsync:false ~root_tag:"lib" dir with
      | Error (Live.Io _) -> ()
      | _ -> Alcotest.fail "second create clobbered a live store")

(* --- Compaction ------------------------------------------------------- *)

let live_compact () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 45 in
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let _ =
        ok_exn "seed"
          (Live.mutate t
             [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2) ])
      in
      let before = Snapshot.document (Live.snapshot t) in
      ok_exn "compact" (Live.compact t);
      check Alcotest.int "delta drained" 0 (Live.pending_ops t);
      check (Alcotest.list Alcotest.int) "one sealed gen" [ 1 ] (Live.sealed_gens t);
      (* Sealed generations are written in the zero-copy v9 format, so a
         reopen goes through the mmap path. *)
      check
        Alcotest.(option string)
        "sealed segment is v9" (Some Index_io.magic)
        (Tutil.magic_of (Filename.concat dir "seg-0001.idx"));
      check Alcotest.bool "content unchanged" true
        (Xk_xml.Xml_tree.equal before (Snapshot.document (Live.snapshot t)));
      (* Compacting a quiescent store is a no-op. *)
      ok_exn "idempotent" (Live.compact t);
      check (Alcotest.list Alcotest.int) "still one gen" [ 1 ] (Live.sealed_gens t);
      (* Dirty the sealed generation, compact again: the old generation's
         files are rewritten and unlinked. *)
      let _ =
        ok_exn "edit" (Live.mutate t [ Live.Remove 1; Add (nth_subtree pool 3) ])
      in
      ok_exn "recompact" (Live.compact t);
      check (Alcotest.list Alcotest.int) "rewritten gen" [ 2 ] (Live.sealed_gens t);
      check Alcotest.bool "old segment unlinked" false
        (Sys.file_exists (Filename.concat dir "seg-0001.docs"));
      check_parity "after recompact" (Live.snapshot t);
      Live.close t;
      (* The compacted store reopens with an empty WAL and full content. *)
      let t = ok_exn "reopen" (Live.open_ ~fsync:false dir) in
      check Alcotest.int "no replay needed" 0 (Live.pending_ops t);
      check
        (Alcotest.list Alcotest.int)
        "ids preserved" [ 0; 2; 3 ]
        (Array.to_list (Snapshot.doc_ids (Live.snapshot t)));
      check_parity "after reopen of compacted" (Live.snapshot t);
      Live.close t)

(* A sealed [.idx] that fails verification is re-sealed once, at open,
   from its [.docs]: the file is a valid v9 segment again and every
   later snapshot loads it instead of rebuilding it. *)
let live_reseal_damaged_index () =
  List.iter
    (fun damage ->
      with_tmpdir (fun dir ->
          let pool = subtree_pool 48 in
          let t = ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir) in
          let _ =
            ok_exn "seed"
              (Live.mutate t
                 [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2) ])
          in
          ok_exn "compact" (Live.compact t);
          Live.close t;
          let idx = Filename.concat dir "seg-0001.idx" in
          let data = In_channel.with_open_bin idx In_channel.input_all in
          Out_channel.with_open_bin idx (fun oc -> output_string oc (damage data));
          check Alcotest.bool "damaged segment fails verify" true
            (Result.is_error (Index_io.verify ~backoff_ms:0. idx));
          let t = ok_exn "reopen" (Live.open_ ~fsync:false dir) in
          check Alcotest.(option string) "resealed as v9" (Some Index_io.magic)
            (Tutil.magic_of idx);
          check Alcotest.bool "resealed segment verifies" true
            (Result.is_ok (Index_io.verify idx));
          check Alcotest.int "reopened snapshot loads it" 0 (Snapshot.rebuilt (Live.snapshot t));
          let _ = ok_exn "add" (Live.mutate t [ Live.Add (nth_subtree pool 3) ]) in
          check Alcotest.int "later snapshot loads it" 0 (Snapshot.rebuilt (Live.snapshot t));
          check_parity "after reseal" (Live.snapshot t);
          Live.close t))
    [
      (* a flipped byte mid-file *)
      (fun data ->
        let b = Bytes.of_string data in
        let mid = Bytes.length b / 2 in
        Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x5a));
        Bytes.to_string b);
      (* segments of the retired v2, v4, v5, v6, v7 and v8 formats *)
      (fun data -> "XKIDX002" ^ String.sub data 8 (String.length data - 8));
      (fun data -> "XKIDX004" ^ String.sub data 8 (String.length data - 8));
      (fun data -> "XKIDX005" ^ String.sub data 8 (String.length data - 8));
      (fun data -> "XKIDX006" ^ String.sub data 8 (String.length data - 8));
      (fun data -> "XKIDX007" ^ String.sub data 8 (String.length data - 8));
      (fun data -> "XKIDX008" ^ String.sub data 8 (String.length data - 8));
    ]

let live_auto_compact () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 46 in
      let t =
        ok_exn "create"
          (Live.create ~fsync:false ~auto_compact:2 ~root_tag:"lib" dir)
      in
      let _ = ok_exn "one" (Live.mutate t [ Live.Add (nth_subtree pool 0) ]) in
      check Alcotest.int "below threshold" 1 (Live.pending_ops t);
      let _ = ok_exn "two" (Live.mutate t [ Live.Add (nth_subtree pool 1) ]) in
      check Alcotest.int "auto-compacted" 0 (Live.pending_ops t);
      check Alcotest.bool "sealed" true (Live.sealed_gens t <> []);
      Live.close t)

(* Group commit: a batch of any size costs the WAL one fsync (nothing
   else in a batch below the auto-compaction threshold syncs). *)
let live_group_commit_fsync () =
  List.iter
    (fun n ->
      with_tmpdir (fun dir ->
          let pool = subtree_pool 50 in
          let t = ok_exn "create" (Live.create ~root_tag:"lib" dir) in
          let before = Xk_storage.Durable.fsyncs () in
          let _ =
            ok_exn "batch"
              (Live.mutate t (List.init n (fun i -> Live.Add (nth_subtree pool i))))
          in
          check Alcotest.int
            (Printf.sprintf "fsyncs of a %d-op batch" n)
            1
            (Xk_storage.Durable.fsyncs () - before);
          check Alcotest.int "lsn" n (Live.lsn t);
          Live.close t))
    [ 2; 3; 8 ]

(* A batch that reaches the threshold compacts before it publishes: the
   one snapshot it publishes serves the new generation from its saved
   segment (an empty delta shard plus one shard per generation), with
   answers identical to a from-scratch engine. *)
let live_compact_before_publish () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 51 in
      let t =
        ok_exn "create"
          (Live.create ~fsync:false ~auto_compact:3 ~root_tag:"lib" dir)
      in
      let _ =
        ok_exn "batch"
          (Live.mutate t (List.init 4 (fun i -> Live.Add (nth_subtree pool i))))
      in
      check Alcotest.int "compacted" 0 (Live.pending_ops t);
      check (Alcotest.list Alcotest.int) "one sealed gen" [ 1 ] (Live.sealed_gens t);
      let snap = Live.snapshot t in
      check Alcotest.int "delta shard plus the sealed one" 2
        (Sharding.count (Snapshot.sharding snap));
      check Alcotest.int "no rebuild" 0 (Snapshot.rebuilt snap);
      check Alcotest.int "lsn" 4 (Snapshot.lsn snap);
      check_parity "published from the sealed segment" snap;
      (* a batch that dirties the generation folds it into the next *)
      let _ =
        ok_exn "edit"
          (Live.mutate t
             [ Live.Replace (1, nth_subtree pool 5); Remove 2; Add (nth_subtree pool 6) ])
      in
      check (Alcotest.list Alcotest.int) "rewritten gen" [ 2 ] (Live.sealed_gens t);
      check Alcotest.int "shards" 2 (Sharding.count (Snapshot.sharding (Live.snapshot t)));
      check_parity "after the dirty generation is folded" (Live.snapshot t);
      Live.close t)

(* A compaction that fails inside [mutate] leaves the batch published
   from the uncompacted state and returns the compaction's error. *)
let live_failed_auto_compact () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 52 in
      let t =
        ok_exn "create"
          (Live.create ~fsync:false ~auto_compact:2 ~root_tag:"lib" dir)
      in
      (* a directory where the new generation's temp file must go *)
      let blocker = Filename.concat dir "seg-0001.docs.tmp" in
      Sys.mkdir blocker 0o700;
      Fun.protect
        ~finally:(fun () -> Sys.rmdir blocker)
        (fun () ->
          match
            Live.mutate t [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1) ]
          with
          | Error (Live.Io _) -> ()
          | Ok _ -> Alcotest.fail "compaction into a blocked path succeeded"
          | Error e -> Alcotest.failf "unexpected error: %s" (Live.error_message e));
      check Alcotest.int "batch published" 2 (Live.doc_count t);
      check Alcotest.int "lsn" 2 (Live.lsn t);
      check Alcotest.int "delta kept" 2 (Live.pending_ops t);
      check (Alcotest.list Alcotest.int) "nothing sealed" [] (Live.sealed_gens t);
      check_parity "uncompacted state" (Live.snapshot t);
      ok_exn "compact once unblocked" (Live.compact t);
      check (Alcotest.list Alcotest.int) "sealed" [ 1 ] (Live.sealed_gens t);
      Live.close t)

(* --- Snapshot isolation ----------------------------------------------- *)

let snapshot_isolation () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 47 in
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let _ =
        ok_exn "seed"
          (Live.mutate t
             [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2) ])
      in
      let pinned = Live.snapshot t in
      let engine = Engine.create (Snapshot.document pinned) in
      let sx = Shard_exec.create ~domains:2 (Snapshot.sharding pinned) in
      Fun.protect
        ~finally:(fun () -> Shard_exec.shutdown sx)
        (fun () ->
          let baseline =
            List.map (fun words -> exec_topk sx words ~k:4) queries
          in
          (* Mutate and compact underneath the pinned snapshot. *)
          let _ =
            ok_exn "mutate under reader"
              (Live.mutate t [ Live.Remove 0; Add (nth_subtree pool 3) ])
          in
          ok_exn "compact under reader" (Live.compact t);
          let _ =
            ok_exn "mutate again" (Live.mutate t [ Live.Remove 1 ])
          in
          (* The pinned snapshot still answers exactly as before. *)
          List.iter2
            (fun words before ->
              let after = exec_topk sx words ~k:4 in
              let full = Engine.query engine words in
              if not (same_topk ~full before after) then
                Alcotest.failf "pinned snapshot moved under reader: [%s]"
                  (String.concat " " words))
            queries baseline;
          (* While the current snapshot reflects the edits. *)
          check
            (Alcotest.list Alcotest.int)
            "current snapshot moved on" [ 2; 3 ]
            (Array.to_list (Snapshot.doc_ids (Live.snapshot t))));
      check_parity "current snapshot" (Live.snapshot t);
      Live.close t)

let concurrent_reads_during_mutation () =
  with_tmpdir (fun dir ->
      let pool = subtree_pool 48 in
      let t =
        ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir)
      in
      let _ =
        ok_exn "seed"
          (Live.mutate t
             [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2); Add (nth_subtree pool 3) ])
      in
      let stop = Atomic.make false in
      let failures = Atomic.make 0 in
      let reader =
        Domain.spawn (fun () ->
            (* Pin one snapshot per iteration; its answers must be
               internally consistent no matter what the writer does. *)
            while not (Atomic.get stop) do
              let snap = Live.snapshot t in
              let engine = Engine.create (Snapshot.document snap) in
              let sx = Shard_exec.create ~domains:1 (Snapshot.sharding snap) in
              Fun.protect
                ~finally:(fun () -> Shard_exec.shutdown sx)
                (fun () ->
                  let words = List.hd queries in
                  let full = Engine.query engine words in
                  let expected = Engine.query_topk engine words ~k:3 in
                  let actual = exec_topk sx words ~k:3 in
                  if not (same_topk ~full expected actual) then
                    Atomic.incr failures)
            done)
      in
      let finish () =
        Atomic.set stop true;
        Domain.join reader
      in
      Fun.protect ~finally:finish (fun () ->
          let live = ref [ 0; 1; 2; 3 ] in
          for i = 4 to 18 do
            if i mod 3 = 0 then begin
              match !live with
              | id :: rest ->
                  live := rest;
                  ignore (ok_exn "writer remove" (Live.mutate t [ Live.Remove id ]))
              | [] -> ()
            end
            else begin
              let ids =
                ok_exn "writer add" (Live.mutate t [ Live.Add (nth_subtree pool i) ])
              in
              live := !live @ ids
            end;
            if i mod 5 = 0 then ok_exn "writer compact" (Live.compact t)
          done);
      check Alcotest.int "no inconsistent read" 0 (Atomic.get failures);
      check_parity "final state" (Live.snapshot t);
      Live.close t)

(* --- Crash-point recovery drills -------------------------------------- *)

(* The model: the store's logical content as a sorted (id, subtree)
   assoc, advanced one operation at a time.  Because every operation is
   individually WAL-framed and fsynced, a crash anywhere in a batch must
   recover to the content after some per-operation PREFIX of it. *)
let model_apply (docs, next) mut =
  match mut with
  | Live.Add subtree ->
      ( List.sort (fun (a, _) (b, _) -> Int.compare a b)
          ((next, canon subtree) :: docs),
        next + 1 )
  | Live.Replace (id, subtree) ->
      ( List.map (fun (i, s) -> if i = id then (i, canon subtree) else (i, s)) docs,
        next )
  | Live.Remove id -> (List.filter (fun (i, _) -> i <> id) docs, next)

let model_doc docs =
  {
    Xk_xml.Xml_tree.root =
      Xk_xml.Xml_tree.element "lib" (List.map snd docs);
  }

let rec prefixes = function [] -> [ [] ] | x :: rest -> [] :: List.map (fun p -> x :: p) (prefixes rest)

(* Drive one drill: arm [step], run a mutation batch then a compaction
   (catching the simulated crash), reopen, and check the recovered
   content is a per-operation prefix state with bit-identical answers. *)
let run_drill ~dir ~pool ~seed_muts ~drill_muts ~step =
  let t = ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir) in
  let state0 =
    List.fold_left model_apply ([], 0) seed_muts
  in
  let _ = ok_exn "seed" (Live.mutate t seed_muts) in
  ok_exn "seed compact" (Live.compact t);
  (* a pending delta on top of the sealed generation *)
  let pre_muts = [ Live.Add (nth_subtree pool 9) ] in
  let state_pre = List.fold_left model_apply state0 pre_muts in
  let _ = ok_exn "pre" (Live.mutate t pre_muts) in
  Chaos.install [ Chaos.Crash { step } ];
  let crashed = ref false in
  Fun.protect
    ~finally:(fun () -> Chaos.clear ())
    (fun () ->
      (match Live.mutate t drill_muts with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "drilled mutate: %s" (Live.error_message e)
      | exception Chaos.Crashed s ->
          crashed := true;
          check Alcotest.string "crashed at the armed step" step s);
      (if not !crashed then
         match Live.compact t with
         | Ok () -> ()
         | Error e ->
             Alcotest.failf "drilled compact: %s" (Live.error_message e)
         | exception Chaos.Crashed s ->
             crashed := true;
             check Alcotest.string "crashed at the armed step" step s);
      if !crashed then
        check Alcotest.int "crash point fired once" 1
          (Chaos.counters ()).crashes);
  Live.close t;
  (* "Reboot": recovery must land on a per-operation prefix state. *)
  let t = ok_exn "recover" (Live.open_ ~fsync:false dir) in
  let recovered = Snapshot.document (Live.snapshot t) in
  let candidates =
    List.map
      (fun prefix -> List.fold_left model_apply state_pre prefix)
      (prefixes drill_muts)
  in
  let matching =
    List.filter
      (fun (docs, _) -> Xk_xml.Xml_tree.equal (model_doc docs) recovered)
      candidates
  in
  (if matching = [] then
     let ids =
       String.concat ";"
         (List.map string_of_int
            (Array.to_list (Snapshot.doc_ids (Live.snapshot t))))
     in
     Alcotest.failf
       "crash@%s: recovered state (ids %s) is not a prefix state (crashed=%b)"
       step ids !crashed);
  (* Post-crash top-K answers are bit-identical to a from-scratch engine
     over the surviving documents. *)
  check_parity (Printf.sprintf "crash@%s recovery" step) (Live.snapshot t);
  (* And the recovered store still accepts mutations. *)
  let _ = ok_exn "mutate after recovery" (Live.mutate t [ Live.Add (nth_subtree pool 10) ]) in
  check_parity (Printf.sprintf "crash@%s post-recovery mutate" step)
    (Live.snapshot t);
  Live.close t

let drill_steps () =
  let pool = subtree_pool 49 in
  let seed_muts =
    [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1); Add (nth_subtree pool 2); Add (nth_subtree pool 3) ]
  in
  let drill_muts =
    [ Live.Add (nth_subtree pool 4); Live.Replace (1, nth_subtree pool 5); Live.Remove 0 ]
  in
  List.iter
    (fun step ->
      with_tmpdir (fun dir ->
          run_drill ~dir ~pool ~seed_muts ~drill_muts ~step))
    Live.crash_steps

(* Group commit decides which prefix a WAL crash leaves: the batch's
   records are written whole, except that [wal-append] tears the last,
   and one fsync follows them.  So a crash either side of the fsync
   recovers the whole 3-op batch, and a torn write drops only its last
   operation. *)
let group_commit_crashes () =
  let pool = subtree_pool 53 in
  let seed_muts = [ Live.Add (nth_subtree pool 0); Add (nth_subtree pool 1) ] in
  let batch =
    [ Live.Add (nth_subtree pool 2); Replace (0, nth_subtree pool 3); Remove 1 ]
  in
  let state_after k =
    List.fold_left model_apply (List.fold_left model_apply ([], 0) seed_muts)
      (List.filteri (fun i _ -> i < k) batch)
  in
  List.iter
    (fun (step, kept) ->
      with_tmpdir (fun dir ->
          let t = ok_exn "create" (Live.create ~fsync:false ~root_tag:"lib" dir) in
          let _ = ok_exn "seed" (Live.mutate t seed_muts) in
          Chaos.install [ Chaos.Crash { step } ];
          Fun.protect ~finally:Chaos.clear (fun () ->
              match Live.mutate t batch with
              | exception Chaos.Crashed s -> check Alcotest.string "crash step" step s
              | Ok _ | Error _ -> Alcotest.failf "crash@%s did not fire" step);
          Live.close t;
          let t = ok_exn "recover" (Live.open_ ~fsync:false dir) in
          check Alcotest.int
            (Printf.sprintf "crash@%s: recovered lsn" step)
            (List.length seed_muts + kept) (Live.lsn t);
          let docs, _ = state_after kept in
          check Alcotest.bool
            (Printf.sprintf "crash@%s: recovered content" step)
            true
            (Xk_xml.Xml_tree.equal (model_doc docs) (Snapshot.document (Live.snapshot t)));
          check_parity (Printf.sprintf "crash@%s recovery" step) (Live.snapshot t);
          Live.close t))
    [ ("wal-append", 2); ("wal-pre-fsync", 3); ("wal-post-fsync", 3) ]

(* Randomized: any batch, any crash point, same invariant. *)
let crash_recovery_prop =
  QCheck.Test.make ~count:30 ~name:"recovery at any crash point is consistent"
    QCheck.(triple (int_bound 1_000_000) (int_bound 1_000_000) small_nat)
    (fun (seed, opseed, stepi) ->
      let pool = subtree_pool seed in
      let step =
        List.nth Live.crash_steps (stepi mod List.length Live.crash_steps)
      in
      let rng = Xk_datagen.Rng.create opseed in
      let seed_count = 2 + Xk_datagen.Rng.int rng 4 in
      let seed_muts =
        List.init seed_count (fun i -> Live.Add (nth_subtree pool i))
      in
      (* Random drilled batch over ids [0, seed_count+1): some will be
         invalid targets, so sanitize against the model's live set. *)
      let live = ref (List.init seed_count Fun.id) in
      let next = ref (seed_count + 1) (* the pre-batch Add takes seed_count *) in
      let drill_muts =
        List.filter_map
          (fun _ ->
            match Xk_datagen.Rng.int rng 3 with
            | 0 ->
                let id = !next in
                incr next;
                live := id :: !live;
                Some (Live.Add (nth_subtree pool (Xk_datagen.Rng.int rng 20)))
            | 1 -> (
                match !live with
                | [] -> None
                | l ->
                    let id = List.nth l (Xk_datagen.Rng.int rng (List.length l)) in
                    Some (Live.Replace (id, nth_subtree pool (Xk_datagen.Rng.int rng 20))))
            | _ -> (
                match !live with
                | [] -> None
                | l ->
                    let id = List.nth l (Xk_datagen.Rng.int rng (List.length l)) in
                    live := List.filter (( <> ) id) !live;
                    Some (Live.Remove id)))
          (List.init (1 + Xk_datagen.Rng.int rng 3) Fun.id)
      in
      with_tmpdir (fun dir ->
          run_drill ~dir ~pool ~seed_muts ~drill_muts ~step);
      true)

(* --- Store bytes ------------------------------------------------------ *)

(* Every file of a store built from a fixed mutation history, pinned by
   MD5: the WAL records, the [.docs] entries, the saved segments and the
   manifests must not move when the encoding path changes.  The history
   covers adds, a replace and removes, compactions of a clean and of a
   dirty generation, and a reopen that replays WAL records and reloads
   the [.docs] before the last compaction, which rewrites documents of
   all three origins: a batch, a replayed record and a loaded [.docs]. *)
let pinned_subtrees =
  let open Xk_xml.Xml_tree in
  [|
    elem "book"
      ~attrs:[ attr "id" "b1"; attr "note" "a<b & \"c\" > 'd'" ]
      [ elem "title" [ text "xml keyword search" ]; elem "year" [ text "2010" ] ];
    elem "article"
      [ text "mixed "; elem "em" [ text "top-k" ]; text " content & <escapes>\n\t" ];
    Text "a bare text document <&>";
    elem "empty" [];
    elem "book"
      [ elem "title" [ text "join based elca" ]; elem "author" [ text "chen" ] ];
    elem "inproceedings" ~attrs:[ attr "key" "conf/icde/x10" ]
      [ elem "title" [ text "top-k keyword search in xml databases" ];
        elem "author" [ text "chen papakonstantinou" ] ];
    elem "note" [ text "caf\xc3\xa9 na\xc3\xafve r\xc3\xa9sum\xc3\xa9" ];
    elem "www" [ elem "url" [ text "http://example.org/?a=1&b=2" ] ];
  |]

let store_digests dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, Digest.to_hex (Digest.file (Filename.concat dir f))))

let pinned_store_history dir =
  let sub = pinned_subtrees in
  let t =
    ok_exn "create"
      (Live.create ~fsync:false ~root_tag:"library"
         ~root_attrs:[ Xk_xml.Xml_tree.attr "name" "pinned" ]
         dir)
  in
  let _ =
    ok_exn "adds"
      (Live.mutate t (List.map (fun i -> Live.Add sub.(i)) [ 0; 1; 2; 3; 4 ]))
  in
  ok_exn "compact clean" (Live.compact t);
  let _ = ok_exn "more adds" (Live.mutate t [ Live.Add sub.(5); Add sub.(6) ]) in
  ok_exn "compact next" (Live.compact t);
  let _ =
    ok_exn "edits" (Live.mutate t [ Live.Replace (1, sub.(7)); Remove 3; Add sub.(2) ])
  in
  let mid = store_digests dir in
  Live.close t;
  let t = ok_exn "reopen" (Live.open_ ~fsync:false dir) in
  let _ = ok_exn "remove sealed" (Live.mutate t [ Live.Remove 0 ]) in
  ok_exn "compact after reopen" (Live.compact t);
  let _ = ok_exn "tail" (Live.mutate t [ Live.Add sub.(4) ]) in
  Live.close t;
  (mid, store_digests dir)

(* Measured on the store code that printed every subtree for the WAL
   and again for each [.docs] file; the [.idx] digests are those of the
   v9 segment. *)
let pinned_mid =
  [
    ("live.manifest", "7197f2fe0b013a43bd35bf19b2914890");
    ("seg-0001.docs", "8d12f6f73db440974acc1da8e05486b0");
    ("seg-0001.idx", "83ef61e1c10cc6f14ca532fc00cab867");
    ("seg-0002.docs", "127af2783a4d956a54298c7bbf298b4d");
    ("seg-0002.idx", "d22e8d3986f8caa1fb0363512c84138d");
    ("wal.log", "3608eaca66fc8f14e489d73803b79f37");
  ]

let pinned_final =
  [
    ("live.manifest", "a46f4b26561f6d515174134b59fb1cf6");
    ("seg-0002.docs", "127af2783a4d956a54298c7bbf298b4d");
    ("seg-0002.idx", "d22e8d3986f8caa1fb0363512c84138d");
    ("seg-0003.docs", "b7fa40361d196809c4c475ba41cd4b64");
    ("seg-0003.idx", "aac378cee59a6759fc705a391e3a639a");
    ("wal.log", "9e3be06bdecc632f2b1a3c94644f0e83");
  ]

let store_bytes_pinned () =
  with_tmpdir (fun dir ->
      let mid, final = pinned_store_history dir in
      let digests = Alcotest.(list (pair string string)) in
      check digests "files before the reopen" pinned_mid mid;
      check digests "files at the end" pinned_final final)

let suite =
  [
    ( "live.wal",
      [
        tc "append/reopen round-trip" `Quick wal_roundtrip;
        tc "torn tail is healed" `Quick wal_torn_tail;
        tc "truncated payload is healed" `Quick wal_truncated_payload;
        tc "mid-file corruption is reported" `Quick wal_midfile_corruption;
        tc "bad magic is reported" `Quick wal_bad_magic;
        tc "records with an XML declaration decode" `Quick
          wal_reads_prolog_records;
        tc "canonical keeps or normalizes" `Quick wal_canonical_paths;
      ] );
    ("live.delta", [ tc "upsert/delete algebra" `Quick delta_semantics ]);
    ( "live.store",
      [
        tc "insert and query" `Quick live_insert_query;
        tc "replace and remove" `Quick live_replace_remove;
        tc "reopen recovers WAL" `Quick live_reopen;
        tc "create refuses existing store" `Quick live_create_refuses_existing;
        tc "compaction" `Quick live_compact;
        tc "damaged sealed segment resealed at open" `Quick live_reseal_damaged_index;
        tc "auto-compaction" `Quick live_auto_compact;
        tc "one WAL fsync per batch" `Quick live_group_commit_fsync;
        tc "auto-compaction publishes the sealed segment" `Quick
          live_compact_before_publish;
        tc "failed auto-compaction publishes the batch" `Quick
          live_failed_auto_compact;
        tc "store bytes pinned" `Quick store_bytes_pinned;
      ] );
    ( "live.snapshot",
      [
        tc "pinned snapshots are isolated" `Quick snapshot_isolation;
        tc "concurrent reads during mutation" `Slow
          concurrent_reads_during_mutation;
      ] );
    ( "live.crash",
      [
        tc "drill every crash step" `Slow drill_steps;
        tc "group commit crash prefixes" `Quick group_commit_crashes;
        QCheck_alcotest.to_alcotest crash_recovery_prop;
      ] );
  ]
