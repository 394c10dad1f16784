(* Sharded scatter/gather: the partition must be invisible.

   The load-bearing property is exact parity - for any document, any
   shard count and any partitioning, sharded execution returns exactly
   (nodes, bit-identical scores, same order) what the unsharded engine
   returns, for complete ELCA/SLCA and for top-K.  Around it: anytime
   degradation under per-shard tick budgets (a Partial is a true prefix
   of the real top-K), manifest/segment persistence with typed per-shard
   failures, node-numbering round-trips and the root edge cases that make
   cross-shard gathering interesting. *)

open Xk_exec

let check = Alcotest.check
let tc = Alcotest.test_case

let hits_identical (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

let pp_outcome = Query_service.outcome_label

(* Top-K comparison robust to score ties: the gather selects canonical
   ties (score desc, node asc) while the unsharded join's emission order
   at equal scores is an internal artifact — so equality is checked as
   bit-identical score sequences plus true membership of every returned
   node, mirroring Tutil.check_topk but without tolerance. *)
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

(* One engine/sharding pair per trial keeps the property honest: nothing
   is shared between the sharded and unsharded sides but the document. *)
let with_sharded ?assignment ~shards seed f =
  let doc = Tutil.random_doc seed in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ?assignment ~shards doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      f doc engine sx)

(* --- Exact parity --------------------------------------------------- *)

(* Requests paired with how to compare them: complete results are
   node-exact, top-K results are tie-robust against the complete set of
   the same semantics. *)
let requests_of words =
  Xk_core.Engine.
    [
      (complete_request ~semantics:Elca words, `Complete);
      (complete_request ~semantics:Slca words, `Complete);
      (topk_request ~semantics:Elca ~k:1 words, `Topk Elca);
      (topk_request ~semantics:Elca ~k:4 words, `Topk Elca);
      (topk_request ~semantics:Slca ~k:3 words, `Topk Slca);
      (topk_request ~semantics:Elca ~algorithm:Hybrid ~k:3 words, `Topk Elca);
    ]

let check_one engine sx name words (req, kind) =
  let expected = Xk_core.Engine.run_request engine req in
  match Shard_exec.exec sx req with
  | Query_service.Ok actual ->
      let same =
        match kind with
        | `Complete -> hits_identical expected actual
        | `Topk sem ->
            let full =
              Xk_core.Engine.run_request engine
                (Xk_core.Engine.complete_request ~semantics:sem words)
            in
            same_topk ~full expected actual
      in
      if same then Ok ()
      else
        Error
          (Printf.sprintf "%s: expected [%s], got [%s]" name
             (Tutil.pp_hits expected) (Tutil.pp_hits actual))
  | o -> Error (Printf.sprintf "%s: outcome %s" name (pp_outcome o))

(* Raw ints sanitized in-property: QCheck's int shrinker does not respect
   [int_range] bounds, and an out-of-range input turns a counterexample
   report into an [Invalid_argument] crash. *)
let parity_prop =
  QCheck.Test.make ~count:120
    ~name:"sharded scatter/gather = unsharded engine (exact)"
    QCheck.(triple (int_bound 1_000_000) small_nat small_nat)
    (fun (seed, shards_raw, strat) ->
      let shards = 1 + (shards_raw mod 8) in
      (* the default round-robin layout, or a hash of each subtree's
         position and tag *)
      let assignment =
        if strat mod 3 < 2 then None
        else
          let doc = Tutil.random_doc seed in
          Some
            (Array.of_list
               (List.mapi
                  (fun i (c : Xk_xml.Xml_tree.node) ->
                    let tag = match c with Element e -> e.tag | Text _ -> "#text" in
                    Hashtbl.hash (i, tag) mod shards)
                  doc.root.children))
      in
      with_sharded ?assignment ~shards seed (fun _doc engine sx ->
          let rng = Xk_datagen.Rng.create (seed + 7919) in
          List.for_all
            (fun words ->
              List.for_all
                (fun rk ->
                  match
                    check_one engine sx
                      (Printf.sprintf "shards=%d" shards)
                      words rk
                  with
                  | Ok () -> true
                  | Error msg -> QCheck.Test.fail_report msg)
                (requests_of words))
            [
              Tutil.random_query rng ~k:2 ~alphabet:26;
              Tutil.random_query rng ~k:3 ~alphabet:26;
              Tutil.random_query rng ~k:1 ~alphabet:26;
            ]))

(* Explicit random assignments (not just the round-robin default), and the
   batch path. *)
let parity_assignment_prop =
  QCheck.Test.make ~count:60
    ~name:"sharded parity under arbitrary assignments, batched"
    QCheck.(pair (int_bound 1_000_000) small_nat)
    (fun (seed, shards_raw) ->
      let shards = 2 + (shards_raw mod 5) in
      let doc = Tutil.random_doc seed in
      let subtrees = List.length doc.Xk_xml.Xml_tree.root.children in
      QCheck.assume (subtrees > 0);
      let rng = Xk_datagen.Rng.create (seed lxor 0x5f5f) in
      let assignment =
        Array.init subtrees (fun _ -> Xk_datagen.Rng.int rng shards)
      in
      with_sharded ~assignment ~shards seed (fun _doc engine sx ->
          let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
          let rks = requests_of words in
          let outcomes = Shard_exec.exec_batch sx (List.map fst rks) in
          List.for_all2
            (fun (req, kind) o ->
              let expected = Xk_core.Engine.run_request engine req in
              match o with
              | Query_service.Ok a ->
                  let same =
                    match kind with
                    | `Complete -> hits_identical expected a
                    | `Topk sem ->
                        let full =
                          Xk_core.Engine.run_request engine
                            (Xk_core.Engine.complete_request ~semantics:sem
                               words)
                        in
                        same_topk ~full expected a
                  in
                  same
                  || QCheck.Test.fail_reportf "batch mismatch: %s vs %s"
                       (Tutil.pp_hits expected) (Tutil.pp_hits a)
              | o ->
                  QCheck.Test.fail_reportf "batch outcome %s" (pp_outcome o))
            rks outcomes))

(* --- Anytime degradation under per-shard tick budgets ---------------- *)

let partial_prefix_prop =
  QCheck.Test.make ~count:150
    ~name:"per-shard tick budgets: Partial is a prefix of the true top-K"
    QCheck.(quad (int_bound 1_000_000) small_nat (int_bound 400) small_nat)
    (fun (seed, shards_raw, ticks_raw, k_raw) ->
      let shards = 1 + (shards_raw mod 5) in
      let ticks = 1 + abs ticks_raw in
      let k = 1 + (k_raw mod 4) in
      with_sharded ~shards seed (fun _doc engine sx ->
          let rng = Xk_datagen.Rng.create (seed + 13) in
          let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
          let req = Xk_core.Engine.topk_request ~k words in
          let full =
            Xk_core.Engine.run_request engine
              (Xk_core.Engine.complete_request ~semantics:Elca words)
          in
          let truth =
            Xk_core.Engine.(
              query_topk ~semantics:Elca ~algorithm:Topk_join engine words ~k)
          in
          (* Score-sequence prefix + true membership: canonical tie
             selection in the gather may pick different ids than the
             unsharded join's internal emission order. *)
          let is_prefix hs =
            let scores l = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) l in
            scores hs
            = List.filteri (fun i _ -> i < List.length hs) (scores truth)
            && List.for_all
                 (fun (h : Xk_baselines.Hit.t) ->
                   List.exists
                     (fun (f : Xk_baselines.Hit.t) ->
                       f.node = h.node && f.score = h.score)
                     full)
                 hs
          in
          let budget_for _shard = Xk_resilience.Budget.create ~ticks () in
          match Shard_exec.exec ~budget_for sx req with
          | Query_service.Ok hs ->
              same_topk ~full truth hs
              || QCheck.Test.fail_reportf "budgeted Ok differs: %s vs %s"
                   (Tutil.pp_hits truth) (Tutil.pp_hits hs)
          | Query_service.Partial hs ->
              (hs <> [] && is_prefix hs)
              || QCheck.Test.fail_reportf
                   "Partial [%s] is not a prefix of [%s]" (Tutil.pp_hits hs)
                   (Tutil.pp_hits truth)
          | Query_service.Timeout -> true
          | o -> QCheck.Test.fail_reportf "outcome %s" (pp_outcome o)))

(* --- Node numbering -------------------------------------------------- *)

(* [Sharding.root_summary] reads each list's level-2 column; the
   reference groups rows through [ancestor_at] and a table.  Both must
   agree to the bit on every shard, including keywords absent from a
   shard or from the corpus, a keyword that occurs only on the root
   (a root attribute, which shard 0 alone indexes), a case-folded word
   and a repeated word.  A zero-tick budget must expire as soon as a
   keyword has a row in the shard: remote budget propagation relies on
   that poll. *)
let root_summary_prop =
  QCheck.Test.make ~count:150
    ~name:"root_summary = ancestor_at reference (exact)"
    QCheck.(triple (int_bound 1_000_000) small_nat bool)
    (fun (seed, shards_raw, root_attr) ->
      let shards = 1 + (shards_raw mod 4) in
      let doc = Tutil.random_doc seed in
      let doc =
        if root_attr then
          {
            Xk_xml.Xml_tree.root =
              {
                doc.root with
                attrs = [ Xk_xml.Xml_tree.attr "a" "kwroot kw1" ];
              };
          }
        else doc
      in
      let sharded = Xk_index.Sharding.partition ~shards doc in
      let rng = Xk_datagen.Rng.create (seed + 31) in
      let queries =
        [
          [];
          Tutil.random_query rng ~k:1 ~alphabet:6;
          Tutil.random_query rng ~k:2 ~alphabet:6;
          Tutil.random_query rng ~k:3 ~alphabet:6;
          [ "kwroot" ];
          [ "kwroot"; "kw1" ];
          [ "KW0"; "kw2"; "kw0" ];
          [ "kw1"; "kw1" ];
          [ "kw0"; "kw1"; "kw2"; "kw3" ];
        ]
      in
      let bits a = Array.map Int64.bits_of_float a in
      let same (a : Xk_index.Sharding.root_summary)
          (b : Xk_index.Sharding.root_summary) =
        bits a.rs_best_all = bits b.rs_best_all
        && bits a.rs_best_free = bits b.rs_best_free
        && a.rs_full_subtree = b.rs_full_subtree
      in
      List.for_all
        (fun shard ->
          let idx = Xk_index.Sharding.index sharded shard in
          List.for_all
            (fun words ->
              let name =
                Printf.sprintf "shard %d [%s]" shard (String.concat " " words)
              in
              (same
                 (Xk_index.Sharding.root_summary sharded ~shard words)
                 (Tutil.root_summary_reference sharded ~shard words)
              || QCheck.Test.fail_reportf "%s: summaries differ" name)
              &&
              let has_rows =
                List.exists
                  (fun w -> Xk_index.Index.term_id idx w <> None)
                  words
              in
              match
                Xk_index.Sharding.root_summary
                  ~budget:(Xk_resilience.Budget.create ~ticks:0 ())
                  sharded ~shard words
              with
              | exception Xk_resilience.Budget.Expired -> has_rows
              | (_ : Xk_index.Sharding.root_summary) ->
                  (not has_rows)
                  || QCheck.Test.fail_reportf
                       "%s: a zero-tick budget did not expire" name)
            queries)
        (List.init shards Fun.id))

let mapping_roundtrip () =
  List.iter
    (fun (seed, shards) ->
      let doc = Tutil.random_doc seed in
      let sharded = Xk_index.Sharding.partition ~shards doc in
      let total = Xk_index.Sharding.total_nodes sharded in
      check Alcotest.int "total nodes" (Xk_xml.Xml_tree.node_count doc) total;
      check Alcotest.(pair int int) "root locates to shard 0" (0, 0)
        (Xk_index.Sharding.locate sharded 0);
      for g = 1 to total - 1 do
        let shard, local = Xk_index.Sharding.locate sharded g in
        let g' = Xk_index.Sharding.to_global sharded ~shard local in
        if g' <> g then
          Alcotest.failf "node %d -> shard %d/%d -> %d" g shard local g'
      done;
      (match Xk_index.Sharding.locate sharded total with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "locate past the end accepted");
      (* Every shard's numbering covers its index. *)
      for s = 0 to Xk_index.Sharding.count sharded - 1 do
        let idx = Xk_index.Sharding.index sharded s in
        let n =
          Xk_encoding.Labeling.node_count (Xk_index.Index.label idx)
        in
        for local = 1 to n - 1 do
          let g = Xk_index.Sharding.to_global sharded ~shard:s local in
          let s', local' = Xk_index.Sharding.locate sharded g in
          if s' <> s || local' <> local then
            Alcotest.failf "shard %d local %d -> %d -> shard %d local %d" s
              local g s' local'
        done
      done)
    [ (11, 1); (11, 3); (42, 4); (42, 7); (99, 2) ]

(* --- Root edge cases -------------------------------------------------- *)

let doc_of_string s = (Xk_xml.Xml_parser.parse_string_exn s).root

let parity_doc name xml shards assignment words =
  let doc = { Xk_xml.Xml_tree.root = doc_of_string xml } in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ?assignment ~shards doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      List.iter
        (fun rk ->
          match check_one engine sx name words rk with
          | Ok () -> ()
          | Error msg -> Alcotest.fail msg)
        (requests_of words))

let root_edge_cases () =
  (* Keywords split across shards: the root is the only node containing
     both, and the gather must reconstruct it from the summaries. *)
  parity_doc "split keywords"
    "<r><a>apple orchard</a><b>banana grove</b></r>" 2 (Some [| 0; 1 |])
    [ "apple"; "banana" ];
  (* Root attributes carry a keyword: indexed at the root node itself,
     kept by shard 0 only. *)
  parity_doc "root attribute keyword"
    "<r name='apple'><a>banana</a><b>cherry apple</b></r>" 2 (Some [| 1; 1 |])
    [ "apple"; "banana" ];
  (* A keyword-complete subtree forbids the root SLCA but not deep hits. *)
  parity_doc "keyword-complete subtree"
    "<r><a><x>apple</x><y>banana</y></a><b>apple</b></r>" 2 (Some [| 0; 1 |])
    [ "apple"; "banana" ];
  (* More shards than subtrees: trailing shards are empty. *)
  parity_doc "more shards than subtrees" "<r><a>apple banana</a></r>" 5 None
    [ "apple"; "banana" ];
  (* Unknown keyword: empty everywhere. *)
  parity_doc "unknown keyword" "<r><a>apple</a><b>banana</b></r>" 2 None
    [ "apple"; "zeppelin" ];
  (* Duplicate and case-folded query words collapse identically. *)
  parity_doc "case folding and duplicates"
    "<r><a>Apple apple</a><b>APPLE banana</b></r>" 3 None
    [ "Apple"; "apple"; "APPLE"; "banana" ]

(* --- Persistence ------------------------------------------------------ *)

let with_tmpdir f =
  let dir = Filename.temp_file "xk_shard" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let flip_last_byte path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let i = Bytes.length b - 1 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let shard_io_roundtrip () =
  let seed = 2024 in
  let doc = Tutil.random_doc seed in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save sharded path;
      let reloaded =
        match Xk_index.Shard_io.load_result doc path with
        | Ok s -> s
        | Error e -> Alcotest.failf "reload: %s" (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.int "shard count survives" 3
        (Xk_index.Sharding.count reloaded);
      check Alcotest.(array int) "assignment survives"
        (Xk_index.Sharding.assignment sharded)
        (Xk_index.Sharding.assignment reloaded);
      (* Reloaded shards answer exactly like the in-memory ones. *)
      let engine = Xk_core.Engine.create doc in
      let sx = Shard_exec.create ~domains:2 reloaded in
      Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
          let rng = Xk_datagen.Rng.create 5 in
          for _ = 1 to 5 do
            let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
            List.iter
              (fun rk ->
                match check_one engine sx "reloaded" words rk with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg)
              (requests_of words)
          done))

let shard_io_failures () =
  let doc = Tutil.random_doc 77 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save sharded path;
      (* A corrupted shard segment surfaces as a typed per-shard error
         naming the shard - even with fault injection active, because
         media corruption survives every retry. *)
      flip_last_byte (Xk_index.Shard_io.segment_path path ~shard:1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            { shard = 1; failures = [ (_, { error = Corrupted _; _ }) ] }) ->
          ()
      | Error e ->
          Alcotest.failf "corrupt segment: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "corrupt segment loaded");
      (* Restore, then corrupt the manifest itself. *)
      Xk_index.Shard_io.save sharded path;
      flip_last_byte path;
      (match Xk_index.Shard_io.load_result doc path with
      | Error (Xk_index.Shard_io.Manifest _) -> ()
      | Error (Xk_index.Shard_io.Shard _ as e) ->
          Alcotest.failf "corrupt manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "corrupt manifest loaded");
      (* A missing segment is a per-shard failure too. *)
      Xk_index.Shard_io.save sharded path;
      Sys.remove (Xk_index.Shard_io.segment_path path ~shard:2);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            { shard = 2; failures = [ (_, { error = Io_failed _; _ }) ] }) ->
          ()
      | Error e ->
          Alcotest.failf "missing segment: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "missing segment loaded");
      (* Garbage manifest. *)
      let oc = open_out_bin path in
      output_string oc "not a manifest at all";
      close_out oc;
      match Xk_index.Shard_io.load_result doc path with
      | Error (Xk_index.Shard_io.Manifest { error = Corrupted _; _ }) -> ()
      | Error e ->
          Alcotest.failf "garbage manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "garbage manifest loaded")

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Open-path faults of the v8 segment: a torn directory, corrupted mapped postings and
   an injected map failure each surface as the right typed error, and a
   single damaged copy is invisible behind replica fallback. *)
let shard_io_segment_faults () =
  let doc = Tutil.random_doc 909 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let flip_at path pos =
    let ic = open_in_bin path in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xA5));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let layout_of seg =
    match Xk_index.Index_io.layout seg with
    | Ok l -> l
    | Error e ->
        Alcotest.failf "layout %s: %s" seg (Xk_index.Index_io.error_message e)
  in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      let resave () = Xk_index.Shard_io.save ~replicas:2 sharded path in
      resave ();
      let files =
        match Xk_index.Shard_io.replica_files path with
        | Ok files -> files
        | Error e ->
            Alcotest.failf "replica_files: %s"
              (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.(option string) "shard segments are v8"
        (Some Xk_index.Index_io.magic)
        (Tutil.magic_of files.(0).(0));
      (* Torn directory region: the flip defeats the directory checksum.
         One damaged copy falls back to the replica... *)
      flip_at files.(0).(0) (layout_of files.(0).(0)).Xk_index.Segment.dir_off;
      (match
         Xk_index.Shard_io.load_result ~retries:1 ~backoff_ms:0.1 doc path
       with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "torn directory should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      (* ...and with both copies torn the shard is typed corruption. *)
      (let lay1 = layout_of files.(0).(1) in
       flip_at files.(0).(1)
         (lay1.Xk_index.Segment.dir_off + lay1.Xk_index.Segment.dir_len - 1));
      (match
         Xk_index.Shard_io.load_result ~retries:1 ~backoff_ms:0.1 doc path
       with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 0;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "torn directories: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with two torn directories loaded");
      (* Corrupted mapped postings: the lazy open defers the per-term
         checks, so paranoid callers pass [verify_columns] and the damage
         is caught at open time - behind fallback first, then as typed
         corruption once the replica is damaged too. *)
      resave ();
      let lay0 = layout_of files.(0).(0) in
      check Alcotest.bool "shard carries rows" true
        (lay0.Xk_index.Segment.total_rows > 0);
      flip_at files.(0).(0) lay0.Xk_index.Segment.postings_off;
      (match
         Xk_index.Shard_io.load_result ~verify_columns:true ~retries:1
           ~backoff_ms:0.1 doc path
       with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "corrupt postings should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      (let lay1 = layout_of files.(0).(1) in
       flip_at files.(0).(1)
         (lay1.Xk_index.Segment.postings_off
        + lay1.Xk_index.Segment.postings_len - 1));
      (match
         Xk_index.Shard_io.load_result ~verify_columns:true ~retries:1
           ~backoff_ms:0.1 doc path
       with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 0;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "corrupt postings: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "eager verify accepted corrupt postings");
      (* The same damage without [verify_columns] opens fine and trips
         its block's checksum on first decode as a [Segment_fault] -
         the query-time form the executor's failover handles. *)
      let solo = Filename.concat dir "solo.seg" in
      let label = Xk_encoding.Labeling.label doc in
      Xk_index.Index_io.save (Xk_index.Index.build label) solo;
      flip_at solo (layout_of solo).Xk_index.Segment.postings_off;
      (* Pinned fault-free: environment faults would spend both of the
         two attempts on this fresh file before the open is reached. *)
      Xk_resilience.Chaos.configure Xk_resilience.Chaos.no_faults;
      Fun.protect ~finally:Xk_resilience.Chaos.reset (fun () ->
          match Xk_index.Index_io.load_result ~retries:1 label solo with
          | Error e ->
              Alcotest.failf "lazy open should defer postings checks: %s"
                (Xk_index.Index_io.load_error_message e)
          | Ok lazy_idx -> (
              match
                for id = 0 to Xk_index.Index.term_count lazy_idx - 1 do
                  ignore (Xk_index.Index.raw_rows lazy_idx id)
                done
              with
              | () -> Alcotest.fail "corrupt postings decoded without a fault"
              | exception Xk_index.Index_io.Segment_fault _ -> ()));
      (* Injected map failure: the primary cannot be mapped at all; the
         loader classifies it as an IO failure without burning retries
         and serves from the replica. *)
      resave ();
      Fun.protect ~finally:Xk_resilience.Chaos.reset (fun () ->
          Xk_resilience.Chaos.mark_unmappable ~path:files.(1).(0);
          (match Xk_index.Shard_io.load_result doc path with
          | Ok _ -> ()
          | Error e ->
              Alcotest.failf "map failure should fall back: %s"
                (Xk_index.Shard_io.error_message e));
          Xk_resilience.Chaos.mark_unmappable ~path:files.(1).(1);
          match Xk_index.Shard_io.load_result doc path with
          | Error
              (Xk_index.Shard_io.Shard
                {
                  shard = 1;
                  failures =
                    [
                      (_, { error = Io_failed _; attempts = 1 });
                      (_, { error = Io_failed _; attempts = 1 });
                    ];
                }) ->
              ()
          | Error e ->
              Alcotest.failf "unmappable replicas: wrong error %s"
                (Xk_index.Shard_io.error_message e)
          | Ok _ -> Alcotest.fail "unmappable shard loaded"))

(* Replicated segments: save writes N verified copies per shard, the
   loader falls back across them, and a shard is lost only when every
   copy fails. *)
let shard_io_replicas () =
  let doc = Tutil.random_doc 404 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "corpus.shards" in
      Xk_index.Shard_io.save ~replicas:2 sharded path;
      (* The manifest records a [shard][replica] grid and every file in
         it exists; replica 0 is the primary segment path. *)
      let files =
        match Xk_index.Shard_io.replica_files path with
        | Ok files -> files
        | Error e ->
            Alcotest.failf "replica_files: %s"
              (Xk_index.Shard_io.error_message e)
      in
      check Alcotest.int "one replica row per shard" 3 (Array.length files);
      Array.iteri
        (fun s row ->
          check Alcotest.int "two replicas per shard" 2 (Array.length row);
          check Alcotest.string "replica 0 is the primary segment"
            (Xk_index.Shard_io.segment_path path ~shard:s)
            row.(0);
          check Alcotest.string "replica 1 carries the rN infix"
            (Xk_index.Shard_io.replica_path path ~shard:s ~replica:1)
            row.(1);
          Array.iter
            (fun f -> check Alcotest.bool "replica file exists" true
                (Sys.file_exists f))
            row)
        files;
      (* A shard is encoded once: its copies are byte-identical, and
         each verifies on its own. *)
      let path3 = Filename.concat dir "three.shards" in
      Xk_index.Shard_io.save ~replicas:3 sharded path3;
      let read f = In_channel.with_open_bin f In_channel.input_all in
      for s = 0 to 2 do
        let copy r = Xk_index.Shard_io.replica_path path3 ~shard:s ~replica:r in
        List.iter
          (fun r ->
            check Alcotest.bool "replica bytes identical" true (read (copy r) = read (copy 0));
            check Alcotest.bool "replica verifies" true
              (Result.is_ok (Xk_index.Index_io.verify (copy r))))
          [ 0; 1; 2 ]
      done;
      (* Losing one copy is invisible: corrupt the primary of shard 1
         and the loader serves from replica 1. *)
      flip_last_byte files.(1).(0);
      (match Xk_index.Shard_io.load_result doc path with
      | Ok reloaded ->
          check Alcotest.(array int) "fallback load keeps the assignment"
            (Xk_index.Sharding.assignment sharded)
            (Xk_index.Sharding.assignment reloaded)
      | Error e ->
          Alcotest.failf "one corrupt replica should fall back: %s"
            (Xk_index.Shard_io.error_message e));
      (* Losing every copy is a typed per-shard error carrying each
         replica's failure: corrupt the survivor too. *)
      flip_last_byte files.(1).(1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 1;
              failures =
                [ (_, { error = Corrupted _; _ }); (_, { error = Corrupted _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "all replicas corrupt: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with no clean replica loaded");
      (* Removed copies classify as IO failures, one entry per file. *)
      Sys.remove files.(1).(0);
      Sys.remove files.(1).(1);
      (match Xk_index.Shard_io.load_result doc path with
      | Error
          (Xk_index.Shard_io.Shard
            {
              shard = 1;
              failures =
                [ (_, { error = Io_failed _; _ }); (_, { error = Io_failed _; _ }) ];
            }) ->
          ()
      | Error e ->
          Alcotest.failf "all replicas missing: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "shard with no replica files loaded");
      (* A copy that lands damaged surfaces at save time, not at
         failover time: persistent read corruption on one replica path
         defeats the post-save verification no matter the retries. *)
      let path2 = Filename.concat dir "damaged.shards" in
      Xk_resilience.Chaos.mark_corrupt
        ~path:(Xk_index.Shard_io.replica_path path2 ~shard:0 ~replica:1);
      Fun.protect ~finally:Xk_resilience.Chaos.reset (fun () ->
          match Xk_index.Shard_io.save ~replicas:2 sharded path2 with
          | () -> Alcotest.fail "save verified a damaged replica"
          | exception Xk_index.Shard_io.Verify_failed msg ->
              check Alcotest.bool "verify error names the replica" true
                (contains msg ".r1.seg"));
      (* A bare retired v1 magic is typed corruption telling the
         operator to rebuild, not a crash. *)
      let legacy = Filename.concat dir "legacy.shards" in
      let oc = open_out_bin legacy in
      output_string oc "XKSHM001";
      close_out oc;
      match Xk_index.Shard_io.load_result doc legacy with
      | Error (Xk_index.Shard_io.Manifest { error = Corrupted msg; _ }) ->
          check Alcotest.bool "retired error says to rebuild" true
            (contains msg "rebuild")
      | Error e ->
          Alcotest.failf "retired manifest: wrong error %s"
            (Xk_index.Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "retired manifest loaded")

(* --- Retired manifest fixtures ------------------------------------------ *)

(* The refusal of the retired manifest generations, pinned by committed
   bytes, not by round-trips through today's writer.

   [v2_manifest_bytes] is a version-2 manifest (no endpoint records):
   magic "XKSHM002" | version 2 | payload length 53 | payload CRC |
   payload = 2 shards, 3 subtrees, assignment [0; 1; 0], then one
   replica per shard with basenames fixture.shards.00{0,1}.seg. *)
let v2_manifest_bytes =
  "XKSHM002\x025\x9c\xa0\x88\xb9\x0a\x02\x03\x00\x01\x00\x01\x16fixture.shards.000.seg\x01\x16fixture.shards.001.seg"

(* A version-1 manifest: bare magic, then the pre-replica payload shape
   (assignment only). *)
let v1_manifest_bytes = "XKSHM001\x01\x05\x2a\x02\x03\x00\x01\x00"

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let fixture_doc =
  {
    Xk_xml.Xml_tree.root =
      Xk_xml.Xml_tree.element "lib"
        [
          Xk_xml.Xml_tree.elem "a" [ Xk_xml.Xml_tree.text "kw0 kw1" ];
          Xk_xml.Xml_tree.elem "b" [ Xk_xml.Xml_tree.text "kw1 kw2" ];
          Xk_xml.Xml_tree.elem "c" [ Xk_xml.Xml_tree.text "kw0 kw2" ];
        ];
  }

(* Each retired manifest is refused on the first attempt with the
   rebuild hint, though the segments it names are intact. *)
let shard_io_legacy_fixtures () =
  Xk_resilience.Chaos.configure Xk_resilience.Chaos.no_faults;
  Fun.protect ~finally:Xk_resilience.Chaos.reset @@ fun () ->
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "fixture.shards" in
      let sharded =
        Xk_index.Sharding.partition ~shards:2 ~assignment:[| 0; 1; 0 |]
          fixture_doc
      in
      Xk_index.Shard_io.save sharded path;
      List.iter
        (fun (version, bytes) ->
          write_file path bytes;
          match Xk_index.Shard_io.load_result ~backoff_ms:0. fixture_doc path with
          | Error (Xk_index.Shard_io.Manifest { error = Corrupted msg; attempts = 1 }) ->
              check Alcotest.string
                (Printf.sprintf "v%d refused with the rebuild hint" version)
                (Printf.sprintf "retired v%d manifest format; rebuild the index" version)
                msg
          | Error e ->
              Alcotest.failf "committed v%d bytes: wrong error %s" version
                (Xk_index.Shard_io.error_message e)
          | Ok _ -> Alcotest.failf "committed v%d bytes loaded" version)
        [ (1, v1_manifest_bytes); (2, v2_manifest_bytes) ])

(* --- Aggregated stats ------------------------------------------------- *)

let cache_aggregate () =
  let s a b c d e =
    {
      Xk_index.Shard_cache.hits = a;
      misses = b;
      evictions = c;
      entries = d;
      capacity = e;
    }
  in
  let total = Xk_index.Shard_cache.aggregate [ s 1 2 3 4 5; s 10 20 30 40 50 ] in
  check Alcotest.int "hits" 11 total.Xk_index.Shard_cache.hits;
  check Alcotest.int "misses" 22 total.misses;
  check Alcotest.int "evictions" 33 total.evictions;
  check Alcotest.int "entries" 44 total.entries;
  check Alcotest.int "capacity" 55 total.capacity;
  check Alcotest.bool "zero is neutral" true
    (Xk_index.Shard_cache.aggregate [] = Xk_index.Shard_cache.zero_stats);
  (* Live aggregation over a sharded index: querying populates some
     shard's caches, and the aggregate sees it. *)
  let doc = Tutil.random_doc 3 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  let sx = Shard_exec.create ~domains:2 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      (* Query a term that certainly occurs, so some shard materializes a
         list shape and its cache counts a miss. *)
      let word =
        let idx = Xk_index.Sharding.index sharded 0 in
        Xk_index.Index.term idx 0
      in
      ignore (Shard_exec.exec sx (Xk_core.Engine.complete_request [ word ]));
      let stats = Shard_exec.stats sx in
      check Alcotest.int "shards" 3 stats.Shard_exec.shards;
      check Alcotest.int "queries" 1 stats.queries;
      check Alcotest.int "completed" 1 stats.completed;
      if stats.cache.Xk_index.Shard_cache.misses = 0 then
        Alcotest.fail "aggregated cache stats saw no activity");
  (* Size reports aggregate flavour-wise. *)
  let reports = Xk_index.Sharding.size_reports sharded in
  let agg = Xk_index.Sharding.size_report sharded in
  let sum f = Array.fold_left (fun a r -> a + f r) 0 reports in
  check Alcotest.int "join-based inverted lists aggregate"
    (sum (fun r -> r.Xk_index.Index_sizes.join_based.inverted_lists))
    agg.Xk_index.Index_sizes.join_based.inverted_lists;
  check Alcotest.int "rdil auxiliary aggregate"
    (sum (fun r -> r.Xk_index.Index_sizes.rdil.auxiliary))
    agg.Xk_index.Index_sizes.rdil.auxiliary

(* --- Admission control ------------------------------------------------ *)

(* One request is admitted and its shard jobs are held (its [budget_for]
   waits for a release) while a burst of 19 more is submitted, so the
   burst meets a full queue whatever the scheduling: every one of them
   is rejected, and the held request is served once released. *)
let admission () =
  let doc = Tutil.random_doc 21 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let sx = Shard_exec.create ~domains:2 ~max_queue:1 sharded in
  Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () ->
      let rng = Xk_datagen.Rng.create 4 in
      let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
      let entered = Atomic.make false and released = Atomic.make false in
      let held () =
        Atomic.set entered true;
        while not (Atomic.get released) do
          Unix.sleepf 0.001
        done;
        Xk_resilience.Budget.unlimited
      in
      let first =
        Domain.spawn (fun () ->
            Shard_exec.exec ~budget_for:(fun _ -> held ()) sx
              (Xk_core.Engine.complete_request words))
      in
      while not (Atomic.get entered) do
        Unix.sleepf 0.001
      done;
      let reqs =
        List.init 19 (fun _ -> Xk_core.Engine.complete_request words)
      in
      let burst = Shard_exec.exec_batch sx reqs in
      Atomic.set released true;
      let outcomes = Domain.join first :: burst in
      let rejected =
        List.length
          (List.filter (fun o -> o = Query_service.Rejected) outcomes)
      in
      let okd =
        List.length
          (List.filter
             (fun o -> match o with Query_service.Ok _ -> true | _ -> false)
             outcomes)
      in
      if rejected = 0 then
        Alcotest.fail "max_queue=1 never rejected a 20-request burst";
      if okd = 0 then Alcotest.fail "admission starved every request";
      check Alcotest.int "every request behind the held one rejected" 19 rejected;
      let stats = Shard_exec.stats sx in
      check Alcotest.int "rejections counted" rejected stats.Shard_exec.rejected;
      (* The service recovered: a fresh request is admitted. *)
      match Shard_exec.exec sx (Xk_core.Engine.complete_request words) with
      | Query_service.Ok _ -> ()
      | o -> Alcotest.failf "post-burst request came back %s" (pp_outcome o))

let suite =
  [
    ( "shard.parity",
      [
        QCheck_alcotest.to_alcotest parity_prop;
        QCheck_alcotest.to_alcotest parity_assignment_prop;
        QCheck_alcotest.to_alcotest partial_prefix_prop;
      ] );
    ( "shard.structure",
      [
        tc "node mapping round-trips" `Quick mapping_roundtrip;
        tc "root edge cases" `Quick root_edge_cases;
        tc "aggregated stats" `Quick cache_aggregate;
        tc "admission control" `Quick admission;
        QCheck_alcotest.to_alcotest root_summary_prop;
      ] );
    ( "shard.io",
      [
        tc "manifest + segments round-trip" `Quick shard_io_roundtrip;
        tc "typed per-shard failures" `Quick shard_io_failures;
        tc "segment open-path faults" `Quick shard_io_segment_faults;
        tc "replica fallback and loss" `Quick shard_io_replicas;
        tc "committed v1/v2 manifest bytes" `Quick shard_io_legacy_fixtures;
      ] );
  ]
