(* Columns, JDewey lists, score lists, postings, sparse index and the
   index builder. *)

open Xk_index

let check = Alcotest.check
let tc = Alcotest.test_case

let seqs_of l = Array.of_list (List.map Array.of_list l)

let column_runs () =
  let seqs = seqs_of [ [ 1; 1 ]; [ 1; 1; 3 ]; [ 1; 2 ]; [ 1; 2 ]; [ 1; 5; 9 ] ] in
  let c1 = Column.build seqs ~level:1 in
  check Alcotest.int "level1 one run" 1 (Column.num_runs c1);
  check Alcotest.int "level1 entries" 5 (Column.entries c1);
  let c2 = Column.build seqs ~level:2 in
  check Alcotest.int "level2 runs" 3 (Column.num_runs c2);
  let r = Column.find c2 2 in
  check Alcotest.int "run index" 1 r;
  check Alcotest.int "run start" 2 (Column.start c2 r);
  check Alcotest.int "run count" 2 (Column.count c2 r);
  check Alcotest.int "missing value" (-1) (Column.find c2 4);
  let c3 = Column.build seqs ~level:3 in
  check Alcotest.int "level3 skips short rows" 2 (Column.entries c3);
  check Alcotest.(option int) "max value" (Some 9) (Column.max_value c3)

let column_lower_bound () =
  let seqs = seqs_of [ [ 2 ]; [ 4 ]; [ 7 ] ] in
  let c = Column.build seqs ~level:1 in
  check Alcotest.int "lb 1" 0 (Column.lower_bound c 1);
  check Alcotest.int "lb 4" 1 (Column.lower_bound c 4);
  check Alcotest.int "lb 5" 2 (Column.lower_bound c 5);
  check Alcotest.int "lb 99" 3 (Column.lower_bound c 99)

(* The run-contiguity property behind the range checking: in a labeled
   random tree, every column built from a term's rows must consist of runs
   over consecutive row indexes with strictly increasing values (this is
   asserted inside Column.build; here we rebuild columns for many random
   corpora to exercise it). *)
let run_contiguity_prop =
  QCheck.Test.make ~count:200 ~name:"column runs contiguous on random trees"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xk_datagen.Rng.create seed in
      let doc = Xk_datagen.Random_tree.generate rng in
      let lab = Xk_encoding.Labeling.label doc in
      let idx = Index.build lab in
      let ok = ref true in
      for id = 0 to Index.term_count idx - 1 do
        let jl = Index.jlist idx id in
        for level = 1 to Jlist.max_len jl do
          let c = Jlist.column jl ~level in
          for i = 0 to Column.num_runs c - 1 do
            let value = Column.value c i in
            if i > 0 && value <= Column.value c (i - 1) then ok := false;
            (* Every row in the run really has this value at the level. *)
            let start = Column.start c i in
            for row = start to start + Column.count c i - 1 do
              let s = Jlist.seq jl row in
              if Array.length s < level || s.(level - 1) <> value then
                ok := false
            done
          done
        done
      done;
      !ok)

(* The reference a column must match: run-length encode the level-[level]
   numbers of the rows long enough to hold one, starting a new run at a
   value change or a skipped row. *)
let naive_runs seqs ~level =
  let runs = ref [] in
  Array.iteri
    (fun r (s : Xk_encoding.Jdewey.t) ->
      if Array.length s >= level then
        let v = s.(level - 1) in
        match !runs with
        | (pv, ps, pc) :: rest when pv = v && ps + pc = r ->
            runs := (pv, ps, pc + 1) :: rest
        | _ -> runs := (v, r, 1) :: !runs)
    seqs;
  List.rev !runs

let column_matches_reference_prop =
  QCheck.Test.make ~count:200
    ~name:"column = run-length reference (random trees)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let doc = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create seed) in
      let idx = Index.build (Xk_encoding.Labeling.label doc) in
      for id = 0 to Index.term_count idx - 1 do
        let jl = Index.jlist idx id in
        let seqs = Array.init (Jlist.length jl) (Jlist.seq jl) in
        for level = 1 to Jlist.max_len jl do
          let c = Jlist.column jl ~level in
          let runs = naive_runs seqs ~level in
          let fail what =
            QCheck.Test.fail_reportf "term %s, level %d: %s differs"
              (Index.term idx id) level what
          in
          if Tutil.column_runs c <> runs then fail "runs";
          if Column.num_runs c <> List.length runs then fail "num_runs";
          if Column.entries c <> List.fold_left (fun a (_, _, n) -> a + n) 0 runs
          then fail "entries";
          let values = List.map (fun (v, _, _) -> v) runs in
          if Column.max_value c <> List.nth_opt (List.rev values) 0 then
            fail "max_value";
          (* Every number from below the first value to past the last. *)
          for probe = -1 to List.fold_left max 0 values + 1 do
            let below = List.length (List.filter (fun v -> v < probe) values) in
            let expect_find = if List.mem probe values then below else -1 in
            if Column.find c probe <> expect_find then fail "find";
            if Column.lower_bound c probe <> below then fail "lower_bound"
          done
        done
      done;
      true)

(* Deterministic memory gate on the cached columns: every term of a fixed
   DBLP corpus warmed, then the words reachable from its columns of at
   least 16 runs.  Three int arrays cost 3 words per run plus 8 words per
   column (four headers, four fields), so at most 3.5 words per run at 16
   runs; one boxed record per run would cost 5. *)
let column_words_per_run () =
  let corpus =
    Xk_datagen.Dblp_gen.generate
      { (Xk_datagen.Dblp_gen.scaled 0.05) with seed = 2010 }
  in
  let idx = Index.build (Xk_encoding.Labeling.label corpus.doc) in
  let ids = List.init (Index.term_count idx) Fun.id in
  Index.warm idx ids;
  let cols = ref [] and runs = ref 0 in
  List.iter
    (fun id ->
      let jl = Index.jlist idx id in
      for level = 1 to Jlist.max_len jl do
        let c = Jlist.column jl ~level in
        if Column.num_runs c >= 16 then begin
          cols := c :: !cols;
          runs := !runs + Column.num_runs c
        end
      done)
    ids;
  let cols = Array.of_list !cols in
  (* Not vacuous: the corpus has hundreds of such columns. *)
  check Alcotest.bool "enough runs measured" true
    (Array.length cols >= 400 && !runs >= 20_000);
  let words = Obj.reachable_words (Obj.repr cols) - (Array.length cols + 1) in
  let per_run = float_of_int words /. float_of_int !runs in
  if per_run > 3.5 then
    Alcotest.failf "columns take %.3f words per run (%d words, %d runs)" per_run
      words !runs

let small_index () =
  let doc =
    Xk_xml.Xml_parser.parse_string_exn
      "<r><a>xml data xml</a><b>data</b><c>other</c></r>"
  in
  Index.build (Xk_encoding.Labeling.label doc)

let index_stats () =
  let idx = small_index () in
  (match Index.term_id idx "xml" with
  | Some id ->
      check Alcotest.int "df xml" 1 (Index.df idx id);
      let _, tfs = Index.raw_rows idx id in
      check Alcotest.(array int) "tf" [| 2 |] tfs
  | None -> Alcotest.fail "xml missing");
  (match Index.term_id idx "data" with
  | Some id -> check Alcotest.int "df data" 2 (Index.df idx id)
  | None -> Alcotest.fail "data missing");
  check Alcotest.bool "case insensitive" true (Index.term_id idx "XML" <> None);
  check Alcotest.bool "unknown" true (Index.term_id idx "absent" = None)

let index_attributes_indexed () =
  let doc =
    Xk_xml.Xml_parser.parse_string_exn {|<r><conf name="sigmod record"/></r>|}
  in
  let idx = Index.build (Xk_encoding.Labeling.label doc) in
  (match Index.term_id idx "sigmod" with
  | Some id ->
      check Alcotest.int "attribute term df" 1 (Index.df idx id);
      let nodes, _ = Index.raw_rows idx id in
      (* The occurrence is attributed to the element node itself. *)
      check Alcotest.int "element node" 1 nodes.(0)
  | None -> Alcotest.fail "attribute text not indexed")

let posting_probes () =
  let doc =
    Xk_xml.Xml_parser.parse_string_exn
      "<r><a>kw</a><b><c>kw</c><d>kw</d></b><e>kw</e></r>"
  in
  let idx = Index.build (Xk_encoding.Labeling.label doc) in
  let id = Option.get (Index.term_id idx "kw") in
  let p = Index.posting idx id in
  check Alcotest.int "length" 4 (Posting.length p);
  (* Occurrences are the text nodes, doc-ordered. *)
  let b = Xk_encoding.Dewey.of_string "1.2" in
  let lo, hi = Posting.subtree_range p b in
  check Alcotest.int "two under b" 2 (hi - lo);
  check Alcotest.int "count" 2 (Posting.count_in_subtree p b);
  (match Posting.pred p b with
  | Some r ->
      check Alcotest.string "pred" "1.1.1" (Xk_encoding.Dewey.to_string (Posting.dewey p r))
  | None -> Alcotest.fail "pred");
  (match Posting.succ p b with
  | Some r ->
      check Alcotest.string "succ" "1.2.1.1"
        (Xk_encoding.Dewey.to_string (Posting.dewey p r))
  | None -> Alcotest.fail "succ");
  check Alcotest.bool "pred of first" true
    (Posting.pred p (Xk_encoding.Dewey.of_string "1.1") = None);
  check Alcotest.bool "succ past last" true
    (Posting.succ p (Xk_encoding.Dewey.of_string "1.9") = None)

let score_list_groups () =
  let idx = small_index () in
  let id = Option.get (Index.term_id idx "data") in
  let sl = Index.score_list idx id in
  let groups = Score_list.groups sl in
  check Alcotest.bool "at least one group" true (Array.length groups >= 1);
  Array.iter
    (fun (g : Score_list.group) ->
      let jl = Score_list.jlist sl in
      Array.iteri
        (fun i r ->
          check Alcotest.int "group row length" g.len (Jlist.row_len jl r);
          if i > 0 then
            check Alcotest.bool "descending scores" true
              (Jlist.score jl r <= Jlist.score jl g.rows.(i - 1)))
        g.rows)
    groups

let score_list_max_damped () =
  let idx = small_index () in
  let id = Option.get (Index.term_id idx "data") in
  let sl = Index.score_list idx id in
  let jl = Score_list.jlist sl in
  let damping = Index.damping idx in
  for level = 1 to Jlist.max_len jl do
    let ceiling = Score_list.max_damped sl ~level in
    (* No row may beat the ceiling at this level. *)
    for r = 0 to Jlist.length jl - 1 do
      if Jlist.row_len jl r >= level then begin
        let v =
          Jlist.score jl r
          *. Xk_score.Damping.apply damping (Jlist.row_len jl r - level)
        in
        check Alcotest.bool "ceiling holds" true (v <= ceiling +. 1e-12)
      end
    done
  done

(* [Score_list.make] against the grouping written plainly: the distinct
   row lengths in ascending order, each group's rows by descending score
   then ascending row, and per level the best damped score of any row
   that reaches it.  Groups, row order and ceilings must match exactly. *)
let naive_score_list jl damping =
  let rows = List.init (Jlist.length jl) Fun.id in
  let lens = List.sort_uniq Int.compare (List.map (Jlist.row_len jl) rows) in
  let groups =
    List.map
      (fun len ->
        ( len,
          List.filter (fun r -> Jlist.row_len jl r = len) rows
          |> List.sort (fun a b ->
                 let c = Float.compare (Jlist.score jl b) (Jlist.score jl a) in
                 if c <> 0 then c else Int.compare a b) ))
      lens
  in
  let ceilings =
    List.init (Jlist.max_len jl) (fun i ->
        let level = i + 1 in
        List.fold_left
          (fun acc r ->
            let len = Jlist.row_len jl r in
            if len >= level then
              Float.max acc
                (Jlist.score jl r *. Xk_score.Damping.apply damping (len - level))
            else acc)
          neg_infinity rows)
  in
  (groups, ceilings)

let score_list_reference_prop =
  QCheck.Test.make ~count:100 ~name:"score list = naive grouping"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let idx = Index.build (Xk_encoding.Labeling.label (Tutil.random_doc seed)) in
      let damping = Index.damping idx in
      for id = 0 to Index.term_count idx - 1 do
        let jl = Index.jlist idx id in
        let sl = Score_list.make jl damping in
        let groups, ceilings = naive_score_list jl damping in
        let got =
          Array.to_list
            (Array.map
               (fun (g : Score_list.group) -> (g.len, Array.to_list g.rows))
               (Score_list.groups sl))
        in
        if got <> groups then
          QCheck.Test.fail_reportf "term %s: groups differ" (Index.term idx id);
        List.iteri
          (fun i c ->
            let m = Score_list.max_damped sl ~level:(i + 1) in
            if Int64.bits_of_float m <> Int64.bits_of_float c then
              QCheck.Test.fail_reportf "term %s level %d: ceiling %h, want %h"
                (Index.term idx id) (i + 1) m c)
          ceilings
      done;
      true)

let sparse_index_probe () =
  let seqs = seqs_of (List.init 1000 (fun i -> [ (2 * i) + 1 ])) in
  let c = Column.build seqs ~level:1 in
  let sp = Sparse_index.build c in
  let num_runs = Column.num_runs c in
  for i = 0 to num_runs - 1 do
    let lo, hi = Sparse_index.probe sp ~num_runs (Column.value c i) in
    check Alcotest.bool "window contains run" true (lo <= i && i < hi);
    check Alcotest.bool "window narrow" true (hi - lo <= 64)
  done;
  check Alcotest.bool "size accounted" true (Sparse_index.encoded_size sp > 0)

let jlist_encoded_size () =
  let idx = small_index () in
  let id = Option.get (Index.term_id idx "data") in
  let jl = Index.jlist idx id in
  check Alcotest.bool "positive size" true (Jlist.encoded_size jl > 0)

let sizes_report () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let idx = Index.build (Xk_encoding.Labeling.label corpus.doc) in
  let r = Index_sizes.report idx in
  check Alcotest.bool "join IL positive" true (r.join_based.inverted_lists > 0);
  check Alcotest.bool "index-based largest" true
    (r.index_based.inverted_lists > r.join_based.inverted_lists
    && r.index_based.inverted_lists > r.stack_based.inverted_lists);
  check Alcotest.bool "topk IL >= join IL" true
    (r.topk_join.inverted_lists >= r.join_based.inverted_lists);
  check Alcotest.bool "rdil aux positive" true (r.rdil.auxiliary > 0);
  check Alcotest.bool "sparse much smaller than IL" true
    (r.join_based.auxiliary * 4 < r.join_based.inverted_lists)

(* The sharded LRU cache behind the shape accessors. *)

let shard_cache_lru () =
  (* One shard of capacity 2 so the LRU order is observable. *)
  let c = Shard_cache.create ~shards:1 ~capacity:2 () in
  let computes = ref 0 in
  let get k =
    Shard_cache.find_or_add c k ~compute:(fun k ->
        incr computes;
        k * 10)
  in
  check Alcotest.int "miss computes" 10 (get 1);
  check Alcotest.int "second miss" 20 (get 2);
  check Alcotest.int "hit" 10 (get 1);
  (* 2 is now LRU; inserting 3 evicts it. *)
  check Alcotest.int "third key" 30 (get 3);
  check Alcotest.bool "1 retained" true (Shard_cache.mem c 1);
  check Alcotest.bool "2 evicted" false (Shard_cache.mem c 2);
  check Alcotest.int "computed thrice" 3 !computes;
  let st = Shard_cache.stats c in
  check Alcotest.int "hits" 1 st.hits;
  check Alcotest.int "misses" 3 st.misses;
  check Alcotest.int "evictions" 1 st.evictions;
  check Alcotest.int "entries" 2 st.entries

let shard_cache_compute_failure () =
  let c = Shard_cache.create ~shards:1 ~capacity:4 () in
  (match Shard_cache.find_or_add c 1 ~compute:(fun _ -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "no exception");
  check Alcotest.bool "nothing cached" false (Shard_cache.mem c 1);
  (* The shard lock was released by the failing compute. *)
  check Alcotest.int "recovers" 7
    (Shard_cache.find_or_add c 1 ~compute:(fun _ -> 7))

let cache_eviction_consistency () =
  (* A capacity-1 cache refetches shapes constantly; results must not
     change, and the counters must reflect the thrashing. *)
  let doc =
    Xk_xml.Xml_parser.parse_string_exn
      "<r><a>alpha beta</a><b>beta gamma</b><c>gamma alpha</c></r>"
  in
  let lab = Xk_encoding.Labeling.label doc in
  let idx = Index.build ~cache_capacity:1 lab in
  let ref_idx = Index.build lab in
  for _ = 1 to 3 do
    for id = 0 to Index.term_count idx - 1 do
      let jl = Index.jlist idx id and jr = Index.jlist ref_idx id in
      check Alcotest.int "jlist length stable" (Jlist.length jr) (Jlist.length jl);
      let p = Index.posting idx id and pr = Index.posting ref_idx id in
      check Alcotest.int "posting length stable" (Posting.length pr)
        (Posting.length p)
    done
  done;
  let st = Index.cache_stats idx in
  check Alcotest.bool "evictions happened" true (st.evictions > 0);
  check Alcotest.bool "occupancy bounded" true (st.entries <= st.capacity)

(* Interleaved warm/jlist/posting/score_list calls from several domains
   must never disagree with a cold single-threaded materialization - the
   service-path invariant behind Xk_exec. *)

let jlist_agrees jc jh =
  Jlist.length jc = Jlist.length jh
  && Jlist.max_len jc = Jlist.max_len jh
  &&
  let ok = ref true in
  for r = 0 to Jlist.length jc - 1 do
    if
      Jlist.node jc r <> Jlist.node jh r
      || Jlist.score jc r <> Jlist.score jh r
      || Jlist.seq jc r <> Jlist.seq jh r
    then ok := false
  done;
  !ok

let posting_agrees pc ph =
  Posting.length pc = Posting.length ph
  &&
  let ok = ref true in
  for r = 0 to Posting.length pc - 1 do
    if
      Posting.node pc r <> Posting.node ph r
      || Posting.score pc r <> Posting.score ph r
      || Posting.dewey pc r <> Posting.dewey ph r
    then ok := false
  done;
  !ok

let concurrent_materialization_prop =
  QCheck.Test.make ~count:15
    ~name:"concurrent warm/jlist/posting matches cold materialization"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xk_datagen.Rng.create seed in
      let doc = Xk_datagen.Random_tree.generate rng in
      let cold = Index.build (Xk_encoding.Labeling.label doc) in
      (* Tiny cache so the domains also race through evictions. *)
      let hot =
        Index.build ~cache_capacity:8 (Xk_encoding.Labeling.label doc)
      in
      let n = Index.term_count hot in
      n = 0
      ||
      begin
        let workers =
          Array.init 3 (fun w ->
              Domain.spawn (fun () ->
                  (* Each domain walks the terms in a different order and
                     mixes the three access paths. *)
                  for round = 0 to 1 do
                    for i = 0 to n - 1 do
                      let id = (i * ((2 * w) + 1) + (round * 7)) mod n in
                      match (id + w + round) mod 4 with
                      | 0 -> ignore (Index.jlist hot id)
                      | 1 -> ignore (Index.posting hot id)
                      | 2 -> ignore (Index.score_list hot id)
                      | _ -> Index.warm hot [ id ]
                    done
                  done))
        in
        Array.iter Domain.join workers;
        let ok = ref true in
        for id = 0 to n - 1 do
          if not (jlist_agrees (Index.jlist cold id) (Index.jlist hot id)) then
            ok := false;
          if not (posting_agrees (Index.posting cold id) (Index.posting hot id))
          then ok := false
        done;
        !ok
      end)

(* Index persistence. *)

let tmpfile name = Filename.concat (Filename.get_temp_dir_name ()) name

let index_io_roundtrip () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Index.build label in
  let path = tmpfile "xk_index_io_test.idx" in
  Index_io.save idx path;
  check Alcotest.bool "file written" true (Index_io.file_size path > 0);
  let label2 = Xk_encoding.Labeling.label corpus.doc in
  let idx2 = Tutil.load_index label2 path in
  check Alcotest.int "term count" (Index.term_count idx) (Index.term_count idx2);
  (* Same dfs and same rows for every term. *)
  for id = 0 to Index.term_count idx - 1 do
    let term = Index.term idx id in
    match Index.term_id idx2 term with
    | None -> Alcotest.failf "term %s lost" term
    | Some id2 ->
        check Alcotest.int ("df " ^ term) (Index.df idx id) (Index.df idx2 id2);
        let n1, t1 = Index.raw_rows idx id and n2, t2 = Index.raw_rows idx2 id2 in
        if n1 <> n2 || t1 <> t2 then Alcotest.failf "rows differ for %s" term
  done;
  (* Query results identical through the reloaded index. *)
  let e1 = Xk_core.Engine.of_index idx and e2 = Xk_core.Engine.of_index idx2 in
  let q = List.nth corpus.correlated_queries 0 in
  Tutil.check_same_hits "reloaded query" (Xk_core.Engine.query e1 q)
    (Xk_core.Engine.query e2 q);
  Sys.remove path

let index_io_rejects_garbage () =
  let path = tmpfile "xk_index_io_garbage.idx" in
  let oc = open_out_bin path in
  output_string oc "NOTANIDX and some more bytes";
  close_out oc;
  let corpus = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create 3) in
  let label = Xk_encoding.Labeling.label corpus in
  (match Index_io.load_result label path with
  | Error { error = Index_io.Corrupted _; _ } -> ()
  | _ -> Alcotest.fail "garbage accepted");
  Sys.remove path

let index_io_rejects_mismatch () =
  let c1 = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create 4) in
  let c2 = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create 5) in
  let l1 = Xk_encoding.Labeling.label c1 and l2 = Xk_encoding.Labeling.label c2 in
  if Xk_encoding.Labeling.node_count l1 <> Xk_encoding.Labeling.node_count l2
  then begin
    let path = tmpfile "xk_index_io_mismatch.idx" in
    Index_io.save (Index.build l1) path;
    (match Index_io.load_result l2 path with
    | Error { error = Index_io.Corrupted _; _ } -> ()
    | _ -> Alcotest.fail "mismatched document accepted");
    Sys.remove path
  end

(* The compressed zero-copy segment [save] writes (v5): layout
   introspection, full verification, and bit-identical parity against
   both the v2 channel loader and a fresh in-memory build. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  b

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let index_io_v5_roundtrip () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Index.build label in
  let path = tmpfile "xk_index_io_v5.seg" in
  Index_io.save idx path;
  check Alcotest.(option int) "v5 magic" (Some 5) (Index_io.format_version path);
  (match Index_io.layout path with
  | Error e -> Alcotest.failf "v5 layout unreadable: %s" (Index_io.error_message e)
  | Ok lay ->
      check Alcotest.int "layout node count"
        (Xk_encoding.Labeling.node_count label)
        lay.Index_io.node_count;
      check Alcotest.int "layout term count" (Index.term_count idx)
        lay.Index_io.term_count;
      let rows = ref 0 in
      for id = 0 to Index.term_count idx - 1 do
        rows := !rows + Index.df idx id
      done;
      check Alcotest.int "layout row count" !rows lay.Index_io.total_rows;
      (* The regions sit back to back behind the header: no padding. *)
      check Alcotest.int "terms follow the header" 72 lay.Index_io.terms_off;
      check Alcotest.int "postings follow the terms"
        (lay.Index_io.terms_off + lay.Index_io.terms_len)
        lay.Index_io.postings_off;
      check Alcotest.int "directory follows the postings"
        (lay.Index_io.postings_off + lay.Index_io.postings_len)
        lay.Index_io.dir_off;
      check Alcotest.int "file ends with the directory"
        (lay.Index_io.dir_off + lay.Index_io.dir_len)
        lay.Index_io.file_size;
      check Alcotest.int "exact file size" lay.Index_io.file_size
        (Index_io.file_size path));
  (match Index_io.verify path with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "full verify rejected a fresh v5 segment: %s"
        (Index_io.load_error_message e));
  let idx2 = Tutil.load_index (Xk_encoding.Labeling.label corpus.doc) path in
  check Alcotest.int "term count" (Index.term_count idx) (Index.term_count idx2);
  for id = 0 to Index.term_count idx - 1 do
    let term = Index.term idx id in
    match Index.term_id idx2 term with
    | None -> Alcotest.failf "term %s lost" term
    | Some id2 ->
        check Alcotest.int ("df " ^ term) (Index.df idx id) (Index.df idx2 id2);
        if Index.raw_rows idx id <> Index.raw_rows idx2 id2 then
          Alcotest.failf "rows differ for %s" term;
        (* Bit-identical scores: exact float equality, no tolerance. *)
        if Index.local_scores idx id <> Index.local_scores idx2 id2 then
          Alcotest.failf "local scores differ for %s" term
  done;
  let e1 = Xk_core.Engine.of_index idx and e2 = Xk_core.Engine.of_index idx2 in
  List.iteri
    (fun i q ->
      Tutil.check_same_hits
        (Printf.sprintf "mmap query %d" i)
        (Xk_core.Engine.query e1 q)
        (Xk_core.Engine.query e2 q))
    corpus.correlated_queries;
  Sys.remove path

let index_io_v5_rejects_mangled_header () =
  let doc = Tutil.random_doc 11 in
  let label = Xk_encoding.Labeling.label doc in
  Index.build label |> fun idx ->
  let path = tmpfile "xk_index_io_v5_mangle.seg" in
  Index_io.save idx path;
  let good = read_file path in
  let expect_error what =
    match Index_io.load_result ~retries:1 label path with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
    | exception e ->
        Alcotest.failf "%s raised %s instead of a typed error" what
          (Printexc.to_string e)
  in
  (* Header truncated mid-field: typed error, never a panic. *)
  write_file path (String.sub good 0 50);
  expect_error "truncated header";
  (* A flipped byte anywhere in the checksummed header prefix. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string good in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x5a));
      write_file path (Bytes.to_string b);
      expect_error (Printf.sprintf "header byte %d flipped" pos))
    [
      8 (* version *);
      12 (* node count *);
      36 (* terms length *);
      64 (* directory crc *);
      68 (* header crc *);
    ];
  (* Restored bytes load again — the mangles above were the only issue. *)
  write_file path good;
  (match Index_io.load_result label path with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "restored segment rejected: %s"
        (Index_io.load_error_message e));
  Sys.remove path

(* A v5 segment's directory, parsed independently of [Index_io]: the
   file offset of each block's CRC and, per term, its postings offset,
   postings length, df and cf - df. *)
type seg_dir = {
  sd_crc_at : int -> int;
  sd_terms : (int * int * int * int) array;
}

let block_terms = 64

let segment_dir data (lay : Index_io.layout) =
  let n = lay.Index_io.term_count in
  let nblocks = (n + block_terms - 1) / block_terms in
  let c = Xk_storage.Varint.cursor_at data (lay.Index_io.dir_off + (4 * nblocks)) in
  let off = ref lay.Index_io.postings_off in
  let read () = Xk_storage.Varint.read c in
  let sd_terms =
    Array.init n (fun _ ->
        ignore (read ());
        let df = read () in
        let extra = read () in
        let len = read () in
        let t = (!off, len, df, extra) in
        off := !off + len;
        t)
  in
  { sd_crc_at = (fun b -> lay.Index_io.dir_off + (4 * b)); sd_terms }

(* The block whose postings hold file offset [pos], and a block's span. *)
let block_of sd pos =
  let id = ref 0 in
  Array.iteri
    (fun i (off, len, _, _) -> if pos >= off && pos < off + len then id := i)
    sd.sd_terms;
  !id / block_terms

let block_span sd b =
  let first = b * block_terms in
  let last = min (Array.length sd.sd_terms) (first + block_terms) - 1 in
  let off, _, _, _ = sd.sd_terms.(first) and loff, llen, _, _ = sd.sd_terms.(last) in
  (off, loff + llen - off)

let v5_parity_prop =
  QCheck.Test.make ~count:15
    ~name:"mmap load is bit-identical to v2 channel load and fresh build"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xk_datagen.Rng.create seed in
      let doc = Xk_datagen.Random_tree.generate rng in
      let label = Xk_encoding.Labeling.label doc in
      let fresh = Index.build label in
      let p5 = tmpfile (Printf.sprintf "xk_v5_parity_%d.seg" seed) in
      let p2 = tmpfile (Printf.sprintf "xk_v2_parity_%d.seg" seed) in
      Index_io.save fresh p5;
      Index_io.save_v2 fresh p2;
      let ok =
        ref
          (Index_io.format_version p5 = Some 5
          && Index_io.format_version p2 = Some 2)
      in
      (match
         ( Index_io.load_result (Xk_encoding.Labeling.label doc) p5,
           Index_io.load_result (Xk_encoding.Labeling.label doc) p2 )
       with
      | Ok v5, Ok v2 ->
          let n = Index.term_count fresh in
          if Index.term_count v5 <> n || Index.term_count v2 <> n then
            ok := false;
          if !ok then
            for id = 0 to n - 1 do
              let term = Index.term fresh id in
              match (Index.term_id v5 term, Index.term_id v2 term) with
              | Some i5, Some i2 ->
                  if
                    Index.raw_rows v5 i5 <> Index.raw_rows fresh id
                    || Index.raw_rows v2 i2 <> Index.raw_rows fresh id
                  then ok := false;
                  (* Exact float equality: the same (tf, df) integers must
                     feed the same scorer on every path. *)
                  if
                    Index.local_scores v5 i5 <> Index.local_scores fresh id
                    || Index.local_scores v2 i2 <> Index.local_scores fresh id
                  then ok := false
              | _ -> ok := false
            done;
          if !ok then begin
            let ef = Xk_core.Engine.of_index fresh
            and e5 = Xk_core.Engine.of_index v5
            and ev2 = Xk_core.Engine.of_index v2 in
            for _ = 1 to 3 do
              let words = Tutil.random_query rng ~k:2 ~alphabet:6 in
              let hf = Tutil.sort_hits (Xk_core.Engine.query ef words)
              and h5 = Tutil.sort_hits (Xk_core.Engine.query e5 words)
              and h2 = Tutil.sort_hits (Xk_core.Engine.query ev2 words) in
              if h5 <> hf || h2 <> hf then ok := false;
              let tf = Xk_core.Engine.query_topk ef words ~k:3
              and t5 = Xk_core.Engine.query_topk e5 words ~k:3 in
              if t5 <> tf then ok := false
            done
          end
      | _ -> ok := false);
      Sys.remove p5;
      Sys.remove p2;
      !ok)

(* Every decoder of a v5 segment is total: for every strict prefix, a
   bit flip in each region and random garbage behind the magic, the lazy
   open, the eager open and [verify] return [Ok] or a typed error, and a
   lazily opened index faults only with [Segment_fault].  Since every
   byte is under a CRC, every prefix and every flip must be an error at
   [verify].  The same holds for intact bytes under a corruption mark,
   which damages the map the decoders read. *)
let v5_never_raises_prop =
  QCheck.Test.make ~count:10 ~name:"segment decoders never raise on damaged bytes"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let label = Xk_encoding.Labeling.label (Tutil.random_doc seed) in
      let path = tmpfile (Printf.sprintf "xk_v5_fuzz_%d.seg" seed) in
      Index_io.save (Index.build label) path;
      let good = read_file path in
      let lay =
        match Index_io.layout path with
        | Ok lay -> lay
        | Error e -> QCheck.Test.fail_reportf "layout: %s" (Index_io.error_message e)
      in
      let flip_in ~off ~len =
        let b = Bytes.of_string good in
        let pos = off + Random.State.int rng len in
        Bytes.set b pos
          (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl Random.State.int rng 8)));
        Bytes.to_string b
      in
      let flips =
        List.filter_map
          (fun (off, len) -> if len > 0 then Some (flip_in ~off ~len) else None)
          [
            (0, lay.Index_io.terms_off);
            (lay.Index_io.terms_off, lay.Index_io.terms_len);
            (lay.Index_io.postings_off, lay.Index_io.postings_len);
            (lay.Index_io.dir_off, lay.Index_io.dir_len);
          ]
      in
      (* The same flips with every covering checksum recomputed, so the
         damage gets past the CRCs and reaches the structural checks of
         the header, directory and postings decoders.  One flip lands in
         a tf exception list when the segment has one. *)
      let sd = segment_dir good lay in
      let tf_section =
        List.filter_map
          (fun (off, len, df, extra) ->
            if extra = 0 then None
            else
              let c = Xk_storage.Varint.cursor_at good off in
              for _ = 1 to df do
                ignore (Xk_storage.Varint.read c)
              done;
              Some (c.pos, off + len - c.pos))
          (Array.to_list sd.sd_terms)
      in
      let resealed =
        let set_crc b at crc = Bytes.set_int32_le b at (Int32.of_int crc) in
        let crc_of b ~pos ~len = Xk_storage.Crc32.sub (Bytes.to_string b) ~pos ~len in
        let reseal ~region b pos =
          (if region = `Postings then
             let blk = block_of sd pos in
             let pos, len = block_span sd blk in
             set_crc b (sd.sd_crc_at blk) (crc_of b ~pos ~len));
          if region <> `Header then
            set_crc b 64 (crc_of b ~pos:lay.Index_io.dir_off ~len:lay.Index_io.dir_len);
          set_crc b 68 (crc_of b ~pos:0 ~len:68)
        in
        List.filter_map
          (fun (region, off, len) ->
            if len = 0 then None
            else
              let b = Bytes.of_string good in
              let pos = off + Random.State.int rng len in
              Bytes.set b pos (Char.chr (Random.State.int rng 256));
              reseal ~region b pos;
              Some (Bytes.to_string b))
          ([
             (`Header, 8, 52);
             (`Postings, lay.Index_io.postings_off, lay.Index_io.postings_len);
             (`Dir, lay.Index_io.dir_off, lay.Index_io.dir_len);
           ]
          @
          match tf_section with
          | [] -> []
          | l ->
              let off, len = List.nth l (Random.State.int rng (List.length l)) in
              [ (`Postings, off, len) ])
      in
      let garbage =
        List.init 4 (fun _ ->
            String.sub good 0 8
            ^ String.init
                (Random.State.int rng (2 * String.length good))
                (fun _ -> Char.chr (Random.State.int rng 256)))
      in
      let prefixes = List.init (String.length good) (String.sub good 0) in
      (* Run every decoder over [data]; [Some ok] says whether [verify]
         accepted it, [None] that something raised. *)
      let decoders data =
        write_file path data;
        match
          (match Index_io.load_result ~retries:0 label path with
          | Ok idx -> (
              try
                for id = 0 to Index.term_count idx - 1 do
                  ignore (Index.raw_rows idx id)
                done
              with Index_io.Segment_fault _ -> ())
          | Error _ -> ());
          ignore (Index_io.load_result ~retries:0 ~verify_columns:true label path);
          Index_io.verify ~retries:0 path
        with
        | v -> Some (Result.is_ok v)
        | exception e ->
            QCheck.Test.fail_reportf "%d-byte input raised %s" (String.length data)
              (Printexc.to_string e)
      in
      let ok =
        let module Chaos = Xk_resilience.Chaos in
        Fun.protect ~finally:Chaos.reset (fun () ->
            (* Fault-free maps, so each input is decoded as written. *)
            Chaos.configure Chaos.no_faults;
            List.for_all (fun d -> decoders d = Some false) (prefixes @ flips)
            && List.for_all (fun d -> decoders d <> None) (resealed @ garbage)
            && decoders good = Some true
            &&
            (* A copy marked corrupt reads damaged beneath the map. *)
            (Chaos.mark_corrupt ~path;
             decoders good = Some false))
      in
      Sys.remove path;
      ok)

(* Segments over hand-made postings: [of_raw] accepts any rows, so the
   properties below reach tf shapes and term counts the generators
   rarely produce.  The flat document supplies the node ids. *)
let flat_label nodes =
  Xk_encoding.Labeling.label
    {
      Xk_xml.Xml_tree.root =
        Xk_xml.Xml_tree.element "r"
          (List.init (nodes - 1) (fun _ -> Xk_xml.Xml_tree.elem "a" []));
    }

let random_nodes rng ~nodes ~df =
  let ids = Array.init nodes Fun.id in
  for i = nodes - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = ids.(i) in
    ids.(i) <- ids.(j);
    ids.(j) <- t
  done;
  let picked = Array.sub ids 0 df in
  Array.sort compare picked;
  picked

let save_raw label entries path =
  let idx = Index.of_raw label entries in
  Index_io.save idx path;
  idx

let load_no_faults ?verify_columns label path =
  let module Chaos = Xk_resilience.Chaos in
  Chaos.configure Chaos.no_faults;
  Fun.protect ~finally:Chaos.reset (fun () ->
      match Index_io.load_result ~retries:0 ?verify_columns label path with
      | Ok idx -> idx
      | Error e -> QCheck.Test.fail_reportf "load: %s" (Index_io.load_error_message e))

(* The tf exception lists round-trip any tf array: all ones (no tf
   section), all above 1, df = 1, and tfs far past a byte. *)
let tf_exceptions_roundtrip_prop =
  let shapes = [| `Ones; `Above_one; `Single; `Mixed; `Large |] in
  QCheck.Test.make ~count:40 ~name:"v5 tf exception lists round-trip any tf array"
    QCheck.(pair (int_bound 1_000_000) (int_bound (Array.length shapes - 1)))
    (fun (seed, shape) ->
      let rng = Random.State.make [| seed |] in
      let nodes = 300 in
      let label = flat_label nodes in
      let entry i =
        let shape = if i = 0 then shapes.(shape) else `Mixed in
        let df = if shape = `Single then 1 else 1 + Random.State.int rng 200 in
        let tf () =
          match shape with
          | `Ones -> 1
          | `Above_one -> 2 + Random.State.int rng 300
          | `Single | `Mixed -> if Random.State.bool rng then 1 else 2 + Random.State.int rng 3
          | `Large -> if Random.State.int rng 3 = 0 then 1 + Random.State.full_int rng (1 lsl 40) else 1
        in
        (Printf.sprintf "t%d" i, random_nodes rng ~nodes ~df, Array.init df (fun _ -> tf ()))
      in
      let entries = List.init 3 entry in
      let path = tmpfile (Printf.sprintf "xk_v5_tfs_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let idx = save_raw label entries path in
          let lazy_idx = load_no_faults label path
          and eager = load_no_faults ~verify_columns:true label path in
          Result.is_ok (Index_io.verify path)
          && List.for_all
               (fun id ->
                 Index.raw_rows lazy_idx id = Index.raw_rows idx id
                 && Index.raw_rows eager id = Index.raw_rows idx id)
               [ 0; 1; 2 ]))

(* A flipped postings byte in block [b] makes every term of [b] raise
   [Segment_fault] on every decode, and every other term still decodes
   exactly: one CRC per block, checked before any of its rows is
   decoded. *)
let block_fault_prop =
  QCheck.Test.make ~count:20
    ~name:"v5 postings flip faults exactly the terms of its block"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let nodes = 100 in
      let label = flat_label nodes in
      let n = (2 * block_terms) + 1 + Random.State.int rng (2 * block_terms) in
      let entries =
        List.init n (fun i ->
            let df = 1 + Random.State.int rng 6 in
            ( Printf.sprintf "t%d" i,
              random_nodes rng ~nodes ~df,
              Array.init df (fun _ -> if Random.State.int rng 4 = 0 then 3 else 1) ))
      in
      let path = tmpfile (Printf.sprintf "xk_v5_block_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let idx = save_raw label entries path in
          let good = read_file path in
          let lay =
            match Index_io.layout path with
            | Ok lay -> lay
            | Error e -> QCheck.Test.fail_reportf "layout: %s" (Index_io.error_message e)
          in
          let pos = lay.Index_io.postings_off + Random.State.int rng lay.Index_io.postings_len in
          let b = Bytes.of_string good in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Random.State.int rng 255)));
          write_file path (Bytes.to_string b);
          let damaged = block_of (segment_dir good lay) pos in
          let loaded = load_no_faults label path in
          (* Twice over, so a block stays faulty after its first fault. *)
          List.for_all
            (fun id ->
              match Index.raw_rows loaded id with
              | rows -> id / block_terms <> damaged && rows = Index.raw_rows idx id
              | exception Index_io.Segment_fault _ -> id / block_terms = damaged)
            (List.init n Fun.id @ List.init n Fun.id)))

(* Ingest is pinned bit for bit: a printed corpus parsed, tokenized,
   indexed and saved as one segment must hash to the digest the
   byte-at-a-time parser, buffered tokenizer and hashtable tally wrote,
   and its dictionary must keep first-seen id order.  A build that
   reorders term ids or postings fails here. *)
let pinned_segment ~name doc =
  let xml = Xk_xml.Xml_print.to_string doc in
  let sharded = Sharding.partition ~shards:1 (Xk_xml.Xml_parser.parse_string_exn xml) in
  let path = tmpfile (Printf.sprintf "xk_pinned_%s.manifest" name) in
  let seg = Shard_io.segment_path path ~shard:0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; seg ])
    (fun () ->
      Shard_io.save sharded path;
      let dict = Index.dict (Sharding.index sharded 0) in
      (Digest.to_hex (Digest.file seg), List.init (Xk_text.Dictionary.size dict) (Xk_text.Dictionary.term dict)))

let segment_bytes_pinned () =
  let dblp =
    Xk_datagen.Dblp_gen.generate { (Xk_datagen.Dblp_gen.scaled 0.05) with seed = 2010 }
  in
  let xmark =
    Xk_datagen.Xmark_gen.generate { (Xk_datagen.Xmark_gen.scaled 0.05) with seed = 2010 }
  in
  let dblp_digest, dblp_terms = pinned_segment ~name:"dblp" dblp.doc in
  let xmark_digest, xmark_terms = pinned_segment ~name:"xmark" xmark.doc in
  check Alcotest.string "dblp segment digest" "efd4cc53882002b3dc73387af4a1d446" dblp_digest;
  check Alcotest.string "xmark segment digest" "b81d6529ebaac947d17d9c867a20380d" xmark_digest;
  check
    Alcotest.(list string)
    "dblp first 50 terms"
    [
      "conf0"; "mustafo"; "cecegu"; "cebaba"; "cebace"; "ceguxo"; "cequipla";
      "cevedi"; "cececle"; "cepesu"; "1998"; "dibagru"; "cecece"; "cebaje";
      "celosu"; "cekina"; "upa3"; "upb2"; "cebadi"; "cebafo"; "cebave";
      "cebabra"; "41"; "507"; "digupe"; "cebalo"; "diplaro"; "cejecle";
      "suplawi"; "cegumu"; "cejequi"; "cebatre"; "gusugru"; "upb3"; "hatrefo";
      "cebaxo"; "49"; "524"; "cepece"; "cebawi"; "clehadri"; "cegubra";
      "cebata"; "cebaha"; "cejeflo"; "ceceba"; "295"; "517"; "vewisno";
      "cecexo";
    ]
    (List.filteri (fun i _ -> i < 50) dblp_terms);
  check Alcotest.string "xmark dictionary digest" "238965f2efc86b42cc428cec52cd062d"
    (Digest.to_hex (Digest.string (String.concat " " xmark_terms)))

let suite =
  [
    ( "index",
      [
        tc "column runs" `Quick column_runs;
        tc "column lower_bound" `Quick column_lower_bound;
        tc "index stats" `Quick index_stats;
        tc "attributes indexed on elements" `Quick index_attributes_indexed;
        tc "posting probes" `Quick posting_probes;
        tc "score list groups" `Quick score_list_groups;
        tc "score list ceilings" `Quick score_list_max_damped;
        QCheck_alcotest.to_alcotest score_list_reference_prop;
        tc "sparse index probe" `Quick sparse_index_probe;
        tc "jlist encoded size" `Quick jlist_encoded_size;
        tc "index sizes report" `Slow sizes_report;
        tc "column words per run" `Quick column_words_per_run;
        QCheck_alcotest.to_alcotest run_contiguity_prop;
        QCheck_alcotest.to_alcotest column_matches_reference_prop;
      ] );
    ( "index.cache",
      [
        tc "shard cache LRU" `Quick shard_cache_lru;
        tc "shard cache compute failure" `Quick shard_cache_compute_failure;
        tc "eviction keeps results consistent" `Quick cache_eviction_consistency;
        QCheck_alcotest.to_alcotest concurrent_materialization_prop;
      ] );
    ( "index.io",
      [
        tc "save/load roundtrip" `Quick index_io_roundtrip;
        tc "rejects garbage" `Quick index_io_rejects_garbage;
        tc "rejects mismatched document" `Quick index_io_rejects_mismatch;
        tc "segment layout and roundtrip" `Quick index_io_v5_roundtrip;
        tc "segment rejects mangled header" `Quick index_io_v5_rejects_mangled_header;
        tc "segment bytes pinned" `Quick segment_bytes_pinned;
        QCheck_alcotest.to_alcotest v5_parity_prop;
        QCheck_alcotest.to_alcotest v5_never_raises_prop;
        QCheck_alcotest.to_alcotest tf_exceptions_roundtrip_prop;
        QCheck_alcotest.to_alcotest block_fault_prop;
      ] );
  ]
