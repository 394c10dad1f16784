(* Columns, JDewey lists, score lists, postings, sparse index and the
   index builder. *)

open Xk_index

let check = Alcotest.check
let tc = Alcotest.test_case

let seqs_of l = Array.of_list (List.map Array.of_list l)

(* Rows a column covers: the sum of its run counts. *)
let column_rows c =
  List.fold_left (fun a (_, _, n) -> a + n) 0 (Tutil.column_runs c)

let column_runs () =
  let seqs = seqs_of [ [ 1; 1 ]; [ 1; 1; 3 ]; [ 1; 2 ]; [ 1; 2 ]; [ 1; 5; 9 ] ] in
  let c1 = Tutil.column_of_seqs seqs ~level:1 in
  check Alcotest.int "level1 one run" 1 (Column.num_runs c1);
  check Alcotest.int "level1 rows" 5 (column_rows c1);
  let c2 = Tutil.column_of_seqs seqs ~level:2 in
  check Alcotest.int "level2 runs" 3 (Column.num_runs c2);
  let r = Column.find c2 2 in
  check Alcotest.int "run index" 1 r;
  check Alcotest.int "run start" 2 (Column.start c2 r);
  check Alcotest.int "run count" 2 (Column.count c2 r);
  check Alcotest.int "missing value" (-1) (Column.find c2 4);
  let c3 = Tutil.column_of_seqs seqs ~level:3 in
  check Alcotest.int "level3 skips short rows" 2 (column_rows c3);
  check Alcotest.int "max value" 9 (Column.value c3 (Column.num_runs c3 - 1))

(* The binary search over run values at and between the run boundaries:
   below the first run, on each run, in a gap and past the last run. *)
let column_lower_bound () =
  let seqs = seqs_of [ [ 2 ]; [ 4 ]; [ 7 ] ] in
  let c = Tutil.column_of_seqs seqs ~level:1 in
  check Alcotest.int "below the first run" (-1) (Column.find c 1);
  check Alcotest.int "first run" 0 (Column.find c 2);
  check Alcotest.int "middle run" 1 (Column.find c 4);
  check Alcotest.int "gap" (-1) (Column.find c 5);
  check Alcotest.int "last run" 2 (Column.find c 7);
  check Alcotest.int "past the last run" (-1) (Column.find c 99)

(* The JDewey sequence of each of a term's raw rows, straight from the
   labeling: the reference the list shapes are checked against,
   independent of how the index built them. *)
let row_seqs lab idx id =
  Array.map (Xk_encoding.Labeling.jdewey_seq lab) (fst (Index.raw_rows idx id))

(* The score list's numbers and both shapes' Table I sizes against the
   row sequences: a group's level-major numbers are its rows' sequences,
   the join layout is the column codec over the reference runs plus the
   node varints, and the top-K layout is every number as a varint plus a
   4-byte score and the node per row, plus an 8-byte header per group. *)
let shapes_match_sequences lab idx id =
  let jl = Index.jlist idx id and sl = Index.score_list idx id in
  let seqs = row_seqs lab idx id in
  if Array.length seqs <> Jlist.length jl then
    QCheck.Test.fail_reportf "term %s: row count differs" (Index.term idx id);
  let fail what =
    QCheck.Test.fail_reportf "term %s: %s differs" (Index.term idx id) what
  in
  let varint = Xk_storage.Varint.size in
  Array.iter
    (fun (g : Score_list.group) ->
      let m = Array.length g.rows in
      if Array.length g.numbers <> g.len * m then fail "group numbers length";
      Array.iteri
        (fun i r ->
          for l = 1 to g.len do
            if g.numbers.(((l - 1) * m) + i) <> seqs.(r).(l - 1) then
              fail "group numbers"
          done)
        g.rows)
    (Score_list.groups sl);
  let node_bytes = Array.fold_left (fun a n -> a + varint n) 0 (Jlist.nodes jl) in
  let column_bytes =
    List.fold_left ( + ) 0
      (List.init (Jlist.max_len jl) (fun i ->
           Xk_storage.Column_codec.encoded_size
             (Array.of_list
                (List.map
                   (fun (value, _, count) ->
                     { Xk_storage.Column_codec.value; count })
                   (Tutil.naive_runs seqs ~level:(i + 1))))))
  in
  if Jlist.encoded_size jl <> column_bytes + node_bytes then
    fail "Jlist.encoded_size";
  let topk_bytes =
    Array.fold_left
      (fun a s -> a + Array.fold_left (fun a v -> a + varint v) 4 s)
      0 seqs
    + node_bytes
    + (8 * Array.length (Score_list.groups sl))
  in
  if Score_list.encoded_size sl <> topk_bytes then fail "Score_list.encoded_size"

(* The run-contiguity property behind the range checking: in a labeled
   random tree, every column of a term's list consists of runs over
   consecutive row indexes with strictly increasing values, each row of a
   run holding the run's value in its labeling sequence. *)
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
        let seqs = row_seqs lab idx id in
        for level = 1 to Jlist.max_len jl do
          let c = Jlist.column jl ~level in
          for i = 0 to Column.num_runs c - 1 do
            let value = Column.value c i in
            if i > 0 && value <= Column.value c (i - 1) then ok := false;
            (* Every row in the run really has this value at the level. *)
            let start = Column.start c i in
            for row = start to start + Column.count c i - 1 do
              let s = seqs.(row) in
              if Array.length s < level || s.(level - 1) <> value then
                ok := false
            done
          done
        done;
        shapes_match_sequences lab idx id
      done;
      !ok)

let column_matches_reference_prop =
  QCheck.Test.make ~count:200
    ~name:"column = run-length reference (random trees)"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let doc = Xk_datagen.Random_tree.generate (Xk_datagen.Rng.create seed) in
      let lab = Xk_encoding.Labeling.label doc in
      let idx = Index.build lab in
      for id = 0 to Index.term_count idx - 1 do
        let jl = Index.jlist idx id in
        let seqs = row_seqs lab idx id in
        shapes_match_sequences lab idx id;
        for level = 1 to Jlist.max_len jl do
          let c = Jlist.column jl ~level in
          let runs = Tutil.naive_runs seqs ~level in
          let fail what =
            QCheck.Test.fail_reportf "term %s, level %d: %s differs"
              (Index.term idx id) level what
          in
          if Tutil.column_runs c <> runs then fail "runs";
          if Column.num_runs c <> List.length runs then fail "num_runs";
          let values = List.map (fun (v, _, _) -> v) runs in
          (* Every number from below the first value to past the last. *)
          for probe = -1 to List.fold_left max 0 values + 1 do
            let below = List.length (List.filter (fun v -> v < probe) values) in
            let expect_find = if List.mem probe values then below else -1 in
            if Column.find c probe <> expect_find then fail "find"
          done
        done
      done;
      true)

(* Deterministic memory gate on the cached list shapes: every term of a
   fixed DBLP corpus warmed.  First the words reachable from its columns
   of at least 16 runs.  Three int arrays cost 3 words per run plus 7
   words per column (four headers, three fields), so at most 3.5 words per
   run at 16 runs; one boxed record per run would cost 5.  Then the words
   per row over the whole vocabulary, tail included: the JDewey lists
   alone read 29.56, and with the score lists 41.41. *)
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
      words !runs;
  let jls = Array.of_list (List.map (Index.jlist idx) ids) in
  let sls = Array.of_list (List.map (Index.score_list idx) ids) in
  (* The vocabulary fits the shape cache, so each score list holds the
     very JDewey list measured beside it. *)
  check Alcotest.bool "no list built twice" true
    (Array.for_all2 (fun sl jl -> Score_list.jlist sl == jl) sls jls);
  let rows = Array.fold_left (fun a jl -> a + Jlist.length jl) 0 jls in
  let per_row shapes bound what =
    let words =
      Obj.reachable_words (Obj.repr shapes) - (Array.length shapes + 1)
    in
    let w = float_of_int words /. float_of_int rows in
    if w > bound then
      Alcotest.failf "%s take %.3f words per row (%d words, %d rows)" what w
        words rows
  in
  per_row jls 30.0 "JDewey lists";
  per_row sls 41.5 "JDewey and score lists"

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
  let c = Tutil.column_of_seqs seqs ~level:1 in
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
      || Jlist.row_len jc r <> Jlist.row_len jh r
    then ok := false
  done;
  for level = 1 to Jlist.max_len jc do
    if
      Tutil.column_runs (Jlist.column jc ~level)
      <> Tutil.column_runs (Jlist.column jh ~level)
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

(* A fresh file per case, so concurrent runs of the suite never share
   (or delete) each other's segments. *)
let tmpfile name = Filename.temp_file (Filename.remove_extension name) (Filename.extension name)

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

(* The compressed zero-copy segment [save] writes: layout
   introspection, full verification, and bit-identical parity of the
   lazy open against an independent tally and a fresh in-memory
   build. *)

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

let index_io_roundtrip_layout () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Index.build label in
  let path = tmpfile "xk_index_io_layout.seg" in
  Index_io.save idx path;
  check Alcotest.(option string) "segment magic" (Some Index_io.magic) (Tutil.magic_of path);
  (match Index_io.layout path with
  | Error e -> Alcotest.failf "layout unreadable: %s" (Index_io.error_message e)
  | Ok lay ->
      check Alcotest.int "layout node count"
        (Xk_encoding.Labeling.node_count label)
        lay.Segment.node_count;
      check Alcotest.int "layout term-bearing node count"
        (Xk_encoding.Labeling.term_node_count label)
        lay.Segment.term_nodes;
      check Alcotest.int "layout term count" (Index.term_count idx)
        lay.Segment.term_count;
      let rows = ref 0 in
      for id = 0 to Index.term_count idx - 1 do
        rows := !rows + Index.df idx id
      done;
      check Alcotest.int "layout row count" !rows lay.Segment.total_rows;
      (* The regions sit back to back behind the header: no padding. *)
      check Alcotest.int "terms follow the header" 80 lay.Segment.terms_off;
      check Alcotest.int "postings follow the terms"
        (lay.Segment.terms_off + lay.Segment.terms_len)
        lay.Segment.postings_off;
      check Alcotest.int "directory follows the postings"
        (lay.Segment.postings_off + lay.Segment.postings_len)
        lay.Segment.dir_off;
      check Alcotest.int "file ends with the directory"
        (lay.Segment.dir_off + lay.Segment.dir_len)
        lay.Segment.file_size;
      check Alcotest.int "exact file size" lay.Segment.file_size
        (Index_io.file_size path));
  (match Index_io.verify path with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "full verify rejected a fresh segment: %s"
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

let index_io_rejects_mangled_header () =
  let doc = Tutil.random_doc 11 in
  let label = Xk_encoding.Labeling.label doc in
  Index.build label |> fun idx ->
  let path = tmpfile "xk_index_io_mangle.seg" in
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
      60 (* term-bearing node count *);
      72 (* directory crc *);
      76 (* header crc *);
    ];
  (* Restored bytes load again — the mangles above were the only issue. *)
  write_file path good;
  (match Index_io.load_result label path with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "restored segment rejected: %s"
        (Index_io.load_error_message e));
  Sys.remove path

(* A segment's directory and postings, parsed independently of
   [Index_io]: per block the file offsets of its CRC and of its
   postings, and their length; the file offset of the directory's bit
   stream; per term the file bit offset and bit length of its codes, df
   and cf - df.  A term's offset is found by stepping over the codes of
   the terms before it in its block's bit stream, as the format
   specifies them. *)
type seg_dir = {
  sd_blocks : (int * int * int) array;  (* CRC offset, postings offset, length *)
  sd_stream : int;
  sd_terms : (int * int * int * int) array;
}

let block_terms = 64

(* The Rice parameter the format derives from a df: the largest k with
   df * 2^k <= M, the term-bearing node count. *)
let rice_k ~nodes df =
  let k = ref 0 in
  while df > 0 && nodes lsr (!k + 1) >= df do
    incr k
  done;
  !k

(* Bit [i] of [data], least significant bit first. *)
let bit data i = (Char.code data.[i / 8] lsr (i mod 8)) land 1

(* The Elias-gamma code at file bit [!b] of [data], leaving [!b] past
   it. *)
let gamma_at data b =
  let n = ref 0 in
  while bit data !b = 0 do
    incr b;
    incr n
  done;
  incr b;
  let low = ref 0 in
  for i = 0 to !n - 1 do
    low := !low lor (bit data (!b + i) lsl i)
  done;
  b := !b + !n;
  (1 lsl !n) lor !low

(* The bit after term [df] Rice codes from file bit [at] of [data], and
   its tf gamma codes when [extra] > 0. *)
let skip_term data ~nodes ~at ~df ~extra =
  let k = rice_k ~nodes df and b = ref at in
  for _ = 1 to df do
    while bit data !b = 0 do
      incr b
    done;
    b := !b + 1 + k
  done;
  if extra > 0 then
    for _ = 1 to 2 * gamma_at data b do
      ignore (gamma_at data b)
    done;
  !b

let segment_dir data (lay : Segment.layout) =
  let n = lay.Segment.term_count in
  let nblocks = (n + block_terms - 1) / block_terms in
  let off = ref lay.Segment.postings_off in
  let c = Xk_storage.Varint.cursor_at data lay.Segment.dir_off in
  let sd_blocks =
    Array.init nblocks (fun _ ->
        let at = c.pos in
        Xk_storage.Varint.skip c 4;
        let len = Xk_storage.Varint.read c in
        let t = (at, !off, len) in
        off := !off + len;
        t)
  in
  let b = ref (8 * c.pos) in
  let dfs = Array.init n (fun _ -> gamma_at data b) in
  let extras = Array.make n 0 and prev = ref (-1) in
  for _ = 2 to gamma_at data b do
    prev := !prev + gamma_at data b;
    extras.(!prev) <- gamma_at data b
  done;
  let at = ref 0 in
  let sd_terms =
    Array.init n (fun id ->
        if id mod block_terms = 0 then begin
          let _, off, _ = sd_blocks.(id / block_terms) in
          at := 8 * off
        end;
        let df = dfs.(id) and extra = extras.(id) in
        let stop = skip_term data ~nodes:lay.Segment.term_nodes ~at:!at ~df ~extra in
        let t = (!at, stop - !at, df, extra) in
        at := stop;
        t)
  in
  { sd_blocks; sd_stream = c.pos; sd_terms }

(* [good] with the header's M replaced by [m], its checksum
   recomputed. *)
let with_term_nodes good m =
  let h = Bytes.of_string (String.sub good 0 80) in
  Bytes.set_int64_le h 60 (Int64.of_int m);
  Bytes.set_int32_le h 76 (Int32.of_int (Xk_storage.Crc32.sub (Bytes.to_string h) ~pos:0 ~len:76));
  Bytes.to_string h ^ String.sub good 80 (String.length good - 80)

(* The block whose postings hold file offset [pos]. *)
let block_of sd pos =
  let id = ref 0 in
  Array.iteri (fun b (_, off, len) -> if pos >= off && pos < off + len then id := b) sd.sd_blocks;
  !id

(* Bits as strings of '0' and '1': [bits_at data ~at ~len] reads them,
   [bytes_of] packs them, least significant bit first, zero bits to the
   byte. *)
let bits_at data ~at ~len = String.init len (fun i -> if bit data (at + i) = 1 then '1' else '0')

let bytes_of bits =
  String.init ((String.length bits + 7) / 8) (fun i ->
      let b = ref 0 in
      for j = 0 to 7 do
        if (8 * i) + j < String.length bits && bits.[(8 * i) + j] = '1' then b := !b lor (1 lsl j)
      done;
      Char.chr !b)

let term_bits good sd id =
  let at, len, _, _ = sd.sd_terms.(id) in
  bits_at good ~at ~len

(* One code as the format specifies it: [q] zero bits, a one bit and
   the [bits] low bits of [v]. *)
let code_bits q bits v =
  String.make q '0' ^ "1" ^ String.init bits (fun i -> if (v lsr i) land 1 = 1 then '1' else '0')

(* The Elias-gamma code of [v] >= 1. *)
let gamma_bits v =
  let rec top n = if v lsr (n + 1) = 0 then n else top (n + 1) in
  let n = top 0 in
  code_bits n n v

(* The directory's bit stream as the format specifies it, from each
   term's df and cf - df. *)
let dir_stream_bits sd =
  let tfs = List.filter (fun (_, (_, _, _, e)) -> e > 0) (List.mapi (fun id t -> (id, t)) (Array.to_list sd.sd_terms)) in
  let prev = ref (-1) in
  String.concat "" (Array.to_list (Array.map (fun (_, _, df, _) -> gamma_bits df) sd.sd_terms))
  ^ gamma_bits (List.length tfs + 1)
  ^ String.concat ""
      (List.map
         (fun (id, (_, _, _, e)) ->
           let gap = id - !prev in
           prev := id;
           gamma_bits gap ^ gamma_bits e)
         tfs)

(* [good] with its postings region replaced by [postings] and its
   directory by [dir], every covering checksum and length recomputed. *)
let with_regions good (lay : Segment.layout) ~postings ~dir =
  let h = Bytes.of_string (String.sub good 0 80) in
  Bytes.set_int64_le h 44 (Int64.of_int (String.length postings));
  Bytes.set_int64_le h 52 (Int64.of_int (String.length dir));
  Bytes.set_int32_le h 72 (Int32.of_int (Xk_storage.Crc32.string dir));
  Bytes.set_int32_le h 76 (Int32.of_int (Xk_storage.Crc32.sub (Bytes.to_string h) ~pos:0 ~len:76));
  Bytes.to_string h
  ^ String.sub good lay.Segment.terms_off lay.Segment.terms_len
  ^ postings ^ dir

(* [good] with each term's codes replaced by [codes id], each block's
   stream closed by [tail b bits] (default: zero bits to the byte), each
   block's length by [len b bytes] (default: its bytes) and the
   directory's bit stream by [stream] (default: the one [good] holds):
   the block table, every CRC and the header are recomputed, so the
   damage reaches the decoders behind them. *)
let with_postings ?(tail = fun _ _ -> "") ?(len = fun _ bytes -> String.length bytes) ?stream good
    (lay : Segment.layout) sd codes =
  let postings = Buffer.create lay.Segment.postings_len in
  let table = Buffer.create (8 * Array.length sd.sd_blocks) in
  Array.iteri
    (fun b _ ->
      let bits = Buffer.create 1024 in
      for t = b * block_terms to min (Array.length sd.sd_terms) ((b + 1) * block_terms) - 1 do
        Buffer.add_string bits (codes t)
      done;
      let bits = Buffer.contents bits in
      let bytes = bytes_of (bits ^ tail b bits) in
      Buffer.add_string postings bytes;
      Buffer.add_int32_le table (Int32.of_int (Xk_storage.Crc32.string bytes));
      Xk_storage.Varint.write table (len b bytes))
    sd.sd_blocks;
  let stream =
    match stream with
    | Some bits -> bytes_of bits
    | None -> String.sub good sd.sd_stream (lay.Segment.file_size - sd.sd_stream)
  in
  with_regions good lay ~postings:(Buffer.contents postings) ~dir:(Buffer.contents table ^ stream)

(* The rank of each node of [label] among its term-bearing nodes. *)
let ranks_of label =
  let m = ref 0 in
  Array.init (Xk_encoding.Labeling.node_count label) (fun i ->
      if Xk_encoding.Labeling.term_bearing (Xk_encoding.Labeling.xml_node label i) then begin
        incr m;
        !m - 1
      end
      else -1)

(* Ranks Rice-coded as the format specifies among [nodes] ranks. *)
let rice_bits ~nodes ranks =
  let k = rice_k ~nodes (Array.length ranks) and prev = ref (-1) in
  String.concat ""
    (Array.to_list
       (Array.map
          (fun r ->
            let gap = r - !prev - 1 in
            prev := r;
            code_bits (gap lsr k) k gap)
          ranks))

(* [Index.build] agrees with [Tutil.tally], which tokenizes the
   term-bearing nodes without the index: the same terms, numbered in
   byte order, each found by [term_id] in any case and named by [term],
   with the tally's rows, and [first_seen] names the terms in the order
   the token stream first meets them.  On [Tutil.random_doc] and
   [Tutil.decorated_doc] trees (attribute-bearing elements,
   stopword-only texts). *)
let build_matches_tally_prop =
  QCheck.Test.make ~count:30 ~name:"fresh build agrees with an independent tally"
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (decorated, seed) ->
      let doc = if decorated then Tutil.decorated_doc seed else Tutil.random_doc seed in
      let label = Xk_encoding.Labeling.label doc in
      let idx = Index.build label in
      let model, seen = Tutil.tally label in
      Index.term_count idx = Array.length model
      && Array.for_all Fun.id
           (Array.mapi
              (fun id (w, nodes, tfs) ->
                Index.term idx id = w
                && Index.term_id idx w = Some id
                && Index.term_id idx (String.uppercase_ascii w) = Some id
                && Index.df idx id = Array.length nodes
                && Index.raw_rows idx id = (nodes, tfs))
              model)
      && Array.for_all Fun.id
           (Array.mapi (fun i w -> Index.term idx (Index.first_seen idx i) = w) seen))

let parity_prop =
  QCheck.Test.make ~count:15
    ~name:"mmap load is bit-identical to the tally and a fresh build"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Xk_datagen.Rng.create seed in
      let doc = Xk_datagen.Random_tree.generate rng in
      let label = Xk_encoding.Labeling.label doc in
      let fresh = Index.build label in
      let p6 = tmpfile (Printf.sprintf "xk_v8_parity_%d.seg" seed) in
      Index_io.save fresh p6;
      let ok = ref (Tutil.magic_of p6 = Some Index_io.magic) in
      (* The rows the document holds, counted without the index. *)
      let model, _ = Tutil.tally label in
      (match Index_io.load_result (Xk_encoding.Labeling.label doc) p6 with
      | Ok lazy_idx ->
          let n = Index.term_count fresh in
          if Index.term_count lazy_idx <> n || Array.length model <> n then ok := false;
          if !ok then
            Array.iteri
              (fun id (term, nodes, tfs) ->
                match (Index.term_id lazy_idx term, Index.term_id fresh term) with
                | Some il, Some f ->
                    if
                      Index.raw_rows lazy_idx il <> (nodes, tfs)
                      || Index.raw_rows fresh f <> (nodes, tfs)
                      || il <> id
                    then ok := false;
                    (* Exact float equality: the same (tf, df) integers must
                       feed the same scorer on every path. *)
                    if Index.local_scores lazy_idx il <> Index.local_scores fresh f then
                      ok := false
                | _ -> ok := false)
              model;
          if !ok then begin
            let ef = Xk_core.Engine.of_index fresh
            and el = Xk_core.Engine.of_index lazy_idx in
            for _ = 1 to 3 do
              let words = Tutil.random_query rng ~k:2 ~alphabet:6 in
              let hf = Tutil.sort_hits (Xk_core.Engine.query ef words)
              and hl = Tutil.sort_hits (Xk_core.Engine.query el words) in
              if hl <> hf then ok := false;
              let tf = Xk_core.Engine.query_topk ef words ~k:3
              and tl = Xk_core.Engine.query_topk el words ~k:3 in
              if tl <> tf then ok := false
            done
          end
      | Error _ -> ok := false);
      Sys.remove p6;
      !ok)

(* Every decoder of a segment is total: for every strict prefix, a bit
   flip in each region and random garbage behind the magic, the open
   and [verify] return [Ok] or a typed error, and an opened index
   faults only with [Segment_fault].  Since every
   byte is under a CRC, every prefix and every flip must be an error at
   [verify].  The same holds for intact bytes under a corruption mark,
   which damages the map the decoders read.  Damage that only the
   format's decoders can meet, behind recomputed checksums, must end in
   a typed [Corrupted]: a unary run past the block's end, a rank at M,
   a block length past its terms, nonzero pad bits, a tf gamma code
   running past its block or longer than 61 bits, a block-length varint
   overhanging the postings, a df code running past the directory, a df
   of 0 or a tf-list gap of 0 (no gamma code holds 0: the 63 zero bits
   a wrapping reader would read as 0 are refused as too long), a tf-list
   gap past the term count, a term entry sharing more than the previous
   term, and symbol tables no writer produces
   ([Tutil.damaged_symbol_tables]: a symbol of length 0 or above 8, more
   than 255 symbols, a code naming a missing symbol, an escape at a
   suffix's end, a table whose decoded terms break byte order).  A
   header M that differs from the document's count is refused by the
   open, which checks it against the labeling.  The corpora carry
   attribute-bearing elements and stopword-only texts
   ([Tutil.decorated_doc]). *)
let never_raises_prop =
  QCheck.Test.make ~count:10 ~name:"segment decoders never raise on damaged bytes"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let label = Xk_encoding.Labeling.label (Tutil.decorated_doc seed) in
      let path = tmpfile (Printf.sprintf "xk_fuzz_%d.seg" seed) in
      let fresh = Index.build label in
      Index_io.save fresh path;
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
            (0, lay.Segment.terms_off);
            (lay.Segment.terms_off, lay.Segment.terms_len);
            (lay.Segment.postings_off, lay.Segment.postings_len);
            (lay.Segment.dir_off, lay.Segment.dir_len);
          ]
      in
      (* The same flips with every covering checksum recomputed, so the
         damage gets past the CRCs and reaches the structural checks of
         the header, term region, directory and postings decoders.  One
         flip lands in a term's tf codes when the segment has some. *)
      let sd = segment_dir good lay in
      let nodes = lay.Segment.term_nodes and n = lay.Segment.term_count in
      let tf_start id =
        let at, _, df, _ = sd.sd_terms.(id) in
        skip_term good ~nodes ~at ~df ~extra:0
      in
      let with_tfs =
        List.filter (fun id -> let _, _, _, e = sd.sd_terms.(id) in e > 0) (List.init n Fun.id)
      in
      let tf_section =
        List.map
          (fun id ->
            let at, len, _, _ = sd.sd_terms.(id) in
            let start = tf_start id in
            (start / 8, ((at + len + 7) / 8) - (start / 8)))
          with_tfs
      in
      let resealed =
        let set_crc b at crc = Bytes.set_int32_le b at (Int32.of_int crc) in
        let crc_of b ~pos ~len = Xk_storage.Crc32.sub (Bytes.to_string b) ~pos ~len in
        let reseal ~region b pos =
          if region = `Terms then
            set_crc b 68 (crc_of b ~pos:lay.Segment.terms_off ~len:lay.Segment.terms_len);
          (if region = `Postings then
             let crc_at, pos, len = sd.sd_blocks.(block_of sd pos) in
             set_crc b crc_at (crc_of b ~pos ~len));
          if region = `Postings || region = `Dir then
            set_crc b 72 (crc_of b ~pos:lay.Segment.dir_off ~len:lay.Segment.dir_len);
          set_crc b 76 (crc_of b ~pos:0 ~len:76)
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
             (`Header, 8, 60);
             (`Terms, lay.Segment.terms_off, lay.Segment.terms_len);
             (`Postings, lay.Segment.postings_off, lay.Segment.postings_len);
             (`Dir, lay.Segment.dir_off, lay.Segment.dir_len);
           ]
          @
          match tf_section with
          | [] -> []
          | l ->
              let off, len = List.nth l (Random.State.int rng (List.length l)) in
              [ (`Postings, off, len) ])
      in
      (* Damage behind valid checksums that only the format's decoders
         meet, named by the check that must refuse it.  The last term of
         a block ends where the block's stream does. *)
      let sorted = Array.of_list (List.sort compare (List.init n (Index.term fresh))) in
      let ids_of id = fst (Index.raw_rows fresh (Option.get (Index.term_id fresh sorted.(id)))) in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let block_end () =
        let b = Random.State.int rng (Array.length sd.sd_blocks) in
        min n ((b + 1) * block_terms) - 1
      in
      let block_bits b =
        List.fold_left
          (fun acc t -> acc + (let _, len, _, _ = sd.sd_terms.(t) in len))
          0
          (List.init (min n ((b + 1) * block_terms) - (b * block_terms)) (fun i -> (b * block_terms) + i))
      in
      let term id = term_bits good sd id in
      let postings ?tail ?len ?stream codes = with_postings ?tail ?len ?stream good lay sd codes in
      let dfs = Array.map (fun (_, _, df, _) -> df) sd.sd_terms in
      let df_bits = String.concat "" (Array.to_list (Array.map gamma_bits dfs)) in
      (* The 63 zero bits, one bit and 63 zero bits a reader wrapping
         [1 lsl 63] would read as 0. *)
      let zero_code = code_bits 63 63 0 in
      let replace id bits t = if t = id then bits else term t in
      (* Term [id]'s Rice codes, then [tf]; the terms after it in its
         block dropped, so [tf] is where the block's stream ends. *)
      let tf_at_end id tf =
        let at, _, _, _ = sd.sd_terms.(id) in
        let rice = bits_at good ~at ~len:(tf_start id - at) in
        postings (fun t ->
            if t = id then rice ^ tf
            else if t / block_terms = id / block_terms && t > id then ""
            else term t)
      in
      let padded =
        List.filter (fun b -> block_bits b mod 8 <> 0) (List.init (Array.length sd.sd_blocks) Fun.id)
      in
      let damage =
        if n = 0 then []
        else
          [
            ( "unary run past the block's end",
              let id = block_end () in
              postings (replace id (String.make (String.length (term id)) '0')) );
            ( "rank at M",
              let id = Random.State.int rng n in
              let ranks = Array.map (Array.get (ranks_of label)) (ids_of id) in
              ranks.(Array.length ranks - 1) <- nodes;
              let at, len, _, _ = sd.sd_terms.(id) in
              let tf = bits_at good ~at:(tf_start id) ~len:(at + len - tf_start id) in
              postings (replace id (rice_bits ~nodes ranks ^ tf)) );
            ( "block-length varint overhanging the postings",
              postings ~len:(fun b bytes -> if b = 0 then max_int else String.length bytes) term );
            ( "df code running past the directory",
              let last = String.length (gamma_bits dfs.(n - 1)) in
              postings
                ~stream:(String.sub df_bits 0 (String.length df_bits - last) ^ String.make 9 '0')
                term );
            ( "tf-list gap of 0",
              postings ~stream:(df_bits ^ gamma_bits 2 ^ zero_code ^ gamma_bits 1) term );
            ( "tf-list gap past the term count",
              postings ~stream:(df_bits ^ gamma_bits 2 ^ gamma_bits (n + 1) ^ gamma_bits 1) term );
            (* A term without rows, its codes gone and the row count
               lowered to match, so only the df code can refuse it. *)
            ( "df = 0",
              let no_tfs = List.filter (fun id -> not (List.mem id with_tfs)) (List.init n Fun.id) in
              let id = if no_tfs = [] then 0 else pick no_tfs in
              let seg =
                postings
                  ~stream:
                    (String.concat ""
                       (Array.to_list (Array.mapi (fun i df -> if i = id then zero_code else gamma_bits df) dfs))
                    ^ String.sub (dir_stream_bits sd) (String.length df_bits)
                        (String.length (dir_stream_bits sd) - String.length df_bits))
                  (fun t -> if t = id then "" else term t)
              in
              let h = Bytes.of_string (String.sub seg 0 80) in
              Bytes.set_int64_le h 28 (Int64.of_int (lay.Segment.total_rows - dfs.(id)));
              Bytes.set_int32_le h 76
                (Int32.of_int (Xk_storage.Crc32.sub (Bytes.to_string h) ~pos:0 ~len:76));
              Bytes.to_string h ^ String.sub seg 80 (String.length seg - 80) );
            ( "block length past its terms",
              postings ~tail:(fun b bits ->
                  if b = 0 then String.make ((8 - (String.length bits mod 8)) mod 8 + 8) '0' else "")
                term );
          ]
          @ (match padded with
            | [] -> []
            | l ->
                let pb = pick l in
                [ ("nonzero pad bits", postings ~tail:(fun b _ -> if b = pb then "1" else "") term) ])
          @ (match with_tfs with
            | [] -> []
            | l ->
                [
                  ("tf gamma code running past its block", tf_at_end (pick l) (code_bits 40 0 0));
                  (* One exception at position 0, its position code
                     64 bits wide, then the tf code the term's cf asks
                     for: well formed but for the width. *)
                  ( "tf gamma code longer than 61 bits",
                    let id = pick l in
                    let _, _, _, extra = sd.sd_terms.(id) in
                    tf_at_end id ("1" ^ code_bits 64 64 1 ^ gamma_bits extra) );
                ])
          @ (
            (* Entry 1 of the term region claims one byte more of entry
               0 than entry 0 has. *)
            let syms = Tutil.symbols_of (Tutil.term_region_of good) in
            let words = Array.to_list sorted in
            let region ~entry = Tutil.with_term_region good (Tutil.term_region ~syms ~entry words) in
            if n < 2 then []
            else
              [
                ( "entry sharing more than the previous term",
                  region ~entry:(fun k e ->
                      if k = 1 then
                        Tutil.spec_entry ~shared:(String.length sorted.(0) + 1) (Tutil.spec_codes syms "x")
                      else e) );
              ])
          @
          let distinct =
            List.sort_uniq compare
              (List.concat_map (fun t -> List.of_seq (String.to_seq t)) (Array.to_list sorted))
          in
          if n < 2 || List.length distinct < 2 then []
          else
            List.map
              (fun (what, region) -> (what, Tutil.with_term_region good region))
              (Tutil.damaged_symbol_tables (Array.to_list sorted))
      in
      (* Each must be refused as corruption by every decoder: the open
         either refuses it or faults on the damaged term. *)
      let corrupted what data =
        write_file path data;
        let refused = function
          | Error { Index_io.error = Index_io.Corrupted _; _ } -> true
          | Error _ | Ok _ -> false
        in
        match
          ( (match Index_io.load_result ~retries:0 label path with
            | Ok idx -> (
                try
                  for id = 0 to Index.term_count idx - 1 do
                    ignore (Index.raw_rows idx id)
                  done;
                  false
                with Index_io.Segment_fault _ -> true)
            | r -> refused (Result.map ignore r)),
            refused (Index_io.verify ~retries:0 path) )
        with
        | true, true -> true
        | _ -> QCheck.Test.fail_reportf "%s: not refused as corruption" what
        | exception e -> QCheck.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
      in
      (* Refused as corruption by the open, which knows the document. *)
      let opens_refuse what data =
        write_file path data;
        (match Index_io.load_result ~retries:0 label path with
        | Error { Index_io.error = Index_io.Corrupted _; _ } -> true
        | Error _ | Ok _ -> false)
        || QCheck.Test.fail_reportf "%s: not refused as corruption" what
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
            && List.for_all (fun (what, d) -> corrupted what d) damage
            && opens_refuse "header M off by one" (with_term_nodes good (nodes + 1))
            && decoders good = Some true
            &&
            (* A copy marked corrupt reads damaged beneath the map. *)
            (Chaos.mark_corrupt ~path;
             decoders good = Some false))
      in
      Sys.remove path;
      ok)

(* Segments over hand-made postings: [Segment.encode] takes any rows,
   so the properties below reach tf shapes and term counts the
   generators rarely produce.  The flat document supplies the node ids:
   a root with an attribute over text nodes, so every node can hold a
   term. *)
let flat_label nodes =
  Xk_encoding.Labeling.label
    {
      Xk_xml.Xml_tree.root =
        Xk_xml.Xml_tree.element ~attrs:[ Xk_xml.Xml_tree.attr "id" "r" ] "r"
          (List.init (nodes - 1) (fun _ -> Xk_xml.Xml_tree.text "t"));
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

(* The segment of (term, nodes, tfs) entries in byte order, through
   the encoder. *)
let encode_raw label entries =
  let terms = Array.of_list (List.map (fun (term, _, _) -> term) entries) in
  let starts = Array.make (Array.length terms + 1) 0 in
  List.iteri (fun id (_, nodes, _) -> starts.(id + 1) <- starts.(id) + Array.length nodes) entries;
  Xk_index.Segment.encode label ~terms ~starts
    ~nodes:(Array.concat (List.map (fun (_, nodes, _) -> nodes) entries))
    ~tfs:(Array.concat (List.map (fun (_, _, tfs) -> tfs) entries))

(* Writes [encode_raw]'s bytes and returns the entries' rows by term
   id. *)
let save_raw label entries path =
  write_file path (encode_raw label entries);
  Array.of_list (List.map (fun (_, nodes, tfs) -> (nodes, tfs)) entries)

let load_no_faults label path =
  let module Chaos = Xk_resilience.Chaos in
  Chaos.configure Chaos.no_faults;
  Fun.protect ~finally:Chaos.reset (fun () ->
      match Index_io.load_result ~retries:0 label path with
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
      let path = tmpfile (Printf.sprintf "xk_v8_tfs_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let rows = save_raw label entries path in
          let loaded = load_no_faults label path in
          Result.is_ok (Index_io.verify path)
          && List.for_all (fun id -> Index.raw_rows loaded id = rows.(id)) [ 0; 1; 2 ]))

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
            (* Zero-padded, so byte order keeps the ids. *)
            ( Printf.sprintf "t%04d" i,
              random_nodes rng ~nodes ~df,
              Array.init df (fun _ -> if Random.State.int rng 4 = 0 then 3 else 1) ))
      in
      let path = tmpfile (Printf.sprintf "xk_v8_block_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let rows = save_raw label entries path in
          let good = read_file path in
          let lay =
            match Index_io.layout path with
            | Ok lay -> lay
            | Error e -> QCheck.Test.fail_reportf "layout: %s" (Index_io.error_message e)
          in
          let pos = lay.Segment.postings_off + Random.State.int rng lay.Segment.postings_len in
          let b = Bytes.of_string good in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Random.State.int rng 255)));
          write_file path (Bytes.to_string b);
          let damaged = block_of (segment_dir good lay) pos in
          let loaded = load_no_faults label path in
          (* Twice over, so a block stays faulty after its first fault. *)
          List.for_all
            (fun id ->
              match Index.raw_rows loaded id with
              | r -> id / block_terms <> damaged && r = rows.(id)
              | exception Index_io.Segment_fault _ -> id / block_terms = damaged)
            (List.init n Fun.id @ List.init n Fun.id)))

(* A block table whose lengths wrap past [max_int] back onto the
   postings length: four blocks over a flat document, each length 2^61
   more than the block's bytes.  Four of them sum to the region's length
   modulo 2^63 and eight times each is the block's bits modulo 2^63, so
   the lengths tile the region and every df fits its block's bits in
   wrapped arithmetic.  Every decoder must refuse them as corruption
   before any offset leaves the region. *)
let wrapping_block_lengths () =
  let rng = Random.State.make [| 9 |] in
  let label = flat_label 100 in
  let entries =
    List.init ((3 * block_terms) + 1) (fun i ->
        (Printf.sprintf "t%04d" i, random_nodes rng ~nodes:100 ~df:2, [| 1; 1 |]))
  in
  let path = tmpfile "xk_wrap.seg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      ignore (save_raw label entries path);
      let good = read_file path in
      let lay =
        match Index_io.layout path with
        | Ok lay -> lay
        | Error e -> Alcotest.failf "layout: %s" (Index_io.error_message e)
      in
      let sd = segment_dir good lay in
      let len _ bytes = (1 lsl 61) + String.length bytes in
      write_file path (with_postings ~len good lay sd (term_bits good sd));
      let corrupted what = function
        | Error { Index_io.error = Index_io.Corrupted _; _ } -> ()
        | Error e -> Alcotest.failf "%s: %s" what (Index_io.load_error_message e)
        | Ok _ -> Alcotest.failf "%s accepted wrapping block lengths" what
      in
      corrupted "open" (Result.map ignore (Index_io.load_result ~retries:0 label path));
      corrupted "verify" (Index_io.verify ~retries:0 path))

(* Rows survive the rank coding on corpora with every kind of node the
   index meets ([Tutil.decorated_doc]: attribute-bearing elements,
   stopword-only texts), at 1 to 3 shards: every shard's opened segment
   holds [Tutil.tally]'s rows for every term, in byte order.  A row at
   a node that cannot hold terms has no rank, and [Segment.encode]
   refuses it. *)
let rank_roundtrip_prop =
  QCheck.Test.make ~count:20 ~name:"rank-coded rows round-trip at 1-3 shards"
    QCheck.(pair (int_range 1 3) (int_bound 1_000_000))
    (fun (shards, seed) ->
      let doc = Tutil.decorated_doc seed in
      let sharded = Sharding.partition ~shards doc in
      let path = tmpfile (Printf.sprintf "xk_ranks_%d.shards" seed) in
      let files = path :: List.init shards (fun s -> Shard_io.segment_path path ~shard:s) in
      Fun.protect
        ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) files)
        (fun () ->
          Shard_io.save sharded path;
          let loaded =
            match Shard_io.load_result doc path with
            | Ok l -> l
            | Error e -> QCheck.Test.fail_reportf "load: %s" (Shard_io.error_message e)
          in
          let same s =
            let opened = Sharding.index loaded s in
            let model, _ = Tutil.tally (Index.label opened) in
            Index.term_count opened = Array.length model
            && Array.for_all Fun.id
                 (Array.mapi
                    (fun id (w, nodes, tfs) ->
                      Index.term opened id = w && Index.raw_rows opened id = (nodes, tfs))
                    model)
          in
          let label = Xk_encoding.Labeling.label doc in
          let refused bare =
            match encode_raw label [ ("t", [| bare |], [| 1 |]) ] with
            | _ -> false
            | exception Invalid_argument _ -> true
          in
          List.for_all same (List.init shards Fun.id)
          && List.for_all refused
               (List.filter
                  (fun i ->
                    not (Xk_encoding.Labeling.term_bearing (Xk_encoding.Labeling.xml_node label i)))
                  (List.init (Xk_encoding.Labeling.node_count label) Fun.id))))

(* The segment's regions are size gates: on [Dblp_gen.scaled 0.05]
   (seed 2010, 3,024 terms, 13,597 rows) none may grow past what it
   measured when its encoding last changed: the front-coded term region
   with symbol-coded suffixes 2.648 bytes per term (8,007 bytes, since
   v8; v7's raw suffixes took 3.851, v6's two varints per entry 4.788),
   the directory, gamma-coded dfs and tf list in one bit stream with a
   varint block length, 0.436 bytes per term (1,319 bytes, v9; v8's
   varint per term 1.164, v6's three varints per term 3.080) and the
   postings, node ranks among the term-bearing nodes in one bit stream
   per block with gamma-coded tfs, 1.156 bytes per row (15,713 bytes,
   v9; v8's node ids 1.326, v7's byte-padded terms and varint tfs
   1.523, v6's delta varints 1.722). *)
let region_bytes_gate () =
  let corpus =
    Xk_datagen.Dblp_gen.generate { (Xk_datagen.Dblp_gen.scaled 0.05) with seed = 2010 }
  in
  let path = tmpfile "xk_term_region_gate.seg" in
  Index_io.save (Index.build (Xk_encoding.Labeling.label corpus.doc)) path;
  let lay =
    match Index_io.layout path with
    | Ok lay -> lay
    | Error e -> Alcotest.failf "layout: %s" (Index_io.error_message e)
  in
  Sys.remove path;
  List.iter
    (fun (what, bytes, per, unit, gate) ->
      let v = float_of_int bytes /. float_of_int per in
      if v > gate then Alcotest.failf "%s takes %.3f bytes per %s, gate %.3f" what v unit gate)
    [
      ("term region", lay.Segment.terms_len, lay.Segment.term_count, "term", 2.65);
      ("directory", lay.Segment.dir_len, lay.Segment.term_count, "term", 0.44);
      ("postings", lay.Segment.postings_len, lay.Segment.total_rows, "row", 1.16);
    ]

(* Every term of an opened segment round-trips through [term_id] and
   [term], in any case, with its rows, and a word the model lacks is
   absent from the segment too: one before the first term, one after the
   last, one between each pair of neighbours, each term's prefixes, and
   their upper-case forms.  Half the cases index a random tree over up
   to 60 keywords ("kw0" .. "kw59", so blocks share prefixes), with
   [Tutil.tally] as the model, half a random vocabulary of up to 200
   words with a one-row posting each, encoded directly. *)
let term_lookup_prop =
  QCheck.Test.make ~count:30
    ~name:"v6 terms round-trip through term_id and term, absent words stay absent"
    QCheck.(pair bool (int_bound 1_000_000))
    (fun (tree, seed) ->
      let rng = Random.State.make [| seed |] in
      let path = tmpfile (Printf.sprintf "xk_v8_terms_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let label, model =
            if tree then begin
              let config =
                { Xk_datagen.Random_tree.default with keywords = 1 + Random.State.int rng 60 }
              in
              let label =
                Xk_encoding.Labeling.label
                  (Xk_datagen.Random_tree.generate ~config (Xk_datagen.Rng.create seed))
              in
              Index_io.save (Index.build label) path;
              (label, Array.map (fun (w, nodes, tfs) -> (w, (nodes, tfs))) (fst (Tutil.tally label)))
            end
            else begin
              let word () =
                String.init (1 + Random.State.int rng 6) (fun _ ->
                    Char.chr (Char.code 'a' + Random.State.int rng 4))
              in
              let words =
                List.sort_uniq compare (List.init (Random.State.int rng 200) (fun _ -> word ()))
              in
              let label = flat_label 8 in
              let entries =
                List.map (fun w -> (w, [| Random.State.int rng 8 |], [| 1 |])) words
              in
              (label, Array.of_list (List.combine words (Array.to_list (save_raw label entries path))))
            end
          in
          let loaded = load_no_faults label path in
          let n = Array.length model in
          let terms = List.map fst (Array.to_list model) in
          let present =
            Array.for_all
              (fun (w, ((nodes, _) as rows)) ->
                List.for_all
                  (fun w' ->
                    match Index.term_id loaded w' with
                    | Some lid ->
                        Index.term loaded lid = w
                        && Index.df loaded lid = Array.length nodes
                        && Index.raw_rows loaded lid = rows
                    | None -> false)
                  [ w; String.uppercase_ascii w ])
              model
          in
          let absent =
            ("" :: "\000" :: "\255\255"
            :: List.concat_map
                 (fun w -> List.init (String.length w) (String.sub w 0) @ [ w ^ "\000"; w ^ "a\000" ])
                 terms)
            |> List.filter (fun w -> not (List.mem w terms))
          in
          Index.term_count loaded = n
          && present
          && List.for_all
               (fun w ->
                 Index.term_id loaded w = None
                 && Index.term_id loaded (String.uppercase_ascii w) = None)
               absent))

(* The symbol coder round-trips any vocabulary: 1, 16, 17 (one restart
   more) or 300 to 500 terms of 1 to 40 bytes, half of random bytes and
   half of repeated syllables (so a table pays), with 0x00, 0x80 and 0xFF
   among the bytes.  A segment of them decodes every term to itself,
   numbers them in byte order, finds each by [term_id], and its term
   region is never longer than the same region uncoded; a table trained
   on the terms decodes each term's codes to the term; and a segment
   whose region the format's encoder wrote with a table of symbols of
   1 to 8 bytes decodes every term to itself too. *)
let symbol_coder_roundtrip_prop =
  QCheck.Test.make ~count:40 ~name:"symbol-coded term regions round-trip any vocabulary"
    QCheck.(pair (int_bound 3) (int_bound 1_000_000))
    (fun (size, seed) ->
      let rng = Random.State.make [| seed |] in
      let n = [| 1; 16; 17; 300 + Random.State.int rng 201 |].(size) in
      let bytes = "\000\128\255abcdefghijklmnopqrstuvwxyz0123456789-" in
      let byte () = bytes.[Random.State.int rng (String.length bytes)] in
      let syllables = Array.init 12 (fun _ -> String.init (1 + Random.State.int rng 3) (fun _ -> byte ())) in
      let word () =
        if Random.State.bool rng then String.init (1 + Random.State.int rng 40) (fun _ -> byte ())
        else
          let w = String.concat "" (List.init (1 + Random.State.int rng 10) (fun _ ->
              syllables.(Random.State.int rng (Array.length syllables)))) in
          String.sub w 0 (min 40 (String.length w))
      in
      let words = ref [] in
      while List.length !words < n do
        words := List.sort_uniq compare (word () :: !words)
      done;
      let words = !words in
      let path = tmpfile (Printf.sprintf "xk_v8_symbols_%d.seg" seed) in
      Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
          let label = flat_label 8 in
          ignore (save_raw label (List.map (fun w -> (w, [| Random.State.int rng 8 |], [| 1 |])) words) path);
          let loaded = load_no_faults label path in
          let lay =
            match Index_io.layout path with
            | Ok lay -> lay
            | Error e -> QCheck.Test.fail_reportf "layout: %s" (Index_io.error_message e)
          in
          let syms = Xk_storage.Symbols.train (Array.of_list words) in
          let coder = Xk_storage.Symbols.coder syms in
          let coded w =
            let b = Buffer.create 64 in
            Xk_storage.Symbols.encode coder b w;
            let codes = Buffer.contents b in
            let d = Xk_storage.Symbols.scratch () in
            Xk_storage.Symbols.decode syms codes ~pos:0 ~len:(String.length codes) d;
            Bytes.sub_string d.bytes 0 d.len
          in
          (* A table no trainer writes: up to 254 pieces of 1 to 8 bytes
             of the words, written into the segment by the format's
             encoder. *)
          let hand =
            List.init 254 (fun _ ->
                let w = List.nth words (Random.State.int rng n) in
                let len = 1 + Random.State.int rng (min 8 (String.length w)) in
                String.sub w (Random.State.int rng (String.length w - len + 1)) len)
            |> List.sort_uniq compare |> Array.of_list
          in
          let terms_ok idx =
            Index.term_count idx = n
            && List.for_all2 (fun id w -> Index.term idx id = w && Index.term_id idx w = Some id)
                 (List.init n Fun.id) words
          in
          let good = read_file path in
          write_file path (Tutil.with_term_region good (Tutil.term_region ~syms:hand words));
          terms_ok loaded
          && terms_ok (load_no_faults label path)
          && lay.Segment.terms_len <= String.length (Tutil.term_region words)
          && List.for_all (fun w -> coded w = w) words))

(* Ingest is pinned bit for bit: a printed corpus parsed, tokenized,
   indexed and saved as one segment must hash to the digest the v8
   writer wrote for the index of the byte-at-a-time parser, buffered
   tokenizer and hashtable tally, and the fresh build's first-seen
   order ([Index.first_seen], which breaks [terms_by_df]'s ties) must
   not move.  A build that changes a term's postings, or reorders its
   first-seen terms, fails here. *)
let pinned_segment ~name doc =
  let xml = Xk_xml.Xml_print.to_string doc in
  let sharded = Sharding.partition ~shards:1 (Xk_xml.Xml_parser.parse_string_exn xml) in
  let path = tmpfile (Printf.sprintf "xk_pinned_%s.manifest" name) in
  let seg = Shard_io.segment_path path ~shard:0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ path; seg ])
    (fun () ->
      Shard_io.save sharded path;
      let idx = Sharding.index sharded 0 in
      ( Digest.to_hex (Digest.file seg),
        List.init (Index.term_count idx) (fun i -> Index.term idx (Index.first_seen idx i)) ))

let segment_bytes_pinned () =
  let dblp =
    Xk_datagen.Dblp_gen.generate { (Xk_datagen.Dblp_gen.scaled 0.05) with seed = 2010 }
  in
  let xmark =
    Xk_datagen.Xmark_gen.generate { (Xk_datagen.Xmark_gen.scaled 0.05) with seed = 2010 }
  in
  let dblp_digest, dblp_terms = pinned_segment ~name:"dblp" dblp.doc in
  let xmark_digest, xmark_terms = pinned_segment ~name:"xmark" xmark.doc in
  check Alcotest.string "dblp segment digest" "b08df6fd3b213263e77d47f4fe0f3d1a" dblp_digest;
  check Alcotest.string "xmark segment digest" "980dd3ec4c7bd7d0bd7e117c373dcde8" xmark_digest;
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
        QCheck_alcotest.to_alcotest build_matches_tally_prop;
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
        tc "segment layout and roundtrip" `Quick index_io_roundtrip_layout;
        tc "segment rejects mangled header" `Quick index_io_rejects_mangled_header;
        tc "segment bytes pinned" `Quick segment_bytes_pinned;
        tc "term region bytes per term gate" `Quick region_bytes_gate;
        tc "wrapping block lengths are corruption" `Quick wrapping_block_lengths;
        QCheck_alcotest.to_alcotest parity_prop;
        QCheck_alcotest.to_alcotest never_raises_prop;
        QCheck_alcotest.to_alcotest tf_exceptions_roundtrip_prop;
        QCheck_alcotest.to_alcotest block_fault_prop;
        QCheck_alcotest.to_alcotest term_lookup_prop;
        QCheck_alcotest.to_alcotest symbol_coder_roundtrip_prop;
        QCheck_alcotest.to_alcotest rank_roundtrip_prop;
      ] );
  ]
