(* Segment open-latency experiment: a verified open of a segment
   ([Index_io.verify], which checks every block CRC and decodes every
   term's postings, then the open, the path a scrub takes) against the
   lazy zero-copy open alone (mmap, verify the header/terms/directory,
   check the term region's order, decode the directory, build no
   dictionary, and defer every term's postings decode to first access),
   the one open serving takes.  For each corpus scale the harness saves
   the index once and measures, for both opens of that same file,

     cold open        - the first open of the file after the parity
                        gate, from a collected heap
     open words       - the OCaml heap words that cold open allocates,
                        a count that does not vary from run to run
     warm open        - the mean of repeated reopens
     first query      - one top-10 query on a freshly opened segment,
                        which on the lazy path pays the decode of
                        exactly the queried terms

   and records them in BENCH_open.json.  Every point is parity-gated
   first: the three engines (fresh build, verified open, lazy open) must
   return bit-identical hits for the probe queries.  A fresh build reads
   its own encoded bytes through the same segment reader as a mapped
   file, so the gate compares the in-memory and mapped opens of one
   reader.

     dune exec bench/bench_open.exe                     # defaults
     dune exec bench/bench_open.exe -- --scales 0.2,1.0 --opens 10
     dune exec bench/bench_open.exe -- --check          # parity + floor gates

   The OS page cache stays warm throughout (the file was just written),
   so the measured gap is decode and verification work only - a lower
   bound on the true cold gap, where the verified open must additionally
   fault in every postings page while the lazy open faults in pages on
   first access. *)

open Bench_util

type open_point = {
  cold_ms : float;
  cold_words : float;
  warm_ms : float;
  first_query_ms : float;
}

type point = {
  scale : float;
  nodes : int;
  terms : int;
  rows : int;
  bytes : int;
  (* The three regions: front-coded terms, Rice-coded postings and the
     directory. *)
  terms_bytes : int;
  postings_bytes : int;
  dir_bytes : int;
  verified : open_point;
  lazy_ : open_point;
  cold_speedup : float;
  word_ratio : float; (* verified cold-open words / lazy cold-open words *)
}

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "xk_bench_open_%d_%s" (Unix.getpid ()) name)

let load ~verified label path =
  match
    Result.bind
      (if verified then Xk_index.Index_io.verify path else Ok ())
      (fun () -> Xk_index.Index_io.load_result label path)
  with
  | Ok idx -> idx
  | Error e ->
      failwith
        (Printf.sprintf "load %s: %s" path
           (Xk_index.Index_io.load_error_message e))

let same_hits a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

(* Bit-identical results across all three load paths (one segment
   reader, over the build's own bytes and over the mapped file, verified
   first or not), for every probe query, in both complete and top-K
   modes. *)
let verify_parity ~fresh ~verified ~lazy_ queries =
  let engines =
    [
      ("fresh", Xk_core.Engine.of_index fresh);
      ("verified", Xk_core.Engine.of_index verified);
      ("lazy", Xk_core.Engine.of_index lazy_);
    ]
  in
  let reference = List.assoc "fresh" engines in
  List.iteri
    (fun i words ->
      let want = Xk_core.Engine.query reference words in
      let want_k = Xk_core.Engine.query_topk reference words ~k:10 in
      List.iter
        (fun (name, eng) ->
          if not (same_hits want (Xk_core.Engine.query eng words)) then
            failwith
              (Printf.sprintf "parity: query %d differs on the %s path" i name);
          if not (same_hits want_k (Xk_core.Engine.query_topk eng words ~k:10))
          then
            failwith
              (Printf.sprintf "parity: top-10 %d differs on the %s path" i name))
        engines)
    queries

(* Each cold open starts from a collected heap: otherwise the second
   open measured pays the major-GC debt of the first one's garbage, and
   the ratio measures allocation order instead of open work. *)
let measure ~verified ~label ~path ~words ~opens =
  Gc.full_major ();
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let first = load ~verified label path in
  let cold_ms = (now () -. t0) *. 1000. in
  let cold_words =
    (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8)
  in
  let tq = now () in
  let eng = Xk_core.Engine.of_index first in
  ignore (Xk_core.Engine.query_topk eng words ~k:10);
  let first_query_ms = (now () -. tq) *. 1000. in
  let warm_ms = time_ms ~runs:opens (fun () -> load ~verified label path) in
  { cold_ms; cold_words; warm_ms; first_query_ms }

let sweep_point ~opens ~seed scale =
  let t0 = now () in
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled scale) in
  let label = Xk_encoding.Labeling.label corpus.doc in
  let idx = Xk_index.Index.build label in
  let nodes = Xk_encoding.Labeling.node_count label in
  let terms = Xk_index.Index.term_count idx in
  let rows =
    let n = ref 0 in
    for id = 0 to terms - 1 do
      n := !n + Array.length (fst (Xk_index.Index.raw_rows idx id))
    done;
    !n
  in
  Printf.printf "scale %g: %d nodes, %d terms, %d rows (built in %.1fs)\n%!"
    scale nodes terms rows (now () -. t0);
  let path = tmp (Printf.sprintf "%g.seg" scale) in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Xk_index.Index_io.save idx path;
      let rng = Xk_datagen.Rng.create seed in
      let high = Xk_workload.Workload.max_df idx in
      let low = max 2 (high / 20) in
      let queries =
        Xk_workload.Workload.random_queries rng idx ~k:2 ~high ~low ~n:5
      in
      verify_parity ~fresh:idx
        ~verified:(load ~verified:true label path)
        ~lazy_:(load ~verified:false label path)
        queries;
      Printf.printf "  parity verified on %d probe queries\n%!"
        (List.length queries);
      let words = List.hd queries in
      let verified = measure ~verified:true ~label ~path ~words ~opens in
      let lazy_ = measure ~verified:false ~label ~path ~words ~opens in
      let cold_speedup = verified.cold_ms /. lazy_.cold_ms in
      let word_ratio = verified.cold_words /. lazy_.cold_words in
      let bytes = Xk_index.Index_io.file_size path in
      let lay =
        match Xk_index.Index_io.layout path with
        | Ok lay -> lay
        | Error e -> failwith (Xk_index.Index_io.error_message e)
      in
      let terms_bytes = lay.Xk_index.Segment.terms_len
      and postings_bytes = lay.Xk_index.Segment.postings_len
      and dir_bytes = lay.Xk_index.Segment.dir_len in
      Printf.printf
        "  segment: %5.1f MB (terms %d, postings %d, directory %d bytes)\n\
        \  verified: cold %8.2f ms (%.0f words), warm %8.2f ms, first query %6.2f ms\n\
        \  lazy:     cold %8.2f ms (%.0f words), warm %8.2f ms, first query %6.2f ms\n\
        \  cold-open speedup: %.1fx, verified/lazy open words: %.2fx\n\
         %!"
        (mb bytes) terms_bytes postings_bytes dir_bytes verified.cold_ms verified.cold_words
        verified.warm_ms verified.first_query_ms lazy_.cold_ms lazy_.cold_words lazy_.warm_ms
        lazy_.first_query_ms cold_speedup word_ratio;
      {
        scale;
        nodes;
        terms;
        rows;
        bytes;
        terms_bytes;
        postings_bytes;
        dir_bytes;
        verified;
        lazy_;
        cold_speedup;
        word_ratio;
      })

let emit_json out ~opens ~required points =
  let oc = open_out out in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p
    "  \"experiment\": \"segment open latency: verified (Index_io.verify, \
     then open) vs lazy (zero-copy)\",\n";
  p "  \"opens_per_warm_mean\": %d,\n" opens;
  p "  \"required_cold_speedup\": %.1f,\n" required;
  p
    "  \"note\": \"both opens read the same v9 segment with the page cache \
     warm (file just written), so the gap measures decode and verification \
     work only - a lower bound on the true cold gap; parity is verified \
     before timing: all three load paths return bit-identical hits\",\n";
  p "  \"sweep\": [\n";
  List.iteri
    (fun i pt ->
      let fmt name (f : open_point) last =
        p
          "     \"%s\": {\"cold_open_ms\": %.3f, \"cold_open_words\": %.0f, \
           \"warm_open_ms\": %.3f, \"first_query_ms\": %.3f}%s\n"
          name f.cold_ms f.cold_words f.warm_ms f.first_query_ms
          (if last then "" else ",")
      in
      p
        "    {\"scale\": %g, \"nodes\": %d, \"terms\": %d, \"rows\": %d, \
         \"bytes\": %d, \"terms_bytes\": %d, \"postings_bytes\": %d, \
         \"dir_bytes\": %d, \"cold_speedup\": %.2f,\n"
        pt.scale pt.nodes pt.terms pt.rows pt.bytes pt.terms_bytes pt.postings_bytes
        pt.dir_bytes pt.cold_speedup;
      fmt "verified" pt.verified false;
      fmt "lazy" pt.lazy_ true;
      p "    }%s\n" (if i = List.length points - 1 then "" else ","))
    points;
  p "  ],\n";
  let largest = List.nth points (List.length points - 1) in
  p "  \"largest\": {\"scale\": %g, \"cold_speedup\": %.2f, \"passed\": %b}\n"
    largest.scale largest.cold_speedup
    (largest.cold_speedup >= required);
  p "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" out

let run scales opens seed required check_only out =
  header "Segment open latency: verified (Index_io.verify + open) vs lazy zero-copy open";
  let scales = List.sort compare scales in
  let points = List.map (sweep_point ~opens ~seed) scales in
  if check_only then begin
    (* The parity gate already ran inside every sweep point; the floor
       here is deliberately below [required] so CI stays stable on tiny
       corpora and slow runners - the full run still records whether the
       largest point clears the real bar. *)
    (* 1.8x, not the sweep's 10x: the check runs on tiny corpora where
       a single GC pause can halve a millisecond-scale ratio, and the
       cold open is by nature a one-shot measurement.  At scale 0.3 the
       verified open reads 4.4-4.7x on a 2-core host. *)
    let floor = 1.8 in
    (* The words a cold open allocates are a counter, not a clock: they
       come out the same on every run, so this floor cannot flake.  Both
       opens copy the term region and decode the directory, and neither
       builds a dictionary or a per-term offset; the verified one also
       parses the directory a second time and copies and walks every
       postings block, so it allocates 2.46x (scale 0.2), 2.50x (scale
       0.3, 70,104 words against 28,094) and 4.95x (scale 1) the lazy
       open's words on every run.  Below scale 0.1 the ratio falls under
       the floor (2.29x at scale 0.05). *)
    let word_floor = 2.3 in
    List.iter
      (fun pt ->
        if pt.cold_speedup < floor then
          failwith
            (Printf.sprintf
               "scale %g: lazy cold open only %.1fx faster than verified \
                (floor %.1fx)"
               pt.scale pt.cold_speedup floor);
        if pt.word_ratio < word_floor then
          failwith
            (Printf.sprintf
               "scale %g: verified cold open allocates only %.2fx the lazy \
                open's words (floor %.2fx)"
               pt.scale pt.word_ratio word_floor))
      points;
    Printf.printf
      "parity, cold-open floor (%.1fx) and open-words floor (%.2fx) \
       verified for scales %s\n"
      floor word_floor
      (String.concat "," (List.map (fun p -> string_of_float p.scale) points))
  end
  else emit_json out ~opens ~required points

open Cmdliner

let scales =
  Arg.(
    value
    & opt (list float) [ 0.2; 1.0; 8.0 ]
    & info [ "scales" ]
        ~doc:
          "Comma-separated DBLP corpus scale factors.  The generator's \
           vocabulary saturates past scale 1, so larger scales grow the \
           posting rows but not the dictionary - the regime the zero-copy \
           open is built for.")

let opens =
  Arg.(
    value & opt int 5
    & info [ "opens" ] ~doc:"Reopens averaged into the warm-open mean.")

let seed = Arg.(value & opt int 2010 & info [ "seed" ] ~doc:"Probe-query seed.")

let required =
  Arg.(
    value & opt float 10.0
    & info [ "required-speedup" ]
        ~doc:
          "Cold-open speedup the largest sweep point must reach for the JSON \
           to record passed=true.")

let check_only =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Verify load-path parity, a conservative cold-open floor and a \
           floor on the ratio of words the two opens allocate for every \
           scale, then exit without writing JSON.")

let out =
  Arg.(
    value
    & opt string "BENCH_open.json"
    & info [ "out" ] ~doc:"JSON output path.")

let cmd =
  Cmd.v
    (Cmd.info "bench_open"
       ~doc:"Cold/warm segment-open latency, verified open vs lazy open.")
    Term.(const run $ scales $ opens $ seed $ required $ check_only $ out)

let () = exit (Cmd.eval cmd)
