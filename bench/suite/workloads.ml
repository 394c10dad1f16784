(* The four workloads.  README.md says why each exists and which layer
   it stresses; this file is how they run.

   Every workload is a closed loop with one client: the next request
   goes out when the previous reply is back.  Inputs are generated: a
   corpus, serialized to XML bytes that the system parses, and a request
   log the seed draws from it.  Answers of every
   [parity_every]-th log slot are checked against the sequential [Engine]
   over an unsharded index of the same XML, after the measured phase.

   An untraced run measures whole passes over the log through the
   production calls only.  A traced run measures two passes: first a
   traced one, in which each cycle of production requests is followed,
   outside the measured time, by a replay of the same requests through
   the public calls the production path makes, in its order, each
   wrapped in a span from [Trace]; then an untraced one, the reference
   for the tracing overhead. *)

module Engine = Xk_core.Engine
module Hit = Xk_baselines.Hit
module Index = Xk_index.Index
module Sharding = Xk_index.Sharding
module Shard_io = Xk_index.Shard_io
module Live = Xk_index.Live
module Snapshot = Xk_index.Snapshot
module Wal = Xk_index.Wal
module Labeling = Xk_encoding.Labeling
module Join_query = Xk_core.Join_query
module Level_join = Xk_core.Level_join
module Topk_keyword = Xk_core.Topk_keyword
module Shard_exec = Xk_exec.Shard_exec
module Shard_run = Xk_exec.Shard_run
module Shard_server = Xk_exec.Shard_server
module Query_service = Xk_exec.Query_service
module Wire = Xk_rpc.Wire
module Frame = Xk_rpc.Frame
module Dblp_gen = Xk_datagen.Dblp_gen
module Rng = Xk_datagen.Rng

type size = Full | Smoke

type params = {
  seed : int;
  seconds : float;  (** least measured time, in whole passes over the log *)
  trace : bool;
  size : size;
  dir : string;  (** work directory for segments and stores *)
}

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  mismatches : int;
  context : (string * Json.t) list;
  spans : Trace.t;
}

(* Sizes.  [Full] is the benchmark; [Smoke] keeps every code path alive
   at a size that runs in a second or two. *)
type plan = {
  dblp_scale : float;
  pass : int;
      (** requests in the log, half of each type.  Runs measure whole
          passes over it, so every run of a workload measures the same
          mix whatever its length, and the per-type count fixes the
          reported tail percentile. *)
  parity_every : int;
  setups : int;  (** set-up repetitions before the measured phases *)
  late_setups : int;  (** and after them *)
  reopen_every : int;
  live_docs : int;
  live_initial : int;
  reads_per_round : int;
  live_parity_every : int;
}

let plan = function
  | Full ->
      {
        dblp_scale = 0.2;
        pass = 2000;
        parity_every = 10;
        setups = 5;
        late_setups = 4;
        reopen_every = 8;
        live_docs = 240;
        live_initial = 160;
        reads_per_round = 10;
        live_parity_every = 20;
      }
  | Smoke ->
      {
        dblp_scale = 0.05;
        pass = 48;
        parity_every = 1;
        setups = 1;
        late_setups = 1;
        reopen_every = 8;
        live_docs = 30;
        live_initial = 20;
        reads_per_round = 4;
        live_parity_every = 1;
      }

let now = Trace.now_ns
let ms_since t0 = Trace.ms_between t0 (now ())

(* The recorder of untraced phases. *)
let no_trace = Trace.create ~enabled:false ()

let fail fmt = Printf.ksprintf failwith fmt

let parse xml =
  match Xk_xml.Xml_parser.parse_string xml with
  | Ok d -> d
  | Error e -> fail "parse: %s" (Format.asprintf "%a" Xk_xml.Xml_parser.pp_error e)

let live_ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Live.error_message e)

(* --- Inputs ----------------------------------------------------------- *)

(* The generator seed of the corpora and of live_rw's mutation schedule,
   whatever the run's seed.  Runs of one workload on different seeds then
   serve the same data: the seed draws the request log, and every
   difference between seeds comes from which requests it drew.  Corpora
   of different generator seeds differ by up to 7% in size, which every
   set-up, memory and space metric would follow. *)
let corpus_seed = 2010

let dblp_corpus p seed =
  Dblp_gen.generate { (Dblp_gen.scaled p.dblp_scale) with seed }

(* [live_docs] small top-level documents: one year of one conference
   each. *)
let live_corpus p seed =
  Dblp_gen.generate
    {
      (Dblp_gen.scaled 1.0) with
      seed;
      conferences = p.live_docs;
      years_per_conf = 1;
    }

(* The harness's sequential reference over the unsharded corpus, with the
   time its labeling and index build took (the encoding and index layers
   of the traced report). *)
let reference doc =
  let t0 = now () in
  let lab = Labeling.label doc in
  let t1 = now () in
  let eng = Engine.of_index (Index.build lab) in
  (eng, Trace.ms_between t0 t1, ms_since t1)

let corpus_context ~xml eng =
  let idx = Engine.index eng in
  let rows = ref 0 in
  for id = 0 to Index.term_count idx - 1 do
    rows := !rows + Index.df idx id
  done;
  ( "corpus",
    Json.Obj
      [
        ("xml_bytes", Json.Num (float_of_int (String.length xml)));
        ("nodes", Json.Num (float_of_int (Labeling.node_count (Engine.label eng))));
        ("terms", Json.Num (float_of_int (Index.term_count idx)));
        ("rows", Json.Num (float_of_int !rows));
        ("max_df", Json.Num (float_of_int (Xk_workload.Workload.max_df idx)));
      ] )

(* The request log follows the paper's query selection (Section V), with
   the frequency ranges bench/main.exe uses for Figures 9 and 10: keyword
   sets of [Workload.random_queries]'s shape (one keyword near the highest
   df, the other k-1 near a low df; k = 2..5, low df 10, 100, 1000, 10000
   below a quarter of the highest) and of [Workload.equal_freq_queries]'s
   (k = 2, 3 near one df; 100, 300, 1000, 3000 below half the highest),
   the same number of sets from every range.  Every set is sent twice, as
   a top-10 request ([Topk_join]) and as a complete one ([Join_based]),
   both ELCA, as Figure 10(a) runs both modes on the same queries; the two
   copies take independent places in the log, top-10 and complete
   alternating.

   A draw is [Workload.pick_near]'s: a uniform term among the non-control
   terms with df within a factor 2 of the target, which is the pool
   [Workload.terms_in_df_range] returns.  Calling [pick_near] itself
   recomputes the pool, sorting the whole vocabulary, on every draw, and a
   log took seconds to generate; here each target's pool is computed once.
   Every pool this log uses is inhabited, so [pick_near]'s widening of an
   empty window never applies. *)
let stream ~seed ~n eng =
  let module W = Xk_workload.Workload in
  let idx = Engine.index eng in
  let rng = Rng.create seed in
  let high = W.max_df idx in
  let pools = Hashtbl.create 8 in
  let pool near =
    match Hashtbl.find_opt pools near with
    | Some p -> p
    | None ->
        let p = W.terms_in_df_range idx ~lo:(max 1 (near / 2)) ~hi:(near * 2) in
        Hashtbl.add pools near p;
        p
  in
  (* [need] more distinct keywords near [near], added to [acc]. *)
  let rec distinct acc need near =
    let p = pool near in
    let taken =
      List.length (List.filter (fun w -> Array.exists (fun id -> Index.term idx id = w) p) acc)
    in
    if Array.length p - taken < need then fail "too few terms with df near %d" near;
    if need = 0 then acc
    else
      let w = Index.term idx p.(Rng.int rng (Array.length p)) in
      if List.mem w acc then distinct acc need near else distinct (w :: acc) (need - 1) near
  in
  let ranges =
    List.concat_map
      (fun k ->
        List.filter_map
          (fun low ->
            if low * 4 < high then Some (fun () -> distinct (distinct [] (k - 1) low) 1 high)
            else None)
          [ 10; 100; 1000; 10_000 ])
      [ 2; 3; 4; 5 ]
    @ List.concat_map
        (fun k ->
          List.filter_map
            (fun freq -> if freq * 2 < high then Some (fun () -> distinct [] k freq) else None)
            [ 100; 300; 1000; 3000 ])
        [ 2; 3 ]
  in
  let sets = n / 2 in
  let per = (sets + List.length ranges - 1) / List.length ranges in
  let drawn =
    Array.of_list (List.concat_map (fun draw -> List.init per (fun _ -> draw ())) ranges)
  in
  Rng.shuffle rng drawn;
  let order () =
    let a = Array.init sets Fun.id in
    Rng.shuffle rng a;
    a
  in
  let topk = order () and complete = order () in
  Array.init (2 * sets) (fun i ->
      if i mod 2 = 0 then Engine.topk_request ~k:10 drawn.(topk.(i / 2))
      else Engine.complete_request drawn.(complete.(i / 2)))

let stream_context reqs ~cache_capacity =
  let words = Hashtbl.create 512 in
  Array.iter
    (fun (r : Engine.request) -> List.iter (fun w -> Hashtbl.replace words w ()) r.req_words)
    reqs;
  ( "stream",
    Json.Obj
      [
        ("requests", Json.Num (float_of_int (Array.length reqs)));
        ("distinct_terms", Json.Num (float_of_int (Hashtbl.length words)));
        ("cache_capacity_per_shape", Json.Num (float_of_int cache_capacity));
      ] )

let is_topk (r : Engine.request) =
  match r.req_mode with Engine.Topk _ -> true | Engine.Complete _ -> false

(* Answers are compared through a digest: complete answers node for node
   and score for score, top-K answers score for score only, since at
   equal scores the order of a top-K heap is unspecified. *)
let digest r hits =
  List.fold_left
    (fun h (x : Hit.t) ->
      let h = Hashtbl.hash (h, Int64.bits_of_float x.score) in
      if is_topk r then h else Hashtbl.hash (h, x.node))
    (List.length hits) hits

(* --- Host and process ------------------------------------------------- *)

let status_field key =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
             | _ -> None)

let peak_rss_mb () =
  match status_field "VmHWM" with
  | Some v -> Scanf.sscanf v "%d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> fail "VmHWM missing from /proc/self/status"

(* CPUs this process may run on, from the affinity list ("0-1,4"). *)
let nproc () =
  match status_field "Cpus_allowed_list" with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
      String.split_on_char ',' l
      |> List.fold_left
           (fun n part ->
             match String.split_on_char '-' part with
             | [ a; b ] -> n + int_of_string b - int_of_string a + 1
             | _ -> n + 1)
           0

let host_context () =
  ( "host",
    Json.Obj
      [
        ("nproc", Json.Num (float_of_int (nproc ())));
        ( "recommended_domain_count",
          Json.Num (float_of_int (Domain.recommended_domain_count ())) );
        ("ocaml", Json.Str Sys.ocaml_version);
      ] )

let rec dir_bytes path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun n f -> n + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).st_size
  | _ -> 0

let files_with_suffix dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f suffix)
  |> List.map (Filename.concat dir)

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755;
  path

(* Run [f] in a forked child and return its marshalled result.  The
   corpus generator and the sequential reference then never touch the
   measured process's heap: they add no GC work to timed requests and no
   bytes to its peak RSS.  Call only while this process runs one domain. *)
let in_child dir (f : unit -> 'a) : 'a =
  let path = Filename.concat dir "child.bin" in
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code =
        match f () with
        | v ->
            Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v []);
            0
        | exception e ->
            prerr_endline ("input preparation: " ^ Printexc.to_string e);
            2
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 ->
          let v = In_channel.with_open_bin path Marshal.from_channel in
          Sys.remove path;
          v
      | _ -> fail "input preparation failed")

type prep = {
  xml : string;
  reqs : Engine.request array;
  expected : int array;
      (** reference digest of every [parity_every]-th log slot *)
  label_ms : float;
  build_ms : float;
  context : (string * Json.t) list;
}

let prepare pl ~seed ~expected (corpus : Dblp_gen.corpus) =
  let xml = Xk_xml.Xml_print.to_string corpus.doc in
  let eng, label_ms, build_ms = reference (parse xml) in
  let reqs = stream ~seed ~n:pl.pass eng in
  let expected =
    if not expected then [||]
    else
      Array.mapi
        (fun i r -> if i mod pl.parity_every = 0 then digest r (Engine.run_request eng r) else 0)
        reqs
  in
  let capacity = (Index.cache_stats (Engine.index eng)).capacity / 3 in
  {
    xml;
    reqs;
    expected;
    label_ms;
    build_ms;
    context = [ corpus_context ~xml eng; stream_context reqs ~cache_capacity:capacity ];
  }

(* --- Measured phases ---------------------------------------------------- *)

(* What one measured phase saw.  [wall_ms] is the phase's wall-clock
   time less the traced work a traced phase does between cycles. *)
type log = {
  plan : plan;
  checked : int -> bool;  (** whether request [rid]'s answer is checked *)
  mutable topk_ms : float list;
  mutable complete_ms : float list;
  mutable mutate_ms : float list;
  mutable reads : int;  (** read requests answered [Ok] *)
  mutable attempted : int;  (** read requests and mutations *)
  mutable failed : int;
  mutable mismatches : int;
  mutable wall_ms : float;
  mutable failovers : int;
  mutable hedges : int;
  answers : (int, int) Hashtbl.t;  (** rid -> digest, checked requests only *)
}

let new_log plan ~checked =
  {
    plan;
    checked;
    topk_ms = [];
    complete_ms = [];
    mutate_ms = [];
    reads = 0;
    attempted = 0;
    failed = 0;
    mismatches = 0;
    wall_ms = 0.;
    failovers = 0;
    hedges = 0;
    answers = Hashtbl.create 256;
  }

let mismatch log fmt =
  Printf.ksprintf
    (fun m ->
      log.mismatches <- log.mismatches + 1;
      prerr_endline ("parity mismatch: " ^ m))
    fmt

let retire log exec =
  let st = Shard_exec.stats exec in
  log.failovers <- log.failovers + st.failovers;
  log.hedges <- log.hedges + st.hedges;
  Shard_exec.shutdown exec

(* One production request, timed; a traced phase also records it as a
   span. *)
let serve tr log ~rid exec (r : Engine.request) =
  Trace.set_request tr rid;
  let t0 = now () in
  let out = Trace.span tr "exec.request" (fun () -> Shard_exec.exec exec r) in
  let ms = ms_since t0 in
  log.attempted <- log.attempted + 1;
  if is_topk r then log.topk_ms <- ms :: log.topk_ms
  else log.complete_ms <- ms :: log.complete_ms;
  match out with
  | Query_service.Ok hits ->
      log.reads <- log.reads + 1;
      if log.checked rid then Hashtbl.replace log.answers rid (digest r hits)
  | _ -> log.failed <- log.failed + 1

(* A checked request's answer against the reference digest. *)
let check log ~rid expected =
  match Hashtbl.find_opt log.answers rid with
  | Some d when d = expected -> ()
  | Some _ -> mismatch log "request %d differs from the sequential engine" rid
  | None -> mismatch log "request %d has no answer" rid

(* Phases measure whole passes over the log until [seconds] of measured
   time; each phase of a traced run measures one pass. *)
let enough log ~seconds ~requests =
  requests > 0 && requests mod log.plan.pass = 0 && log.wall_ms >= seconds *. 1000.

(* --- Traced replay ----------------------------------------------------- *)

type counters = {
  mutable requests : int;
  mutable topk_calls : int;
  mutable topk_pulled : int;
  mutable topk_dead : int;
  mutable topk_results : int;
  mutable topk_early : int;
  mutable join_calls : int;
  mutable join_scanned : int;
  mutable merge_joins : int;
  mutable index_joins : int;
  mutable codec_calls : int;
  mutable reply_bytes : int;
  mutable rpc_calls : int;
  mutable rpc_overhead_ms : float;
  mutable exec_overhead : float list;  (** ms, one per measured request *)
  mutable exec_noise : float list;  (** ms, one per measured request *)
  mutable cache : Xk_index.Shard_cache.stats;
}

let new_counters () =
  {
    requests = 0;
    topk_calls = 0;
    topk_pulled = 0;
    topk_dead = 0;
    topk_results = 0;
    topk_early = 0;
    join_calls = 0;
    join_scanned = 0;
    merge_joins = 0;
    index_joins = 0;
    codec_calls = 0;
    reply_bytes = 0;
    rpc_calls = 0;
    rpc_overhead_ms = 0.;
    exec_overhead = [];
    exec_noise = [];
    cache = Xk_index.Shard_cache.zero_stats;
  }

let cache_delta (a : Xk_index.Shard_cache.stats) (b : Xk_index.Shard_cache.stats) =
  { b with hits = b.hits - a.hits; misses = b.misses - a.misses; evictions = b.evictions - a.evictions }

(* Engine.resolve: the query's term ids ordered by term, or [None] when a
   keyword does not occur in this index. *)
let resolve idx words =
  let ids = List.filter_map (Index.term_id idx) words in
  if List.length ids <> List.length words then None
  else
    Some
      (List.sort_uniq
         (fun a b -> String.compare (Index.term idx a) (Index.term idx b))
         ids)

(* Shard_run.run over Engine.run_request_outcome, unbudgeted, spelled out
   as the public calls they make, in their order.  Every replayed job is
   checked against Shard_run.run itself ([exec_overhead]). *)
let shard_job tr c sharding ~shard ~words (r : Engine.request) : Shard_run.result =
  let summary =
    Trace.span tr "index.root_summary" (fun () ->
        Sharding.root_summary sharding ~shard words)
  in
  let idx = Sharding.index sharding shard in
  let sem =
    match r.req_semantics with
    | Engine.Elca -> Join_query.Elca
    | Engine.Slca -> Join_query.Slca
  in
  let hits =
    match resolve idx r.req_words with
    | None | Some [] -> []
    | Some ids ->
        let damping = Index.damping idx in
        let jlists () =
          Trace.span tr "index.jlist" (fun () ->
              Array.of_list (List.map (Index.jlist idx) ids))
        in
        let found =
          match r.req_mode with
          | Engine.Topk (Engine.Topk_join, k) ->
              (* Engine.query_topk materializes the JDewey lists before
                 the score-ordered ones, even for the top-K join. *)
              ignore (jlists ());
              let sls =
                Trace.span tr "index.score_list" (fun () ->
                    Array.of_list (List.map (Index.score_list idx) ids))
              in
              let st = Topk_keyword.new_stats () in
              let hs =
                Trace.span tr "core.topk" (fun () ->
                    Topk_keyword.topk ~stats:st ~semantics:sem sls damping
                      ~k:(k + 1))
              in
              c.topk_calls <- c.topk_calls + 1;
              c.topk_pulled <- c.topk_pulled + st.pulled;
              c.topk_dead <- c.topk_dead + st.dead_skipped;
              c.topk_results <- c.topk_results + List.length hs;
              if st.early_exit_level > 0 then c.topk_early <- c.topk_early + 1;
              hs
          | Engine.Complete Engine.Join_based ->
              let jls = jlists () in
              let st = Level_join.new_stats () in
              let hs =
                Trace.span tr "core.join" (fun () ->
                    Join_query.run ~join_stats:st jls damping sem)
              in
              c.join_calls <- c.join_calls + 1;
              c.join_scanned <- c.join_scanned + st.scanned;
              c.merge_joins <- c.merge_joins + st.merge_joins;
              c.index_joins <- c.index_joins + st.index_joins;
              hs
          | _ -> invalid_arg "shard_job: the log holds top-K join and join-based requests only"
        in
        let lab = Index.label idx in
        Trace.span tr "encoding.hit_map" (fun () ->
            List.map
              (fun (h : Join_query.hit) ->
                match Labeling.find lab ~depth:h.level ~jnum:h.value with
                | Some node -> { Hit.node; score = h.score }
                | None -> fail "hit at level %d has no labeled node" h.level)
              found)
        |> Hit.sort_desc
  in
  let global =
    List.filter_map
      (fun (h : Hit.t) ->
        if h.node = 0 then None
        else Some { h with node = Sharding.to_global sharding ~shard h.node })
      hits
  in
  { sr_summary = Some summary; sr_outcome = Engine.Done global; sr_bound = neg_infinity }

let wire_query ~shard (r : Engine.request) : Wire.query =
  {
    q_shard = shard;
    q_words = r.req_words;
    q_semantics = r.req_semantics;
    q_mode = r.req_mode;
    q_deadline_ms = None;
    q_ticks = None;
  }

(* The wire codec on one shard call's bytes: the query and the reply are
   framed, unframed and decoded as a remote call would.  Measured on
   every workload, so a codec change shows wherever replies are large. *)
let codec tr c ~shard r (res : Shard_run.result) =
  Trace.span tr "rpc.codec" (fun () ->
      let roundtrip kind payload decode =
        let frame = Frame.encode kind payload in
        (match Frame.decode frame with
        | Ok (_, p) -> (
            match decode p with Ok _ -> () | Error _ -> fail "codec: payload")
        | Error e -> fail "codec: %s" (Frame.error_message e));
        String.length frame
      in
      ignore (roundtrip Frame.Query (Wire.encode_query (wire_query ~shard r)) Wire.decode_query);
      let bytes =
        roundtrip Frame.Reply
          (Wire.encode_reply
             (Wire.Served
                { s_summary = res.sr_summary; s_outcome = res.sr_outcome; s_bound = res.sr_bound }))
          Wire.decode_reply
      in
      c.codec_calls <- c.codec_calls + 1;
      c.reply_bytes <- c.reply_bytes + bytes)

let same_result (a : Shard_run.result) (b : Shard_run.result) =
  a.sr_summary = b.sr_summary
  && a.sr_bound = b.sr_bound
  &&
  match (a.sr_outcome, b.sr_outcome) with
  | Engine.Done x, Engine.Done y -> List.equal (fun (p : Hit.t) q -> p = q) x y
  | _ -> false

(* One replayed request: every shard's job, and on rpc_2shard the remote
   call of the same job beside it, which must return the same result.
   Returns every shard's replayed result. *)
let replay_request tr c log ~sharding ~endpoints ~rid (r : Engine.request) =
  Trace.set_request tr rid;
  c.requests <- c.requests + 1;
  let words = Shard_run.canonical_words r.req_words in
  Trace.span tr "request" (fun () ->
      Array.init (Sharding.count sharding) (fun shard ->
          let res =
            Trace.span tr "exec.shard_run" (fun () -> shard_job tr c sharding ~shard ~words r)
          in
          let job_ms = Trace.last_ms tr in
          Option.iter
            (fun eps ->
              let host, port = eps.(shard).(0) in
              let s =
                Trace.span tr "rpc.call" (fun () ->
                    Xk_rpc.Client.query ~host ~port (wire_query ~shard r))
              in
              let remote : Shard_run.result =
                { sr_summary = s.s_summary; sr_outcome = s.s_outcome; sr_bound = s.s_bound }
              in
              if not (same_result res remote) then
                mismatch log "request %d: shard %d over RPC differs from the replay" rid shard;
              c.rpc_calls <- c.rpc_calls + 1;
              c.rpc_overhead_ms <- c.rpc_overhead_ms +. (Trace.last_ms tr -. job_ms))
            endpoints;
          codec tr c ~shard r res;
          res))

(* Every replayed job is checked against [Shard_run.run] on the
   production sharding, with the request's lists cached.  Every
   [overhead_every]-th request also measures the executor's overhead
   there: [Shard_exec.exec] minus the shard jobs it runs, with the jobs
   timed once before and once after the request and their mean
   subtracted.  The same subtraction between the two job runs, which do
   the same work, is the noise floor of the overhead. *)
let overhead_every = 4

let exec_overhead c log exec ~rid (r : Engine.request) ~replayed =
  let sharding = Shard_exec.sharding exec in
  let words = Shard_run.canonical_words r.req_words in
  let jobs () =
    let t0 = now () in
    let res =
      Array.init (Sharding.count sharding) (fun shard ->
          Shard_run.run ~sharding
            ~engine:(Engine.of_index (Sharding.index sharding shard))
            ~shard ~budget:Xk_resilience.Budget.unlimited ~words r)
    in
    (res, ms_since t0)
  in
  let res, before = jobs () in
  Array.iteri
    (fun shard x ->
      if not (same_result x replayed.(shard)) then
        mismatch log "request %d: shard %d replay differs from Shard_run.run" rid shard)
    res;
  if rid mod overhead_every = 0 then begin
    let t0 = now () in
    ignore (Shard_exec.exec exec r);
    let exec_ms = ms_since t0 in
    let _, after = jobs () in
    c.exec_overhead <- (exec_ms -. ((before +. after) /. 2.)) :: c.exec_overhead;
    c.exec_noise <- (after -. before) :: c.exec_noise
  end

(* The traced work after one production cycle: replay the cycle's
   requests on [sharding], then check and measure each through the
   production [exec]. *)
let traced_cycle tr c log ~exec ~sharding ~endpoints ~reqs rids =
  let req rid = reqs.(rid mod Array.length reqs) in
  let base = Sharding.cache_stats sharding in
  let replayed = List.map (fun rid -> replay_request tr c log ~sharding ~endpoints ~rid (req rid)) rids in
  c.cache <- Xk_index.Shard_cache.add_stats c.cache (cache_delta base (Sharding.cache_stats sharding));
  List.iter2 (fun rid replayed -> exec_overhead c log exec ~rid (req rid) ~replayed) rids replayed

(* --- Metrics ------------------------------------------------------------ *)

let m name value unit_ = { name; value; unit_ }

(* The tail percentile a sample of [n] supports, fixed per plan so that
   every run reports the same percentile however many passes it
   measured. *)
let tail_of n = match Stats.tail_percentile n with Some p -> p | None -> 50.

let tail_name prefix n = Printf.sprintf "%s_p%.0f_ms" prefix (tail_of n)

let qps log = float_of_int log.reads /. (log.wall_ms /. 1000.)

let latency_metrics log =
  let per_type = log.plan.pass / 2 in
  let pcts xs =
    let a = Stats.sorted (Array.of_list xs) in
    (Stats.percentile_sorted a 50., Stats.percentile_sorted a (tail_of per_type))
  in
  let t50, tt = pcts log.topk_ms and c50, ct = pcts log.complete_ms in
  [
    m "topk_p50_ms" t50 "ms";
    m (tail_name "topk" per_type) tt "ms";
    m "complete_p50_ms" c50 "ms";
    m (tail_name "complete" per_type) ct "ms";
    m "qps" (qps log) "req/s";
    m "fail_frac" (float_of_int log.failed /. float_of_int log.attempted) "frac";
  ]

let samples_context log ~setups extra =
  ( "samples",
    Json.Obj
      ([
         ("setup_s", Json.Arr (List.map (fun x -> Json.Num x) setups));
         ("topk", Json.Num (float_of_int (List.length log.topk_ms)));
         ("complete", Json.Num (float_of_int (List.length log.complete_ms)));
         ("measured_s", Json.Num (log.wall_ms /. 1000.));
       ]
      @ extra) )

let per_req total n = if n = 0 then 0. else total /. float_of_int n
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let median_of = function [] -> 0. | xs -> Stats.median (Array.of_list xs)

let reference_metrics pr =
  [ m "encoding.label_ms" pr.label_ms "ms"; m "index.build_ms" pr.build_ms "ms" ]

(* Median over the set-up repetitions (request ids below 0) of each
   layer's summed span time. *)
let setup_metrics tr names =
  let spans = Trace.spans tr in
  List.map
    (fun name ->
      let per_rep = Hashtbl.create 4 in
      List.iter
        (fun (s : Trace.span) ->
          if s.name = name && s.rid < 0 then
            Hashtbl.replace per_rep s.rid
              (Trace.ms_between s.start_ns s.stop_ns
              +. Option.value ~default:0. (Hashtbl.find_opt per_rep s.rid)))
        spans;
      m (name ^ "_ms") (median_of (Hashtbl.fold (fun _ v acc -> v :: acc) per_rep [])) "ms")
    names

(* Per-request layer metrics from the replay's spans and counters;
   [traced] is the traced phase's log, [untraced] the untraced one's. *)
let layer_metrics tr c ~traced ~untraced =
  let totals = Trace.totals (List.filter (fun (s : Trace.span) -> s.rid >= 0) (Trace.spans tr)) in
  let get name = List.assoc_opt name totals in
  let self name = match get name with Some t -> per_req t.self_ms t.requests | None -> 0. in
  let total name = match get name with Some t -> per_req t.total_ms t.requests | None -> 0. in
  let cache = c.cache in
  [
    m "exec.shard_run_ms" (total "exec.shard_run") "ms";
    m "exec.overhead_ms" (median_of c.exec_overhead) "ms";
    m "exec.overhead_noise_ms" (Float.abs (median_of c.exec_noise)) "ms";
    m "index.root_summary_ms" (self "index.root_summary") "ms";
    m "index.jlist_ms" (self "index.jlist") "ms";
    m "index.score_list_ms" (self "index.score_list") "ms";
    m "index.cache_hit_ratio" (ratio cache.hits (cache.hits + cache.misses)) "ratio";
    m "index.cache_misses" (per_req (float_of_int cache.misses) c.requests) "1/req";
    m "core.topk_ms" (self "core.topk") "ms";
    m "core.topk_pulled" (per_req (float_of_int c.topk_pulled) c.topk_calls) "1/call";
    m "core.topk_pulled_per_result" (ratio c.topk_pulled c.topk_results) "ratio";
    m "core.topk_dead_frac" (ratio c.topk_dead c.topk_pulled) "frac";
    m "core.topk_early_exit_frac" (ratio c.topk_early c.topk_calls) "frac";
    m "core.join_ms" (self "core.join") "ms";
    m "core.join_scanned" (per_req (float_of_int c.join_scanned) c.join_calls) "1/call";
    m "core.join_index_frac" (ratio c.index_joins (c.index_joins + c.merge_joins)) "frac";
    m "encoding.hit_map_ms" (self "encoding.hit_map") "ms";
    m "rpc.codec_us" (1000. *. per_req (match get "rpc.codec" with Some t -> t.total_ms | None -> 0.) c.codec_calls) "us";
    m "rpc.reply_bytes" (per_req (float_of_int c.reply_bytes) c.codec_calls) "bytes";
    m "exec.failovers" (float_of_int (traced.failovers + untraced.failovers)) "count";
    m "exec.hedges" (float_of_int (traced.hedges + untraced.hedges)) "count";
    m "trace.overhead_frac" ((qps traced /. qps untraced) -. 1.) "frac";
  ]
  @
  if c.rpc_calls = 0 then []
  else
    [
      m "rpc.call_ms" (per_req (match get "rpc.call" with Some t -> t.total_ms | None -> 0.) c.rpc_calls) "ms";
      m "rpc.overhead_ms" (per_req c.rpc_overhead_ms c.rpc_calls) "ms";
    ]

(* The result of a run: [untraced] gives the end-to-end metrics, and a
   traced run's two phases count together. *)
let result ~metrics ~logs ~context tr =
  let sum f = List.fold_left (fun n l -> n + f l) 0 logs in
  {
    metrics;
    attempted = sum (fun l -> l.attempted);
    failed = sum (fun l -> l.failed);
    mismatches = sum (fun l -> l.mismatches);
    context = host_context () :: context;
    spans = tr;
  }

(* --- Sharded workloads: warm_zipf, cold_open, rpc_2shard --------------- *)

type fleet = {
  listeners : Xk_rpc.Server.t array;
  domains : unit Domain.t list;
  endpoints : (string * int) array array;
}

(* One shard server per shard, each accept loop on its own domain, over
   real localhost TCP. *)
let launch_fleet sharding =
  let servers =
    Array.init (Sharding.count sharding) (fun shard ->
        let srv = Shard_server.create ~sharding ~shard ~replica:0 in
        match Shard_server.serve ~port:0 srv with
        | Ok l -> (srv, l)
        | Error msg -> fail "shard server %d: %s" shard msg)
  in
  let domains =
    Array.to_list servers
    |> List.map (fun (srv, l) ->
           Domain.spawn (fun () ->
               Xk_rpc.Server.run l ~handler:(Shard_server.dispatch srv)))
  in
  let listeners = Array.map snd servers in
  let endpoints =
    Array.map (fun l -> [| (Xk_rpc.Server.host l, Xk_rpc.Server.port l) |]) listeners
  in
  Array.iter (fun e -> let host, port = e.(0) in Xk_rpc.Client.ping ~host ~port ()) endpoints;
  { listeners; domains; endpoints }

let stop_fleet f =
  Array.iter Xk_rpc.Server.stop f.listeners;
  List.iter Domain.join f.domains

type served = {
  doc : Xk_xml.Xml_tree.document;
  manifest : string;
  dir : string;
  mutable sharding : Sharding.t;
  mutable exec : Shard_exec.t;
  fleet : fleet option;
}

let load doc manifest =
  match Shard_io.load_result doc manifest with
  | Ok s -> s
  | Error e -> fail "load %s: %s" manifest (Shard_io.error_message e)

(* Set-up starts from the XML bytes, as [xkq index] does: parse,
   partition, save the segments, open them, start the executor. *)
let setup_shards tr ~xml ~shards ~rpc ~dir =
  let t0 = now () in
  let doc = Trace.span tr "xml.parse" (fun () -> parse xml) in
  let sh = Trace.span tr "sharding.partition" (fun () -> Sharding.partition ~shards doc) in
  let manifest = Filename.concat dir "corpus.manifest" in
  Trace.span tr "shard_io.save" (fun () -> Shard_io.save sh manifest);
  let sharding = Trace.span tr "shard_io.open" (fun () -> load doc manifest) in
  let fleet =
    if rpc then Some (Trace.span tr "rpc.fleet_up" (fun () -> launch_fleet sharding)) else None
  in
  let exec =
    Trace.span tr "exec.create" (fun () ->
        Shard_exec.create ~domains:1
          ?endpoints:(Option.map (fun f -> f.endpoints) fleet)
          sharding)
  in
  ({ doc; manifest; dir; sharding; exec; fleet }, ms_since t0 /. 1000.)

let warm sharding reqs =
  let words =
    Array.to_list reqs
    |> List.concat_map (fun (r : Engine.request) -> r.req_words)
    |> List.sort_uniq String.compare
  in
  for s = 0 to Sharding.count sharding - 1 do
    let idx = Sharding.index sharding s in
    Index.warm idx (List.filter_map (Index.term_id idx) words)
  done

(* Set up [n > 0] times, repetitions [first] to [first + n - 1], and
   return the last with every repetition's time in seconds, in order.
   Each repetition is torn down, and the heap compacted, before the next
   starts, so every one starts from the same heap.

   Set-up time is the median over [setups] repetitions before the
   measured phases, the last of which is served, and [late_setups] after
   them: the host's speed drifts over seconds, and repetitions at two
   times sample two of its states. *)
let repeat_setup ?(first = 0) n tr ~setup ~teardown =
  let rec go rep prev times =
    Option.iter teardown prev;
    Gc.compact ();
    Trace.set_request tr (-1 - rep);
    let s, secs = setup rep in
    let times = secs :: times in
    if rep + 1 = first + n then (s, List.rev times) else go (rep + 1) (Some s) times
  in
  go first None []

(* One measured phase on [sv]: whole passes over the log from request id
   [first_rid] until [seconds] of measured time; returns the next request
   id.  cold_open reopens the manifest every [reopen_every] requests, so
   each cycle starts with empty shape caches; the reopen counts in the
   phase's wall time but not in request latency.  A traced phase replays
   each cycle right after running it, on a sharding of its own opened the
   same way, so both meet the same cache state. *)
let shard_phase tr c log pr sv ~cold ~traced ~seconds ~first_rid =
  let tr = if traced then tr else no_trace in
  let reqs = pr.reqs in
  let cycle = if cold then log.plan.reopen_every else 1 in
  let endpoints = Option.map (fun f -> f.endpoints) sv.fleet in
  let t0 = now () and excluded = ref 0. in
  let rid = ref first_rid in
  while not (enough log ~seconds ~requests:(!rid - first_rid)) do
    let first = !rid in
    if cold then begin
      retire log sv.exec;
      sv.sharding <- load sv.doc sv.manifest;
      sv.exec <- Shard_exec.create ~domains:1 sv.sharding
    end;
    let rids = List.init cycle (fun i -> first + i) in
    List.iter (fun rid -> serve tr log ~rid sv.exec reqs.(rid mod Array.length reqs)) rids;
    if traced then begin
      let t1 = now () in
      let sharding =
        if cold then Trace.span tr "shard_io.open" (fun () -> load sv.doc sv.manifest)
        else sv.sharding
      in
      traced_cycle tr c log ~exec:sv.exec ~sharding ~endpoints ~reqs rids;
      excluded := !excluded +. ms_since t1
    end;
    rid := first + cycle;
    log.wall_ms <- ms_since t0 -. !excluded
  done;
  for rid = first_rid to !rid - 1 do
    if log.checked rid then check log ~rid pr.expected.(rid mod Array.length reqs)
  done;
  !rid

let shard_workload p ~shards ~rpc ~cold =
  let pl = plan p.size in
  let tr = Trace.create ~enabled:p.trace () in
  let checked rid = rid mod pl.pass mod pl.parity_every = 0 in
  let pr =
    in_child p.dir (fun () -> prepare pl ~seed:p.seed ~expected:true (dblp_corpus pl corpus_seed))
  in
  let xml = pr.xml in
  let untraced = new_log pl ~checked in
  let teardown sv =
    retire untraced sv.exec;
    Option.iter stop_fleet sv.fleet
  in
  let discard old =
    teardown old;
    rm_rf old.dir
  in
  let set_up ~first n =
    repeat_setup ~first n tr ~teardown:discard ~setup:(fun rep ->
        setup_shards tr ~xml ~shards ~rpc
          ~dir:(fresh_dir (Filename.concat p.dir (Printf.sprintf "setup-%d" rep))))
  in
  let sv, early = set_up ~first:0 pl.setups in
  if not cold then warm sv.sharding pr.reqs;
  Gc.full_major ();
  let c = new_counters () and traced = new_log pl ~checked in
  let next =
    if p.trace then shard_phase tr c traced pr sv ~cold ~traced:true ~seconds:0. ~first_rid:0
    else 0
  in
  ignore
    (shard_phase tr c untraced pr sv ~cold ~traced:false
       ~seconds:(if p.trace then 0. else p.seconds)
       ~first_rid:next);
  let peak_rss = peak_rss_mb () in
  let disk = dir_bytes sv.dir in
  let segment_bytes =
    List.fold_left (fun n f -> n + (Unix.stat f).st_size) 0 (files_with_suffix sv.dir ".seg")
  in
  discard sv;
  let last, late = set_up ~first:pl.setups pl.late_setups in
  discard last;
  let setups = early @ late in
  let metrics =
    if not p.trace then
      (m "setup_s" (median_of setups) "s" :: latency_metrics untraced)
      @ [
          m "space_amp" (float_of_int disk /. float_of_int (String.length xml)) "ratio";
          m "peak_rss_mb" peak_rss "MB";
        ]
    else
      reference_metrics pr
      @ setup_metrics tr
          ([ "xml.parse"; "sharding.partition"; "shard_io.save"; "shard_io.open"; "exec.create" ]
          @ if rpc then [ "rpc.fleet_up" ] else [])
      @ [
          m "index_io.segment_bytes" (float_of_int segment_bytes) "bytes";
          m "live.compactions" 0. "count";
          m "live.write_amp" 0. "ratio";
          m "live.snapshot_shards" 0. "count";
        ]
      @ layer_metrics tr c ~traced ~untraced
  in
  result ~metrics
    ~logs:(if p.trace then [ traced; untraced ] else [ untraced ])
    ~context:(pr.context @ [ ("shards", Json.Num (float_of_int shards)); samples_context untraced ~setups [] ])
    tr

(* --- live_rw ------------------------------------------------------------- *)

type kind = Add | Replace | Remove

let kind_name = function Add -> "add" | Replace -> "replace" | Remove -> "remove"

(* The mutation schedule: Add 50%, Replace 25%, Remove 25%; replace and
   remove never touch the same id twice.  Deterministic in its seed, so
   the traced replay drives a second store through identical states. *)
type schedule = {
  rng : Rng.t;
  pool : Xk_xml.Xml_tree.node array;
  mutable next_doc : int;
  mutable cands : int array;
  mutable ncands : int;
}

let new_schedule ~seed ~pool ~ids =
  { rng = Rng.create (seed + 0x11fe); pool; next_doc = 0; cands = Array.of_list ids; ncands = List.length ids }

let push s id =
  if s.ncands = Array.length s.cands then
    s.cands <- Array.append s.cands (Array.make (max 16 s.ncands) 0);
  s.cands.(s.ncands) <- id;
  s.ncands <- s.ncands + 1

let next_op s =
  let doc () =
    let d = s.pool.(s.next_doc mod Array.length s.pool) in
    s.next_doc <- s.next_doc + 1;
    d
  in
  let u = Rng.int s.rng 4 in
  if u < 2 || s.ncands = 0 then (Add, Live.Add (doc ()))
  else begin
    let i = Rng.int s.rng s.ncands in
    let id = s.cands.(i) in
    s.ncands <- s.ncands - 1;
    s.cands.(i) <- s.cands.(s.ncands);
    if u = 2 then (Replace, Live.Replace (id, doc ())) else (Remove, Live.Remove id)
  end

let applied s (kind, _) ids =
  match (kind, ids) with Add, [ id ] -> push s id | _ -> ()

let setup_live tr pl ~xml ~dir =
  let t0 = now () in
  let doc = Trace.span tr "xml.parse" (fun () -> parse xml) in
  let docs = Array.of_list doc.root.children in
  let store =
    live_ok "create"
      (Live.create ~fsync:true ~auto_compact:32 ~root_tag:doc.root.tag
         ~root_attrs:doc.root.attrs dir)
  in
  let initial = List.init pl.live_initial (fun i -> Live.Add docs.(i)) in
  let ids = live_ok "bulk add" (Trace.span tr "live.bulk_add" (fun () -> Live.mutate store initial)) in
  live_ok "compact" (Trace.span tr "live.bulk_compact" (fun () -> Live.compact store));
  let exec =
    Trace.span tr "exec.create" (fun () ->
        Shard_exec.create ~domains:1 (Snapshot.sharding (Live.snapshot store)))
  in
  let pool = Array.sub docs pl.live_initial (Array.length docs - pl.live_initial) in
  ((store, exec, pool, ids), ms_since t0 /. 1000.)

(* Bytes the store wrote since the previous listing: new files whole,
   appended files by their growth. *)
let written_since prev dir =
  let now_ =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           match Unix.stat (Filename.concat dir f) with
           | st -> Some (f, (st.st_ino, st.st_size))
           | exception Unix.Unix_error _ -> None)
  in
  let bytes =
    List.fold_left
      (fun n (f, (ino, size)) ->
        match List.assoc_opt f prev with
        | Some (ino', size') when ino = ino' -> n + max 0 (size - size')
        | _ -> n + size)
      0 now_
  in
  (bytes, now_)

let subtree_bytes = function
  | Live.Add node | Live.Replace (_, node) ->
      let b = Buffer.create 1024 in
      Wal.encode_subtree b node;
      Buffer.length b
  | Live.Remove _ -> 0

(* The traced side of live_rw: a second store set up the same way and
   driven by the same schedule, so each of its rounds meets the state the
   production round just met.  WAL appends are repeated into a side log
   in a sibling directory, to split WAL time from snapshot publish. *)
type shadow = {
  sh_store : Live.t;
  sh_sched : schedule;
  sh_wal : Wal.t;
  sh_by_kind : (kind, float list) Hashtbl.t;
  mutable sh_publish : float list;
  mutable sh_compact : float list;
  mutable sh_wal_ms : float list;
  mutable sh_written : int;
  mutable sh_user : int;
  mutable sh_listing : (string * (int * int)) list;
}

(* The shadow's round: the production round's mutation, then the replay
   of the round's reads on the shadow's fresh snapshot. *)
let shadow_round tr c log sh ~exec ~reqs ~rids =
  let ((kind, mutation) as op) = next_op sh.sh_sched in
  Trace.set_request tr (List.hd rids);
  let ids =
    live_ok "replayed mutation"
      (Trace.span tr "live.mutate" (fun () -> Live.mutate sh.sh_store [ mutation ]))
  in
  let ms = Trace.last_ms tr in
  applied sh.sh_sched op ids;
  let wop =
    match (mutation, ids) with
    | (Live.Add node | Live.Replace (_, node)), [ doc_id ] -> Wal.Insert { doc_id; subtree = node }
    | Live.Remove doc_id, _ -> Wal.Delete { doc_id }
    | _ -> fail "mutation returned %d ids" (List.length ids)
  in
  (match Trace.span tr "wal.append" (fun () -> Wal.append sh.sh_wal wop) with
  | Ok _ -> ()
  | Error e -> fail "side wal: %s" (Wal.error_message e));
  let w = Trace.last_ms tr in
  sh.sh_wal_ms <- w :: sh.sh_wal_ms;
  Hashtbl.replace sh.sh_by_kind kind
    (ms :: Option.value ~default:[] (Hashtbl.find_opt sh.sh_by_kind kind));
  (* A mutation that leaves no pending operations compacted. *)
  if Live.pending_ops sh.sh_store = 0 then sh.sh_compact <- ms :: sh.sh_compact
  else sh.sh_publish <- (ms -. w) :: sh.sh_publish;
  let bytes, listing = written_since sh.sh_listing (Live.dir sh.sh_store) in
  sh.sh_written <- sh.sh_written + bytes;
  sh.sh_user <- sh.sh_user + subtree_bytes mutation;
  sh.sh_listing <- listing;
  let sharding = Snapshot.sharding (Live.snapshot sh.sh_store) in
  traced_cycle tr c log ~exec ~sharding ~endpoints:None ~reqs rids

type live_state = {
  store : Live.t;
  sched : schedule;
  mutable exec : Shard_exec.t;
  mutable round : int;
}

(* One measured phase of live_rw: rounds of one mutation then the round's
   reads on a [Shard_exec] over the fresh snapshot, in whole passes over
   the log until [seconds] of measured time.  Mutations and executor
   starts count in the phase's wall time.  Checked rounds keep their
   snapshot's document (it shares every subtree with the store); the
   reference engines are built after the phase. *)
let live_phase tr c log st ~reqs ~shadow ~seconds =
  let pl = log.plan in
  let req rid = reqs.(rid mod Array.length reqs) in
  let first_round = st.round and checks = ref [] in
  let t0 = now () and excluded = ref 0. in
  while not (enough log ~seconds ~requests:((st.round - first_round) * pl.reads_per_round)) do
    let ((_, mutation) as op) = next_op st.sched in
    let t1 = now () in
    let res = Live.mutate st.store [ mutation ] in
    log.mutate_ms <- ms_since t1 :: log.mutate_ms;
    log.attempted <- log.attempted + 1;
    (match res with
    | Ok ids -> applied st.sched op ids
    | Error e ->
        log.failed <- log.failed + 1;
        prerr_endline ("mutation failed: " ^ Live.error_message e));
    retire log st.exec;
    st.exec <- Shard_exec.create ~domains:1 (Snapshot.sharding (Live.snapshot st.store));
    let rids = List.init pl.reads_per_round (fun q -> (st.round * pl.reads_per_round) + q) in
    if log.checked (List.hd rids) then
      checks := (rids, Snapshot.document (Live.snapshot st.store)) :: !checks;
    List.iter (fun rid -> serve tr log ~rid st.exec (req rid)) rids;
    Option.iter
      (fun sh ->
        let t1 = now () in
        shadow_round tr c log sh ~exec:st.exec ~reqs ~rids;
        excluded := !excluded +. ms_since t1)
      shadow;
    st.round <- st.round + 1;
    log.wall_ms <- ms_since t0 -. !excluded
  done;
  List.iter
    (fun (rids, doc) ->
      let e = Engine.create doc in
      List.iter (fun rid -> check log ~rid (digest (req rid) (Engine.run_request e (req rid)))) rids)
    !checks

let live_workload p =
  let pl = plan p.size in
  let tr = Trace.create ~enabled:p.trace () in
  let checked rid = rid / pl.reads_per_round mod pl.live_parity_every = 0 in
  let pr =
    in_child p.dir (fun () -> prepare pl ~seed:p.seed ~expected:false (live_corpus pl corpus_seed))
  in
  let xml = pr.xml and reqs = pr.reqs in
  let untraced = new_log pl ~checked in
  let setup tr name = setup_live tr pl ~xml ~dir:(fresh_dir (Filename.concat p.dir name)) in
  let discard (st, ex, _, _) =
    retire untraced ex;
    let dir = Live.dir st in
    Live.close st;
    rm_rf dir
  in
  let set_up ~first n =
    repeat_setup ~first n tr ~teardown:discard ~setup:(fun rep ->
        setup tr (Printf.sprintf "store-%d" rep))
  in
  let (store, exec, pool, ids), early = set_up ~first:0 pl.setups in
  let shadow =
    if not p.trace then None
    else begin
      let (st, ex, pool, ids), _ = setup no_trace "shadow" in
      retire untraced ex;
      let wal_dir = fresh_dir (Filename.concat p.dir "side-wal") in
      let wal =
        match Wal.create ~fsync:true ~base_lsn:0 (Filename.concat wal_dir "wal.log") with
        | Ok w -> w
        | Error e -> fail "side wal: %s" (Wal.error_message e)
      in
      Some
        {
          sh_store = st;
          sh_sched = new_schedule ~seed:corpus_seed ~pool ~ids;
          sh_wal = wal;
          sh_by_kind = Hashtbl.create 3;
          sh_publish = [];
          sh_compact = [];
          sh_wal_ms = [];
          sh_written = 0;
          sh_user = 0;
          sh_listing = snd (written_since [] (Live.dir st));
        }
    end
  in
  let c = new_counters () and traced = new_log pl ~checked in
  let st = { store; sched = new_schedule ~seed:corpus_seed ~pool ~ids; exec; round = 0 } in
  Gc.full_major ();
  let replayed =
    Option.map
      (fun sh ->
        live_phase tr c traced st ~reqs ~shadow ~seconds:0.;
        let shards = Sharding.count (Snapshot.sharding (Live.snapshot sh.sh_store)) in
        Wal.close sh.sh_wal;
        Live.close sh.sh_store;
        (sh, shards))
      shadow
  in
  live_phase no_trace c untraced st ~reqs ~shadow:None
    ~seconds:(if p.trace then 0. else p.seconds);
  retire untraced st.exec;
  let peak_rss = peak_rss_mb () in
  let store_dir = Live.dir store in
  live_ok "final compact" (Live.compact store);
  let live_xml_bytes =
    String.length (Xk_xml.Xml_print.to_string (Snapshot.document (Live.snapshot store)))
  in
  let space_amp = float_of_int (dir_bytes store_dir) /. float_of_int live_xml_bytes in
  let idx_bytes =
    List.fold_left (fun n f -> n + (Unix.stat f).st_size) 0 (files_with_suffix store_dir ".idx")
  in
  Live.close store;
  rm_rf store_dir;
  let last, late = set_up ~first:pl.setups pl.late_setups in
  discard last;
  let setups = early @ late in
  let rounds_per_pass = pl.pass / pl.reads_per_round in
  let metrics =
    match replayed with
    | Some (sh, shards) ->
        let mean xs = Stats.mean (Array.of_list xs) in
        reference_metrics pr
        @ setup_metrics tr [ "xml.parse"; "live.bulk_add"; "live.bulk_compact"; "exec.create" ]
        @ [
            m "index_io.segment_bytes" (float_of_int idx_bytes) "bytes";
            m "live.compactions" (float_of_int (List.length sh.sh_compact)) "count";
            m "live.write_amp" (ratio sh.sh_written sh.sh_user) "ratio";
            m "live.snapshot_shards" (float_of_int shards) "count";
            m "live.compact_ms" (mean sh.sh_compact) "ms";
            m "live.publish_ms" (mean sh.sh_publish) "ms";
            m "wal.append_ms" (mean sh.sh_wal_ms) "ms";
          ]
        @ List.map
            (fun k ->
              m ("live.mutate_ms." ^ kind_name k)
                (mean (Option.value ~default:[] (Hashtbl.find_opt sh.sh_by_kind k)))
                "ms")
            [ Add; Replace; Remove ]
        @ layer_metrics tr c ~traced ~untraced
    | None ->
        let a = Stats.sorted (Array.of_list untraced.mutate_ms) in
        (m "setup_s" (median_of setups) "s" :: latency_metrics untraced)
        @ [
            m "space_amp" space_amp "ratio";
            m "peak_rss_mb" peak_rss "MB";
            m "mutate_p50_ms" (Stats.percentile_sorted a 50.) "ms";
            m (tail_name "mutate" rounds_per_pass)
              (Stats.percentile_sorted a (tail_of rounds_per_pass))
              "ms";
          ]
  in
  result ~metrics
    ~logs:(if p.trace then [ traced; untraced ] else [ untraced ])
    ~context:
      (pr.context
      @ [
          samples_context untraced ~setups
            [ ("mutations", Json.Num (float_of_int (List.length untraced.mutate_ms))) ];
        ])
    tr

let names = [ "warm_zipf"; "cold_open"; "rpc_2shard"; "live_rw" ]

let run name p =
  match name with
  | "warm_zipf" -> shard_workload p ~shards:1 ~rpc:false ~cold:false
  | "cold_open" -> shard_workload p ~shards:1 ~rpc:false ~cold:true
  | "rpc_2shard" -> shard_workload p ~shards:2 ~rpc:true ~cold:false
  | "live_rw" -> live_workload p
  | other -> invalid_arg ("unknown workload " ^ other)
