(* Resilience: budget semantics, anytime partial-prefix correctness,
   fault-tolerant index IO, and service-level outcomes under injected
   faults, deadlines and overload. *)

open Xk_resilience

let check = Alcotest.check
let tc = Alcotest.test_case

(* --- Budget primitives --------------------------------------------- *)

let budget_ticks () =
  let b = Budget.create ~ticks:5 () in
  for i = 1 to 5 do
    check Alcotest.bool (Printf.sprintf "tick %d alive" i) true (Budget.alive b)
  done;
  check Alcotest.bool "tick 6 expired" false (Budget.alive b);
  check Alcotest.bool "stays expired" false (Budget.alive b);
  check Alcotest.bool "exhausted" true (Budget.exhausted b);
  Alcotest.check_raises "check raises" Budget.Expired (fun () ->
      Budget.check (Budget.create ~ticks:0 ()))

let budget_cancel () =
  let b = Budget.create () in
  check Alcotest.bool "alive before cancel" true (Budget.alive b);
  Budget.cancel b;
  check Alcotest.bool "dead after cancel" false (Budget.alive b);
  check Alcotest.bool "exhausted after cancel" true (Budget.exhausted b);
  (match Budget.cancel Budget.unlimited with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "cancelling the unlimited budget accepted")

let budget_deadline () =
  (* A deadline in the past trips on the first poll, deterministically. *)
  let b = Budget.create ~deadline_ms:(-1.) () in
  check Alcotest.bool "expired deadline" false (Budget.alive b);
  check Alcotest.bool "exhausted" true (Budget.exhausted b);
  let u = Budget.unlimited in
  for _ = 1 to 100 do
    check Alcotest.bool "unlimited alive" true (Budget.alive u)
  done;
  check Alcotest.bool "unlimited never exhausted" false (Budget.exhausted u);
  check Alcotest.bool "unlimited is not limited" false (Budget.is_limited u);
  check Alcotest.bool "deadline is limited" true
    (Budget.is_limited (Budget.create ~deadline_ms:1000. ()))

(* --- Anytime top-K: partial results are a prefix of the full top-K --- *)

let scores (hits : Xk_baselines.Hit.t list) =
  List.map (fun (h : Xk_baselines.Hit.t) -> h.score) hits

let assert_prefix msg (full : Xk_baselines.Hit.t list)
    (partial : Xk_baselines.Hit.t list) =
  let fs = scores full and ps = scores partial in
  if List.length ps > List.length fs then
    Alcotest.failf "%s: partial larger than full" msg;
  (* The emitted score sequence must be the first |partial| scores of the
     full top-K... *)
  List.iteri
    (fun i p ->
      let f = List.nth fs i in
      if Float.abs (f -. p) > Tutil.score_tolerance then
        Alcotest.failf "%s: score %d is %.9f, full run has %.9f" msg i p f)
    ps;
  (* ... and every emitted hit is a true result with its true score. *)
  List.iter
    (fun (h : Xk_baselines.Hit.t) ->
      match
        List.find_opt (fun (f : Xk_baselines.Hit.t) -> f.node = h.node) full
      with
      | Some f ->
          if Float.abs (f.score -. h.score) > Tutil.score_tolerance then
            Alcotest.failf "%s: node %d score drifted" msg h.node
      | None -> Alcotest.failf "%s: node %d not in the full top-K" msg h.node)
    partial

(* A term-rich corpus and queries over terms that actually occur, so the
   evaluators do real level-by-level work and the budget is polled. *)
let rich_engine seed =
  Xk_core.Engine.create
    (Tutil.random_doc
       ~config:
         {
           Xk_datagen.Random_tree.default with
           max_depth = 7;
           max_children = 5;
           keywords = 24;
         }
       seed)

let frequent_query eng i =
  let idx = Xk_core.Engine.index eng in
  let ids = Xk_index.Index.terms_by_df idx in
  let word j = Xk_index.Index.term idx ids.(j mod Array.length ids) in
  [ word i; word (i + 1) ]

let partial_prefix () =
  let eng = rich_engine 1234 in
  let strict = ref 0 in
  for qi = 1 to 8 do
    let q = frequent_query eng (qi - 1) in
    let full = Xk_core.Engine.query_topk eng q ~k:10 in
    if full = [] then Alcotest.failf "query %d has no results" qi;
    List.iter
      (fun ticks ->
        let budget = Budget.create ~ticks () in
        let partial = Xk_core.Engine.query_topk ~budget eng q ~k:10 in
        let msg = Printf.sprintf "query %d ticks %d" qi ticks in
        assert_prefix msg full partial;
        if Budget.exhausted budget then begin
          if
            List.length partial > 0 && List.length partial < List.length full
          then incr strict
        end
        else
          check Alcotest.int (msg ^ ": unexhausted budget = full run")
            (List.length full) (List.length partial))
      [ 1; 2; 3; 5; 8; 13; 21; 55; 144; 1_000_000 ]
  done;
  (* The sweep must actually exercise the anytime cutoff somewhere. *)
  check Alcotest.bool "some strict partials observed" true (!strict > 0)

let partial_prefix_hybrid () =
  let eng = rich_engine 4321 in
  for qi = 0 to 3 do
    let q = frequent_query eng qi in
    let full = Xk_core.Engine.query_topk ~algorithm:Hybrid eng q ~k:8 in
    List.iter
      (fun ticks ->
        let budget = Budget.create ~ticks () in
        let partial =
          Xk_core.Engine.query_topk ~algorithm:Hybrid ~budget eng q ~k:8
        in
        assert_prefix "hybrid" full partial)
      [ 1; 4; 16; 64 ]
  done

let complete_raises () =
  let eng = rich_engine 1234 in
  let q = frequent_query eng 0 in
  if Xk_core.Engine.query eng q = [] then Alcotest.fail "query has no results";
  List.iter
    (fun algorithm ->
      let budget = Budget.create ~ticks:0 () in
      match Xk_core.Engine.query ~algorithm ~budget eng q with
      | exception Budget.Expired -> ()
      | _ -> Alcotest.fail "complete evaluation ignored an expired budget")
    Xk_core.Engine.[ Join_based; Stack_based; Index_based ]

let outcome_dispatch () =
  let eng = rich_engine 77 in
  let q = frequent_query eng 0 in
  let topk = Xk_core.Engine.topk_request ~k:5 q in
  let complete = Xk_core.Engine.complete_request q in
  (* No deadline: both run to completion. *)
  (match Xk_core.Engine.run_request_outcome eng topk with
  | Xk_core.Engine.Done hits ->
      Tutil.check_same_hits "outcome = run_request" hits
        (Xk_core.Engine.run_request eng topk)
  | _ -> Alcotest.fail "unlimited top-K not Done");
  (* Expired deadline: anytime degrades, complete times out. *)
  (match
     Xk_core.Engine.run_request_outcome
       ~budget:(Budget.create ~deadline_ms:(-1.) ())
       eng topk
   with
  | Xk_core.Engine.Partial _ -> ()
  | _ -> Alcotest.fail "expired top-K not Partial");
  (match
     Xk_core.Engine.run_request_outcome
       ~budget:(Budget.create ~ticks:0 ())
       eng complete
   with
  | Xk_core.Engine.Timed_out -> ()
  | _ -> Alcotest.fail "expired complete not Timed_out");
  (* The deadline can also travel inside the request. *)
  match
    Xk_core.Engine.run_request_outcome eng
      { (Xk_core.Engine.topk_request ~k:5 q) with req_deadline_ms = Some (-1.) }
  with
  | Xk_core.Engine.Partial _ -> ()
  | _ -> Alcotest.fail "request-carried deadline ignored"

(* --- Fault-tolerant index IO --------------------------------------- *)

let with_saved_index f =
  let eng = Tutil.random_engine 2020 in
  let idx = Xk_core.Engine.index eng in
  let label = Xk_index.Index.label idx in
  let path = Filename.temp_file "xk_resilience" ".idx" in
  Xk_index.Index_io.save idx path;
  Fun.protect
    ~finally:(fun () ->
      Chaos.reset ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f idx label path)

let load_ok label path =
  match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
  | Ok idx -> idx
  | Error e ->
      Alcotest.failf "load failed: %s" (Xk_index.Index_io.load_error_message e)

let io_transients_heal () =
  with_saved_index (fun idx label path ->
      Chaos.configure { Chaos.no_faults with io_failures = 2 };
      let reloaded = load_ok label path in
      check Alcotest.int "terms survive retries"
        (Xk_index.Index.term_count idx)
        (Xk_index.Index.term_count reloaded))

let io_transients_exhaust () =
  with_saved_index (fun _ label path ->
      Chaos.configure { Chaos.no_faults with io_failures = 10 };
      match Xk_index.Index_io.load_result ~retries:2 ~backoff_ms:0. label path with
      | Error { error = Io_failed _; attempts = 3 } -> ()
      | Error e ->
          Alcotest.failf "wrong class: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok _ -> Alcotest.fail "10 injected failures survived 2 retries")

(* Healing a path clears its marks, not the transient classes it has
   already spent: a rewritten copy must not fail its verify again. *)
let heal_keeps_spent_faults () =
  with_saved_index (fun _ label path ->
      Chaos.configure { Chaos.no_faults with io_failures = 1 };
      ignore (load_ok label path);
      Chaos.heal ~path;
      match Xk_index.Index_io.load_result ~retries:0 label path with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "heal re-armed a spent fault: %s"
            (Xk_index.Index_io.load_error_message e))

let torn_reads_heal () =
  with_saved_index (fun idx label path ->
      (* Byte-flipped reads fail the checksum; the re-read is clean. *)
      Chaos.configure { Chaos.no_faults with corrupt_reads = 2 };
      let reloaded = load_ok label path in
      check Alcotest.int "terms survive torn reads"
        (Xk_index.Index.term_count idx)
        (Xk_index.Index.term_count reloaded))

let persistent_corruption () =
  with_saved_index (fun _ label path ->
      Chaos.configure Chaos.no_faults;
      (* Flip a byte of the payload on disk: every re-read sees it. *)
      let data =
        let ic = open_in_bin path in
        let d = really_input_string ic (in_channel_length ic) in
        close_in ic;
        d
      in
      let b = Bytes.of_string data in
      let pos = Bytes.length b - 5 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Corrupted _; _ } -> ()
      | Error e ->
          Alcotest.failf "wrong class: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok _ -> Alcotest.fail "corrupted payload loaded")

let truncation_detected () =
  with_saved_index (fun _ label path ->
      Chaos.configure Chaos.no_faults;
      let full = Xk_index.Index_io.file_size path in
      List.iter
        (fun keep ->
          let data =
            let ic = open_in_bin path in
            let d = really_input_string ic keep in
            close_in ic;
            d
          in
          let cut = path ^ ".cut" in
          let oc = open_out_bin cut in
          output_string oc data;
          close_out oc;
          Fun.protect
            ~finally:(fun () -> try Sys.remove cut with Sys_error _ -> ())
            (fun () ->
              match
                Xk_index.Index_io.load_result ~backoff_ms:0. label cut
              with
              | Error { error = Truncated _; _ } -> ()
              | Error e ->
                  Alcotest.failf "keep=%d: wrong class: %s" keep
                    (Xk_index.Index_io.load_error_message e)
              | Ok _ -> Alcotest.failf "keep=%d: truncated segment loaded" keep))
        [ 0; 4; 9; full / 2; full - 1 ])

let garbage_classified () =
  with_saved_index (fun _ label path ->
      Chaos.configure Chaos.no_faults;
      let write s =
        let oc = open_out_bin path in
        output_string oc s;
        close_out oc
      in
      write "this is not an index segment at all";
      (match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Corrupted _; _ } -> ()
      | _ -> Alcotest.fail "garbage not classified as corrupted");
      write "XKIDX001legacy-body";
      (match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Corrupted msg; _ } ->
          check Alcotest.bool "legacy message" true (String.length msg > 0)
      | _ -> Alcotest.fail "v1 segment not classified as corrupted");
      (* A missing file cannot be mapped: IO failure, no retries. *)
      Sys.remove path;
      match Xk_index.Index_io.load_result ~backoff_ms:0. label path with
      | Error { error = Io_failed _; attempts = 1 } -> ()
      | Error e ->
          Alcotest.failf "missing file: wrong class: %s"
            (Xk_index.Index_io.load_error_message e)
      | Ok _ -> Alcotest.fail "missing segment loaded")

(* --- Service outcomes under faults, deadlines and overload ---------- *)

module Query_service = Xk_exec.Query_service
module Shard_exec = Xk_exec.Shard_exec

(* A one-shard executor over a random corpus, and the engine whose terms
   the sample requests draw on. *)
let one_shard ?max_queue seed =
  let doc = Tutil.random_doc seed in
  let sharding = Xk_index.Sharding.partition ~shards:1 doc in
  ( Shard_exec.create ~domains:2 ?max_queue sharding,
    Xk_core.Engine.of_index (Xk_index.Sharding.index sharding 0) )

let sample_requests eng n =
  let idx = Xk_core.Engine.index eng in
  let ids = Xk_index.Index.terms_by_df idx in
  let word i = Xk_index.Index.term idx ids.(i mod Array.length ids) in
  List.init n (fun i ->
      Xk_core.Engine.topk_request ~k:5 [ word i; word (i + 1) ])

let expect_ok what outcomes =
  List.iter
    (function
      | Query_service.Ok _ -> ()
      | o -> Alcotest.failf "%s: %s" what (Query_service.outcome_label o))
    outcomes

(* An injected query fault fails the replica attempt; with one replica
   the shard is lost, so the request degrades (never a hard failure). *)
let service_failures_captured () =
  Fun.protect ~finally:Chaos.reset (fun () ->
      let sx, eng = one_shard 31 in
      Chaos.configure { Chaos.no_faults with query_failures = 2 };
      let reqs = sample_requests eng 6 in
      let outcomes = Shard_exec.exec_batch sx reqs in
      check Alcotest.int "no hard failures" 0
        (List.filter Query_service.is_failure outcomes |> List.length);
      List.iter
        (fun o ->
          match o with
          | Query_service.Degraded { hits; missing_shards; coverage } ->
              check Alcotest.(list int) "the only shard is missing" [ 0 ]
                missing_shards;
              check Alcotest.int "nothing confirmed" 0 (List.length hits);
              check (Alcotest.float 0.) "no coverage" 0. coverage
          | Query_service.Ok _ -> ()
          | o ->
              Alcotest.failf "unexpected outcome %s"
                (Query_service.outcome_label o))
        outcomes;
      (* All worker domains survived: a clean batch fully succeeds. *)
      Chaos.configure Chaos.no_faults;
      expect_ok "after failures" (Shard_exec.exec_batch sx reqs);
      let st = Shard_exec.stats sx in
      Shard_exec.shutdown sx;
      check Alcotest.int "exactly the injected failures degrade" 2 st.degraded;
      check Alcotest.int "failed counter" 0 st.failed;
      check Alcotest.int "completed counter" (2 * List.length reqs - 2)
        st.completed)

let service_deadlines () =
  Fun.protect ~finally:Chaos.reset (fun () ->
      Chaos.configure Chaos.no_faults;
      let sx, eng = one_shard 62 in
      let topk = sample_requests eng 4 in
      let complete =
        List.map
          (fun (r : Xk_core.Engine.request) ->
            { r with req_mode = Xk_core.Engine.Complete Join_based })
          topk
      in
      (* An already-expired deadline: nothing is confirmed, so anytime
         and complete requests alike time out; nothing fails. *)
      let out = Shard_exec.exec_batch ~deadline_ms:(-1.) sx (topk @ complete) in
      List.iteri
        (fun i o ->
          match o with
          | Query_service.Timeout -> ()
          | o ->
              Alcotest.failf "request %d: unexpected %s" i
                (Query_service.outcome_label o))
        out;
      let st = Shard_exec.stats sx in
      check Alcotest.int "timeouts counted"
        (List.length topk + List.length complete)
        st.timeouts;
      (* Without a deadline the same batch fully completes. *)
      expect_ok "clean run" (Shard_exec.exec_batch sx (topk @ complete));
      Shard_exec.shutdown sx)

let overload_rejects () =
  Fun.protect ~finally:Chaos.reset (fun () ->
      let sx, eng = one_shard ~max_queue:2 93 in
      (* Slow queries + a tiny admission bound + a burst: the submission
         loop runs in microseconds while every admitted job sleeps, so
         exactly [max_queue] requests are admitted. *)
      Chaos.configure
        { Chaos.no_faults with query_latency_ms = 50. };
      let reqs = sample_requests eng 12 in
      let outcomes = Shard_exec.exec_batch sx reqs in
      let count p = List.length (List.filter p outcomes) in
      let rejected =
        count (function Query_service.Rejected -> true | _ -> false)
      in
      let ok = count (function Query_service.Ok _ -> true | _ -> false) in
      check Alcotest.bool "overload rejects" true (rejected >= 8);
      check Alcotest.int "admitted requests succeed" (12 - rejected) ok;
      check Alcotest.int "no hard failures" 0 (count Query_service.is_failure);
      (* The service remains fully usable after the overload burst (the
         clean batch stays within the admission bound). *)
      Chaos.configure Chaos.no_faults;
      expect_ok "after overload"
        (Shard_exec.exec_batch sx (sample_requests eng 2));
      let st = Shard_exec.stats sx in
      Shard_exec.shutdown sx;
      check Alcotest.int "rejected counter" rejected st.rejected;
      check Alcotest.bool "max_queue recorded" true (st.max_queue = Some 2))

let fault_spec_parsing () =
  (match Chaos.of_spec "io,corrupt,latency,query" with
  | Ok { faults = c; events } ->
      check Alcotest.bool "io" true (c.io_failures > 0);
      check Alcotest.bool "corrupt" true (c.corrupt_reads > 0);
      check Alcotest.bool "latency" true (c.io_latency_ms > 0.);
      check Alcotest.bool "query" true (c.query_failures > 0);
      check Alcotest.int "classes are not events" 0 (List.length events)
  | Error msg -> Alcotest.failf "spec rejected: %s" msg);
  (* Classes and events mix in one spec. *)
  (match Chaos.of_spec "query,kill@s0r1:2" with
  | Ok { faults; events = [ Chaos.Kill { from_tick = 2; _ } ] } ->
      check Alcotest.int "query class" 1 faults.query_failures
  | Ok _ -> Alcotest.fail "mixed spec parsed wrong"
  | Error msg -> Alcotest.failf "mixed spec rejected: %s" msg);
  match Chaos.of_spec "io,bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus fault class accepted"

(* --- Retry policy ---------------------------------------------------- *)

let retry_classification () =
  (* Drive the loop with a scripted error sequence: transients burn the
     retry budget, the first permanent error returns immediately. *)
  let run ~retryable script =
    let q = ref script in
    Retry.with_backoff_info ~retries:3 ~backoff_ms:0.
      ~sleep:(fun _ -> ())
      ~retryable
      (fun () ->
        match !q with
        | [] -> Ok ()
        | r :: rest ->
            q := rest;
            r)
  in
  let transient = function `Transient -> true | `Permanent -> false in
  (match run ~retryable:transient [ Error `Transient; Error `Transient ] with
  | Ok (), 3 -> ()
  | _, n -> Alcotest.failf "two transients should heal on attempt 3, got %d" n);
  (match run ~retryable:transient [ Error `Permanent ] with
  | Error `Permanent, 1 -> ()
  | _, n -> Alcotest.failf "permanent error retried: %d attempts" n);
  (match run ~retryable:transient [ Error `Transient; Error `Permanent ] with
  | Error `Permanent, 2 -> ()
  | _, n ->
      Alcotest.failf "permanent after transient should stop at 2, got %d" n);
  match run ~retryable:transient [] with
  | Ok (), 1 -> ()
  | _, n -> Alcotest.failf "clean first try made %d attempts" n

let retry_backoff_growth () =
  let slept = ref [] in
  let result, attempts =
    Retry.with_backoff_info ~retries:4 ~backoff_ms:2.
      ~sleep:(fun ms -> slept := ms :: !slept)
      ~retryable:(fun _ -> true)
      (fun () -> Error `Transient)
  in
  (match result with
  | Error `Transient -> ()
  | Ok () -> Alcotest.fail "always-failing thunk returned Ok");
  check Alcotest.int "exhaustion reports retries + 1 attempts" 5 attempts;
  check
    Alcotest.(list (float 1e-9))
    "backoff doubles, no sleep after the last attempt" [ 2.; 4.; 8.; 16. ]
    (List.rev !slept)

let jitter_determinism () =
  let draw seed =
    let j = Retry.Jitter.create ~seed () in
    List.init 32 (fun i ->
        Retry.Jitter.next j ~base_ms:100. ~cap_ms:5000.
          ~prev_ms:(100. *. float_of_int (i + 1)))
  in
  check
    Alcotest.(list (float 1e-9))
    "same seed, same delay sequence" (draw 7) (draw 7);
  if draw 7 = draw 8 then
    Alcotest.fail "different seeds produced identical sequences"

let jitter_bounds () =
  let j = Retry.Jitter.create ~seed:11 () in
  let prev = ref 100. in
  for _ = 1 to 200 do
    let d = Retry.Jitter.next j ~base_ms:100. ~cap_ms:2000. ~prev_ms:!prev in
    if d < 100. -. 1e-9 then Alcotest.failf "delay %f below the base" d;
    if d > 2000. +. 1e-9 then Alcotest.failf "delay %f above the cap" d;
    if d > Float.max 100. (!prev *. 3.) +. 1e-9 then
      Alcotest.failf "delay %f above 3x prev (%f)" d !prev;
    prev := d
  done

(* --- Replica health -------------------------------------------------- *)

let health_window () =
  let h = Health.create () in
  let s0 = Health.snapshot h in
  let w = s0.Health.window_size in
  check (Alcotest.float 0.) "fresh window is fully healthy" 1.0
    s0.Health.success_rate;
  for i = 1 to w do
    if i <= w / 2 then Health.record h ~ok:false ~latency_ms:10.
    else Health.record h ~ok:true ~latency_ms:(if i mod 2 = 0 then 2. else 4.)
  done;
  let s = Health.snapshot h in
  check Alcotest.int "successes" (w / 2) s.Health.successes;
  check Alcotest.int "failures" (w / 2) s.Health.failures;
  check (Alcotest.float 1e-9) "success rate" 0.5 s.Health.success_rate;
  check (Alcotest.float 1e-9) "mean latency" 6.5 s.Health.mean_latency_ms;
  (* the window rolls: half a window of successes evicts the failures *)
  for _ = 1 to w / 2 do
    Health.record h ~ok:true ~latency_ms:2.
  done;
  let s = Health.snapshot h in
  check (Alcotest.float 1e-9) "window rolled" 1.0 s.Health.success_rate;
  check Alcotest.int "observations keep counting" (w + (w / 2))
    s.Health.observations

let health_score_orders () =
  let window = (Health.snapshot (Health.create ())).Health.window_size in
  let filled ~ok ~latency_ms =
    let h = Health.create () in
    for _ = 1 to window do
      Health.record h ~ok ~latency_ms
    done;
    h
  in
  let good = filled ~ok:true ~latency_ms:1. in
  let bad = filled ~ok:false ~latency_ms:1. in
  check Alcotest.bool "healthy outranks failing" true
    (Health.score good > Health.score bad);
  let slow = filled ~ok:true ~latency_ms:500. in
  check Alcotest.bool "latency breaks success-rate ties" true
    (Health.score good > Health.score slow);
  (* ...but can never outweigh a real success-rate difference *)
  let flaky_fast = Health.create () in
  for i = 1 to window do
    Health.record flaky_fast ~ok:(i > 1) ~latency_ms:0.01
  done;
  check Alcotest.bool "success rate dominates latency" true
    (Health.score slow > Health.score flaky_fast)

(* --- Circuit breaker ------------------------------------------------- *)

let breaker_config =
  {
    Circuit_breaker.failure_threshold = 3;
    reset_after_ms = 100.;
    half_open_probes = 1;
  }

let breaker_state b = Circuit_breaker.state_label (Circuit_breaker.state b)

let breaker_trips_and_recovers () =
  let now = ref 0. in
  let b =
    Circuit_breaker.create ~config:breaker_config ~clock:(fun () -> !now) ()
  in
  check Alcotest.bool "closed admits" true (Circuit_breaker.allow b);
  Circuit_breaker.record_failure b;
  Circuit_breaker.record_failure b;
  check Alcotest.string "below threshold stays closed" "closed"
    (breaker_state b);
  Circuit_breaker.record_failure b;
  check Alcotest.string "opens at the threshold" "open" (breaker_state b);
  check Alcotest.bool "open rejects" false (Circuit_breaker.allow b);
  now := 50.;
  check Alcotest.bool "cooldown not elapsed" false (Circuit_breaker.allow b);
  now := 100.;
  check Alcotest.bool "cooldown admits a probe" true (Circuit_breaker.allow b);
  check Alcotest.string "half-open" "half-open" (breaker_state b);
  check Alcotest.bool "probe budget bounds admissions" false
    (Circuit_breaker.allow b);
  Circuit_breaker.record_success b;
  check Alcotest.string "probe success closes" "closed" (breaker_state b);
  let st = Circuit_breaker.stats b in
  check Alcotest.int "one open counted" 1 st.Circuit_breaker.opens;
  check Alcotest.bool "rejections counted" true (st.Circuit_breaker.rejected >= 3)

let breaker_probe_failure_reopens () =
  let now = ref 0. in
  let b =
    Circuit_breaker.create ~config:breaker_config ~clock:(fun () -> !now) ()
  in
  for _ = 1 to 3 do
    Circuit_breaker.record_failure b
  done;
  now := 100.;
  check Alcotest.bool "probe admitted" true (Circuit_breaker.allow b);
  Circuit_breaker.record_failure b;
  check Alcotest.string "probe failure re-opens" "open" (breaker_state b);
  (* the cooldown restarted at the re-trip, not the original trip *)
  now := 150.;
  check Alcotest.bool "cooldown restarted" false (Circuit_breaker.allow b);
  now := 200.;
  check Alcotest.bool "second probe admitted" true (Circuit_breaker.allow b);
  Circuit_breaker.record_success b;
  check Alcotest.string "recovers" "closed" (breaker_state b)

let breaker_consecutive_only () =
  let b = Circuit_breaker.create ~config:breaker_config ~clock:(fun () -> 0.) () in
  for _ = 1 to 10 do
    Circuit_breaker.record_failure b;
    Circuit_breaker.record_success b
  done;
  check Alcotest.string "interleaved successes keep it closed" "closed"
    (breaker_state b);
  (* a late success while Open does not short-circuit the cooldown *)
  for _ = 1 to 3 do
    Circuit_breaker.record_failure b
  done;
  Circuit_breaker.record_success b;
  check Alcotest.string "late success while open is ignored" "open"
    (breaker_state b);
  check Alcotest.bool "still rejecting" false (Circuit_breaker.allow b)

(* --- Hedged attempts -------------------------------------------------- *)

(* [spawn] stands in for the pool: [run_now] is an idle worker that runs
   the job inline (so with delay 0 the hedge starts before the primary),
   [drop] is a saturated pool that never runs it. *)
let run_now f = f ()
let drop (_ : unit -> unit) = ()
let no_sleep (_ : float) = ()

let hedge_primary_wins () =
  let o =
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~spawn:drop ~delay_ms:5.
      ~primary:(fun _ -> "primary")
      ~hedge:(fun _ -> "hedge")
      ()
  in
  check Alcotest.string "primary's answer" "primary" o.Hedge.value;
  check Alcotest.bool "primary won" true (o.Hedge.winner = Hedge.Primary);
  check Alcotest.bool "hedge never fired" false o.Hedge.fired

let hedge_fires_and_wins () =
  let budgets = ref [] in
  let make_budget () =
    let b = Budget.create () in
    budgets := !budgets @ [ b ];
    b
  in
  let o =
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~make_budget ~spawn:run_now
      ~delay_ms:0.
      ~primary:(fun _ -> "primary")
      ~hedge:(fun _ -> "hedge")
      ()
  in
  check Alcotest.string "hedge answered first" "hedge" o.Hedge.value;
  check Alcotest.bool "hedge won" true (o.Hedge.winner = Hedge.Hedge);
  check Alcotest.bool "fired" true o.Hedge.fired;
  match !budgets with
  | [ primary; hedge ] ->
      check Alcotest.bool "loser's budget cancelled" false (Budget.alive primary);
      check Alcotest.bool "winner's budget lives" true (Budget.alive hedge)
  | bs -> Alcotest.failf "expected two budgets, got %d" (List.length bs)

let hedge_covers_primary_failure () =
  let o =
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~spawn:run_now ~delay_ms:0.
      ~primary:(fun _ -> failwith "primary down")
      ~hedge:(fun _ -> "hedge")
      ()
  in
  check Alcotest.string "hedge rescued the request" "hedge" o.Hedge.value

let hedge_failure_never_preempts () =
  let o =
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~spawn:run_now ~delay_ms:0.
      ~primary:(fun _ -> "primary")
      ~hedge:(fun _ -> failwith "hedge down")
      ()
  in
  check Alcotest.string "primary survives a failed hedge" "primary"
    o.Hedge.value;
  check Alcotest.bool "hedge was fired" true o.Hedge.fired;
  check Alcotest.bool "primary won" true (o.Hedge.winner = Hedge.Primary)

let hedge_both_fail_raises_primary () =
  (match
     Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~spawn:run_now ~delay_ms:0.
       ~primary:(fun _ -> failwith "primary down")
       ~hedge:(fun _ -> failwith "hedge down")
       ()
   with
  | (_ : string Hedge.outcome) ->
      Alcotest.fail "both attempts failed yet run returned"
  | exception Failure msg ->
      check Alcotest.string "the primary's error surfaces" "primary down" msg);
  (* a queued-but-never-started hedge is revoked, not waited on *)
  match
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep ~spawn:drop ~delay_ms:0.
      ~primary:(fun _ -> failwith "primary down")
      ~hedge:(fun _ -> "hedge")
      ()
  with
  | (_ : string Hedge.outcome) -> Alcotest.fail "expected the primary's error"
  | exception Failure msg -> check Alcotest.string "raises" "primary down" msg

let hedge_unlimited_budget_ok () =
  (* Budget.unlimited refuses cancellation; the loser-kill is skipped. *)
  let o =
    Hedge.run ~clock:(fun () -> 0.) ~sleep:no_sleep
      ~make_budget:(fun () -> Budget.unlimited)
      ~spawn:run_now ~delay_ms:0.
      ~primary:(fun _ -> "primary")
      ~hedge:(fun _ -> "hedge")
      ()
  in
  check Alcotest.string "uncancellable budgets tolerated" "hedge" o.Hedge.value

let suite =
  [
    ( "resilience.budget",
      [
        tc "tick allowance" `Quick budget_ticks;
        tc "cancellation" `Quick budget_cancel;
        tc "deadlines and unlimited" `Quick budget_deadline;
      ] );
    ( "resilience.anytime",
      [
        tc "partial is a prefix of full top-K" `Quick partial_prefix;
        tc "hybrid partial prefix" `Quick partial_prefix_hybrid;
        tc "complete modes raise" `Quick complete_raises;
        tc "outcome dispatch" `Quick outcome_dispatch;
      ] );
    ( "resilience.storage",
      [
        tc "transient IO heals via retry" `Quick io_transients_heal;
        tc "transient IO exhausts retries" `Quick io_transients_exhaust;
        tc "heal keeps spent transient faults" `Quick heal_keeps_spent_faults;
        tc "torn reads heal via checksum" `Quick torn_reads_heal;
        tc "persistent corruption detected" `Quick persistent_corruption;
        tc "truncation detected" `Quick truncation_detected;
        tc "garbage and legacy segments" `Quick garbage_classified;
      ] );
    ( "resilience.service",
      [
        tc "failures captured, workers survive" `Quick service_failures_captured;
        tc "deadlines degrade and time out" `Quick service_deadlines;
        tc "overload rejects, service recovers" `Quick overload_rejects;
        tc "fault spec parsing" `Quick fault_spec_parsing;
      ] );
    ( "resilience.retry",
      [
        tc "transient/permanent classification" `Quick retry_classification;
        tc "backoff growth and exhaustion" `Quick retry_backoff_growth;
        tc "jitter determinism" `Quick jitter_determinism;
        tc "jitter stays in the decorrelated envelope" `Quick jitter_bounds;
      ] );
    ( "resilience.health",
      [
        tc "rolling window" `Quick health_window;
        tc "routing score ordering" `Quick health_score_orders;
      ] );
    ( "resilience.breaker",
      [
        tc "trips, cools down, recovers" `Quick breaker_trips_and_recovers;
        tc "probe failure re-opens" `Quick breaker_probe_failure_reopens;
        tc "consecutive failures only" `Quick breaker_consecutive_only;
      ] );
    ( "resilience.hedge",
      [
        tc "primary wins on a saturated pool" `Quick hedge_primary_wins;
        tc "hedge fires and wins" `Quick hedge_fires_and_wins;
        tc "hedge covers a failed primary" `Quick hedge_covers_primary_failure;
        tc "hedge failure never preempts" `Quick hedge_failure_never_preempts;
        tc "both failing raises the primary's error" `Quick
          hedge_both_fail_raises_primary;
        tc "unlimited budgets tolerated" `Quick hedge_unlimited_budget_ok;
      ] );
  ]
