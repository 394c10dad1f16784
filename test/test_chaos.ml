(* Deterministic chaos for replicated shard serving.

   The two load-bearing acceptance properties: with two replicas per
   shard, killing any one replica of every shard is invisible — every
   outcome is bit-identical to the fault-free run — and killing every
   replica of one shard yields Degraded answers whose hits are exactly
   the true results restricted to the reachable shards, never Failed.
   Around them: schedule spec parsing, tick-deterministic replay, and
   the corrupt-target plumbing. *)

open Xk_exec
module Chaos = Xk_resilience.Chaos

let check = Alcotest.check
let tc = Alcotest.test_case

let hits_identical (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

let target ?shard ?replica () = { Chaos.t_shard = shard; t_replica = replica }

(* --- Schedule specs --------------------------------------------------- *)

let spec_parsing () =
  (match Chaos.of_spec "kill@s1r0:3,slow@s*r1:2:5.5,corrupt@s0r*" with
  | Ok
      {
        events =
          [
            Kill { target = { t_shard = Some 1; t_replica = Some 0 }; from_tick = 3 };
            Slow { target = { t_shard = None; t_replica = Some 1 }; from_tick = 2; ms };
            Corrupt { target = { t_shard = Some 0; t_replica = None } };
          ];
        faults;
      } ->
      check (Alcotest.float 1e-9) "slow ms" 5.5 ms;
      check Alcotest.bool "events name no fault class" true
        (faults = Chaos.no_faults)
  | Ok _ -> Alcotest.fail "spec parsed into the wrong events"
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  List.iter
    (fun bad ->
      match Chaos.of_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad spec %S accepted" bad)
    [
      "boom@s0r0:1";
      "kill@s0:1";
      "kill@sxr0:1";
      "kill@s0r0";
      "kill@s0r0:-1";
      "slow@s0r0:1";
      "corrupt@s0r0:1";
      "kill";
    ]

(* --- Deterministic replay --------------------------------------------- *)

let replay () =
  let slept = ref [] in
  Chaos.install
    ~sleep:(fun ms -> slept := ms :: !slept)
    [
      Chaos.Kill { target = target ~shard:0 ~replica:0 (); from_tick = 2 };
      Chaos.Slow { target = target ~replica:1 (); from_tick = 0; ms = 7. };
      Chaos.Corrupt { target = target ~shard:2 () };
    ];
  Fun.protect ~finally:Chaos.clear (fun () ->
      check Alcotest.bool "schedule active" true (Chaos.active ());
      (* tick 0: the kill is not armed yet *)
      Chaos.on_attempt ~shard:0 ~replica:0;
      (* tick 1: the slowdown matches replica 1 of any shard *)
      Chaos.on_attempt ~shard:3 ~replica:1;
      check Alcotest.(list (float 1e-9)) "slowdown serviced" [ 7. ] !slept;
      (* tick 2: the kill arms for its target only *)
      (match Chaos.on_attempt ~shard:0 ~replica:0 with
      | () -> Alcotest.fail "armed kill did not fire"
      | exception Chaos.Killed { shard = 0; replica = 0 } -> ()
      | exception Chaos.Killed { shard; replica } ->
          Alcotest.failf "kill hit the wrong target s%dr%d" shard replica);
      Chaos.on_attempt ~shard:1 ~replica:0;
      check Alcotest.int "tick advances per attempt" 4 (Chaos.tick ());
      let c = Chaos.counters () in
      check Alcotest.int "kills counted" 1 c.Chaos.kills;
      check Alcotest.int "slowdowns counted" 1 c.Chaos.slowdowns;
      (* corruption is disk-level: exposed as targets, not attempts *)
      check Alcotest.int "one corrupt target" 1
        (List.length (Chaos.corrupt_targets ()));
      check Alcotest.bool "corrupt matches its shard" true
        (Chaos.corrupt_matches ~shard:2 ~replica:1);
      check Alcotest.bool "corrupt ignores other shards" false
        (Chaos.corrupt_matches ~shard:0 ~replica:0))

let idle_without_schedule () =
  Chaos.clear ();
  let before = Chaos.tick () in
  Chaos.on_attempt ~shard:0 ~replica:0;
  Chaos.on_attempt ~shard:5 ~replica:9;
  check Alcotest.int "tick frozen without a schedule" before (Chaos.tick ());
  check Alcotest.bool "inactive" false (Chaos.active ())

(* --- Acceptance: replicated serving under chaos ----------------------- *)

let workload seed =
  let rng = Xk_datagen.Rng.create seed in
  List.concat
    (List.init 6 (fun _ ->
         let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
         Xk_core.Engine.
           [
             complete_request ~semantics:Elca words;
             topk_request ~semantics:Elca ~k:4 words;
             topk_request ~semantics:Slca ~k:3 words;
           ]))

let run_batch sharded ~replicas reqs =
  let sx = Shard_exec.create ~domains:2 ~replicas sharded in
  Fun.protect
    ~finally:(fun () -> Shard_exec.shutdown sx)
    (fun () ->
      let outcomes = List.map (fun r -> Shard_exec.exec sx r) reqs in
      (outcomes, Shard_exec.stats sx))

(* Killing any single replica of every shard must be invisible: the
   survivors serve every query with results bit-identical to the
   fault-free run. *)
let kill_one_replica_everywhere () =
  let doc = Tutil.random_doc 2026 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  let reqs = workload 11 in
  Chaos.clear ();
  let reference, _ = run_batch sharded ~replicas:2 reqs in
  List.iter
    (fun o ->
      match o with
      | Query_service.Ok _ -> ()
      | o ->
          Alcotest.failf "fault-free run came back %s"
            (Query_service.outcome_label o))
    reference;
  List.iter
    (fun dead ->
      Chaos.install
        [ Chaos.Kill { target = target ~replica:dead (); from_tick = 0 } ];
      Fun.protect ~finally:Chaos.clear (fun () ->
          let outcomes, stats = run_batch sharded ~replicas:2 reqs in
          List.iter2
            (fun r o ->
              match (r, o) with
              | Query_service.Ok a, Query_service.Ok b when hits_identical a b
                ->
                  ()
              | _, o ->
                  Alcotest.failf
                    "replica %d dead everywhere: outcome %s diverged from the \
                     fault-free run"
                    dead
                    (Query_service.outcome_label o))
            reference outcomes;
          check Alcotest.int "no hard failures" 0 stats.Shard_exec.failed;
          check Alcotest.int "nothing degraded" 0 stats.Shard_exec.degraded;
          if stats.Shard_exec.failovers = 0 then
            Alcotest.fail "kills never exercised failover";
          if (Chaos.counters ()).Chaos.kills = 0 then
            Alcotest.fail "schedule never fired"))
    [ 0; 1 ]

(* Killing every replica of one shard must degrade, not fail: the
   Degraded hits are exactly the true results restricted to the
   reachable shards (top-K ties compared by score sequence plus
   membership, as the shard-local truncation may pick either side of a
   tie at the cut). *)
let losing_a_shard_degrades () =
  let doc = Tutil.random_doc 2032 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  (* Kill the shard owning the first top-level subtree: provably
     non-empty, so losing it must show up as partial coverage.  The doc
     must spread across shards for the degradation to be partial. *)
  let assignment = Xk_index.Sharding.assignment sharded in
  let victim = assignment.(0) in
  let expected_coverage =
    let reachable =
      Array.fold_left (fun n s -> if s = victim then n else n + 1) 0 assignment
    in
    float_of_int reachable /. float_of_int (Array.length assignment)
  in
  if not (expected_coverage > 0. && expected_coverage < 1.) then
    Alcotest.failf
      "test corpus does not spread across shards (expected coverage %f)"
      expected_coverage;
  let k = 4 in
  let rng = Xk_datagen.Rng.create 9 in
  let queries =
    List.init 8 (fun _ -> Tutil.random_query rng ~k:2 ~alphabet:26)
  in
  let sx = Shard_exec.create ~domains:2 ~replicas:2 sharded in
  Fun.protect
    ~finally:(fun () ->
      Chaos.clear ();
      Shard_exec.shutdown sx)
    (fun () ->
      Chaos.clear ();
      (* Reachable reference: the fault-free complete result minus the
         root (dropped in degraded answers) and minus the victim
         shard's hits. *)
      let reachable words =
        match
          Shard_exec.exec sx (Xk_core.Engine.complete_request ~semantics:Elca words)
        with
        | Query_service.Ok hits ->
            List.filter
              (fun (h : Xk_baselines.Hit.t) ->
                h.node <> 0 && fst (Shard_exec.locate sx h) <> victim)
              hits
        | o ->
            Alcotest.failf "fault-free reference came back %s"
              (Query_service.outcome_label o)
      in
      let refs = List.map (fun w -> (w, reachable w)) queries in
      Chaos.install
        [ Chaos.Kill { target = target ~shard:victim (); from_tick = 0 } ];
      let scores = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) in
      let member_of set (h : Xk_baselines.Hit.t) =
        List.exists
          (fun (f : Xk_baselines.Hit.t) -> f.node = h.node && f.score = h.score)
          set
      in
      List.iter
        (fun (words, expected) ->
          (match
             Shard_exec.exec sx
               (Xk_core.Engine.complete_request ~semantics:Elca words)
           with
          | Query_service.Degraded { hits; missing_shards; coverage } ->
              check (Alcotest.list Alcotest.int) "missing shard list"
                [ victim ] missing_shards;
              check (Alcotest.float 1e-9) "coverage matches the assignment"
                expected_coverage coverage;
              if not (hits_identical (Xk_baselines.Hit.sort_desc expected) hits)
              then
                Alcotest.failf "degraded complete differs from reachable hits"
          | o ->
              Alcotest.failf "complete with a lost shard came back %s"
                (Query_service.outcome_label o));
          match
            Shard_exec.exec sx
              (Xk_core.Engine.topk_request ~semantics:Elca ~k words)
          with
          | Query_service.Degraded { hits; missing_shards = [ m ]; _ }
            when m = victim ->
              let want = Xk_baselines.Hit.top_k k expected in
              if scores want <> scores hits then
                Alcotest.failf "degraded top-K scores differ from reachable top-K";
              if not (List.for_all (member_of expected) hits) then
                Alcotest.failf "degraded top-K reported an unreachable hit"
          | o ->
              Alcotest.failf "top-K with a lost shard came back %s"
                (Query_service.outcome_label o))
        refs;
      let stats = Shard_exec.stats sx in
      check Alcotest.int "never Failed" 0 stats.Shard_exec.failed;
      check Alcotest.int "every chaos query degraded" (2 * List.length refs)
        stats.Shard_exec.degraded)

let suite =
  [
    ( "chaos.schedule",
      [
        tc "spec parsing" `Quick spec_parsing;
        tc "deterministic replay" `Quick replay;
        tc "no schedule, no tick" `Quick idle_without_schedule;
      ] );
    ( "chaos.serving",
      [
        tc "one replica of every shard may die" `Quick
          kill_one_replica_everywhere;
        tc "losing a whole shard degrades, never fails" `Quick
          losing_a_shard_degrades;
      ] );
  ]
