(* Self-healing: scrub classification under budgets and throttles,
   replica repair (copy, rebuild, fault-mark round-trip) with post-heal
   query parity, breaker recovery through the half-open probe, and
   fleet supervision drills (kill-then-restart, flap-to-quarantine,
   heal cadence) against a fake process table and a stepped clock. *)

module Scrub = Xk_resilience.Scrub
module Budget = Xk_resilience.Budget
module Chaos = Xk_resilience.Chaos
module Circuit_breaker = Xk_resilience.Circuit_breaker
module Shard_io = Xk_index.Shard_io
module Repair = Xk_index.Repair
module Supervisor = Xk_exec.Supervisor

let check = Alcotest.check
let tc = Alcotest.test_case

let with_tmpdir f =
  let dir = Filename.temp_file "xk_heal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let contains_substring haystack ~sub =
  let n = String.length sub and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = sub || go (i + 1)) in
  go 0

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let flip_mid_byte path =
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Bytes.of_string data in
  let i = Bytes.length b / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
  write_file path (Bytes.to_string b)

(* --- Scrub ------------------------------------------------------------ *)

let scrub_classification () =
  with_tmpdir (fun dir ->
      let file n = Filename.concat dir n in
      write_file (file "good.seg") "good bytes";
      write_file (file "bad.seg") "bad bytes";
      let files =
        [| [| file "good.seg"; file "bad.seg" |]; [| file "gone.seg" |] |]
      in
      let verify p =
        if Filename.basename p = "bad.seg" then Error "checksum mismatch"
        else Ok ()
      in
      let r = Scrub.run ~verify files in
      check Alcotest.int "scanned" 3 r.Scrub.scanned;
      check Alcotest.int "clean" 1 r.Scrub.clean;
      check Alcotest.int "damaged" 1 r.Scrub.damaged;
      check Alcotest.int "missing" 1 r.Scrub.missing;
      check Alcotest.bool "complete" true r.Scrub.complete;
      check Alcotest.bool "not healthy" false (Scrub.healthy r);
      (match Scrub.needs_repair r with
      | [ d; m ] ->
          check Alcotest.string "damaged entry" (file "bad.seg") d.Scrub.e_file;
          (match d.Scrub.e_status with
          | Scrub.Damaged msg ->
              check Alcotest.string "damage cause" "checksum mismatch" msg
          | _ -> Alcotest.fail "expected Damaged");
          check Alcotest.string "missing entry" (file "gone.seg") m.Scrub.e_file;
          check Alcotest.int "missing shard" 1 m.Scrub.e_shard
      | l -> Alcotest.failf "needs_repair returned %d entries" (List.length l));
      (* the background-domain wrapper returns the same report *)
      let r' = Domain.join (Scrub.spawn ~verify files) in
      check Alcotest.int "spawned pass scans the same" r.Scrub.scanned
        r'.Scrub.scanned;
      check Alcotest.bool "spawned pass healthy agrees" (Scrub.healthy r)
        (Scrub.healthy r'))

let scrub_budget_and_throttle () =
  with_tmpdir (fun dir ->
      let files =
        Array.init 3 (fun s ->
            Array.init 2 (fun r ->
                let p =
                  Filename.concat dir (Printf.sprintf "s%dr%d.seg" s r)
                in
                write_file p "x";
                p))
      in
      (* a tick budget stops the walk at a file boundary, incomplete *)
      let budget = Budget.create ~ticks:2 () in
      let r = Scrub.run ~budget ~verify:(fun _ -> Ok ()) files in
      check Alcotest.bool "budgeted pass incomplete" false r.Scrub.complete;
      if r.Scrub.scanned >= 6 then
        Alcotest.failf "budgeted pass scanned all %d files" r.Scrub.scanned;
      check Alcotest.bool "incomplete pass is not healthy" false
        (Scrub.healthy r);
      (* slices of 2 over 6 files: the throttle sleeps twice *)
      let sleeps = ref [] in
      let r =
        Scrub.run ~slice:2 ~throttle_ms:5.
          ~sleep:(fun ms -> sleeps := ms :: !sleeps)
          ~verify:(fun _ -> Ok ())
          files
      in
      check Alcotest.bool "throttled pass complete" true r.Scrub.complete;
      check
        Alcotest.(list (float 1e-9))
        "one throttle sleep per full slice" [ 5.; 5. ] !sleeps;
      (* slice must be positive *)
      match Scrub.run ~slice:0 ~verify:(fun _ -> Ok ()) files with
      | _ -> Alcotest.fail "slice 0 accepted"
      | exception Invalid_argument _ -> ())

(* --- Shard_io.replica_status ----------------------------------------- *)

let saved_manifest ~seed ~shards ~replicas dir =
  let doc = Tutil.random_doc seed in
  let sharded = Xk_index.Sharding.partition ~shards doc in
  let path = Filename.concat dir "corpus.shards" in
  Xk_index.Shard_io.save ~replicas sharded path;
  (doc, sharded, path)

let status_grid path =
  match Shard_io.replica_status ~retries:1 ~backoff_ms:0.01 path with
  | Ok grid -> Array.map (Array.map snd) grid
  | Error e -> Alcotest.failf "replica_status: %s" (Shard_io.error_message e)

let labels grid = Array.map (Array.map Shard_io.copy_status_label) grid

let replica_status_roundtrip () =
  with_tmpdir (fun dir ->
      let _doc, _sharded, path =
        saved_manifest ~seed:91 ~shards:2 ~replicas:2 dir
      in
      let files =
        match Shard_io.replica_files path with
        | Ok f -> f
        | Error e -> Alcotest.failf "replica_files: %s" (Shard_io.error_message e)
      in
      check
        Alcotest.(array (array string))
        "all copies clean"
        [| [| "clean"; "clean" |]; [| "clean"; "clean" |] |]
        (labels (status_grid path));
      (* physical damage is typed per copy *)
      flip_mid_byte files.(0).(1);
      Sys.remove files.(1).(0);
      (match status_grid path with
      | [| [| Shard_io.Copy_clean; Copy_damaged _ |];
           [| Copy_missing; Copy_clean |] |] ->
          ()
      | grid ->
          Alcotest.failf "unexpected grid %s"
            (String.concat ";"
               (Array.to_list
                  (Array.map
                     (fun row -> String.concat "," (Array.to_list row))
                     (labels grid)))));
      (* an injected corruption mark round-trips through the accessor:
         damaged while marked, clean again once healed (the bytes on
         disk never changed) *)
      Fun.protect ~finally:Chaos.reset (fun () ->
          Chaos.mark_corrupt ~path:files.(1).(1);
          (match (status_grid path).(1).(1) with
          | Shard_io.Copy_damaged _ -> ()
          | s ->
              Alcotest.failf "marked copy reads %s"
                (Shard_io.copy_status_label s));
          Chaos.heal ~path:files.(1).(1);
          match (status_grid path).(1).(1) with
          | Shard_io.Copy_clean -> ()
          | s ->
              Alcotest.failf "healed copy reads %s"
                (Shard_io.copy_status_label s)))

(* --- Repair ----------------------------------------------------------- *)

let hits_identical (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

(* Bit-identical serving check: load the manifest and answer a complete
   ELCA query through the sharded executor, against the unsharded
   engine's answer for the same document. *)
let serving_hits doc path words =
  match Shard_io.load_result doc path with
  | Error e -> Alcotest.failf "load_result: %s" (Shard_io.error_message e)
  | Ok sharded -> (
      let sx = Xk_exec.Shard_exec.create ~domains:2 sharded in
      Fun.protect
        ~finally:(fun () -> Xk_exec.Shard_exec.shutdown sx)
        (fun () ->
          let req =
            Xk_core.Engine.complete_request ~semantics:Xk_core.Engine.Elca
              words
          in
          match Xk_exec.Shard_exec.exec sx req with
          | Xk_exec.Query_service.Ok hits -> hits
          | o ->
              Alcotest.failf "serving outcome %s"
                (Xk_exec.Query_service.outcome_label o)))

let scrub_manifest path =
  match Repair.scrub ~retries:1 ~backoff_ms:0.01 path with
  | Ok r -> r
  | Error e -> Alcotest.failf "scrub: %s" (Shard_io.error_message e)

let query_words seed =
  let rng = Xk_datagen.Rng.create (seed + 7919) in
  Tutil.random_query rng ~k:2 ~alphabet:26

let repair_from_replica () =
  with_tmpdir (fun dir ->
      let doc, _sharded, path =
        saved_manifest ~seed:17 ~shards:2 ~replicas:2 dir
      in
      let words = query_words 17 in
      let engine = Xk_core.Engine.create doc in
      let expected =
        Xk_core.Engine.run_request engine
          (Xk_core.Engine.complete_request ~semantics:Xk_core.Engine.Elca
             words)
      in
      let baseline = serving_hits doc path words in
      check Alcotest.bool "pre-damage parity" true
        (hits_identical expected baseline);
      let files =
        match Shard_io.replica_files path with
        | Ok f -> f
        | Error e -> Alcotest.failf "replica_files: %s" (Shard_io.error_message e)
      in
      (* the corrupt-then-heal drill: one copy damaged, one gone *)
      flip_mid_byte files.(0).(0);
      Sys.remove files.(1).(1);
      let report = scrub_manifest path in
      check Alcotest.int "scrub sees the damage" 1 report.Scrub.damaged;
      check Alcotest.int "scrub sees the loss" 1 report.Scrub.missing;
      let summary = Repair.repair ~retries:1 ~backoff_ms:0.01 report in
      check Alcotest.int "both copies repaired" 2 summary.Repair.repaired;
      check Alcotest.int "nothing unrepairable" 0 summary.Repair.unrepairable;
      List.iter
        (fun o ->
          match o with
          | Repair.Repaired { source = Repair.From_replica _; _ } -> ()
          | o -> Alcotest.failf "unexpected outcome: %s" (Repair.outcome_line o))
        summary.Repair.outcomes;
      check Alcotest.bool "post-heal scrub is healthy" true
        (Scrub.healthy (scrub_manifest path));
      check
        Alcotest.(array (array string))
        "post-heal status grid clean"
        [| [| "clean"; "clean" |]; [| "clean"; "clean" |] |]
        (labels (status_grid path));
      (* healed replicas answer bit-identically to the pre-damage fleet *)
      check Alcotest.bool "post-heal parity" true
        (hits_identical baseline (serving_hits doc path words)))

let repair_rebuild () =
  with_tmpdir (fun dir ->
      let doc, sharded, path =
        saved_manifest ~seed:29 ~shards:2 ~replicas:2 dir
      in
      let words = query_words 29 in
      let engine = Xk_core.Engine.create doc in
      let expected =
        Xk_core.Engine.run_request engine
          (Xk_core.Engine.complete_request ~semantics:Xk_core.Engine.Elca
             words)
      in
      let files =
        match Shard_io.replica_files path with
        | Ok f -> f
        | Error e -> Alcotest.failf "replica_files: %s" (Shard_io.error_message e)
      in
      (* lose every copy of shard 1: the load itself fails *)
      flip_mid_byte files.(1).(0);
      Sys.remove files.(1).(1);
      (match Shard_io.load_result ~retries:1 ~backoff_ms:0.01 doc path with
      | Error (Shard_io.Shard { shard = 1; _ }) -> ()
      | Error e -> Alcotest.failf "unexpected error %s" (Shard_io.error_message e)
      | Ok _ -> Alcotest.fail "load survived losing every copy of shard 1");
      let report = scrub_manifest path in
      (* without a rebuild source the shard is unrepairable - typed, not
         silent *)
      let stuck = Repair.repair ~retries:1 ~backoff_ms:0.01 report in
      check Alcotest.int "no source, no repair" 0 stuck.Repair.repaired;
      check Alcotest.int "both copies unrepairable" 2 stuck.Repair.unrepairable;
      (* with a rebuild source the first copy is rebuilt and the second
         is then copied from it *)
      let summary =
        Repair.repair ~retries:1 ~backoff_ms:0.01
          ~rebuild:(fun ~shard -> Some (Xk_index.Sharding.index sharded shard))
          report
      in
      check Alcotest.int "both copies repaired" 2 summary.Repair.repaired;
      (match summary.Repair.outcomes with
      | [ Repair.Repaired { source = Repair.Rebuilt; _ };
          Repair.Repaired { source = Repair.From_replica _; _ } ] ->
          ()
      | os ->
          Alcotest.failf "unexpected outcomes: %s"
            (String.concat "; " (List.map Repair.outcome_line os)));
      check Alcotest.bool "post-rebuild scrub is healthy" true
        (Scrub.healthy (scrub_manifest path));
      check Alcotest.bool "rebuilt shard serves bit-identically" true
        (hits_identical expected (serving_hits doc path words)))

let repair_clears_fault_marks () =
  with_tmpdir (fun dir ->
      let _doc, _sharded, path =
        saved_manifest ~seed:43 ~shards:1 ~replicas:2 dir
      in
      let files =
        match Shard_io.replica_files path with
        | Ok f -> f
        | Error e -> Alcotest.failf "replica_files: %s" (Shard_io.error_message e)
      in
      Fun.protect ~finally:Chaos.reset (fun () ->
          Chaos.mark_corrupt ~path:files.(0).(0);
          let report = scrub_manifest path in
          check Alcotest.int "marked copy scrubs damaged" 1
            report.Scrub.damaged;
          let summary = Repair.repair ~retries:1 ~backoff_ms:0.01 report in
          check Alcotest.int "marked copy healed" 1 summary.Repair.repaired;
          (* a marked copy never verifies, so a clean verify means the
             heal cleared the mark *)
          check Alcotest.bool "mark cleared by the heal" true
            (Result.is_ok
               (Xk_index.Index_io.verify ~backoff_ms:0. files.(0).(0)));
          check Alcotest.bool "healed manifest scrubs healthy" true
            (Scrub.healthy (scrub_manifest path))))

(* --- Breaker recovery end-to-end -------------------------------------- *)

let breaker_transition_hook () =
  let now = ref 0. in
  let transitions = ref [] in
  let b =
    Circuit_breaker.create
      ~config:
        {
          Circuit_breaker.failure_threshold = 2;
          reset_after_ms = 100.;
          half_open_probes = 1;
        }
      ~clock:(fun () -> !now)
      ~on_transition:(fun from_ to_ ->
        transitions :=
          (Circuit_breaker.state_label from_, Circuit_breaker.state_label to_)
          :: !transitions)
      ()
  in
  let seen () = List.rev !transitions in
  Circuit_breaker.record_failure b;
  check Alcotest.int "no transition below the threshold" 0
    (List.length (seen ()));
  Circuit_breaker.record_failure b;
  now := 150.;
  ignore (Circuit_breaker.allow b : bool);
  Circuit_breaker.record_failure b;
  now := 300.;
  ignore (Circuit_breaker.allow b : bool);
  Circuit_breaker.record_success b;
  check
    Alcotest.(list (pair string string))
    "full trip/probe/re-trip/close lifecycle observed"
    [
      ("closed", "open");
      ("open", "half-open");
      ("half-open", "open");
      ("open", "half-open");
      ("half-open", "closed");
    ]
    (seen ())

let breaker_recovery_e2e () =
  let doc = Tutil.random_doc 23 in
  let words = query_words 23 in
  let engine = Xk_core.Engine.create doc in
  let sharded = Xk_index.Sharding.partition ~shards:1 doc in
  let now = ref 0. in
  let sx =
    Xk_exec.Shard_exec.create ~domains:2 ~replicas:2
      ~breaker:
        {
          Circuit_breaker.failure_threshold = 1;
          reset_after_ms = 1000.;
          half_open_probes = 1;
        }
      ~clock:(fun () -> !now)
      sharded
  in
  Fun.protect
    ~finally:(fun () ->
      Chaos.clear ();
      Xk_exec.Shard_exec.shutdown sx)
    (fun () ->
      let req =
        Xk_core.Engine.complete_request ~semantics:Xk_core.Engine.Elca words
      in
      let exec_ok what =
        match Xk_exec.Shard_exec.exec sx req with
        | Xk_exec.Query_service.Ok hits -> hits
        | o ->
            Alcotest.failf "%s: outcome %s" what
              (Xk_exec.Query_service.outcome_label o)
      in
      let state r =
        Circuit_breaker.state_label
          (Xk_exec.Shard_exec.breaker_state sx ~shard:0 ~replica:r)
      in
      let expected =
        Xk_core.Engine.run_request engine req
      in
      let baseline = exec_ok "baseline" in
      check Alcotest.bool "baseline parity" true
        (hits_identical expected baseline);
      (* damage r0: its first attempt fails and trips the breaker;
         failover still answers correctly *)
      Chaos.install
        [ Chaos.Kill
            {
              target = { Chaos.t_shard = Some 0; t_replica = Some 0 };
              from_tick = 0;
            };
        ];
      let under_damage = exec_ok "during damage" in
      check Alcotest.bool "failover answer identical" true
        (hits_identical baseline under_damage);
      check Alcotest.string "breaker tripped open" "open" (state 0);
      (* while Open, no query is routed to the damaged replica: the
         chaos kill counter stays flat across a burst of queries *)
      let kills_at_trip = (Chaos.counters ()).Chaos.kills in
      for _ = 1 to 3 do
        ignore (exec_ok "while open" : Xk_baselines.Hit.t list)
      done;
      check Alcotest.int "no attempts reach an Open replica" kills_at_trip
        (Chaos.counters ()).Chaos.kills;
      check Alcotest.string "still open inside the cooldown" "open" (state 0);
      (* heal r0, let the cooldown elapse, and blip r1 so the half-open
         probe actually lands on the healed replica *)
      Chaos.clear ();
      now := !now +. 1500.;
      Chaos.install
        [ Chaos.Kill
            {
              target = { Chaos.t_shard = Some 0; t_replica = Some 1 };
              from_tick = 0;
            };
        ];
      let post_heal = exec_ok "post-heal probe" in
      check Alcotest.bool "healed replica answers bit-identically" true
        (hits_identical baseline post_heal);
      check Alcotest.string "probe success closed the breaker" "closed"
        (state 0);
      Chaos.clear ();
      (* per-replica isolation: the blip tripped r1's own breaker (one
         failure meets the threshold) without touching the healed r0 *)
      check Alcotest.string "the blip tripped only its own breaker" "open"
        (state 1);
      let settled = exec_ok "settled fleet" in
      check Alcotest.bool "settled parity" true
        (hits_identical baseline settled))

(* --- Supervisor ------------------------------------------------------- *)

type fake_fleet = {
  mutable next_pid : int;
  mutable spawn_count : int;
  mutable refuse_spawn : bool;
  mutable dead_on_arrival : bool;
  live : (int, unit) Hashtbl.t;
  pids : (string, int) Hashtbl.t;  (* spec label -> latest pid *)
  unready : (string, unit) Hashtbl.t;  (* specs that never answer pings *)
}

let fake_fleet () =
  {
    next_pid = 100;
    spawn_count = 0;
    refuse_spawn = false;
    dead_on_arrival = false;
    live = Hashtbl.create 8;
    pids = Hashtbl.create 8;
    unready = Hashtbl.create 8;
  }

let procs_of f =
  {
    Supervisor.spawn =
      (fun spec ->
        if f.refuse_spawn then Error "spawn refused"
        else begin
          f.spawn_count <- f.spawn_count + 1;
          let pid = f.next_pid in
          f.next_pid <- pid + 1;
          if not f.dead_on_arrival then Hashtbl.replace f.live pid ();
          Hashtbl.replace f.pids (Supervisor.spec_label spec) pid;
          Ok pid
        end);
    alive = (fun pid -> Hashtbl.mem f.live pid);
    kill = (fun pid -> Hashtbl.remove f.live pid);
    ping =
      (fun spec ->
        let label = Supervisor.spec_label spec in
        (not (Hashtbl.mem f.unready label))
        &&
        match Hashtbl.find_opt f.pids label with
        | Some pid -> Hashtbl.mem f.live pid
        | None -> false);
  }

let crash f label =
  match Hashtbl.find_opt f.pids label with
  | Some pid -> Hashtbl.remove f.live pid
  | None -> Alcotest.failf "no pid recorded for %s" label

let grid_specs ~shards ~replicas =
  List.concat
    (List.init shards (fun s ->
         List.init replicas (fun r ->
             {
               Supervisor.sv_shard = s;
               sv_replica = r;
               sv_host = "127.0.0.1";
               sv_port = 7000 + (s * replicas) + r;
             })))

let test_config =
  {
    Supervisor.backoff_base_ms = 100.;
    backoff_cap_ms = 1000.;
    flap_cap = 3;
    start_grace_ms = 1000.;
    heal_every = 0;
  }

let supervisor_kill_then_restart () =
  let f = fake_fleet () in
  let now = ref 0. in
  let events = ref [] in
  let sup =
    Supervisor.create ~config:test_config
      ~clock:(fun () -> !now)
      ~seed:5
      ~on_event:(fun e -> events := e :: !events)
      ~procs:(procs_of f)
      (grid_specs ~shards:2 ~replicas:2)
  in
  Supervisor.cycle sup;
  let fl = Supervisor.fleet sup in
  check Alcotest.int "first cycle spawns everything" 4 f.spawn_count;
  check Alcotest.int "spawned but unconfirmed" 4 fl.Supervisor.starting;
  Supervisor.cycle sup;
  check Alcotest.bool "second cycle confirms the fleet" true
    (Supervisor.healthy sup);
  (* the kill-then-restart drill *)
  crash f "s0r1";
  Supervisor.cycle sup;
  let fl = Supervisor.fleet sup in
  check Alcotest.int "crash detected" 3 fl.Supervisor.up;
  check Alcotest.int "restart scheduled" 1 fl.Supervisor.backing_off;
  (* the backoff delay holds until the clock reaches it *)
  Supervisor.cycle sup;
  check Alcotest.int "no respawn before the backoff elapses" 4 f.spawn_count;
  now := 5000.;
  Supervisor.cycle sup;
  check Alcotest.int "respawned after the backoff" 5 f.spawn_count;
  Supervisor.cycle sup;
  check Alcotest.bool "fleet converged back to healthy" true
    (Supervisor.healthy sup);
  check Alcotest.int "one restart counted" 1
    (Supervisor.fleet sup).Supervisor.restarts;
  let died, backed =
    List.fold_left
      (fun (d, b) e ->
        match e with
        | Supervisor.Died { spec; _ } ->
            check Alcotest.string "the crashed replica died" "s0r1"
              (Supervisor.spec_label spec);
            (d + 1, b)
        | Supervisor.Backoff_scheduled { delay_ms; _ } ->
            if delay_ms < 100. || delay_ms > 1000. then
              Alcotest.failf "backoff %f outside [base, cap]" delay_ms;
            (d, b + 1)
        | _ -> (d, b))
      (0, 0) !events
  in
  check Alcotest.int "one death event" 1 died;
  check Alcotest.int "one backoff event" 1 backed;
  check Alcotest.bool "status line mentions the fleet" true
    (String.length (Supervisor.status_line sup) > 0)

let supervisor_flap_quarantine () =
  let delays_of seed =
    let f = fake_fleet () in
    f.dead_on_arrival <- true;
    let now = ref 0. in
    let events = ref [] in
    let sup =
      Supervisor.create ~config:test_config
        ~clock:(fun () -> !now)
        ~seed
        ~on_event:(fun e -> events := e :: !events)
        ~procs:(procs_of f)
        (grid_specs ~shards:1 ~replicas:1)
    in
    (* every spawn dies on arrival: backoffs grow until the flap cap *)
    for _ = 1 to 20 do
      Supervisor.cycle sup;
      now := !now +. 5000.
    done;
    let fl = Supervisor.fleet sup in
    check Alcotest.int "replica quarantined" 1 fl.Supervisor.quarantined;
    check Alcotest.int "spawns capped by flap detection" 4 f.spawn_count;
    (match Supervisor.states sup with
    | [| (_, Supervisor.Quarantined { failures }) |] ->
        check Alcotest.int "failures past the cap" 4 failures
    | _ -> Alcotest.fail "expected a single quarantined replica");
    let quarantines =
      List.length
        (List.filter
           (function Supervisor.Quarantine _ -> true | _ -> false)
           !events)
    in
    check Alcotest.int "quarantine announced once" 1 quarantines;
    check Alcotest.bool "status line reports the quarantine" true
      (contains_substring ~sub:"1 quarantined"
         (Supervisor.status_line sup));
    List.filter_map
      (function
        | Supervisor.Backoff_scheduled { delay_ms; _ } -> Some delay_ms
        | _ -> None)
      (List.rev !events)
  in
  (* deterministic seed => reproducible jittered backoff ladder *)
  check Alcotest.(list (float 1e-9)) "seeded backoffs reproducible"
    (delays_of 9) (delays_of 9);
  if delays_of 9 = delays_of 10 then
    Alcotest.fail "different seeds produced identical backoff ladders"

let supervisor_spawn_failure_and_grace () =
  let f = fake_fleet () in
  let now = ref 0. in
  let events = ref [] in
  let sup =
    Supervisor.create
      ~config:{ test_config with flap_cap = 1 }
      ~clock:(fun () -> !now)
      ~seed:3
      ~on_event:(fun e -> events := e :: !events)
      ~procs:(procs_of f)
      (grid_specs ~shards:1 ~replicas:2)
  in
  (* s0r0 never answers pings: it survives inside the start grace, then
     counts as failed once the grace runs out *)
  Hashtbl.replace f.unready "s0r0" ();
  Supervisor.cycle sup;
  Supervisor.cycle sup;
  let fl = Supervisor.fleet sup in
  check Alcotest.int "unready replica tolerated within grace" 1
    fl.Supervisor.starting;
  check Alcotest.int "ready replica confirmed" 1 fl.Supervisor.up;
  now := 2000.;
  Supervisor.cycle sup;
  let died =
    List.exists
      (function
        | Supervisor.Died { reason; _ } ->
            contains_substring ~sub:"start grace" reason
        | _ -> false)
      !events
  in
  check Alcotest.bool "grace expiry reported" true died;
  (* refused spawns also count toward the flap cap *)
  f.refuse_spawn <- true;
  now := 20000.;
  Supervisor.cycle sup;
  now := 40000.;
  Supervisor.cycle sup;
  check Alcotest.int "persistent spawn refusal quarantines" 1
    (Supervisor.fleet sup).Supervisor.quarantined

let supervisor_heal_cadence () =
  let f = fake_fleet () in
  let now = ref 0. in
  let heals = ref 0 in
  let events = ref [] in
  let sup =
    Supervisor.create
      ~config:{ test_config with heal_every = 2 }
      ~clock:(fun () -> !now)
      ~on_event:(fun e -> events := e :: !events)
      ~heal:(fun () ->
        incr heals;
        {
          Supervisor.h_clean = 4;
          h_damaged = 1;
          h_missing = 0;
          h_repaired = 1;
          h_unrepairable = 0;
        })
      ~procs:(procs_of f)
      (grid_specs ~shards:2 ~replicas:2)
  in
  for _ = 1 to 5 do
    Supervisor.cycle sup
  done;
  check Alcotest.int "heal ran on the cadence" 2 !heals;
  check Alcotest.bool "status line carries the heal report" true
    (contains_substring ~sub:"1 repaired" (Supervisor.status_line sup));
  (* a crashing heal pass is an event, not a supervisor crash *)
  let sup2 =
    Supervisor.create
      ~config:{ test_config with heal_every = 1 }
      ~clock:(fun () -> !now)
      ~on_event:(fun e -> events := e :: !events)
      ~heal:(fun () -> failwith "scrub IO lost")
      ~procs:(procs_of f)
      (grid_specs ~shards:1 ~replicas:1)
  in
  Supervisor.cycle sup2;
  check Alcotest.bool "heal failure surfaced as an event" true
    (List.exists
       (function Supervisor.Heal_failed _ -> true | _ -> false)
       !events);
  (* run drives cycles and stops on request *)
  let cycles_seen = ref 0 in
  Supervisor.run ~cycles:3 ~interval_ms:0.
    ~sleep:(fun _ -> ())
    ~on_cycle:(fun t ->
      incr cycles_seen;
      if !cycles_seen = 2 then Supervisor.stop t)
    sup2;
  check Alcotest.int "stop ends the run mid-flight" 2 !cycles_seen;
  Supervisor.shutdown sup2;
  check Alcotest.bool "shutdown killed the children" true
    (Hashtbl.length f.live = 0
    || Array.for_all
         (fun (spec, _) ->
           not
             (Hashtbl.mem f.live
                (Option.value ~default:(-1)
                   (Hashtbl.find_opt f.pids (Supervisor.spec_label spec)))))
         (Supervisor.states sup2))

(* The real process table: a spawned child is alive until killed, and
   the liveness check that sees it dead also reaps it. *)
let supervisor_real_processes () =
  with_tmpdir (fun dir ->
      let state_dir = Filename.concat dir "state" in
      let procs = Supervisor.processes ~argv:(fun _ -> [| "sleep"; "30" |]) ~state_dir in
      let spec =
        { Supervisor.sv_shard = 0; sv_replica = 1; sv_host = "127.0.0.1"; sv_port = 1 }
      in
      match procs.spawn spec with
      | Error m -> Alcotest.failf "spawn: %s" m
      | Ok pid ->
          check Alcotest.bool "alive" true (procs.alive pid);
          check Alcotest.string "pid file" (Printf.sprintf "%d\n" pid)
            (In_channel.with_open_bin (Filename.concat state_dir "s0r1.pid")
               In_channel.input_all);
          check Alcotest.bool "nothing answers the ping" false (procs.ping spec);
          procs.kill pid;
          let rec dead n =
            (not (procs.alive pid)) || (n > 0 && (Unix.sleepf 0.01; dead (n - 1)))
          in
          check Alcotest.bool "seen dead after the kill" true (dead 500);
          check Alcotest.bool "and reaped" true
            (match Unix.waitpid [ Unix.WNOHANG ] pid with
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
            | _ -> false))

let suite =
  [
    ( "heal.scrub",
      [
        tc "clean/damaged/missing classification" `Quick scrub_classification;
        tc "budget stop and slice throttle" `Quick scrub_budget_and_throttle;
      ] );
    ( "heal.replica-status",
      [
        tc "typed per-copy state and fault-mark round-trip" `Quick
          replica_status_roundtrip;
      ] );
    ( "heal.repair",
      [
        tc "corrupt-then-heal from a clean replica" `Quick repair_from_replica;
        tc "rebuild a shard with no surviving copy" `Quick repair_rebuild;
        tc "repair clears injected fault marks" `Quick
          repair_clears_fault_marks;
      ] );
    ( "heal.breaker",
      [
        tc "transition hook observes the lifecycle" `Quick
          breaker_transition_hook;
        tc "trip, no routing while open, half-open re-entry" `Quick
          breaker_recovery_e2e;
      ] );
    ( "heal.supervisor",
      [
        tc "kill-then-restart drill" `Quick supervisor_kill_then_restart;
        tc "flap detection quarantines" `Quick supervisor_flap_quarantine;
        tc "spawn failures and start grace" `Quick
          supervisor_spawn_failure_and_grace;
        tc "heal cadence, run and shutdown" `Quick supervisor_heal_cadence;
        tc "real process table" `Quick supervisor_real_processes;
      ] );
  ]
