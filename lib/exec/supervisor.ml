(* Fleet supervision: own the serve-shard process table and keep it up.

   Every cycle, each supervised replica is checked: a dead process (or
   one that stops answering pings after it has once been confirmed
   healthy, or that exhausts its start grace without confirming) counts
   a failure and schedules a respawn after a decorrelated-jitter backoff
   (Retry.Jitter), so replicas that died together do not restart in
   lockstep.  A replica whose consecutive-failure count exceeds the flap
   cap is Quarantined: the supervisor stops restarting it and says so,
   instead of hot-looping on a persistent crasher.  A full healthy cycle
   (alive + ping) resets the failure count, so only genuine flapping
   accumulates toward the cap.

   The process table is injected as a record of closures (spawn / alive
   / kill / ping), as is the clock: unit tests drive whole
   kill-then-restart and flap drills with a fake table and a stepped
   clock, while [processes] binds Unix.create_process / waitpid / kill
   and the RPC ping.  An optional heal closure runs every heal_every cycles
   — the CLI wires it to Repair.scrub + Repair.repair over the fleet's
   manifest, closing the scrub/repair loop on the supervisor cadence. *)

type spec = { sv_shard : int; sv_replica : int; sv_host : string; sv_port : int }

let spec_label s = Printf.sprintf "s%dr%d" s.sv_shard s.sv_replica

type procs = {
  spawn : spec -> (int, string) result;
  alive : int -> bool;
  kill : int -> unit;
  ping : spec -> bool;
}

let processes ~argv ~state_dir =
  if not (Sys.file_exists state_dir) then Unix.mkdir state_dir 0o755;
  let state_file spec ext = Filename.concat state_dir (spec_label spec ^ ext) in
  let spawn spec =
    try
      let log =
        Unix.openfile (state_file spec ".log")
          [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
          0o644
      in
      let args = argv spec in
      let pid =
        Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
            Unix.create_process args.(0) args Unix.stdin log log)
      in
      Out_channel.with_open_text (state_file spec ".pid") (fun oc ->
          Printf.fprintf oc "%d\n" pid);
      Ok pid
    with exn -> Error (Printexc.to_string exn)
  in
  let alive pid =
    (* Children are reaped here: WNOHANG returns 0 while the process
       runs and collects the zombie the cycle after a kill or crash. *)
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let kill pid = try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> () in
  let ping spec =
    match
      Xk_rpc.Client.ping ~timeout_ms:1000. ~host:spec.sv_host
        ~port:spec.sv_port ()
    with
    | () -> true
    | exception _ -> false
  in
  { spawn; alive; kill; ping }

type config = {
  backoff_base_ms : float;
  backoff_cap_ms : float;
  flap_cap : int;
  start_grace_ms : float;
  heal_every : int;
}

let default_config =
  {
    backoff_base_ms = 200.;
    backoff_cap_ms = 5000.;
    flap_cap = 5;
    start_grace_ms = 30_000.;
    heal_every = 1;
  }

type replica_state =
  | Starting
  | Up of { pid : int; confirmed : bool }
  | Backoff of { until_ms : float; failures : int }
  | Quarantined of { failures : int }

type heal_report = {
  h_clean : int;
  h_damaged : int;
  h_missing : int;
  h_repaired : int;
  h_unrepairable : int;
}

type event =
  | Spawned of { spec : spec; pid : int }
  | Died of { spec : spec; reason : string }
  | Backoff_scheduled of { spec : spec; delay_ms : float; failures : int }
  | Quarantine of { spec : spec; failures : int }
  | Heal_ran of heal_report
  | Heal_failed of string

type entry = {
  spec : spec;
  mutable st : replica_state;
  mutable failures : int;
  mutable last_delay_ms : float;
  mutable spawns : int;
  mutable started_ms : float;  (* clock at the last spawn, for start grace *)
}

type t = {
  config : config;
  clock : unit -> float;
  jitter : Xk_resilience.Retry.Jitter.t;
  procs : procs;
  heal : (unit -> heal_report) option;
  on_event : event -> unit;
  entries : entry array;
  mutable cycles : int;
  mutable last_heal : heal_report option;
  stopped : bool Atomic.t;
}

let create ?(config = default_config) ?clock ?seed ?(on_event = fun _ -> ())
    ?heal ~procs specs =
  if config.flap_cap < 1 then
    Xk_util.Err.invalid "Supervisor.create: flap_cap < 1";
  if specs = [] then Xk_util.Err.invalid "Supervisor.create: no replicas";
  let clock =
    match clock with Some c -> c | None -> fun () -> Unix.gettimeofday () *. 1000.
  in
  {
    config;
    clock;
    jitter = Xk_resilience.Retry.Jitter.create ?seed ();
    procs;
    heal;
    on_event;
    entries =
      specs
      |> List.map (fun spec ->
             {
               spec;
               st = Starting;
               failures = 0;
               last_delay_ms = 0.;
               spawns = 0;
               started_ms = 0.;
             })
      |> Array.of_list;
    cycles = 0;
    last_heal = None;
    stopped = Atomic.make false;
  }

(* One more consecutive failure for [e]: either schedule a jittered
   respawn or, past the flap cap, quarantine it for good. *)
let fail t e reason =
  t.on_event (Died { spec = e.spec; reason });
  e.failures <- e.failures + 1;
  if e.failures > t.config.flap_cap then begin
    e.st <- Quarantined { failures = e.failures };
    t.on_event (Quarantine { spec = e.spec; failures = e.failures })
  end
  else begin
    let prev =
      if e.last_delay_ms > 0. then e.last_delay_ms else t.config.backoff_base_ms
    in
    let delay =
      Xk_resilience.Retry.Jitter.next t.jitter ~base_ms:t.config.backoff_base_ms
        ~cap_ms:t.config.backoff_cap_ms ~prev_ms:prev
    in
    e.last_delay_ms <- delay;
    e.st <- Backoff { until_ms = t.clock () +. delay; failures = e.failures };
    t.on_event
      (Backoff_scheduled { spec = e.spec; delay_ms = delay; failures = e.failures })
  end

let spawn_now t e =
  match t.procs.spawn e.spec with
  | Ok pid ->
      e.spawns <- e.spawns + 1;
      e.st <- Up { pid; confirmed = false };
      e.started_ms <- t.clock ();
      t.on_event (Spawned { spec = e.spec; pid })
  | Error msg -> fail t e ("spawn failed: " ^ msg)

let check_up t e ~pid ~confirmed =
  if not (t.procs.alive pid) then fail t e "process exited"
  else if t.procs.ping e.spec then begin
    e.st <- Up { pid; confirmed = true };
    e.failures <- 0;
    e.last_delay_ms <- 0.
  end
  else if confirmed then begin
    t.procs.kill pid;
    fail t e "ping failed"
  end
  else if t.clock () -. e.started_ms > t.config.start_grace_ms then begin
    t.procs.kill pid;
    fail t e "never became ready within start grace"
  end
(* else: still inside the start grace — leave it to finish loading *)

let cycle t =
  t.cycles <- t.cycles + 1;
  Array.iter
    (fun e ->
      match e.st with
      | Quarantined _ -> ()
      | Starting -> spawn_now t e
      | Backoff { until_ms; _ } ->
          if t.clock () >= until_ms then spawn_now t e
      | Up { pid; confirmed } -> check_up t e ~pid ~confirmed)
    t.entries;
  match t.heal with
  | Some heal when t.config.heal_every > 0 && t.cycles mod t.config.heal_every = 0
    -> (
      match heal () with
      | report ->
          t.last_heal <- Some report;
          t.on_event (Heal_ran report)
      | exception exn -> t.on_event (Heal_failed (Printexc.to_string exn)))
  | _ -> ()

type fleet = {
  up : int;
  starting : int;
  backing_off : int;
  quarantined : int;
  restarts : int;
  cycles : int;
}

let fleet (t : t) =
  let up = ref 0 and starting = ref 0 and backing_off = ref 0 in
  let quarantined = ref 0 and restarts = ref 0 in
  Array.iter
    (fun e ->
      restarts := !restarts + max 0 (e.spawns - 1);
      match e.st with
      | Up { confirmed = true; _ } -> incr up
      | Up { confirmed = false; _ } | Starting -> incr starting
      | Backoff _ -> incr backing_off
      | Quarantined _ -> incr quarantined)
    t.entries;
  {
    up = !up;
    starting = !starting;
    backing_off = !backing_off;
    quarantined = !quarantined;
    restarts = !restarts;
    cycles = t.cycles;
  }

let status_line t =
  let f = fleet t in
  let total = Array.length t.entries in
  let heal =
    match t.last_heal with
    | None -> ""
    | Some h ->
        Printf.sprintf "; heal: %d clean, %d damaged, %d missing, %d repaired, %d unrepairable"
          h.h_clean h.h_damaged h.h_missing h.h_repaired h.h_unrepairable
  in
  Printf.sprintf
    "fleet: %d/%d up, %d starting, %d backoff, %d quarantined, %d restarts, cycle %d%s"
    f.up total f.starting f.backing_off f.quarantined f.restarts f.cycles heal

let states t = Array.map (fun e -> (e.spec, e.st)) t.entries

let healthy t =
  Array.for_all
    (fun e -> match e.st with Up { confirmed = true; _ } -> true | _ -> false)
    t.entries

let stop t = Atomic.set t.stopped true
let stopped t = Atomic.get t.stopped

let shutdown t =
  stop t;
  Array.iter
    (fun e ->
      match e.st with
      | Up { pid; _ } ->
          t.procs.kill pid;
          e.st <- Starting
      | _ -> ())
    t.entries

let run ?cycles ?(interval_ms = 500.) ?(sleep = fun ms -> Unix.sleepf (ms /. 1000.))
    ?(on_cycle = fun _ -> ()) t =
  let continue n = match cycles with None -> true | Some c -> n < c in
  let rec go n =
    if continue n && not (stopped t) then begin
      cycle t;
      on_cycle t;
      if continue (n + 1) && not (stopped t) then begin
        sleep interval_ms;
        go (n + 1)
      end
    end
  in
  go 0
