(** Fleet supervision for [serve-shard] processes: keep every replica of
    a replicated shard set running, restart crashers with jittered
    backoff, quarantine persistent flappers, and run the scrub/repair
    cycle on a cadence.

    Each supervised replica moves through [Starting -> Up (unconfirmed)
    -> Up (confirmed)] as it spawns and first answers a ping; a process
    exit, a ping failure after confirmation, or an exhausted start grace
    counts one consecutive failure and schedules a respawn after a
    decorrelated-jitter delay ([Retry.Jitter] — replicas that died
    together do not restart in lockstep).  A replica whose consecutive
    failures exceed the flap cap is [Quarantined]: the supervisor stops
    restarting it and reports it, instead of hot-looping on a persistent
    crasher.  A healthy cycle resets the count, so only genuine flapping
    accumulates.

    The process table ({!procs}) and clock are injected: tests drive
    whole kill-then-restart and flap drills with a fake table and a
    stepped clock; {!processes}, which the CLI ([xkq supervise]) uses,
    binds [Unix.create_process] / [waitpid] / [kill] and the RPC ping.  The
    optional heal closure (wired to [Xk_index.Repair] by the CLI) runs
    every [heal_every] cycles, closing the scrub/repair loop on the
    supervision cadence. *)

type spec = {
  sv_shard : int;
  sv_replica : int;
  sv_host : string;
  sv_port : int;
}

val spec_label : spec -> string
(** ["s<shard>r<replica>"]. *)

(** The injected process table.  [spawn] starts a server for a spec and
    returns its pid; [alive] asks whether a pid still runs; [kill]
    terminates one; [ping] asks whether the spec's endpoint answers. *)
type procs = {
  spawn : spec -> (int, string) result;
  alive : int -> bool;
  kill : int -> unit;
  ping : spec -> bool;
}

val processes : argv:(spec -> string array) -> state_dir:string -> procs
(** The real process table.  [spawn] runs [argv spec] (its first element
    is the executable) with stdout and stderr appended to
    [<state_dir>/<label>.log] and writes the pid to [<label>.pid];
    [alive] reaps with [waitpid WNOHANG], so a dead child is collected
    when it is first seen dead; [kill] sends SIGKILL; [ping] is an RPC
    ping with a 1 s timeout.  Creates [state_dir] if it is missing. *)

type config = {
  backoff_base_ms : float;  (** restart backoff floor *)
  backoff_cap_ms : float;  (** restart backoff ceiling *)
  flap_cap : int;  (** consecutive failures beyond which a replica is
                       quarantined (must be >= 1) *)
  start_grace_ms : float;  (** how long a fresh spawn may stay
                               ping-unready before it counts as failed *)
  heal_every : int;  (** run the heal closure every N cycles; 0 never *)
}

val default_config : config
(** base 200 ms, cap 5 s, flap cap 5, start grace 30 s, heal every
    cycle. *)

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

type t

val create :
  ?config:config ->
  ?clock:(unit -> float) ->
  ?seed:int ->
  ?on_event:(event -> unit) ->
  ?heal:(unit -> heal_report) ->
  procs:procs ->
  spec list ->
  t
(** A supervisor over the given replicas (all [Starting]; nothing runs
    until the first {!cycle}).  [clock] is milliseconds (defaults to
    wall time); [seed] makes the restart jitter deterministic.
    [on_event] observes every lifecycle event — it runs on the
    supervision loop and must stay non-blocking (enforced by the
    [no-blocking-in-callback] lint rule).  Raises [Invalid_argument] on
    an empty spec list or [flap_cap < 1]. *)

val cycle : t -> unit
(** One supervision pass: spawn [Starting] replicas, check every [Up]
    pid (liveness, then ping), respawn expired [Backoff] entries, and
    run the heal closure when the cadence says so. *)

val run :
  ?cycles:int ->
  ?interval_ms:float ->
  ?sleep:(float -> unit) ->
  ?on_cycle:(t -> unit) ->
  t ->
  unit
(** {!cycle} every [interval_ms] (default 500) until [cycles] passes
    have run (default: until {!stop}).  [on_cycle] observes each pass
    (the CLI prints the status line from it). *)

val stop : t -> unit
(** Ask {!run} to end after the current pass; safe from any domain
    (signal handlers flag it). *)

val stopped : t -> bool

val shutdown : t -> unit
(** {!stop}, then kill every running child. *)

type fleet = {
  up : int;  (** confirmed-healthy replicas *)
  starting : int;  (** spawned but not yet ping-confirmed *)
  backing_off : int;
  quarantined : int;
  restarts : int;  (** respawns beyond each replica's first spawn *)
  cycles : int;
}

val fleet : t -> fleet
val states : t -> (spec * replica_state) array

val healthy : t -> bool
(** Every replica [Up] and confirmed. *)

val status_line : t -> string
(** The one-line fleet summary, including the last heal report. *)
