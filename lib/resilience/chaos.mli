(** Deterministic fault injection: chaos schedules for replica serving,
    and the storage and query fault classes beneath them.

    A schedule addresses events at (shard, replica) pairs — with
    wildcards — and arms kill / latency events at a global {e attempt
    tick} that every {!on_attempt} call advances, so a given schedule
    replays the same failure sequence on every run.  The state is
    process-global: install a schedule once at startup (or per test,
    under the test lock).

    Underneath the schedule sit the fault classes ({!faults}), taken
    from [XK_FAULTS=io,corrupt,latency,query] unless {!configure}
    overrides them, and the per-path storage marks ({!mark_corrupt},
    {!mark_unmappable}).  [Xk_storage.Mmap.map] consults them through
    {!on_map}, so storage drills damage the pages the production reader
    decodes.  [Corrupt] schedule events are disk-level: callers resolve
    the targets to replica segment paths themselves (via
    [Shard_io.replica_path]) and register them with {!mark_corrupt}
    before loading. *)

exception Killed of { shard : int; replica : int }
(** Raised by {!on_attempt} for an armed kill event or an injected query
    failure: the replica is "down" for this attempt.  [Shard_exec]
    treats it as a replica failure and fails over. *)

exception Crashed of string
(** Raised by {!crash_point} for an armed crash event: the process
    "dies" at this durability step.  Mutation code paths place
    {!crash_point} calls between their durability steps and never clean
    up on [Crashed], so everything already flushed stays on disk exactly
    as a [kill -9] would leave it; recovery drills then reopen the
    index and assert it heals. *)

type target = { t_shard : int option; t_replica : int option }
(** [None] is a wildcard matching every shard / replica. *)

type event =
  | Kill of { target : target; from_tick : int }
  | Slow of { target : target; from_tick : int; ms : float }
  | Corrupt of { target : target }
  | Drop of { target : target; from_tick : int }
      (** connection-level: refuse to dial the replica (remote transport
          only — in-process replicas have no connection to drop) *)
  | Crash of { step : string }
      (** process-level: die at a named durability step (see
          [Xk_index.Live.crash_steps]).  Fires once, then disarms, so
          post-crash recovery in the same process runs unimpeded. *)

type schedule = event list

(** The fault classes.  Injection is deterministic, not probabilistic,
    which makes a whole test suite runnable under faults: retry and
    checksum re-reads recover, and still every path meets a fault. *)
type faults = {
  io_failures : int;  (** the first N maps of each path fail transiently *)
  corrupt_reads : int;  (** the next N maps of each path read torn *)
  io_latency_ms : float;  (** sleep before every map *)
  query_failures : int;  (** the first N replica attempts are killed *)
  query_latency_ms : float;  (** sleep before every replica attempt *)
}

val no_faults : faults

type spec = { faults : faults; events : schedule }
(** A parsed {!of_spec}: the fault classes it names and its events. *)

type counters = {
  kills : int;  (** attempts killed so far *)
  slowdowns : int;  (** attempts delayed so far *)
  drops : int;  (** connections refused so far *)
  crashes : int;  (** crash points fired so far *)
}

val install : ?sleep:(float -> unit) -> schedule -> unit
(** Replace the global schedule and reset the tick and counters.
    [sleep] (ms) services [Slow] events; tests inject a recorder.  The
    fault classes and storage marks stay as they are. *)

val clear : unit -> unit
val active : unit -> bool

val tick : unit -> int
(** Attempts observed since {!install}. *)

val counters : unit -> counters

val on_attempt : shard:int -> replica:int -> unit
(** The per-attempt hook.  Advances the tick and applies the schedule:
    raises {!Killed} for an armed kill, sleeps for armed latency.  Then
    applies the query classes: sleeps [query_latency_ms], and raises
    {!Killed} for the first [query_failures] attempts.  Decisions are
    made under the state lock, sleeps and raises happen outside it.
    Without a schedule the tick does not advance, so background traffic
    cannot skew an armed schedule. *)

val on_connect : shard:int -> replica:int -> unit
(** Apply armed [Drop] events to a connection attempt: raises {!Killed}
    when the target's connections are being refused.  Reads the tick
    {e without} advancing it — the surrounding {!on_attempt} already
    counted this attempt.  Called by the remote transport just before
    dialing a replica. *)

val corrupt_targets : unit -> target list
(** The [Corrupt] targets of the installed schedule, for callers to map
    to segment paths and register via {!mark_corrupt}. *)

val corrupt_matches : shard:int -> replica:int -> bool

val crash_armed : string -> bool
(** Whether a [Crash] event for this step is installed and has not fired
    yet.  Torn-write drills consult this before deciding to write only a
    prefix of their bytes; they then call {!crash_point} to fire. *)

val crash_point : string -> unit
(** Fire an armed [Crash] for this step: consume the event (it will not
    fire again), count it, and raise {!Crashed}.  No-op when the step is
    not armed. *)

val crash_steps : unit -> string list
(** The steps of the installed schedule's [Crash] events, for spec
    validation against the steps a subsystem actually implements. *)

val of_spec : string -> (spec, string) result
(** Parse a comma-separated spec.  Fault classes: [io], [corrupt],
    [latency], [query] (one failure per path or one query, 2 ms of
    latency).  Events: [kill@s<S>r<R>:<tick>],
    [slow@s<S>r<R>:<tick>:<ms>], [corrupt@s<S>r<R>],
    [drop@s<S>r<R>:<tick>], [crash@<step>]; [S]/[R] accept [*] as a
    wildcard (e.g. [kill@s*r1:0] kills replica 1 of every shard from
    the first attempt).  [XK_FAULTS] is parsed with it and takes
    classes only; a bad [XK_FAULTS] stops the process with exit 2. *)

val configure : faults -> unit
(** Override the environment's fault classes, and reset the per-path
    counters and marks.  The schedule stays as it is. *)

val reset : unit -> unit
(** Back to the environment's fault classes, with the per-path counters
    and marks reset. *)

(** {1 Storage faults} *)

val mark_corrupt : path:string -> unit
(** Persistent damage: every later map of [path] reads with its middle
    byte flipped, whatever the fault classes say, until {!heal}. *)

val mark_unmappable : path:string -> unit
(** Every later map of [path] is refused ([Mmap.Map_failed]), as if the
    kernel had rejected the mapping, until {!heal}. *)

val heal : path:string -> unit
(** Clear [path]'s marks — the repair counterpart of {!mark_corrupt}:
    once [Xk_index.Repair] rewrites a copy the simulated media is new.
    The transient classes the path has already spent stay spent. *)

type map_fault =
  | Map_io of string  (** fail this map transiently *)
  | Map_refused  (** refuse the mapping *)
  | Map_torn  (** flip a header byte of this map only *)
  | Map_damaged  (** flip the middle byte: the path is marked corrupt *)

val on_map : path:string -> map_fault option
(** The storage hook, called once per map by [Xk_storage.Mmap.map]:
    sleeps [io_latency_ms], then names the fault, if any, this map of
    [path] meets.  Per path, the first [io_failures] maps fail and the
    next [corrupt_reads] read torn. *)
