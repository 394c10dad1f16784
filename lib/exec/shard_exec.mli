(** Scatter/gather query execution over a sharded index, served by
    replicas with failover, circuit breakers, hedging, and graceful
    coverage degradation.

    Each request fans out to one job per shard on a {!Xk_util.Domain_pool};
    every shard runs the ordinary budget-aware engine over its
    self-contained index, and a gather step merges the per-shard results
    into exactly the unsharded engine's answer:

    - {e complete} (ELCA/SLCA): deep results live entirely inside one
      shard, so the merge concatenates them, reconstructs the root's
      membership and exact score from per-shard {!Xk_index.Sharding.root_summary}
      evidence, and sorts;
    - {e top-K}: each shard answers its local top [K+1] (one extra slot
      because shard-local root hits are discarded and the root is re-derived
      globally).  The gather keeps a global best-first merge plus a per-shard
      upper bound on what that shard could still contribute — a shard that
      answered in full can no longer place anything new in the global top-K,
      a partial shard is bounded by its last confirmed score, a timed-out
      shard by [+inf].  Merged candidates strictly above every live bound are
      confirmed; [K] confirmations yield [Ok] even with stragglers, otherwise
      the confirmed prefix degrades to [Partial] exactly like the single-index
      anytime engine.

    With one shard served in process there is nothing to merge: the job
    runs {!Xk_core.Engine.run_request_outcome} on the whole corpus and
    its hits pass through in the engine's order, so the answer is the
    sequential {!Xk_core.Engine.query_batch} one, same hits, same order.
    An anytime request whose confirmed prefix is empty reports
    [Timeout], as it does over N shards.

    {2 Replicated serving}

    Each shard is served by [replicas] interchangeable engine instances,
    each with a rolling {!Xk_resilience.Health} window and a
    {!Xk_resilience.Circuit_breaker}.  A shard job routes to the
    healthiest replica its breaker admits; when [hedge_delay_ms] is set
    and a second replica exists, the first attempt is hedged
    ({!Xk_resilience.Hedge}) against the next-best replica.  Any attempt
    failure — a chaos kill, an injected fault, a genuine exception —
    records against that replica and fails over to the next one; a
    shard becomes unreachable only when every replica has failed.

    An unreachable shard no longer fails the query.  Its upper bound is
    pinned to [+inf] — no full-corpus top-K can be confirmed, so the
    outcome is never [Ok] — and the gather instead reports
    {!Query_service.outcome.Degraded}: the confirmed prefix computed
    against the {e reachable} shards' bounds (provably the top-K of the
    reachable data), the missing shard list, and the surviving coverage
    fraction.  The global root hit is dropped in degraded answers (its
    exact score needs every shard's summary).  [Failed] remains only
    for errors outside replica serving.  Admission control bounds
    in-flight {e requests} (not shard jobs).

    {2 Transports}

    A replica is either an in-process engine over the shard's index or
    a remote shard server ([xkq serve-shard]) addressed by an
    [endpoints] (host, port) grid — typically read back from the v3
    manifest ({!Xk_index.Shard_io.endpoints}).  Remote attempts send
    the request — with the budget's {e remaining} deadline and tick
    allowance — over the {!Xk_rpc} frame protocol; the server re-runs
    the identical {!Shard_run} job, so remote answers are bit-identical
    to local ones.  Connection failures, malformed frames and remote
    refusals raise inside the attempt like any replica fault: health
    and breaker record them, and the job fails over to the next
    replica.  When every replica of a shard is unreachable the query
    degrades exactly as above — the +inf bound rule is transport
    blind. *)

type t

val create :
  ?domains:int ->
  ?max_queue:int ->
  ?replicas:int ->
  ?breaker:Xk_resilience.Circuit_breaker.config ->
  ?clock:(unit -> float) ->
  ?hedge_delay_ms:float ->
  ?endpoints:(string * int) array array ->
  Xk_index.Sharding.t ->
  t
(** Wrap a sharded index: [replicas] (default 1) engines per shard, one
    shared pool of [domains] workers (default
    {!Xk_util.Domain_pool.default_size}).  With one worker and no hedging
    no domain is spawned: shard jobs run on the calling domain, which
    would otherwise only wait for them.  [max_queue]
    bounds admitted in-flight requests; [breaker] configures every
    replica's circuit breaker; [clock] (ms, injectable for tests) feeds
    breakers, health latency, and deadline anchoring; [hedge_delay_ms]
    enables hedged attempts once a replica has been slower than this
    for a given shard job (absent: hedging off).

    [endpoints] switches every replica to the remote transport: slot
    [(s, r)] dials [endpoints.(s).(r)] instead of running an in-process
    engine, and the replica count comes from the grid's (uniform) row
    length, overriding [replicas].  Unbudgeted remote attempts time out
    after 5 s, so a wedged server fails over rather than hanging a shard
    job.  Raises [Invalid_argument] on
    [domains < 1], [max_queue < 1], [replicas < 1], a negative hedge
    delay, or a mis-shaped endpoint grid. *)

val sharding : t -> Xk_index.Sharding.t
val engine : t -> int -> Xk_core.Engine.t
(** A presentation engine for the shard, built lazily from the locally
    loaded index (replica slots may be remote and hold no engine) —
    presentation helpers only. *)

val remote : t -> bool
(** Whether any replica uses the remote transport. *)

val shard_count : t -> int
val replica_count : t -> int

val domains : t -> int

val replica_health : t -> shard:int -> replica:int -> Xk_resilience.Health.snapshot
val breaker_state : t -> shard:int -> replica:int -> Xk_resilience.Circuit_breaker.state

val exec :
  ?budget_for:(int -> Xk_resilience.Budget.t) ->
  t ->
  Xk_core.Engine.request ->
  Query_service.outcome
(** Run one request over every shard and gather.  The request's
    deadline, if it carries one, is anchored at admission
    and shared by all of a shard's replica attempts (queueing and failed
    attempts consume it).  [budget_for] overrides the budget per shard
    index and is re-invoked for {e each} replica attempt — deterministic
    tick budgets for tests. *)

val exec_batch :
  ?deadline_ms:float ->
  t ->
  Xk_core.Engine.request list ->
  Query_service.outcome list
(** Fan every request of the batch out before the first gather, so shard
    jobs of different requests pipeline across the pool.  Outcomes in
    request order.  Several client domains may call it concurrently:
    their shard jobs interleave on the one pool (without a pool, each
    caller runs its own). *)

type stats = {
  shards : int;
  replicas : int;  (** replicas per shard *)
  domains : int;
  batches : int;  (** [exec]/[exec_batch] calls so far *)
  queries : int;  (** requests received (admitted or not) *)
  completed : int;
  partials : int;
  degraded : int;  (** requests served with lost shards *)
  timeouts : int;
  rejected : int;
  failed : int;
  failovers : int;  (** replica attempts beyond the first, per shard job *)
  hedges : int;  (** hedged attempts actually launched *)
  hedge_wins : int;  (** hedged attempts that beat the primary *)
  max_queue : int option;
  cache : Xk_index.Shard_cache.stats;
      (** {!Xk_index.Sharding.cache_stats} aggregate over all shards *)
}

val stats : t -> stats

val shutdown : t -> unit

(** {1 Presentation}

    Hits gathered from shards carry {e global} node indices; these
    helpers route a hit back to its owning shard for display. *)

val locate : t -> Xk_baselines.Hit.t -> int * Xk_baselines.Hit.t
(** The owning shard and the hit re-expressed in its local numbering. *)

val element_of_hit : t -> Xk_baselines.Hit.t -> Xk_xml.Xml_tree.element option

val snippet :
  t ->
  string list ->
  Xk_baselines.Hit.t ->
  (string * string) list

val pp_hit : t -> Format.formatter -> Xk_baselines.Hit.t -> unit
