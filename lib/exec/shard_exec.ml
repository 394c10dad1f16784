(* Scatter/gather over a sharded index, served by replicas.

   Per-shard scoring uses corpus-global statistics (Sharding builds the
   shards that way), and the engine orders a query's lists by term string,
   so every per-shard hit carries the exact float score the unsharded
   engine would compute.  That makes the gather a pure merge problem:

   - deep hits (below the root) concatenate across shards;
   - the root is re-derived from per-shard root summaries: per keyword
     the global best damped witness is the max of the shard maxima, and
     summing those in canonical term order reproduces the unsharded root
     score bit for bit;
   - for top-K, per-shard upper bounds decide how much of the merge is
     confirmed (see the interface).

   Replication: each shard is served by N interchangeable replicas
   (engines over the same shard index), each with its own health window
   and circuit breaker.  A shard job routes to the healthiest admitted
   replica, optionally hedges a straggling attempt, fails over to the
   next replica on any attempt failure, and declares the shard
   unreachable only when every replica has been exhausted — at which
   point the gather degrades coverage instead of failing the query:
   the missing shard's upper bound is +inf (nothing can be confirmed
   against the full corpus), but the confirmed prefix over the
   reachable shards is still sound for the reachable data.

   Transports: a replica is either an in-process engine or a remote
   shard server (Xk_rpc endpoint).  Both run the same Shard_run job —
   the server re-executes it under a budget rebuilt from the request
   frame — so routing, hedging, failover and gathering are transport
   blind, and remote answers are bit-identical to local ones.  The one
   exception is an in-process executor with a single shard: there is
   nothing to merge, so its job is the plain engine run. *)

type shard_result = Shard_run.result = {
  sr_summary : Xk_index.Sharding.root_summary option;
  sr_outcome : Xk_core.Engine.run_outcome;
  sr_bound : float;
}

type shard_status =
  | Served of shard_result
  | Whole of Xk_core.Engine.run_outcome
      (* the only shard, run in process: the engine's own answer, root
         included and already in global numbering *)
  | Unreachable of { attempts : int }
      (* every replica of the shard failed; [attempts] were made *)

type transport =
  | Engine of Xk_core.Engine.t
  | Endpoint of { host : string; port : int }

type replica = {
  rep_transport : transport;
  rep_health : Xk_resilience.Health.t;
  rep_breaker : Xk_resilience.Circuit_breaker.t;
}

type stats = {
  shards : int;
  replicas : int;
  domains : int;
  batches : int;
  queries : int;
  completed : int;
  partials : int;
  degraded : int;
  timeouts : int;
  rejected : int;
  failed : int;
  failovers : int;
  hedges : int;
  hedge_wins : int;
  max_queue : int option;
  cache : Xk_index.Shard_cache.stats;
}

type t = {
  sharding : Xk_index.Sharding.t;
  reps : replica array array; (* [shard].(replica) *)
  pres : Xk_core.Engine.t Lazy.t array; (* presentation engine per shard *)
  pool : Xk_util.Domain_pool.t option; (* None: jobs run on the caller *)
  workers : int;
  max_queue : int option;
  hedge_delay_ms : float option;
  clock : unit -> float;
  in_flight : int Atomic.t;
  batches : int Atomic.t;
  queries : int Atomic.t;
  completed : int Atomic.t;
  partials : int Atomic.t;
  degraded : int Atomic.t;
  timeouts : int Atomic.t;
  rejected : int Atomic.t;
  failed : int Atomic.t;
  failovers : int Atomic.t;
  hedges : int Atomic.t;
  hedge_wins : int Atomic.t;
}

let default_clock () = Unix.gettimeofday () *. 1000.0

(* Bounds unbudgeted remote attempts, so a wedged server fails over
   rather than hanging a shard job. *)
let rpc_timeout_ms = 5000.

let create ?domains ?max_queue ?(replicas = 1) ?breaker
    ?(clock = default_clock) ?hedge_delay_ms ?endpoints sharding =
  (match max_queue with
  | Some m when m < 1 -> Xk_util.Err.invalid "Shard_exec.create: max_queue < 1"
  | _ -> ());
  if replicas < 1 then Xk_util.Err.invalid "Shard_exec.create: replicas < 1";
  (match hedge_delay_ms with
  | Some d when d < 0. ->
      Xk_util.Err.invalid "Shard_exec.create: hedge_delay_ms < 0"
  | _ -> ());
  let shards = Xk_index.Sharding.count sharding in
  let workers =
    match domains with Some d -> d | None -> Xk_util.Domain_pool.default_size ()
  in
  (* With endpoints, the fleet shape comes from the manifest: one remote
     replica per recorded (host, port), uniform across shards. *)
  let replicas, transport_for =
    match endpoints with
    | None ->
        ( replicas,
          fun s _ ->
            Engine (Xk_core.Engine.of_index (Xk_index.Sharding.index sharding s))
        )
    | Some (e : (string * int) array array) ->
        if
          Array.length e <> shards || shards = 0
          || Array.length e.(0) < 1
          || Array.exists (fun row -> Array.length row <> Array.length e.(0)) e
        then
          Xk_util.Err.invalid
            "Shard_exec.create: endpoints shape must be shards x replicas";
        ( Array.length e.(0),
          fun s r ->
            let host, port = e.(s).(r) in
            Endpoint { host; port } )
  in
  {
    sharding;
    reps =
      Array.init shards (fun s ->
          Array.init replicas (fun r ->
              {
                rep_transport = transport_for s r;
                rep_health = Xk_resilience.Health.create ();
                rep_breaker =
                  Xk_resilience.Circuit_breaker.create ?config:breaker ~clock ();
              }));
    pres =
      Array.init shards (fun s ->
          lazy (Xk_core.Engine.of_index (Xk_index.Sharding.index sharding s)));
    (* One worker and no hedging: the caller would only block while the
       worker runs its jobs one at a time, so it runs them itself and no
       domain is spawned (the RPC server does the same for one worker).
       An idle extra domain is not free under OCaml 5: every major
       collection waits on it, and when it catches up decides how much
       garbage a serving loop piles up first. *)
    pool =
      (if workers = 1 && hedge_delay_ms = None then None
       else Some (Xk_util.Domain_pool.create ~domains:workers ()));
    workers;
    max_queue;
    hedge_delay_ms;
    clock;
    in_flight = Atomic.make 0;
    batches = Atomic.make 0;
    queries = Atomic.make 0;
    completed = Atomic.make 0;
    partials = Atomic.make 0;
    degraded = Atomic.make 0;
    timeouts = Atomic.make 0;
    rejected = Atomic.make 0;
    failed = Atomic.make 0;
    failovers = Atomic.make 0;
    hedges = Atomic.make 0;
    hedge_wins = Atomic.make 0;
  }

let sharding t = t.sharding

(* Presentation engines are built lazily from the locally loaded index:
   with a remote transport, replica slots hold endpoints, not engines. *)
let engine t s = Lazy.force t.pres.(s)
let shard_count t = Array.length t.reps
let replica_count t = Array.length t.reps.(0)

let remote t =
  Array.exists
    (Array.exists (fun r ->
         match r.rep_transport with Endpoint _ -> true | Engine _ -> false))
    t.reps

let domains t = t.workers

let breaker_state t ~shard ~replica =
  Xk_resilience.Circuit_breaker.state t.reps.(shard).(replica).rep_breaker

let canonical_words = Shard_run.canonical_words
let is_anytime = Shard_run.is_anytime

let admit t =
  let n = Atomic.fetch_and_add t.in_flight 1 in
  match t.max_queue with
  | Some m when n >= m ->
      Atomic.decr t.in_flight;
      false
  | _ -> true

(* --- The per-shard job ------------------------------------------------ *)

(* One attempt over the wire: the connection drill runs after the
   attempt hooks, the remaining budget travels in the request frame, and
   any transport or protocol failure surfaces as [Client.Rpc_failed] —
   which the failover loop treats like any other replica exception. *)
let remote_attempt ~host ~port ~shard ~ri ~budget
    (req : Xk_core.Engine.request) =
  Xk_resilience.Chaos.on_connect ~shard ~replica:ri;
  let q : Xk_rpc.Wire.query =
    {
      q_shard = shard;
      q_words = req.req_words;
      q_semantics = req.req_semantics;
      q_mode = req.req_mode;
      q_deadline_ms = Xk_resilience.Budget.remaining_ms budget;
      q_ticks = Xk_resilience.Budget.ticks_left budget;
    }
  in
  let s = Xk_rpc.Client.query ~timeout_ms:rpc_timeout_ms ~host ~port q in
  {
    sr_summary = s.Xk_rpc.Wire.s_summary;
    sr_outcome = s.s_outcome;
    sr_bound = s.s_bound;
  }

(* One attempt on one replica: the chaos hook first, then the
   engine run (in-process or over the wire); health and breaker record
   the outcome either way.  A budget-bounded run that merely times out
   still {e served} — only an exception is a replica failure.

   The only shard of an in-process executor holds the whole corpus, so
   the engine's answer already is the gathered one: it runs the engine
   directly, skipping the root summary, the K+1 slot and the root
   re-derivation that exist to merge several shards. *)
let attempt_replica t ~shard ~ri ~budget ~words req =
  let rep = t.reps.(shard).(ri) in
  let start = t.clock () in
  match
    Xk_resilience.Chaos.on_attempt ~shard ~replica:ri;
    match rep.rep_transport with
    | Engine engine when Array.length t.reps = 1 ->
        Whole (Xk_core.Engine.run_request_outcome ~budget engine req)
    | Engine engine ->
        Served
          (Shard_run.run ~sharding:t.sharding ~engine ~shard ~budget ~words req)
    | Endpoint { host; port } ->
        Served (remote_attempt ~host ~port ~shard ~ri ~budget req)
  with
  | r ->
      Xk_resilience.Health.record rep.rep_health ~ok:true
        ~latency_ms:(t.clock () -. start);
      Xk_resilience.Circuit_breaker.record_success rep.rep_breaker;
      r
  | exception e ->
      Xk_resilience.Health.record rep.rep_health ~ok:false
        ~latency_ms:(t.clock () -. start);
      Xk_resilience.Circuit_breaker.record_failure rep.rep_breaker;
      raise e

(* Replica routing order: admitted replicas first (healthiest first),
   then — as a last resort — the replicas their breakers refused, so a
   shard with every breaker open still gets one round of attempts
   rather than an instant Unreachable. *)
let route t shard =
  let reps = t.reps.(shard) in
  let scored =
    Array.to_list
      (Array.mapi
         (fun i r ->
           ( i,
             Xk_resilience.Circuit_breaker.allow r.rep_breaker,
             Xk_resilience.Health.score r.rep_health ))
         reps)
  in
  let by_score l =
    List.stable_sort (fun (_, _, a) (_, _, b) -> Float.compare b a) l
    |> List.map (fun (i, _, _) -> i)
  in
  let admitted, refused = List.partition (fun (_, ok, _) -> ok) scored in
  by_score admitted @ by_score refused

(* Serve one shard: route, hedge the first attempt when configured,
   fail over across the remaining replicas, and report Unreachable only
   when every replica failed. *)
let serve_shard t ~shard ~make_budget ~words req =
  let attempt ri budget = attempt_replica t ~shard ~ri ~budget ~words req in
  let hedged_attempt ri ~delay_ms alt =
    let o =
      Xk_resilience.Hedge.run ~clock:t.clock ~make_budget
        ~spawn:(fun job ->
          match t.pool with
          | Some pool -> Xk_util.Domain_pool.submit pool job
          | None -> job () (* unreachable: hedging always has a pool *))
        ~delay_ms
        ~primary:(fun b -> attempt ri b)
        ~hedge:(fun b -> attempt alt b)
        ()
    in
    if o.fired then begin
      Atomic.incr t.hedges;
      if o.winner = Hedge then Atomic.incr t.hedge_wins
    end;
    o.value
  in
  let rec failover attempts = function
    | [] -> Unreachable { attempts }
    | ri :: rest -> (
        if attempts > 0 then Atomic.incr t.failovers;
        match
          match (t.hedge_delay_ms, rest) with
          | Some delay_ms, alt :: _ when attempts = 0 ->
              hedged_attempt ri ~delay_ms alt
          | _ -> attempt ri (make_budget ())
        with
        | status -> status
        | exception _ -> failover (attempts + 1) rest)
  in
  failover 0 (route t shard)

(* --- Root reconstruction ---------------------------------------------- *)

let root_hit (req : Xk_core.Engine.request) summaries nw =
  if nw = 0 || Array.length summaries = 0 then None
  else
    let max_over f i =
      Array.fold_left
        (fun m (s : Xk_index.Sharding.root_summary) -> Float.max m (f s).(i))
        neg_infinity summaries
    in
    let witness =
      match req.req_semantics with
      | Xk_core.Engine.Elca ->
          (* ELCA: occurrences inside keyword-complete subtrees are claimed
             by descendants; the root stands on the free witnesses. *)
          Some (fun s -> s.Xk_index.Sharding.rs_best_free)
      | Xk_core.Engine.Slca ->
          (* SLCA: any keyword-complete subtree hides the root entirely. *)
          if
            Array.exists
              (fun (s : Xk_index.Sharding.root_summary) -> s.rs_full_subtree)
              summaries
          then None
          else Some (fun s -> s.Xk_index.Sharding.rs_best_all)
    in
    match witness with
    | None -> None
    | Some f ->
        let score = ref 0.0 and complete = ref true in
        for i = 0 to nw - 1 do
          let best = max_over f i in
          if best = neg_infinity then complete := false
          else score := !score +. best
        done;
        if !complete then Some { Xk_baselines.Hit.node = 0; score = !score }
        else None

(* --- Gather ----------------------------------------------------------- *)

(* Fraction of top-level subtrees living on reachable shards. *)
let coverage_of t missing =
  let assignment = Xk_index.Sharding.assignment t.sharding in
  let total = Array.length assignment in
  if total = 0 then 0.0
  else
    let reachable =
      Array.fold_left
        (fun n s -> if List.mem s missing then n else n + 1)
        0 assignment
    in
    float_of_int reachable /. float_of_int total

let gather t (req : Xk_core.Engine.request) nw
    (statuses : (shard_status, exn * Printexc.raw_backtrace) result array) :
    Query_service.outcome =
  let failure =
    Array.to_seq statuses
    |> Seq.fold_lefti
         (fun acc shard r ->
           match (acc, r) with
           | Some _, _ | _, Ok _ -> acc
           | None, Error (e, bt) ->
               Some
                 (Query_service.Failed
                    {
                      message =
                        Printf.sprintf "shard %d: %s" shard
                          (Printexc.to_string e);
                      backtrace = Printexc.raw_backtrace_to_string bt;
                    }))
         None
  in
  match (failure, statuses) with
  | Some f, _ -> f
  | None, [| Ok (Whole out) |] -> (
      (* The engine's own answer, hits passed through in its order; an
         empty confirmed prefix is a timeout, as for N shards. *)
      match out with
      | Done hs -> Query_service.Ok hs
      | Partial (_ :: _ as hs) -> Query_service.Partial hs
      | Partial [] | Timed_out -> Query_service.Timeout)
  | None, _ -> (
      let statuses =
        Array.map
          (function
            | Ok s -> s
            | Error _ ->
                Xk_util.Err.unreachable
                  "Shard_exec.gather: failure already handled above")
          statuses
      in
      let missing =
        Array.to_list statuses
        |> List.mapi (fun shard s ->
               match s with
               | Unreachable _ -> Some shard
               | Served _ | Whole _ -> None)
        |> List.filter_map Fun.id
      in
      let results =
        Array.to_list statuses
        |> List.filter_map (function
             | Served r -> Some r
             | Unreachable _ | Whole _ -> None)
        |> Array.of_list
      in
      (* With lost shards the outcome is [Degraded], never [Ok]: the
         confirmed prefix is taken against the {e reachable} shards'
         bounds only, which is exactly the top-K guarantee restricted to
         the reachable data, and the root hit is dropped, since its
         exact global score needs every shard's summary. *)
      let finish ~complete hits =
        if missing <> [] then
          Query_service.Degraded
            { hits; missing_shards = missing; coverage = coverage_of t missing }
        else if complete then Query_service.Ok hits
        else Query_service.Partial hits
      in
      let summaries =
        Array.to_list results |> List.filter_map (fun r -> r.sr_summary)
      in
      let root =
        if missing = [] && List.length summaries = Array.length results then
          root_hit req (Array.of_list summaries) nw
        else None
      in
      let deep =
        Array.to_list results
        |> List.concat_map (fun r ->
               match r.sr_outcome with
               | Done hs | Partial hs -> hs
               | Timed_out -> [])
      in
      let merged =
        List.sort Xk_baselines.Hit.compare_score_desc
          (match root with Some h -> h :: deep | None -> deep)
      in
      let all_done =
        Array.for_all
          (fun r -> match r.sr_outcome with Done _ -> true | _ -> false)
          results
      in
      match req.req_mode with
      | Complete _ ->
          (* A complete result set has no meaningful prefix. *)
          if all_done then finish ~complete:true merged
          else Query_service.Timeout
      | Topk (_, k) ->
          if all_done then
            finish ~complete:true (Xk_baselines.Hit.top_k k merged)
          else if not (is_anytime req) then Query_service.Timeout
          else begin
            (* Confirm merged candidates strictly above every live bound:
               a straggler could still produce a hit scoring exactly a live
               bound, and the (score, node) tiebreak could place it first. *)
            let bound =
              Array.fold_left (fun u r -> Float.max u r.sr_bound) neg_infinity
                results
            in
            let confirmed =
              List.filteri (fun i _ -> i < k) merged
              |> List.filter (fun (h : Xk_baselines.Hit.t) -> h.score > bound)
            in
            if confirmed = [] then Query_service.Timeout
            else finish ~complete:(List.length confirmed = k) confirmed
          end)

(* --- Dispatch --------------------------------------------------------- *)

(* Submit one request's shard jobs; [finish] gathers (and settles the
   admission slot exactly once, when the last shard job completes). *)
let submit t ?deadline_ms ?budget_for (req : Xk_core.Engine.request) =
  Atomic.incr t.queries;
  if not (admit t) then begin
    Atomic.incr t.rejected;
    fun () -> Query_service.Rejected
  end
  else begin
    let words = canonical_words req.req_words in
    let nw = List.length words in
    (* A fresh budget per replica attempt: deadlines are anchored at
       admission (queueing and earlier attempts consume them), tick
       budgets from [budget_for] restart per attempt. *)
    let budget_thunk shard =
      match budget_for with
      | Some f -> fun () -> f shard
      | None -> (
          match (req.req_deadline_ms, deadline_ms) with
          | Some d, _ | None, Some d ->
              let deadline_abs = t.clock () +. d in
              fun () ->
                Xk_resilience.Budget.create
                  ~deadline_ms:(deadline_abs -. t.clock ())
                  ()
          | None, None -> fun () -> Xk_resilience.Budget.unlimited)
    in
    let remaining = Atomic.make (Array.length t.reps) in
    let job shard () =
      Fun.protect
        ~finally:(fun () ->
          if Atomic.fetch_and_add remaining (-1) = 1 then Atomic.decr t.in_flight)
        (fun () -> serve_shard t ~shard ~make_budget:(budget_thunk shard) ~words req)
    in
    let statuses =
      match t.pool with
      | Some pool ->
          let futures =
            Array.init (Array.length t.reps) (fun shard ->
                Xk_util.Domain_pool.async pool (job shard))
          in
          fun () -> Array.map Xk_util.Domain_pool.await futures
      | None ->
          let done_ =
            Array.init (Array.length t.reps) (fun shard ->
                match job shard () with
                | v -> Ok v
                | exception e -> Error (e, Printexc.get_raw_backtrace ()))
          in
          fun () -> done_
    in
    fun () ->
      let statuses = statuses () in
      let outcome = gather t req nw statuses in
      (match outcome with
      | Query_service.Ok _ -> Atomic.incr t.completed
      | Query_service.Partial _ -> Atomic.incr t.partials
      | Query_service.Degraded _ -> Atomic.incr t.degraded
      | Query_service.Timeout -> Atomic.incr t.timeouts
      | Query_service.Rejected -> Atomic.incr t.rejected
      | Query_service.Failed _ -> Atomic.incr t.failed);
      outcome
  end

let exec ?budget_for t req =
  Atomic.incr t.batches;
  (submit t ?budget_for req) ()

let exec_batch ?deadline_ms t reqs =
  Atomic.incr t.batches;
  (* Fan everything out before the first gather so shard jobs of distinct
     requests pipeline across the pool. *)
  let finishers = List.map (fun r -> submit t ?deadline_ms r) reqs in
  List.map (fun finish -> finish ()) finishers

let stats t =
  {
    shards = shard_count t;
    replicas = replica_count t;
    domains = domains t;
    batches = Atomic.get t.batches;
    queries = Atomic.get t.queries;
    completed = Atomic.get t.completed;
    partials = Atomic.get t.partials;
    degraded = Atomic.get t.degraded;
    timeouts = Atomic.get t.timeouts;
    rejected = Atomic.get t.rejected;
    failed = Atomic.get t.failed;
    failovers = Atomic.get t.failovers;
    hedges = Atomic.get t.hedges;
    hedge_wins = Atomic.get t.hedge_wins;
    max_queue = t.max_queue;
    cache = Xk_index.Sharding.cache_stats t.sharding;
  }

let shutdown t = Option.iter Xk_util.Domain_pool.shutdown t.pool

(* --- Presentation ----------------------------------------------------- *)

let locate t (h : Xk_baselines.Hit.t) =
  let shard, local = Xk_index.Sharding.locate t.sharding h.node in
  (shard, { h with node = local })

let element_of_hit t h =
  let shard, local = locate t h in
  Xk_core.Engine.element_of_hit (engine t shard) local

let snippet t words h =
  let shard, local = locate t h in
  Xk_core.Engine.snippet (engine t shard) words local

let pp_hit t fmt h =
  let shard, local = locate t h in
  Xk_core.Engine.pp_hit (engine t shard) fmt local
