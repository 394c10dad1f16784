(* Deterministic fault injection: chaos schedules for replica serving
   and storage faults beneath [Xk_storage.Mmap].

   A schedule is a list of events addressed by (shard, replica), with
   [`*`] wildcards.  Determinism comes from a global attempt tick: every
   [on_attempt] advances the counter, and kill/slow events arm at a
   fixed tick, so a test or CI matrix replays the same failure sequence
   on every run.

   Underneath the schedule sit the fault classes ([XK_FAULTS] or
   {!configure}): per path, the first [io_failures] maps fail
   transiently and the next [corrupt_reads] maps read torn; the first
   [query_failures] replica attempts are killed.  Segment damage is
   per path: [mark_corrupt] / [mark_unmappable] until [heal].  The maps
   consult all of this through [on_map], once per map.

   Every hook decides under the one state lock but raises / sleeps
   outside it. *)

exception Killed of { shard : int; replica : int }
exception Crashed of string

type target = { t_shard : int option; t_replica : int option }

type event =
  | Kill of { target : target; from_tick : int }
  | Slow of { target : target; from_tick : int; ms : float }
  | Corrupt of { target : target }
  | Drop of { target : target; from_tick : int }
  | Crash of { step : string }

type schedule = event list

type faults = {
  io_failures : int;
  corrupt_reads : int;
  io_latency_ms : float;
  query_failures : int;
  query_latency_ms : float;
}

let no_faults =
  {
    io_failures = 0;
    corrupt_reads = 0;
    io_latency_ms = 0.;
    query_failures = 0;
    query_latency_ms = 0.;
  }

type spec = { faults : faults; events : schedule }

type mark = Damaged | Unmappable

type state = {
  mutable events : schedule;
  mutable tick : int;
  mutable sleep : float -> unit;
  mutable kills : int; (* attempts killed so far *)
  mutable slowdowns : int; (* attempts delayed so far *)
  mutable drops : int; (* connections refused so far *)
  mutable crashes : int; (* crash points fired so far *)
  mutable override : faults option; (* [None]: the environment's classes *)
  maps : (string, int) Hashtbl.t; (* maps per path while a class counts them *)
  marks : (string, mark) Hashtbl.t;
  mutable queries : int; (* attempts seen while query failures are armed *)
}

let default_sleep ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

let state =
  Xk_util.Sync.Protected.create
    {
      events = [];
      tick = 0;
      sleep = default_sleep;
      kills = 0;
      slowdowns = 0;
      drops = 0;
      crashes = 0;
      override = None;
      maps = Hashtbl.create 8;
      marks = Hashtbl.create 8;
      queries = 0;
    }

let with_state f = Xk_util.Sync.Protected.with_ state f
let matches t ~shard ~replica =
  (match t.t_shard with None -> true | Some s -> s = shard)
  && match t.t_replica with None -> true | Some r -> r = replica

(* Spec syntax, comma-separated items:
     io | corrupt | latency | query   a fault class (see [faults])
     kill@s<S>r<R>:<tick>         kill attempts on shard S replica R from tick
     slow@s<S>r<R>:<tick>:<ms>    add <ms> latency from tick
     corrupt@s<S>r<R>             corrupt that replica's segment on disk
     drop@s<S>r<R>:<tick>         refuse connections to that replica from tick
     crash@<step>                 die once at a named durability step
   S and R accept [*] as a wildcard, e.g. [kill@s*r1:0].  A class arms
   one failure per path (or one query), the latency class 2 ms. *)

let parse_target s =
  match String.index_opt s 'r' with
  | Some i when String.length s > 1 && s.[0] = 's' ->
      let shard_str = String.sub s 1 (i - 1) in
      let rep_str = String.sub s (i + 1) (String.length s - i - 1) in
      let part name = function
        | "*" -> Ok None
        | v -> (
            match int_of_string_opt v with
            | Some n when n >= 0 -> Ok (Some n)
            | _ -> Error (Printf.sprintf "bad %s %S" name v))
      in
      Result.bind (part "shard" shard_str) (fun t_shard ->
          Result.map
            (fun t_replica -> { t_shard; t_replica })
            (part "replica" rep_str))
  | _ -> Error (Printf.sprintf "bad target %S (want s<N>r<M>)" s)

let parse_event item =
  match String.index_opt item '@' with
  | None -> Error (Printf.sprintf "bad chaos event %S (missing '@')" item)
  | Some i -> (
      let kind = String.sub item 0 i in
      let rest = String.sub item (i + 1) (String.length item - i - 1) in
      let fields = String.split_on_char ':' rest in
      match (kind, fields) with
      | "kill", [ tgt; at ] ->
          Result.bind (parse_target tgt) (fun target ->
              match int_of_string_opt at with
              | Some from_tick when from_tick >= 0 ->
                  Ok (Kill { target; from_tick })
              | _ -> Error (Printf.sprintf "bad kill tick %S" at))
      | "slow", [ tgt; at; ms ] ->
          Result.bind (parse_target tgt) (fun target ->
              match (int_of_string_opt at, float_of_string_opt ms) with
              | Some from_tick, Some ms when from_tick >= 0 && ms >= 0. ->
                  Ok (Slow { target; from_tick; ms })
              | _ -> Error (Printf.sprintf "bad slow params %S" rest))
      | "corrupt", [ tgt ] ->
          Result.map (fun target -> Corrupt { target }) (parse_target tgt)
      | "drop", [ tgt; at ] ->
          Result.bind (parse_target tgt) (fun target ->
              match int_of_string_opt at with
              | Some from_tick when from_tick >= 0 ->
                  Ok (Drop { target; from_tick })
              | _ -> Error (Printf.sprintf "bad drop tick %S" at))
      | "crash", [ step ] when step <> "" -> Ok (Crash { step })
      | _ ->
          Error
            (Printf.sprintf
               "bad chaos event %S (want kill@T:tick, slow@T:tick:ms, \
                corrupt@T, drop@T:tick, crash@step)"
               item))

let parse_item (spec : spec) item =
  let faults = spec.faults in
  let set faults = Ok { spec with faults } in
  match item with
  | "io" -> set { faults with io_failures = 1 }
  | "corrupt" -> set { faults with corrupt_reads = 1 }
  | "latency" -> set { faults with io_latency_ms = 2.0; query_latency_ms = 2.0 }
  | "query" -> set { faults with query_failures = 1 }
  | _ when not (String.contains item '@') ->
      Error
        (Printf.sprintf "unknown fault class %S (io|corrupt|latency|query)" item)
  | _ ->
      Result.map
        (fun ev -> { spec with events = ev :: spec.events })
        (parse_event item)

let of_spec s =
  let items =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if items = [] then Error "empty chaos spec"
  else
    List.fold_left
      (fun acc item -> Result.bind acc (fun spec -> parse_item spec item))
      (Ok ({ faults = no_faults; events = [] } : spec))
      items
    |> Result.map (fun (spec : spec) -> { spec with events = List.rev spec.events })

(* The environment's fault classes, parsed once at module init (before
   any domain is spawned).  A spec that does not parse stops the process:
   running without the faults it asked for would pass for a fault run. *)
let env_faults =
  match Sys.getenv_opt "XK_FAULTS" with
  | None | Some "" -> no_faults
  | Some s -> (
      match of_spec s with
      | Ok { faults; events = [] } -> faults
      | Ok _ ->
          prerr_endline "XK_FAULTS: fault classes only (io|corrupt|latency|query)";
          exit 1
      | Error msg ->
          prerr_endline ("XK_FAULTS: " ^ msg);
          exit 1)

let active_faults st = Option.value st.override ~default:env_faults

let reset_faults st override =
  st.override <- override;
  Hashtbl.reset st.maps;
  Hashtbl.reset st.marks;
  st.queries <- 0

let configure faults = with_state (fun st -> reset_faults st (Some faults))
let reset () = with_state (fun st -> reset_faults st None)

let install ?(sleep = default_sleep) events =
  with_state (fun st ->
      st.events <- events;
      st.tick <- 0;
      st.sleep <- sleep;
      st.kills <- 0;
      st.slowdowns <- 0;
      st.drops <- 0;
      st.crashes <- 0)

let clear () = install []

let active () = with_state (fun st -> st.events <> [])
let tick () = with_state (fun st -> st.tick)

type counters = { kills : int; slowdowns : int; drops : int; crashes : int }

let counters () =
  with_state (fun st ->
      {
        kills = st.kills;
        slowdowns = st.slowdowns;
        drops = st.drops;
        crashes = st.crashes;
      })

let corrupt_targets () =
  with_state (fun st ->
      List.filter_map
        (function
          | Corrupt { target } -> Some target
          | Kill _ | Slow _ | Drop _ | Crash _ -> None)
        st.events)

let corrupt_matches ~shard ~replica =
  List.exists (fun t -> matches t ~shard ~replica) (corrupt_targets ())

(* The schedule's verdict for one attempt; advances the tick. *)
let schedule_verdict st ~shard ~replica =
  st.tick <- st.tick + 1;
  let now = st.tick in
  let kill =
    List.exists
      (function
        | Kill { target; from_tick } ->
            now >= from_tick && matches target ~shard ~replica
        | Slow _ | Corrupt _ | Drop _ | Crash _ -> false)
      st.events
  in
  if kill then begin
    st.kills <- st.kills + 1;
    `Kill
  end
  else begin
    let delay =
      List.fold_left
        (fun acc -> function
          | Slow { target; from_tick; ms }
            when now >= from_tick && matches target ~shard ~replica ->
              acc +. ms
          | Kill _ | Slow _ | Corrupt _ | Drop _ | Crash _ -> acc)
        0.0 st.events
    in
    if delay > 0. then begin
      st.slowdowns <- st.slowdowns + 1;
      `Slow (st.sleep, delay)
    end
    else `Pass
  end

let on_attempt ~shard ~replica =
  (* Decide under the lock, act outside it.  A scheduled kill preempts
     the attempt before the query classes see it. *)
  let verdict, query_latency, query_fail =
    with_state (fun st ->
        let verdict =
          if st.events = [] then `Pass else schedule_verdict st ~shard ~replica
        in
        let f = active_faults st in
        let fail =
          match verdict with
          | `Kill -> false
          | `Pass | `Slow _ ->
              f.query_failures > 0
              && begin
                   st.queries <- st.queries + 1;
                   st.queries <= f.query_failures
                 end
        in
        (verdict, f.query_latency_ms, fail))
  in
  (match verdict with
  | `Kill -> raise (Killed { shard; replica })
  | `Slow (sleep, ms) -> sleep ms
  | `Pass -> ());
  default_sleep query_latency;
  if query_fail then raise (Killed { shard; replica })

(* Connection-level drill: checked by the remote transport before it
   dials a replica.  Reads the current tick without advancing it —
   [on_attempt] already ticked for this attempt, and a drop must hit
   the same attempt its kill-sibling would. *)
let on_connect ~shard ~replica =
  let dropped =
    with_state (fun st ->
        st.events <> []
        && List.exists
             (function
               | Drop { target; from_tick } ->
                   st.tick >= from_tick && matches target ~shard ~replica
               | Kill _ | Slow _ | Corrupt _ | Crash _ -> false)
             st.events
        && begin
             st.drops <- st.drops + 1;
             true
           end)
  in
  if dropped then raise (Killed { shard; replica })

let crash_armed step =
  with_state (fun st ->
      List.exists
        (function
          | Crash c -> c.step = step
          | Kill _ | Slow _ | Corrupt _ | Drop _ -> false)
        st.events)

(* Fires at most once per installed event: the decision consumes the
   event under the lock, the raise happens outside it. *)
let crash_point step =
  let fire =
    with_state (fun st ->
        let armed =
          List.exists
            (function
              | Crash c -> c.step = step
              | Kill _ | Slow _ | Corrupt _ | Drop _ -> false)
            st.events
        in
        if armed then begin
          st.events <-
            List.filter
              (function
                | Crash c -> c.step <> step
                | Kill _ | Slow _ | Corrupt _ | Drop _ -> true)
              st.events;
          st.crashes <- st.crashes + 1
        end;
        armed)
  in
  if fire then raise (Crashed step)

let crash_steps () =
  with_state (fun st ->
      List.filter_map
        (function
          | Crash c -> Some c.step
          | Kill _ | Slow _ | Corrupt _ | Drop _ -> None)
        st.events)

(* --- Storage faults ---------------------------------------------------- *)

let mark_corrupt ~path = with_state (fun st -> Hashtbl.replace st.marks path Damaged)

let mark_unmappable ~path =
  with_state (fun st -> Hashtbl.replace st.marks path Unmappable)

(* Only the marks go: the simulated media is new, but the transient
   classes a path has already spent stay spent. *)
let heal ~path = with_state (fun st -> Hashtbl.remove st.marks path)

type map_fault = Map_io of string | Map_refused | Map_torn | Map_damaged

(* An unmappable mark refuses the map before anything is read, so it
   spends no transient class.  Every other map advances the path's
   counter, marked or not — while a class counts: a fault-free process
   keeps no per-path state. *)
let on_map ~path =
  let latency, fault =
    with_state (fun st ->
        let f = active_faults st in
        let n = Option.value (Hashtbl.find_opt st.maps path) ~default:0 in
        let fault =
          match Hashtbl.find_opt st.marks path with
          | Some Unmappable -> Some Map_refused
          | mark ->
              if f.io_failures + f.corrupt_reads > 0 then
                Hashtbl.replace st.maps path (n + 1);
              if n < f.io_failures then
                Some
                  (Map_io
                     (Printf.sprintf "injected transient IO error (map %d) of %s"
                        (n + 1) path))
              else if mark = Some Damaged then Some Map_damaged
              else if n < f.io_failures + f.corrupt_reads then Some Map_torn
              else None
        in
        (f.io_latency_ms, fault))
  in
  default_sleep latency;
  fault
