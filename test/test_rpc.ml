(* The RPC layer: frame-codec fuzzing (the tentpole property: malformed
   input of any kind yields a typed Frame error, never a raise), wire
   payload round-trips, budget propagation plumbing, and end-to-end
   remote serving drills over real TCP — parity with the in-process
   run, failover past a stopped server, and typed degradation when
   every replica of a shard is gone. *)

open Xk_rpc

let check = Alcotest.check
let tc = Alcotest.test_case

(* --- Frame codec fuzz ------------------------------------------------- *)

let arb_kind =
  QCheck.oneofl [ Frame.Ping; Frame.Pong; Frame.Query; Frame.Reply ]

let arb_payload = QCheck.(string_of_size (Gen.int_bound 300))

(* Any decode call on any input must return; a raise fails the property. *)
let decode_totally ?limit s =
  match Frame.decode ?limit s with
  | Ok _ as r -> r
  | Error _ as r -> r
  | exception e ->
      QCheck.Test.fail_reportf "decode raised %s" (Printexc.to_string e)

let frame_roundtrip =
  QCheck.Test.make ~count:500 ~name:"frame: encode/decode round-trip"
    QCheck.(pair arb_kind arb_payload)
    (fun (kind, payload) ->
      match decode_totally (Frame.encode kind payload) with
      | Ok (k, p) -> k = kind && p = payload
      | Error e ->
          QCheck.Test.fail_reportf "valid frame rejected: %s"
            (Frame.error_message e))

let frame_truncation =
  QCheck.Test.make ~count:200
    ~name:"frame: every strict prefix is a typed error"
    QCheck.(pair arb_kind arb_payload)
    (fun (kind, payload) ->
      let frame = Frame.encode kind payload in
      List.for_all
        (fun n ->
          match decode_totally (String.sub frame 0 n) with
          | Ok _ ->
              QCheck.Test.fail_reportf "truncated frame (%d of %d bytes) \
                                        decoded" n (String.length frame)
          | Error (Frame.Truncated _) -> true
          | Error e ->
              (* A prefix that cuts into the CRC field can also read as a
                 checksum or length anomaly — typed either way. *)
              ignore (Frame.error_message e);
              true)
        (List.init (String.length frame) Fun.id))

let frame_bit_flips =
  QCheck.Test.make ~count:300
    ~name:"frame: any single-bit flip is a typed error"
    QCheck.(triple arb_kind arb_payload (pair small_nat (int_bound 7)))
    (fun (kind, payload, (pos, bit)) ->
      let frame = Frame.encode kind payload in
      let pos = pos mod String.length frame in
      let b = Bytes.of_string frame in
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
      match decode_totally (Bytes.to_string b) with
      | Ok _ ->
          QCheck.Test.fail_reportf
            "bit %d of byte %d flipped and the frame still decoded" bit pos
      | Error _ -> true)

let frame_garbage =
  QCheck.Test.make ~count:500 ~name:"frame: random bytes never raise"
    QCheck.(string_of_size (Gen.int_bound 64))
    (fun s -> Result.is_error (decode_totally s))

let frame_limits () =
  (* An oversized declared length is refused before payload allocation. *)
  let huge = Bytes.of_string (Frame.encode Frame.Query "xyz") in
  Bytes.set_int32_be huge 4 0x7FFFFFFFl;
  (match Frame.decode (Bytes.to_string huge) with
  | Error (Frame.Oversized { length; _ }) ->
      check Alcotest.int "claimed length surfaces" 0x7FFFFFFF length
  | _ -> Alcotest.fail "oversized length accepted");
  (* A per-call limit tightens the default. *)
  let f = Frame.encode Frame.Reply (String.make 100 'a') in
  (match Frame.decode ~limit:10 f with
  | Error (Frame.Oversized { limit = 10; _ }) -> ()
  | _ -> Alcotest.fail "per-call limit ignored");
  (* Wrong protocol version: typed, and checked before the checksum. *)
  let v = Bytes.of_string (Frame.encode Frame.Ping "") in
  Bytes.set_uint8 v 2 (Frame.version + 1);
  (match Frame.decode (Bytes.to_string v) with
  | Error (Frame.Bad_version _) -> ()
  | _ -> Alcotest.fail "future version accepted");
  (* Unknown kind byte. *)
  let k = Bytes.of_string (Frame.encode Frame.Ping "") in
  Bytes.set_uint8 k 3 9;
  (match Frame.decode (Bytes.to_string k) with
  | Error (Frame.Bad_kind 9) -> ()
  | _ -> Alcotest.fail "unknown kind accepted");
  (* Trailing bytes after a complete frame. *)
  match Frame.decode (Frame.encode Frame.Pong "x" ^ "!!") with
  | Error (Frame.Trailing 2) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* --- Wire payload codecs ---------------------------------------------- *)

let arb_hit =
  QCheck.map
    (fun (node, score) -> { Xk_baselines.Hit.node = node + 1; score })
    QCheck.(pair small_nat (float_bound_inclusive 10.))

let arb_outcome =
  QCheck.oneof
    [
      QCheck.map
        (fun hs -> Xk_core.Engine.Done hs)
        (QCheck.small_list arb_hit);
      QCheck.map
        (fun hs -> Xk_core.Engine.Partial hs)
        (QCheck.small_list arb_hit);
      QCheck.always Xk_core.Engine.Timed_out;
    ]

let arb_mode =
  QCheck.oneof
    [
      QCheck.map
        (fun a -> Xk_core.Engine.Complete a)
        (QCheck.oneofl
           Xk_core.Engine.[ Join_based; Stack_based; Index_based; Oracle ]);
      QCheck.map
        (fun (a, k) -> Xk_core.Engine.Topk (a, k + 1))
        QCheck.(
          pair
            (oneofl
               Xk_core.Engine.
                 [ Topk_join; Complete_then_sort; Rdil_baseline; Hybrid ])
            small_nat);
    ]

(* Non-negative ints over the whole range, so the codec sees every
   varint length up to the 9-byte maximum. *)
let arb_nat =
  QCheck.(oneof [ small_nat; map (fun n -> n land max_int) int; always max_int ])

let arb_query =
  QCheck.map
    (fun ((shard, words), (mode, (dl, ticks))) ->
      {
        Wire.q_shard = shard;
        q_words = words;
        q_semantics = (if shard mod 2 = 0 then Xk_core.Engine.Elca else Slca);
        q_mode = mode;
        q_deadline_ms = Option.map Float.abs dl;
        q_ticks = Option.map abs ticks;
      })
    QCheck.(
      pair
        (pair arb_nat (small_list (string_of_size (Gen.int_bound 12))))
        (pair arb_mode (pair (option float) (option arb_nat))))

(* Bounds are routinely +/- infinity (Done / missing shards), so the
   generator must cover them and the codec must keep them exact. *)
let arb_reply =
  QCheck.oneof
    [
      QCheck.map
        (fun (outcome, (bound, summary)) ->
          Wire.Served
            {
              s_summary =
                Option.map
                  (fun (all, free) ->
                    {
                      Xk_index.Sharding.rs_best_all = Array.of_list all;
                      rs_best_free = Array.of_list free;
                      rs_full_subtree = bound > 0.;
                    })
                  summary;
              s_outcome = outcome;
              s_bound = bound;
            })
        QCheck.(
          pair arb_outcome
            (pair
               (oneof
                  [
                    float_bound_inclusive 5.;
                    always infinity;
                    always neg_infinity;
                  ])
               (option
                  (pair (small_list (float_bound_inclusive 3.))
                     (small_list (float_bound_inclusive 3.))))));
      QCheck.map
        (fun m -> Wire.Refused m)
        QCheck.(string_of_size (Gen.int_bound 40));
    ]

let wire_query_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: query round-trip" arb_query
    (fun q ->
      match Wire.decode_query (Wire.encode_query q) with
      | Ok q' -> q = q'
      | Error e ->
          QCheck.Test.fail_reportf "query rejected: %s" (Frame.error_message e))

let wire_reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"wire: reply round-trip" arb_reply
    (fun r ->
      match Wire.decode_reply (Wire.encode_reply r) with
      | Ok r' -> r = r'
      | Error e ->
          QCheck.Test.fail_reportf "reply rejected: %s" (Frame.error_message e))

let wire_mutations_typed =
  QCheck.Test.make ~count:300
    ~name:"wire: truncated/mutated payloads are Malformed, never a raise"
    QCheck.(triple arb_reply small_nat (int_bound 7))
    (fun (r, pos, bit) ->
      let payload = Wire.encode_reply r in
      let n = String.length payload in
      let decode s =
        match Wire.decode_reply s with
        | Ok _ -> true
        | Error (Frame.Malformed _) -> true
        | Error e ->
            QCheck.Test.fail_reportf "unexpected error class: %s"
              (Frame.error_message e)
        | exception e ->
            QCheck.Test.fail_reportf "decode_reply raised %s"
              (Printexc.to_string e)
      in
      (* Every strict prefix must be typed (not necessarily an error for
         the empty tail of a list, but never a raise)... *)
      List.for_all (fun i -> decode (String.sub payload 0 i)) (List.init n Fun.id)
      (* ...and so must any single-bit mutation. *)
      && (n = 0 || decode
            (let b = Bytes.of_string payload in
             let pos = pos mod n in
             Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
             Bytes.to_string b)))

(* A bit-flipped reply (from the mutation property above) whose first
   float array count turned into a huge varint: decoding once allocated
   from that count and escaped with [Out_of_memory]. *)
let wire_huge_count () =
  let payload =
    "\000\001\011?\237\132\"Q\246\2001@\003\212\251Nn\240*@\002\239\255e\228\141\162\007@\007\132\246\203\141R?@\005\178\249q<q\184?\240\130\025-\031\208v@\005%\177J\203\006z?\236y\199\225*\220\221?\240\203\161*\192\2520?\235\236j\178\143\130\236\001\001\004\012@\0299\156\145\155\182.\007@ 9\234\189'\175\234\002@#g\229\"\217S\197\002@\023\165p\224\\\n\179\127\240\000\000\000\000\000\000"
  in
  match Wire.decode_reply payload with
  | Error (Frame.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "mutated reply decoded"
  | Error e -> Alcotest.failf "unexpected error class: %s" (Frame.error_message e)

(* --- Budget propagation ----------------------------------------------- *)

let budget_remaining () =
  let b = Xk_resilience.Budget.unlimited in
  check Alcotest.bool "unlimited: no deadline" true
    (Xk_resilience.Budget.remaining_ms b = None);
  check Alcotest.bool "unlimited: no ticks" true
    (Xk_resilience.Budget.ticks_left b = None);
  let b = Xk_resilience.Budget.create ~deadline_ms:60_000. ~ticks:10 () in
  (match Xk_resilience.Budget.remaining_ms b with
  | Some ms when ms > 0. && ms <= 60_000. -> ()
  | Some ms -> Alcotest.failf "remaining %f out of range" ms
  | None -> Alcotest.fail "deadline lost");
  check (Alcotest.option Alcotest.int) "full tick allowance" (Some 10)
    (Xk_resilience.Budget.ticks_left b);
  for _ = 1 to 4 do
    ignore (Xk_resilience.Budget.alive b)
  done;
  check (Alcotest.option Alcotest.int) "ticks consumed" (Some 6)
    (Xk_resilience.Budget.ticks_left b);
  let spent = Xk_resilience.Budget.create ~deadline_ms:0. ~ticks:1 () in
  ignore (Xk_resilience.Budget.alive spent);
  ignore (Xk_resilience.Budget.alive spent);
  check (Alcotest.option Alcotest.int) "ticks clamp at 0" (Some 0)
    (Xk_resilience.Budget.ticks_left spent);
  match Xk_resilience.Budget.remaining_ms spent with
  | Some 0. -> ()
  | other ->
      Alcotest.failf "expired budget reports %s"
        (match other with
        | None -> "no deadline"
        | Some ms -> Printf.sprintf "%f ms" ms)

(* --- End-to-end remote serving ---------------------------------------- *)

let hits_identical (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list)
    =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

type fleet = {
  listeners : Server.t array array;
  domains : unit Domain.t list;
  endpoints : (string * int) array array;
}

(* One server per (shard, replica) on an ephemeral localhost port, each
   run in its own domain — real TCP, in-process only for test hosting. *)
let launch_fleet sharded ~replicas =
  let shards = Xk_index.Sharding.count sharded in
  let listeners =
    Array.init shards (fun shard ->
        Array.init replicas (fun replica ->
            let srv =
              Xk_exec.Shard_server.create ~sharding:sharded ~shard ~replica
            in
            match Xk_exec.Shard_server.serve ~port:0 srv with
            | Error msg -> Alcotest.failf "fleet bring-up: %s" msg
            | Ok l -> (srv, l)))
  in
  let domains =
    Array.to_list listeners
    |> List.concat_map Array.to_list
    |> List.map (fun (srv, l) ->
           Domain.spawn (fun () ->
               Server.run l ~handler:(Xk_exec.Shard_server.dispatch srv)))
  in
  let listeners = Array.map (Array.map snd) listeners in
  {
    listeners;
    domains;
    endpoints = Array.map (Array.map (fun l -> (Server.host l, Server.port l))) listeners;
  }

let stop_fleet f =
  Array.iter (Array.iter Server.stop) f.listeners;
  List.iter Domain.join f.domains

let remote_workload seed =
  let rng = Xk_datagen.Rng.create seed in
  List.concat
    (List.init 4 (fun _ ->
         let words = Tutil.random_query rng ~k:2 ~alphabet:26 in
         Xk_core.Engine.
           [
             complete_request ~semantics:Elca words;
             topk_request ~semantics:Elca ~k:4 words;
             topk_request ~semantics:Slca ~k:3 words;
           ]))

let with_exec sx f =
  Fun.protect ~finally:(fun () -> Xk_exec.Shard_exec.shutdown sx) (fun () -> f sx)

(* Remote serving is bit-identical to the in-process run; a ping
   answers on every replica. *)
let remote_parity () =
  let doc = Tutil.random_doc 2041 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  let reqs = remote_workload 17 in
  let reference =
    with_exec (Xk_exec.Shard_exec.create ~domains:2 sharded) (fun sx ->
        List.map (Xk_exec.Shard_exec.exec sx) reqs)
  in
  let fleet = launch_fleet sharded ~replicas:2 in
  Fun.protect
    ~finally:(fun () -> stop_fleet fleet)
    (fun () ->
      Array.iter
        (Array.iter (fun (host, port) -> Client.ping ~host ~port ()))
        fleet.endpoints;
      with_exec
        (Xk_exec.Shard_exec.create ~domains:2 ~endpoints:fleet.endpoints
           sharded)
        (fun sx ->
          check Alcotest.bool "remote transport reported" true
            (Xk_exec.Shard_exec.remote sx);
          check Alcotest.int "replica count from the endpoint grid" 2
            (Xk_exec.Shard_exec.replica_count sx);
          List.iter2
            (fun r o ->
              match (r, o) with
              | Xk_exec.Query_service.Ok a, Xk_exec.Query_service.Ok b
                when hits_identical a b ->
                  ()
              | _, o ->
                  Alcotest.failf "remote outcome %s diverged from in-process"
                    (Xk_exec.Query_service.outcome_label o))
            reference
            (List.map (Xk_exec.Shard_exec.exec sx) reqs)))

(* Stopping one server of every shard is invisible (failover), stopping
   every replica of one shard degrades with exactly the reachable
   answer — the +inf bound rule over a real network hop. *)
let remote_kill_drills () =
  let doc = Tutil.random_doc 2042 in
  let sharded = Xk_index.Sharding.partition ~shards:3 doc in
  let assignment = Xk_index.Sharding.assignment sharded in
  let victim = assignment.(0) in
  let queries =
    let rng = Xk_datagen.Rng.create 23 in
    List.init 5 (fun _ -> Tutil.random_query rng ~k:2 ~alphabet:26)
  in
  let complete w = Xk_core.Engine.complete_request ~semantics:Elca w in
  let topk w = Xk_core.Engine.topk_request ~semantics:Elca ~k:4 w in
  let reqs = List.concat_map (fun w -> [ complete w; topk w ]) queries in
  let fleet = launch_fleet sharded ~replicas:2 in
  Fun.protect
    ~finally:(fun () -> stop_fleet fleet)
    (fun () ->
      let run_remote () =
        with_exec
          (Xk_exec.Shard_exec.create ~domains:2 ~endpoints:fleet.endpoints
             sharded)
          (fun sx ->
            let outcomes = List.map (Xk_exec.Shard_exec.exec sx) reqs in
            (outcomes, Xk_exec.Shard_exec.stats sx))
      in
      let reference, _ = run_remote () in
      List.iter
        (fun o ->
          match o with
          | Xk_exec.Query_service.Ok _ -> ()
          | o ->
              Alcotest.failf "fault-free remote run came back %s"
                (Xk_exec.Query_service.outcome_label o))
        reference;
      (* Reachable reference for the degraded drill, from the fault-free
         complete answers. *)
      let sx_ref = Xk_exec.Shard_exec.create ~domains:2 sharded in
      let reachable =
        with_exec sx_ref (fun sx ->
            List.map
              (fun w ->
                match Xk_exec.Shard_exec.exec sx (complete w) with
                | Xk_exec.Query_service.Ok hits ->
                    List.filter
                      (fun (h : Xk_baselines.Hit.t) ->
                        h.node <> 0
                        && fst (Xk_exec.Shard_exec.locate sx h) <> victim)
                      hits
                | o ->
                    Alcotest.failf "reachable reference came back %s"
                      (Xk_exec.Query_service.outcome_label o))
              queries)
      in
      (* Drill 1: stop replica 0 of the victim shard. *)
      Server.stop fleet.listeners.(victim).(0);
      let outcomes, stats = run_remote () in
      List.iter2
        (fun r o ->
          match (r, o) with
          | Xk_exec.Query_service.Ok a, Xk_exec.Query_service.Ok b
            when hits_identical a b ->
              ()
          | _, o ->
              Alcotest.failf
                "one server down: outcome %s diverged from fault-free"
                (Xk_exec.Query_service.outcome_label o))
        reference outcomes;
      if stats.Xk_exec.Shard_exec.failovers = 0 then
        Alcotest.fail "stopped server never exercised failover";
      check Alcotest.int "nothing degraded with a live replica" 0
        stats.Xk_exec.Shard_exec.degraded;
      (* Drill 2: stop the victim's last replica; every query must come
         back Degraded with exactly the reachable answer. *)
      Server.stop fleet.listeners.(victim).(1);
      let outcomes, stats = run_remote () in
      let scores = List.map (fun (h : Xk_baselines.Hit.t) -> h.score) in
      let member_of set (h : Xk_baselines.Hit.t) =
        List.exists
          (fun (f : Xk_baselines.Hit.t) -> f.node = h.node && f.score = h.score)
          set
      in
      List.iteri
        (fun i o ->
          let expected = List.nth reachable (i / 2) in
          match o with
          | Xk_exec.Query_service.Degraded { hits; missing_shards; _ } ->
              check
                (Alcotest.list Alcotest.int)
                "missing shard list" [ victim ] missing_shards;
              if i mod 2 = 0 then begin
                if
                  not
                    (hits_identical (Xk_baselines.Hit.sort_desc expected) hits)
                then
                  Alcotest.fail "degraded complete differs from reachable hits"
              end
              else begin
                let want = Xk_baselines.Hit.top_k 4 expected in
                if scores want <> scores hits then
                  Alcotest.fail "degraded top-K scores differ from reachable";
                if not (List.for_all (member_of expected) hits) then
                  Alcotest.fail "degraded top-K reported an unreachable hit"
              end
          | o ->
              Alcotest.failf "shard fully down: outcome %s, wanted Degraded"
                (Xk_exec.Query_service.outcome_label o))
        outcomes;
      check Alcotest.int "never Failed" 0 stats.Xk_exec.Shard_exec.failed)

(* An armed Drop schedule refuses the connection client-side: failover
   covers it, and the drops counter records the refusals. *)
let drop_schedule () =
  let doc = Tutil.random_doc 2043 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  let fleet = launch_fleet sharded ~replicas:2 in
  Fun.protect
    ~finally:(fun () ->
      Xk_resilience.Chaos.clear ();
      stop_fleet fleet)
    (fun () ->
      Xk_resilience.Chaos.install
        [
          Xk_resilience.Chaos.Drop
            {
              target = { t_shard = None; t_replica = Some 0 };
              from_tick = 0;
            };
        ];
      with_exec
        (Xk_exec.Shard_exec.create ~domains:2 ~endpoints:fleet.endpoints
           sharded)
        (fun sx ->
          let words = Tutil.random_query (Xk_datagen.Rng.create 5) ~k:2 ~alphabet:26 in
          (match
             Xk_exec.Shard_exec.exec sx
               (Xk_core.Engine.complete_request ~semantics:Elca words)
           with
          | Xk_exec.Query_service.Ok _ -> ()
          | o ->
              Alcotest.failf "dropped connections were not failed over: %s"
                (Xk_exec.Query_service.outcome_label o));
          let stats = Xk_exec.Shard_exec.stats sx in
          if stats.Xk_exec.Shard_exec.failovers = 0 then
            Alcotest.fail "drops never exercised failover";
          if (Xk_resilience.Chaos.counters ()).Xk_resilience.Chaos.drops = 0
          then Alcotest.fail "drop counter never moved"))

(* Deterministic tick budgets propagate: a remote shard served under an
   exhausted tick allowance degrades to a Partial prefix, same as the
   in-process anytime engine. *)
let remote_budget_degrades () =
  let doc = Tutil.random_doc 2044 in
  let sharded = Xk_index.Sharding.partition ~shards:2 doc in
  (* A keyword with at least one posting in shard 0, so the server-side
     budget provably gets polled (root_summary checks per posting). *)
  let word =
    let idx0 = Xk_index.Sharding.index sharded 0 in
    let rec find k =
      if k >= 26 then Alcotest.fail "no keyword present in shard 0"
      else
        let w = Xk_datagen.Random_tree.keyword k in
        if Xk_index.Index.term_id idx0 w <> None then w else find (k + 1)
    in
    find 0
  in
  let req = Xk_core.Engine.topk_request ~semantics:Elca ~k:3 [ word ] in
  let fleet = launch_fleet sharded ~replicas:1 in
  Fun.protect
    ~finally:(fun () -> stop_fleet fleet)
    (fun () ->
      with_exec
        (Xk_exec.Shard_exec.create ~domains:2 ~endpoints:fleet.endpoints
           sharded)
        (fun sx ->
          (* Unbudgeted, the same request serves fine over the wire... *)
          (match Xk_exec.Shard_exec.exec sx req with
          | Xk_exec.Query_service.Ok (_ :: _) -> ()
          | o ->
              Alcotest.failf "unbudgeted remote run came back %s"
                (Xk_exec.Query_service.outcome_label o));
          (* ...while a zero tick allowance, carried in the request
             frame and rebuilt server-side, degrades it. *)
          match
            Xk_exec.Shard_exec.exec sx
              ~budget_for:(fun _ -> Xk_resilience.Budget.create ~ticks:0 ())
              req
          with
          | Xk_exec.Query_service.Partial _ | Xk_exec.Query_service.Timeout ->
              ()
          | o ->
              Alcotest.failf
                "starved remote budget still returned %s (expected \
                 Partial/Timeout)"
                (Xk_exec.Query_service.outcome_label o)))

(* --- Accept-loop resilience ------------------------------------------- *)

let open_fd_count () =
  if Sys.file_exists "/proc/self/fd" then
    Some (Array.length (Sys.readdir "/proc/self/fd"))
  else None

(* A storm of half-open clients — connect and vanish, die mid-frame,
   abort with an RST, or spray garbage — must neither kill the accept
   loop nor leak connection fds: the server still answers a
   well-formed ping afterwards, with no descriptor growth. *)
let half_open_hammer () =
  let srv =
    match Server.create ~port:0 () with
    | Ok s -> s
    | Error msg -> Alcotest.failf "listen: %s" msg
  in
  let handler kind payload =
    match kind with
    | Frame.Ping -> Some (Frame.Pong, "")
    | k -> Some (k, payload)
  in
  let d = Domain.spawn (fun () -> Server.run srv ~handler) in
  let host = Server.host srv and port = Server.port srv in
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let baseline = open_fd_count () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () ->
      for i = 0 to 79 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        (match i mod 4 with
        | 0 -> () (* silent close: clean EOF before any frame *)
        | 1 ->
            (* die mid-frame: a dangling partial header *)
            ignore (Unix.write_substring fd "XK" 0 2)
        | 2 ->
            (* abort with an RST instead of a FIN *)
            ignore (Unix.write_substring fd "xxx" 0 3);
            Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
        | _ ->
            (* a full buffer of garbage that fails frame decode *)
            let junk = String.make 64 '\xff' in
            ignore (Unix.write_substring fd junk 0 (String.length junk)));
        Unix.close fd
      done;
      (* The iterative loop drains connections in order, so a served
         ping proves every hammer connection was accepted, failed
         cleanly and was closed. *)
      (try Client.ping ~host ~port ()
       with Client.Rpc_failed e ->
         Alcotest.failf "server did not survive the hammer: %s"
           (Client.error_message e));
      (* The server closes the ping's connection after replying, possibly
         after [ping] has returned: give the count a deadline to settle,
         so only a descriptor that stays open fails. *)
      match baseline with
      | None -> ()
      | Some before ->
          let deadline = Unix.gettimeofday () +. 5.0 in
          let rec settle () =
            match open_fd_count () with
            | Some after when after > before ->
                if Unix.gettimeofday () > deadline then
                  Alcotest.failf "descriptor leak: %d open fds before, %d after"
                    before after
                else begin
                  Unix.sleepf 0.01;
                  settle ()
                end
            | _ -> ()
          in
          settle ())

(* Two clients against [run ~workers:2]: the first parks its handler —
   and with it a whole pool worker — until the second client has been
   answered.  Only a concurrent server can satisfy both; the iterative
   loop would serve them in accept order and deadlock the first. *)
let worker_pool_two_clients () =
  let srv =
    match Server.create ~port:0 () with
    | Ok s -> s
    | Error msg -> Alcotest.failf "listen: %s" msg
  in
  let lock = Mutex.create () in
  let released = ref false in
  let handler kind payload =
    match (kind : Frame.kind) with
    | Frame.Ping when payload = "fast" ->
        Mutex.lock lock;
        released := true;
        Mutex.unlock lock;
        Some (Frame.Pong, "fast")
    | Frame.Ping ->
        (* Poll rather than Condition.wait so a starved run times out
           into a distinguishable reply instead of hanging the suite. *)
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec wait () =
          Mutex.lock lock;
          let r = !released in
          Mutex.unlock lock;
          if r then Some (Frame.Pong, "slow")
          else if Unix.gettimeofday () > deadline then
            Some (Frame.Pong, "starved")
          else begin
            Unix.sleepf 0.005;
            wait ()
          end
        in
        wait ()
    | k -> Some (k, payload)
  in
  let d = Domain.spawn (fun () -> Server.run ~workers:2 srv ~handler) in
  let addr =
    Unix.ADDR_INET (Unix.inet_addr_of_string (Server.host srv), Server.port srv)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Domain.join d)
    (fun () ->
      let connect () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd addr;
        fd
      in
      let write fd payload =
        match Frame.write_fd fd Frame.Ping payload with
        | Ok () -> ()
        | Error e -> Alcotest.failf "write %s: %s" payload (Frame.error_message e)
      in
      let slow = connect () in
      write slow "slow";
      (* Give the pool a beat to park the slow connection on a worker. *)
      Unix.sleepf 0.05;
      let fast = connect () in
      write fast "fast";
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close slow with Unix.Unix_error _ -> ());
          try Unix.close fast with Unix.Unix_error _ -> ())
        (fun () ->
          (match Frame.read_fd fast with
          | Ok (Frame.Pong, "fast") -> ()
          | Ok (k, p) ->
              Alcotest.failf "fast client: unexpected reply (%s, %S)"
                (match k with
                | Frame.Ping -> "ping"
                | Frame.Pong -> "pong"
                | Frame.Query -> "query"
                | Frame.Reply -> "reply")
                p
          | Error e ->
              Alcotest.failf "fast client: %s" (Frame.error_message e));
          match Frame.read_fd slow with
          | Ok (Frame.Pong, "slow") -> ()
          | Ok (Frame.Pong, "starved") ->
              Alcotest.fail
                "slow client starved: second connection was never served \
                 concurrently"
          | Ok _ -> Alcotest.fail "slow client: unexpected reply"
          | Error e ->
              Alcotest.failf "slow client: %s" (Frame.error_message e)))

let suite =
  [
    ( "rpc.frame",
      [
        QCheck_alcotest.to_alcotest frame_roundtrip;
        QCheck_alcotest.to_alcotest frame_truncation;
        QCheck_alcotest.to_alcotest frame_bit_flips;
        QCheck_alcotest.to_alcotest frame_garbage;
        tc "limits, versions, kinds, trailing" `Quick frame_limits;
      ] );
    ( "rpc.wire",
      [
        QCheck_alcotest.to_alcotest wire_query_roundtrip;
        QCheck_alcotest.to_alcotest wire_reply_roundtrip;
        QCheck_alcotest.to_alcotest wire_mutations_typed;
        tc "huge count in a mutated reply is Malformed" `Quick wire_huge_count;
      ] );
    ("rpc.budget", [ tc "remaining_ms / ticks_left" `Quick budget_remaining ]);
    ( "rpc.server",
      [
        tc "half-open connect hammer" `Quick half_open_hammer;
        tc "worker pool serves two clients" `Quick worker_pool_two_clients;
      ] );
    ( "rpc.remote",
      [
        tc "parity with in-process serving" `Quick remote_parity;
        tc "kill drills: failover, then degraded" `Quick remote_kill_drills;
        tc "drop schedule refuses connections" `Quick drop_schedule;
        tc "tick budget propagates over the wire" `Quick remote_budget_degrades;
      ] );
  ]
