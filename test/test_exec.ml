(* The serving layer: domain pool primitives, and one-shard Shard_exec
   batches against the sequential engine (same hits, same order, across
   semantics and modes), including a plain saved segment loaded as the
   only shard, plus a multi-client hammer against one shared index. *)

open Xk_exec
module Domain_pool = Xk_util.Domain_pool

let check = Alcotest.check
let tc = Alcotest.test_case

(* --- Domain_pool primitives --------------------------------------- *)

let pool_map_array () =
  let pool = Domain_pool.create ~domains:3 () in
  let xs = Array.init 100 (fun i -> i) in
  let ys = Domain_pool.map_array pool (fun x -> x * x) xs in
  Domain_pool.shutdown pool;
  check Alcotest.(array int) "squares" (Array.map (fun x -> x * x) xs) ys

exception Boom of int

let pool_exception_propagates () =
  let pool = Domain_pool.create ~domains:2 () in
  let fut = Domain_pool.async pool (fun () -> raise (Boom 7)) in
  (match Domain_pool.await fut with
  | Error (Boom 7, _) -> ()
  | Error (e, _) -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "no exception");
  (* await_exn re-raises with the original backtrace. *)
  (match Domain_pool.await_exn (Domain_pool.async pool (fun () -> raise (Boom 3))) with
  | exception Boom 3 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "await_exn did not raise");
  (* The worker survived the raising jobs. *)
  check Alcotest.int "pool still alive" 5
    (Domain_pool.await_exn (Domain_pool.async pool (fun () -> 5)));
  Domain_pool.shutdown pool

let pool_shutdown_drains () =
  let pool = Domain_pool.create ~domains:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 50 do
    Domain_pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Domain_pool.shutdown pool;
  check Alcotest.int "all jobs ran" 50 (Atomic.get counter);
  Domain_pool.shutdown pool (* idempotent *);
  match Domain_pool.submit pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "submit after shutdown accepted"

(* --- Batch equivalence -------------------------------------------- *)

let hits_equal (a : Xk_baselines.Hit.t list) (b : Xk_baselines.Hit.t list) =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Xk_baselines.Hit.t) (y : Xk_baselines.Hit.t) ->
         x.node = y.node && x.score = y.score)
       a b

let check_batches msg expected actual =
  check Alcotest.int (msg ^ ": batch size") (List.length expected)
    (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if not (hits_equal e a) then
        Alcotest.failf "%s: request %d differs (same hits, same order required)"
          msg i)
    (List.combine expected actual)

(* A heterogeneous batch: both semantics, complete and top-K, several
   algorithms, over random 2- and 3-keyword queries. *)
let mixed_requests rng ~queries ~alphabet =
  List.concat_map
    (fun i ->
      let q = Tutil.random_query rng ~k:(2 + (i mod 2)) ~alphabet in
      Xk_core.Engine.
        [
          complete_request ~semantics:Elca q;
          complete_request ~semantics:Slca q;
          complete_request ~semantics:Elca ~algorithm:Stack_based q;
          topk_request ~semantics:Elca ~k:5 q;
          topk_request ~semantics:Slca ~k:5 q;
          topk_request ~semantics:Elca ~algorithm:Complete_then_sort ~k:3 q;
        ])
    (List.init queries (fun i -> i))

(* Serve [reqs] through a one-shard executor and demand the sequential
   answer of [expected], outcome by outcome. *)
let check_one_shard msg ~expected sharding reqs =
  let sx = Shard_exec.create ~domains:4 sharding in
  let outcomes = Shard_exec.exec_batch sx reqs in
  let st = Shard_exec.stats sx in
  Shard_exec.shutdown sx;
  List.iter
    (fun o ->
      match o with
      | Query_service.Ok _ -> ()
      | o ->
          Alcotest.failf "%s: unexpected outcome %s" msg
            (Query_service.outcome_label o))
    outcomes;
  check_batches msg expected (List.map Query_service.hits outcomes);
  check Alcotest.int (msg ^ ": one batch counted") 1 st.batches;
  check Alcotest.int (msg ^ ": queries counted") (List.length reqs) st.queries;
  check Alcotest.int (msg ^ ": all completed") (List.length reqs) st.completed;
  check Alcotest.int (msg ^ ": four domains") 4 st.domains

let batch_equivalence () =
  let doc = Tutil.random_doc 1234 in
  let eng = Xk_core.Engine.create doc in
  let rng = Xk_datagen.Rng.create 7 in
  let reqs = mixed_requests rng ~queries:10 ~alphabet:40 in
  let expected = Xk_core.Engine.query_batch eng reqs in
  check_one_shard "partitioned in memory" ~expected
    (Xk_index.Sharding.partition ~shards:1 doc)
    reqs;
  (* A saved one-shard manifest, loaded back. *)
  let path = Filename.temp_file "xk_exec" ".idx" in
  let seg = Xk_index.Shard_io.segment_path path ~shard:0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; seg ])
    (fun () ->
      Xk_index.Shard_io.save (Xk_index.Sharding.partition ~shards:1 doc) path;
      match Xk_index.Shard_io.load_result doc path with
      | Error e ->
          Alcotest.failf "load_result: %s" (Xk_index.Shard_io.error_message e)
      | Ok sharding ->
          check_one_shard "one-shard manifest" ~expected sharding reqs);
  (* Corpora whose K-th and (K+1)-th hits tie on score: the engine's own
     choice among the tied hits must come through unchanged. *)
  List.iter
    (fun (seed, k, q) ->
      let doc = Tutil.random_doc seed in
      let reqs =
        Xk_core.Engine.
          [
            topk_request ~semantics:Elca ~k q;
            topk_request ~semantics:Slca ~k q;
          ]
      in
      check_one_shard
        (Printf.sprintf "ties in corpus %d" seed)
        ~expected:(Xk_core.Engine.query_batch (Xk_core.Engine.create doc) reqs)
        (Xk_index.Sharding.partition ~shards:1 doc)
        reqs)
    [ (159, 3, [ "kw1"; "kw2" ]); (248, 1, [ "kw1"; "kw3" ]) ]

let batch_empty_and_unknown () =
  let doc = Tutil.random_doc 55 in
  let reqs =
    Xk_core.Engine.
      [
        complete_request [ "zzz-not-a-keyword" ];
        topk_request ~k:4 [ "also"; "absent" ];
      ]
  in
  let sx =
    Shard_exec.create ~domains:2 (Xk_index.Sharding.partition ~shards:1 doc)
  in
  let out = Shard_exec.exec_batch sx reqs in
  let empty = Shard_exec.exec_batch sx [] in
  Shard_exec.shutdown sx;
  check Alcotest.int "empty batch" 0 (List.length empty);
  List.iter
    (fun o ->
      match o with
      | Query_service.Ok hits ->
          check Alcotest.int "no hits" 0 (List.length hits)
      | o ->
          Alcotest.failf "unexpected outcome %s"
            (Query_service.outcome_label o))
    out

(* --- Caller-run executor ------------------------------------------ *)

(* One worker and no hedging: no domain is spawned and shard jobs run on
   the calling domain.  Answers must match a pooled executor's over the
   same shards, also for client domains calling concurrently. *)
let caller_run () =
  let doc = Tutil.random_doc 1234 in
  let rng = Xk_datagen.Rng.create 11 in
  let reqs = mixed_requests rng ~queries:6 ~alphabet:40 in
  let serve sx = List.map Query_service.hits (Shard_exec.exec_batch sx reqs) in
  List.iter
    (fun shards ->
      let sharding = Xk_index.Sharding.partition ~shards doc in
      let with_exec domains f =
        let sx = Shard_exec.create ~domains sharding in
        Fun.protect ~finally:(fun () -> Shard_exec.shutdown sx) (fun () -> f sx)
      in
      let pooled = with_exec 2 serve in
      with_exec 1 (fun sx ->
          let msg = Printf.sprintf "%d shard(s)" shards in
          check_batches msg pooled (serve sx);
          let clients =
            Array.init 2 (fun _ -> Domain.spawn (fun () -> serve sx))
          in
          Array.iter (fun c -> check_batches (msg ^ ", concurrent") pooled (Domain.join c)) clients;
          let st = Shard_exec.stats sx in
          check Alcotest.int (msg ^ ": one domain") 1 st.domains;
          check Alcotest.int (msg ^ ": all completed") (3 * List.length reqs) st.completed))
    [ 1; 2 ];
  match Shard_exec.create ~domains:0 (Xk_index.Sharding.partition ~shards:1 doc) with
  | exception Invalid_argument _ -> ()
  | sx ->
      Shard_exec.shutdown sx;
      Alcotest.fail "domains:0 accepted"

(* --- Hammer: many concurrent clients, one shared index -------------- *)

let hammer () =
  (* Fresh engine over a term-rich corpus, with a deliberately tiny cache
     so concurrent batches keep materializing and evicting under
     contention. *)
  let doc =
    Tutil.random_doc
      ~config:
        {
          Xk_datagen.Random_tree.default with
          max_depth = 7;
          max_children = 5;
          keywords = 24;
        }
      43
  in
  let sharding = Xk_index.Sharding.partition ~cache_capacity:4 ~shards:1 doc in
  let idx = Xk_index.Sharding.index sharding 0 in
  let eng = Xk_core.Engine.of_index idx in
  (* Queries over terms that actually occur, so every request
     materializes shapes and the tiny cache is forced to evict. *)
  let ids = Xk_index.Index.terms_by_df idx in
  let take = min 12 (Array.length ids) in
  let word i = Xk_index.Index.term idx ids.(i) in
  let reqs =
    List.concat_map
      (fun i ->
        let q = [ word i; word (i + 1) ] in
        Xk_core.Engine.
          [
            complete_request ~semantics:Elca q;
            complete_request ~semantics:Slca q;
            topk_request ~semantics:Elca ~k:5 q;
          ])
      (List.init (take - 1) (fun i -> i))
  in
  let expected = Xk_core.Engine.query_batch eng reqs in
  let sx = Shard_exec.create ~domains:4 sharding in
  let clients = 4 and rounds = 5 in
  let workers =
    Array.init clients (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              let got =
                List.map Query_service.hits (Shard_exec.exec_batch sx reqs)
              in
              if not (List.for_all2 hits_equal expected got) then
                failwith "hammer: results diverged from sequential"
            done))
  in
  Array.iter Domain.join workers;
  let st = Shard_exec.stats sx in
  Shard_exec.shutdown sx;
  check Alcotest.int "batches counted" (clients * rounds) st.batches;
  check Alcotest.int "queries counted"
    (clients * rounds * List.length reqs)
    st.queries;
  check Alcotest.bool "cache under pressure" true (st.cache.evictions > 0);
  check Alcotest.bool "occupancy bounded" true
    (st.cache.entries <= st.cache.capacity)

let suite =
  [
    ( "exec.pool",
      [
        tc "map_array" `Quick pool_map_array;
        tc "exception propagates" `Quick pool_exception_propagates;
        tc "shutdown drains and closes" `Quick pool_shutdown_drains;
      ] );
    ( "exec.service",
      [
        tc "batch equals sequential" `Quick batch_equivalence;
        tc "empty and unknown keywords" `Quick batch_empty_and_unknown;
        tc "one worker runs on the caller" `Quick caller_run;
        tc "concurrent clients hammer" `Slow hammer;
      ] );
  ]
