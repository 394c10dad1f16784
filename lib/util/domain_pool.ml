(* A fixed-size domain pool over one Mutex/Condition-guarded MPMC queue.

   Workers loop: wait for the queue to be non-empty (or the pool to be
   closed), pop one job with the lock held, run it with the lock
   released.  Shutdown flips [closed] and broadcasts; workers keep
   draining the queue until it is empty, so every job submitted before
   shutdown runs exactly once.

   Every critical section goes through [Sync.with_lock]: a raising
   section (e.g. the closed-pool check in [submit]) releases its lock on
   the way out. *)

type job = unit -> unit

type t = {
  lock : Mutex.t;
  has_work : Condition.t;
  jobs : job Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t array; (* [||] once joined *)
}

let size t = Array.length t.workers

let worker pool () =
  let rec loop () =
    let job =
      Sync.with_lock pool.lock (fun () ->
          while Queue.is_empty pool.jobs && not pool.closed do
            Condition.wait pool.has_work pool.lock
          done;
          if Queue.is_empty pool.jobs then None (* closed: exit *)
          else Some (Queue.pop pool.jobs))
    in
    match job with
    | None -> ()
    | Some job ->
        (try job () with _ -> ());
        loop ()
  in
  loop ()

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

let create ?domains () =
  let n =
    match domains with
    | Some d ->
        if d < 1 then Err.invalid "Domain_pool.create: domains < 1";
        d
    | None -> default_size ()
  in
  let pool =
    {
      lock = Mutex.create ();
      has_work = Condition.create ();
      jobs = Queue.create ();
      closed = false;
      workers = [||];
    }
  in
  pool.workers <- Array.init n (fun _ -> Domain.spawn (worker pool));
  pool

let submit t job =
  Sync.with_lock t.lock (fun () ->
      if t.closed then
        Err.invalid "Domain_pool.submit: pool is shut down";
      Queue.push job t.jobs;
      Condition.signal t.has_work)

(* Futures: a one-shot mailbox with its own lock, filled by the worker
   and emptied by any number of awaiters. *)

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fm : Mutex.t;
  fc : Condition.t;
  mutable state : 'a state;
}

let async t f =
  let fut = { fm = Mutex.create (); fc = Condition.create (); state = Pending } in
  submit t (fun () ->
      let outcome =
        match f () with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Sync.with_lock fut.fm (fun () ->
          fut.state <- outcome;
          Condition.broadcast fut.fc));
  fut

let await fut =
  (* [settled] runs with [fut.fm] held; [Condition.wait] releases and
     reacquires it, so the single unlock in [with_lock] stays balanced. *)
  let rec settled () =
    match fut.state with
    | Pending ->
        Condition.wait fut.fc fut.fm;
        settled ()
    | Done v -> Ok v
    | Failed (e, bt) -> Error (e, bt)
  in
  Sync.with_lock fut.fm settled

let await_exn fut =
  match await fut with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let map_array t f xs =
  let futs = Array.map (fun x -> async t (fun () -> f x)) xs in
  Array.map await_exn futs

let shutdown t =
  let workers =
    Sync.with_lock t.lock (fun () ->
        let workers = t.workers in
        t.closed <- true;
        t.workers <- [||];
        Condition.broadcast t.has_work;
        workers)
  in
  Array.iter Domain.join workers
