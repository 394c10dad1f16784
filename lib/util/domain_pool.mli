(** A fixed-size pool of OCaml 5 domains consuming jobs from one shared
    MPMC queue guarded by a [Mutex]/[Condition] pair.

    Producers ({!submit}/{!async}) may run on any domain, including pool
    workers of {e other} pools; results come back through {!future}
    handles.  There is no work stealing: the queue is the single point of
    coordination, which keeps the pool small and obviously correct. *)

type t

val default_size : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1: one core is left
    to the submitting domain. *)

val create : ?domains:int -> unit -> t
(** Spawn the worker domains.  [domains] defaults to {!default_size}.
    Raises [Invalid_argument] when [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a fire-and-forget job.  An exception escaping the job is
    discarded (workers never die); use {!async} when the outcome matters.
    Raises [Invalid_argument] after {!shutdown}. *)

(** {1 Futures} *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Enqueue a job and return a handle to its eventual result. *)

val await : 'a future -> ('a, exn * Printexc.raw_backtrace) result
(** Block until the job finishes.  An exception raised by the job is
    delivered as [Error] with the backtrace captured at the raise site —
    the worker domain itself never dies. *)

val await_exn : 'a future -> 'a
(** Like {!await} but re-raises the job's exception (with its original
    backtrace) in the awaiting domain. *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** Evaluate [f] over all elements on the pool, preserving order.  All
    jobs are submitted before the first await, so the pool pipelines
    them across workers. *)

val shutdown : t -> unit
(** Drain the queue, run every job already submitted, then join all
    workers.  Idempotent; subsequent {!submit}/{!async} calls raise. *)
