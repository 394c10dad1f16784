(** Bounded retry with exponential backoff for operations whose failures
    split into a transient class (worth retrying) and a permanent one.

    This is the {e only} retry loop in the tree: storage readers
    ([Index_io], [Shard_io]) route every retryable class through it —
    including the [`Suspect] header re-read class — so attempt budgets
    are uniform and the attempt count can be surfaced in typed errors. *)

(** Decorrelated-jitter delay source for the fleet supervisor's restart
    backoff: each delay is drawn uniformly
    from [[base, max base (3 * prev)]] and clamped to a cap, so a cohort
    of replicas that failed together does not reconnect (or restart) in
    lockstep and thundering-herd the recovering host.  The generator is
    seeded explicitly: tests inject a fixed seed for reproducible delay
    sequences, production callers vary the seed per instance. *)
module Jitter : sig
  type t

  val create : ?seed:int -> unit -> t
  (** A fresh generator.  Equal seeds yield equal delay sequences. *)

  val next : t -> base_ms:float -> cap_ms:float -> prev_ms:float -> float
  (** The next delay: uniform in [[base_ms, max base_ms (3 * prev_ms)]],
      clamped to [cap_ms]. *)
end

val with_backoff_info :
  ?retries:int ->
  ?backoff_ms:float ->
  ?sleep:(float -> unit) ->
  retryable:('e -> bool) ->
  (unit -> ('a, 'e) result) ->
  ('a, 'e) result * int
(** Run the thunk, retrying up to [retries] (default 4) extra times while
    it returns a [retryable] error, sleeping [backoff_ms] (default 1.0)
    before the first retry and doubling after each.  The last error is
    returned when retries run out; non-retryable errors return
    immediately.  The second component is the number of attempts
    actually made (>= 1): callers that report typed errors attach it so
    an exhausted retry budget is distinguishable from a first-try
    permanent failure.  [sleep] overrides the delay action
    (milliseconds) — tests inject a recorder so backoff growth is
    observable without sleeping. *)
