(** Per-replica circuit breaker: stop sending work to a replica that
    keeps failing, probe it again after a cooldown.

    States: [Closed] (normal; consecutive failures counted), [Open]
    (everything rejected until [reset_after_ms] elapses), [Half_open]
    (up to [half_open_probes] trial requests admitted; a failure
    re-opens, enough successes close).

    Time comes from an injected [clock : unit -> float] (milliseconds),
    so tests step a fake clock instead of sleeping.  Thread-safe. *)

type state = Closed | Open | Half_open

type config = {
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  reset_after_ms : float;  (** cooldown before Open admits a probe *)
  half_open_probes : int;  (** successes needed to close from Half_open *)
}

type t

type stats = {
  state : state;
  consecutive_failures : int;
  opens : int;  (** times the breaker tripped *)
  rejected : int;  (** requests refused while Open / probe-saturated *)
}

val create :
  ?config:config ->
  ?clock:(unit -> float) ->
  ?on_transition:(state -> state -> unit) ->
  unit ->
  t
(** [config] defaults to a threshold of 5, a 1000 ms cooldown and 1
    probe; [clock] defaults to wall time in ms.  Raises [Invalid_argument] on
    a non-positive threshold or probe count.  [on_transition from to_]
    fires once per state change (trip, probe admission, close), {e after}
    the breaker's lock is released — it must stay non-blocking (no IO,
    no lock acquisition; enforced by the [no-blocking-in-callback] lint
    rule), because it runs on the request path of whichever caller
    triggered the transition. *)

val allow : t -> bool
(** May a request proceed?  Also performs the Open -> Half_open
    transition once the cooldown has elapsed.  Callers that get [true]
    should report the outcome via {!record_success} / {!record_failure}. *)

val record_success : t -> unit
val record_failure : t -> unit
val state : t -> state
val stats : t -> stats
val state_label : state -> string
