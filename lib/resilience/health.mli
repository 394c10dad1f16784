(** Rolling per-replica health: the last 32 request outcomes and
    latencies, folded into a success rate and mean latency that the
    replica router uses to rank candidates.

    Thread-safe (one private mutex per value); recording an observation
    is O(1), snapshots fold the window on demand.  A fresh window scores
    as fully healthy so new replicas are not starved of traffic. *)

type t

type snapshot = {
  observations : int;  (** total observations ever recorded *)
  window_size : int;
  successes : int;  (** successes inside the live window *)
  failures : int;  (** failures inside the live window *)
  success_rate : float;  (** successes / window observations; 1.0 when empty *)
  mean_latency_ms : float;  (** mean over the live window; 0.0 when empty *)
}

val create : unit -> t
(** A fresh, empty window of 32 observations. *)

val record : t -> ok:bool -> latency_ms:float -> unit
(** Append one observation, evicting the oldest once the window is
    full.  Safe from any domain. *)

val snapshot : t -> snapshot

val score : t -> float
(** Routing preference, higher is better: success rate dominant, mean
    latency as a strictly weaker tiebreak (bounded so it can never
    outweigh one success/failure difference).  1.0+ for an empty
    window. *)
