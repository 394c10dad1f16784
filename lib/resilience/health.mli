(** Rolling per-replica health: the last 32 request outcomes and
    latencies, folded into a success rate and mean latency that the
    replica router uses to rank candidates.

    Thread-safe (one private mutex per value); recording an observation
    is O(1), and [score] folds the window on demand.  A fresh window
    scores as fully healthy so new replicas are not starved of
    traffic. *)

type t

val create : unit -> t
(** A fresh, empty window of 32 observations. *)

val record : t -> ok:bool -> latency_ms:float -> unit
(** Append one observation, evicting the oldest once the window is
    full.  Safe from any domain. *)

val score : t -> float
(** Routing preference, higher is better: the window's success rate
    plus [0.001 /. (1. +. mean latency in ms)], so latency is a strictly
    weaker tiebreak that can never outweigh one success/failure
    difference.  An empty window counts as fully successful with zero
    latency and scores 1.001. *)
