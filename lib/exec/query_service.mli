(** The per-request result of query serving.

    Every request {!Shard_exec} serves resolves to an {!outcome}:
    exceptions become [Failed] (worker domains never die), deadlines
    degrade anytime top-K requests to [Partial] prefixes, lost shards to
    [Degraded], and admission control refuses excess requests as
    [Rejected]. *)

type outcome =
  | Ok of Xk_baselines.Hit.t list  (** ran to completion *)
  | Partial of Xk_baselines.Hit.t list
      (** deadline expired; a confirmed prefix of the full top-K *)
  | Degraded of {
      hits : Xk_baselines.Hit.t list;
          (** confirmed prefix over the reachable shards only *)
      missing_shards : int list;  (** shards whose replicas all failed *)
      coverage : float;  (** fraction of top-level subtrees reachable *)
    }
      (** replicated serving lost at least one whole shard; the missing
          shards' upper bounds are pinned to [+inf], so every reported
          hit is provably in the true top-K {e of the reachable data}
          and no full-corpus confirmation is claimed *)
  | Timeout  (** deadline expired with no confirmed result available *)
  | Rejected  (** refused by admission control, never executed *)
  | Failed of { message : string; backtrace : string }
      (** the request raised outside replica serving; the worker
          survived *)

val hits : outcome -> Xk_baselines.Hit.t list
(** The hits carried by [Ok]/[Partial]/[Degraded]; [[]] otherwise. *)

val is_failure : outcome -> bool
(** [true] only for [Failed] — the hard-failure predicate used for exit
    codes (timeouts, rejections and degraded service are service
    policy, not errors). *)

val outcome_label : outcome -> string
(** ["ok"], ["partial"], ["degraded"], ["timeout"], ["rejected"] or
    ["failed"]. *)
