(* The outcome type every serving path reports; Shard_exec produces it. *)

type outcome =
  | Ok of Xk_baselines.Hit.t list
  | Partial of Xk_baselines.Hit.t list
  | Degraded of {
      hits : Xk_baselines.Hit.t list;
      missing_shards : int list;
      coverage : float;
    }
  | Timeout
  | Rejected
  | Failed of { message : string; backtrace : string }

let hits = function
  | Ok hs | Partial hs | Degraded { hits = hs; _ } -> hs
  | Timeout | Rejected | Failed _ -> []

let is_failure = function Failed _ -> true | _ -> false

let outcome_label = function
  | Ok _ -> "ok"
  | Partial _ -> "partial"
  | Degraded _ -> "degraded"
  | Timeout -> "timeout"
  | Rejected -> "rejected"
  | Failed _ -> "failed"
