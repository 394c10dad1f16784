(** Client side of the shard RPC: one TCP connection per call.

    Each call connects, sends a single {!Frame.Query} (or [Ping]), waits
    for the reply with a socket receive timeout, and closes.  The
    timeout is derived from the request's remaining budget when there is
    one, so a SIGSTOPped or wedged server surfaces as a typed [Timeout]
    within the caller's deadline instead of hanging the gather tier.

    All failures — refused connections, malformed frames, remote
    refusals — are wrapped in {!Rpc_failed}, which the remote transport
    in [Shard_exec] treats exactly like a local replica fault: record it
    against the replica's health window and fail over. *)

type error =
  | Frame of Frame.error  (** transport or framing failure *)
  | Remote of string  (** the server answered [Refused] *)
  | Unexpected of Frame.kind  (** protocol confusion: wrong reply kind *)

val error_message : error -> string

exception Rpc_failed of error

val query :
  ?timeout_ms:float -> host:string -> port:int -> Wire.query -> Wire.served
(** Run one per-shard query against a shard server.  The socket timeout
    is the query's remaining deadline plus slack when set, otherwise
    [timeout_ms].  Raises {!Rpc_failed} on any failure. *)

val ping : ?timeout_ms:float -> host:string -> port:int -> unit -> unit
(** Liveness probe; raises {!Rpc_failed} if the server does not answer
    [Pong] in time.  Used by CI to wait for fleet readiness. *)
