(** Background replica scrubbing: re-validate every copy of a replicated
    shard set and classify each as clean, damaged, or missing.

    Scrubbing is the detection half of self-healing (repair lives in
    [Xk_index.Repair], which feeds a scrub report back through the
    atomic-write path).  A pass walks the [shard x replica] file matrix
    in bounded slices: the budget is polled before every file, so a
    deadline or cancellation stops the pass at a file boundary (the
    report is then marked incomplete), and after every [slice] files the
    scrubber sleeps [throttle_ms] so a background pass never starves the
    serving IO path.  The verifier itself is injected — callers in the
    index layer pass [Index_io.verify], which re-validates the full v5
    segment (header, terms, directory, every block's postings CRC and
    every term's structure) through the same decoders queries use. *)

type status =
  | Clean  (** the copy verified end to end *)
  | Damaged of string  (** verification failed; human-readable cause *)
  | Missing  (** the file is gone *)

type entry = {
  e_shard : int;
  e_replica : int;
  e_file : string;
  e_status : status;
}

type report = {
  entries : entry list;  (** one per scanned copy, manifest order *)
  scanned : int;
  clean : int;
  damaged : int;
  missing : int;
  complete : bool;  (** [false] when the budget expired mid-pass *)
}

val healthy : report -> bool
(** A complete pass that found every copy clean. *)

val needs_repair : report -> entry list
(** The damaged and missing entries, manifest order. *)

val summary_line : report -> string
(** One-line pass summary for logs and the fleet status line. *)

val run :
  ?budget:Budget.t ->
  ?slice:int ->
  ?throttle_ms:float ->
  ?sleep:(float -> unit) ->
  verify:(string -> (unit, string) result) ->
  string array array ->
  report
(** Scrub the [shard][replica] file matrix.  [slice] (default 4, must be
    >= 1) files are verified between throttle sleeps of [throttle_ms]
    (default 0); [budget] (default unlimited) is polled before every
    file and an expiry ends the pass early with [complete = false].
    [sleep] overrides the throttle action (milliseconds) for tests. *)
