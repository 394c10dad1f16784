(** Replica repair: restore full replication from a scrub report.

    {!scrub} classifies every copy of a shard manifest through the full
    {!Index_io.verify} path (the detection half, see
    [Xk_resilience.Scrub]); {!repair} rewrites each damaged or missing
    copy from a surviving clean replica of the same shard — or rebuilds
    it from an injected index source (the [Live] store's sealed
    generations, or a re-partitioned corpus) when no clean copy
    survives.

    {b Atomicity.}  A heal publishes through
    [Xk_storage.Durable.write_string_atomically] (stage, fsync, rename,
    fsync dir) — the same recipe {!Shard_io.save} uses — so a concurrent
    reader observes either the old inode (kept alive and self-consistent
    by its open mapping) or the complete healed file, never a torn
    segment, and the manifest itself is untouched (replica basenames are
    stable, so no manifest swap is needed).  Every healed copy is
    re-verified end to end after the write; one that does not read back
    clean is reported {!Unrepairable}, never silently trusted.

    A [Repaired] outcome means the copy serves again: the serving tier's
    breaker re-admits the replica through its half-open probe on the
    next cooldown, so healing feeds back into rotation without a
    restart. *)

type copy = { r_shard : int; r_replica : int; r_file : string }

type source =
  | From_replica of string  (** byte-copied from this clean replica file *)
  | Rebuilt  (** regenerated from the injected rebuild source *)

type outcome =
  | Repaired of { copy : copy; source : source }
  | Unrepairable of { copy : copy; reason : string }

type summary = { outcomes : outcome list; repaired : int; unrepairable : int }

val outcome_line : outcome -> string

val scrub :
  ?budget:Xk_resilience.Budget.t ->
  ?slice:int ->
  ?throttle_ms:float ->
  ?retries:int ->
  ?backoff_ms:float ->
  string ->
  (Xk_resilience.Scrub.report, Shard_io.error) result
(** Scrub every replica recorded in the manifest at the given path:
    [Xk_resilience.Scrub.run] over {!Shard_io.replica_files} with
    {!Index_io.verify} as the verifier.  [slice]/[throttle_ms]/[budget]
    bound and pace the walk; [retries]/[backoff_ms] are the per-file
    verify retry envelope. *)

val repair :
  ?rebuild:(shard:int -> Index.t option) ->
  ?retries:int ->
  ?backoff_ms:float ->
  Xk_resilience.Scrub.report ->
  summary
(** Heal every non-clean entry of the report, in manifest order.  Each
    target is rewritten from a clean copy of its shard (a copy healed
    earlier in the same pass counts) whose bytes verify again as they
    are read ({!Index_io.read_verified}), else rebuilt via [rebuild ~shard]
    when provided, else reported {!Unrepairable}.  Injected-fault marks
    on a target are cleared before the rewrite (the simulated media is
    replaced), and every heal is verified post-write. *)

val summary_line : summary -> string
