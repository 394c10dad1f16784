(** Crash-durable file writes: fsync primitives and the
    write-fsync-rename-fsync sequence every persistent artifact in the
    tree goes through.

    A bare [Sys.rename] after buffered writes is only atomic against
    concurrent readers — after a power cut the renamed file may hold
    garbage (the data never reached the platter) or the rename itself
    may be lost (the directory entry was never flushed).  The full
    sequence is: write the temp file, [fsync] it, rename over the live
    name, then [fsync] the containing directory.  [tools/xklint]'s
    [durability-sync] rule enforces that any rename in [lib/index] or
    [lib/storage] keeps an fsync in sight. *)

val fsync_fd : Unix.file_descr -> unit
(** [Unix.fsync], with [EINVAL]/[ENOTSUP] swallowed (some filesystems
    refuse to sync certain descriptors; a refusal must not turn a
    successful write into an error). *)

val fsyncs : unit -> int
(** The fsyncs {!fsync_fd} has issued in this process so far, refused
    ones included; every sync in this module goes through it. *)

val fsync_out_channel : out_channel -> unit
(** Flush the channel, then {!fsync_fd} its descriptor. *)

val fsync_dir : string -> unit
(** Open a directory read-only and fsync it, so a rename inside it
    survives a crash.  Errors are swallowed: directory fsync is
    best-effort hardening on platforms that support it. *)

val fsync_file : string -> unit
(** Open an existing file and fsync it (used after out-of-band writes). *)

val write_atomically : ?fsync:bool -> string -> (out_channel -> unit) -> unit
(** [write_atomically path write] runs [write] over a fresh [path.tmp],
    fsyncs it, renames it over [path] and fsyncs the directory.  On any
    exception the temp file is removed and the exception re-raised; the
    live [path] is never observed half-written.  [fsync:false] skips
    both syncs (tests that simulate lost writes). *)

val write_string_atomically : ?fsync:bool -> string -> string -> unit
(** {!write_atomically} of one preassembled byte string. *)
