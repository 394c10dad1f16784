(** The former name of {!Chaos}'s fault classes, kept for the benchmark
    suite, which pins its runs to no faults through it.  New code uses
    {!Chaos} directly. *)

type config = Chaos.faults

val none : config
(** {!Chaos.no_faults}. *)

val configure : config -> unit
(** {!Chaos.configure}. *)
