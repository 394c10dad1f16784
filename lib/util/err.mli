(** Typed error discipline for library code.

    Library modules never call [failwith] (an untyped [Failure] that
    callers cannot match on reliably) and never write bare
    [assert false]; [tools/xklint]'s [typed-error] rule rejects both.
    Instead:

    - precondition violations (caller misuse) raise [Invalid_argument]
      through {!invalid}/{!invalidf}, keeping the conventional exception
      while funnelling every raise through one audited choke point;
    - statically unreachable branches raise {!Unreachable} through
      {!unreachable} with a ["Module.fn: why"] message,
      so an impossible case that does fire identifies itself instead of
      producing an anonymous [Assert_failure]. *)

exception Unreachable of string
(** A branch the surrounding invariants rule out was reached: always a
    bug in this library, never a caller error. *)

val invalid : string -> 'a
(** [invalid msg] raises [Invalid_argument msg]. *)

val invalidf : ('a, unit, string, 'b) format4 -> 'a
(** [invalidf fmt ...] is {!invalid} with a formatted message. *)

val unreachable : string -> 'a
(** [unreachable msg] raises [Unreachable msg].  By convention [msg]
    starts with ["Module.function: "] and states the invariant that was
    violated. *)
