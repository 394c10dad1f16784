(** Read-only memory-mapped files: the substrate of the zero-copy v4
    index segments.

    {!map} wraps [Unix.map_file] into a handle whose accessors are
    bounds-checked and lifetime-checked: after {!close} every access
    raises {!Fault} [Closed] instead of touching unmapped memory
    semantics.  The mapping itself is released by the GC when the last
    reference to the handle dies (the stdlib exposes no explicit
    munmap); {!close} exists so an owner — a segment handle being
    retired — can {e invalidate} the map eagerly and turn any straggling
    reader into a typed error instead of a silent read of stale pages.

    A handle must stay owned by exactly one segment handle: never store
    the handle, or byte ranges obtained from it, in caches that outlive
    the segment (the [mmap-lifetime] xklint rule mechanizes this for
    [lib/index] and [lib/storage]).  Decode into plain OCaml values
    before anything long-lived sees the data. *)

type t

type error =
  | Map_failed of string
      (** open/fstat/mmap failed (missing file, permissions, resource
          limits, an unmappable mark) *)
  | Transient of string
      (** an injected transient IO failure: a retry may succeed *)
  | Bounds of { what : string; pos : int; len : int; size : int }
      (** an access of [len] bytes at [pos] falls outside the [size]-byte
          map, or a stored 64-bit offset does not fit the host int *)
  | Closed of string  (** access after {!close}; carries the path *)

exception Fault of error
(** Raised by the accessors below on a bounds violation or a closed
    handle.  {!map} itself never raises: mapping failures are returned
    as values. *)

val error_message : error -> string

val map : string -> (t, error) result
(** Map a whole file read-only ([MAP_PRIVATE]).  An empty file is a
    [Map_failed] (mmap of zero bytes is undefined).

    This is where storage faults fire ({!Xk_resilience.Chaos.on_map},
    once per call, after the file mapped): an injected IO failure is
    [Transient], an unmappable mark [Map_failed]; a torn map has byte 8
    flipped (inside every format's checked header) and a path marked
    corrupt its middle byte, both in this handle's private pages only —
    the file and other maps of it stay clean. *)

val size : t -> int
val path : t -> string

val close : t -> unit
(** Invalidate the handle: subsequent accessors raise {!Fault}[ (Closed _)].
    Idempotent.  Does not unmap the pages (the GC does, once every
    [Bigarray] slice handed out before the close is dead). *)

val is_closed : t -> bool

(** {1 Accessors} — little-endian, bounds-checked, raise {!Fault}. *)

val u8 : t -> int -> int
val u32 : t -> int -> int

val u64 : t -> int -> int
(** Raises {!Fault} [(Bounds _)] when the stored value exceeds the host's
    int range (it then cannot be a valid offset into any mappable file). *)

val sub_string : t -> pos:int -> len:int -> string
(** Copy a window out of the map (term bytes, small slices). *)

val crc32 : t -> pos:int -> len:int -> int
(** CRC-32 of a window, computed directly over the mapped pages. *)

val crc32_update : int -> t -> pos:int -> len:int -> int
(** Incremental form, for checksums spanning discontiguous windows (a
    term's nodes slice followed by its tfs slice). *)
