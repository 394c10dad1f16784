(* Read-only mmap with typed failures and an explicit close.

   The handle owns the Bigarray produced by Unix.map_file; its one
   accessor checks the closed flag and the byte range first, so a reader
   holding a retired segment gets a typed Fault, never a read of memory
   the segment no longer vouches for.  The closed flag is an Atomic:
   close may race with readers on other domains, and the worst outcome
   of that race is one last well-bounded read of still-mapped pages.

   [of_string] gives the same handle over a private copy of bytes
   already in memory, so a fresh index is read exactly as a file is.

   [map] is also where storage faults fire: it consults
   [Xk_resilience.Chaos.on_map] once per call.  A torn or damaged map
   flips one byte in this handle's private copy-on-write pages, so the
   file and every other map of it stay clean, and a clean map pays
   nothing per access. *)

type error =
  | Map_failed of string
  | Transient of string
  | Bounds of { what : string; pos : int; len : int; size : int }
  | Closed of string

exception Fault of error

type t = {
  m_path : string;
  ba : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t;
  m_size : int;
  closed : bool Atomic.t;
}

let error_message = function
  | Map_failed msg -> "map failed: " ^ msg
  | Transient msg -> "transient read failure: " ^ msg
  | Bounds { what; pos; len; size } ->
      Printf.sprintf "mapped read out of bounds: %s of %d bytes at %d in a %d-byte map"
        what len pos size
  | Closed path -> Printf.sprintf "mapped segment %s used after close" path

let map_file path =
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size = 0 then Error (Map_failed (path ^ ": empty file"))
        else
          let ga =
            Unix.map_file fd Bigarray.char Bigarray.c_layout false [| size |]
          in
          Ok
            {
              m_path = path;
              ba = Bigarray.array1_of_genarray ga;
              m_size = size;
              closed = Atomic.make false;
            })
  with
  | r -> r
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Map_failed (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))
  | exception Sys_error msg -> Error (Map_failed msg)

(* The mapping is private, so the write lands in this handle's pages. *)
let flip t pos =
  Bigarray.Array1.set t.ba pos
    (Char.chr (Char.code (Bigarray.Array1.get t.ba pos) lxor 0x42))

(* A torn map flips the first byte behind an 8-byte magic: inside the
   segment header checksum and the version field of every other framed
   format, so every open notices and re-maps. *)
let torn_byte = 8

let map path =
  match map_file path with
  | Error _ as e -> e
  | Ok t -> (
      match Xk_resilience.Chaos.on_map ~path with
      | None -> Ok t
      | Some (Map_io msg) -> Error (Transient msg)
      | Some Map_refused -> Error (Map_failed (path ^ ": injected map failure"))
      | Some Map_torn ->
          flip t (min torn_byte (t.m_size - 1));
          Ok t
      | Some Map_damaged ->
          flip t (t.m_size / 2);
          Ok t)

let of_string s =
  let n = String.length s in
  let ba = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set ba i (String.unsafe_get s i)
  done;
  { m_path = "(in memory)"; ba; m_size = n; closed = Atomic.make false }

let size t = t.m_size
let path t = t.m_path
let close t = Atomic.set t.closed true
let is_closed t = Atomic.get t.closed

let sub_string t ~pos ~len =
  if Atomic.get t.closed then raise (Fault (Closed t.m_path));
  if pos < 0 || len < 0 || pos + len > t.m_size then
    raise (Fault (Bounds { what = "sub_string"; pos; len; size = t.m_size }));
  (* Bulk copy with the range checked once: segment opens copy whole
     regions (the directory can be megabytes) through this. *)
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get t.ba (pos + i))
  done;
  Bytes.unsafe_to_string b
