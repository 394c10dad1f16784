(* Table-driven CRC-32 over the reflected polynomial 0xEDB88320.  Checksums
   are kept in plain ints (always < 2^32, so exact on 64-bit OCaml). *)

(* Built eagerly at module init: [Lazy.force] is not domain-safe and index
   segments may be loaded from several domains. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The loops below use unsafe reads: the range is checked once up
   front, and the per-byte bounds check would dominate the whole
   computation (segment opens CRC megabytes of directory). *)
let update crc s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    Xk_util.Err.invalid "Crc32.update";
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table
        ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let sub s ~pos ~len = update 0 s ~pos ~len
let string s = sub s ~pos:0 ~len:(String.length s)
