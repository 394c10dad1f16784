(* Index files: the v9 segment ({!Segment}) on disk, and the read path
   every durable file shares (see the .mli).  A read attempt maps the
   file once and reads the magic from the map, which is also where
   storage faults are injected, so fault drills exercise exactly this
   reader.  Failures are classified (truncation, corruption, transient
   IO) and every class a re-read can heal is retried; a retired
   generation is refused on the first attempt with a rebuild hint.
   Saving goes through a temp file + rename, so a crashed writer never
   leaves a half-written segment under the live name. *)

let magic = Segment.magic

(* The retired generations of both index file kinds, by magic. *)
let retired =
  [
    ("XKIDX001", "v1 segment");
    ("XKIDX002", "v2 segment");
    ("XKIDX003", "v3 segment");
    ("XKIDX004", "v4 segment");
    ("XKIDX005", "v5 segment");
    ("XKIDX006", "v6 segment");
    ("XKIDX007", "v7 segment");
    ("XKIDX008", "v8 segment");
    ("XKSHM001", "v1 manifest");
    ("XKSHM002", "v2 manifest");
  ]

type error = Segment.error =
  | Truncated of string
  | Corrupted of string
  | Io_failed of string

type load_error = { error : error; attempts : int }

let error_message = Segment.error_message

let load_error_message ?kind { error; attempts } =
  if attempts > 1 then
    Printf.sprintf "%s (after %d attempts)" (error_message ?kind error) attempts
  else error_message ?kind error

exception Segment_fault = Segment.Segment_fault

type attempt_error = Segment.attempt_error

(* The index already holds its segment's bytes. *)
let save idx path = Xk_storage.Durable.write_string_atomically path (Index.bytes idx)

(* A framing verdict as a read-attempt outcome.  Every anomaly before
   the checksum can be a torn read, so all of them are retried. *)
let of_framed (e : Xk_storage.Framed.error) : attempt_error =
  let msg = Xk_storage.Framed.error_message e in
  match e with
  | Crc_mismatch _ -> `Crc msg
  | Short_input | Header_cut | Short_payload _ -> `Suspect (Truncated msg)
  | Bad_magic _ | Bad_version _ | Bad_varint | Trailing _ ->
      `Suspect (Corrupted msg)

(* The retired-magic rule: a file whose magic names a retired generation
   is refused on the first attempt, since its bytes are intact and a
   re-read cannot make it loadable; only a rebuild can. *)
let refuse_retired data =
  let n = Int.min (String.length data) (String.length magic) in
  match List.assoc_opt (String.sub data 0 n) retired with
  | Some what ->
      Error
        (`Fatal
          (Corrupted
             (Printf.sprintf "retired %s format; rebuild the index" what)))
  | None -> Ok ()

(* ------------------------------------------------------------------ *)
(* Attempts, retry policy, public API                                 *)
(* ------------------------------------------------------------------ *)

(* One attempt maps the file once and runs [f] over the map.  mmap
   cannot map zero bytes, so an empty file is classified here, as the
   truncation it is. *)
let with_map path f : (_, attempt_error) result =
  match Xk_storage.Mmap.map path with
  | Error (Xk_storage.Mmap.Transient msg) -> Error (`Transient msg)
  | Error e -> (
      match Unix.stat path with
      | { Unix.st_size = 0; _ } -> Error (`Suspect (Truncated "empty file"))
      | _ | (exception Unix.Unix_error _) ->
          Error (`Fatal (Io_failed (Xk_storage.Mmap.error_message e))))
  | Ok m -> (
      match f m with
      | r -> r
      | exception Segment.Bad e ->
          Xk_storage.Mmap.close m;
          Error e)

(* The magic decides: a segment opens, a retired generation is refused,
   and anything else may be a torn read, so it is retried like any
   framing anomaly before the file is believed to be foreign. *)
let check_magic m =
  let n = String.length magic in
  let head =
    Xk_storage.Mmap.sub_string m ~pos:0 ~len:(Int.min n (Xk_storage.Mmap.size m))
  in
  if head = magic then Ok ()
  else
    Result.bind (refuse_retired head) (fun () ->
        Error
          (of_framed
             (if String.length head < n then Short_input else Bad_magic head)))

let map_contents m = Xk_storage.Mmap.sub_string m ~pos:0 ~len:(Xk_storage.Mmap.size m)

(* The map is closed once copied: a caller may truncate the file next. *)
let read_mapped path =
  with_map path (fun m ->
      let data = map_contents m in
      Xk_storage.Mmap.close m;
      Ok data)

let attempt ?stats ~verify_columns label path =
  with_map path (fun m ->
      Result.map
        (fun () -> Index.of_segment ?stats label (Segment.open_ ~verify_columns label m))
        (check_magic m))

let retryable = function
  | `Transient _ | `Crc _ | `Suspect _ -> true
  | `Fatal _ -> false

let retrying ?(retries = 4) ?(backoff_ms = 1.0) attempt =
  match
    Xk_resilience.Retry.with_backoff_info ~retries ~backoff_ms ~retryable attempt
  with
  | Ok v, _ -> Ok v
  | Error e, attempts -> Error { error = Segment.classify e; attempts }

let load_result ?stats ?retries ?backoff_ms
    ?(verify_columns = false) label path =
  retrying ?retries ?backoff_ms (fun () ->
      attempt ?stats ~verify_columns label path)

(* Verification without building an index, and a {e full} one — every
   region checksum, every block CRC and the structure of every term's
   postings — because the lazy load path deliberately defers the
   per-term checks, and the replica writers that call [verify] after
   each copy need equivalent coverage. *)
let verified m = Result.map (fun () -> Segment.verify m) (check_magic m)

let verify ?retries ?backoff_ms path =
  retrying ?retries ?backoff_ms (fun () -> with_map path verified)

(* The bytes are copied out of the very map that verified, so a torn
   read cannot slip in between the check and the copy. *)
let read_verified ?retries ?backoff_ms path =
  retrying ?retries ?backoff_ms (fun () ->
      with_map path (fun m -> Result.map (fun () -> map_contents m) (verified m)))

(* Introspection for tests and benches: how big is a file, and where do
   a segment's regions live (so a drill can corrupt a specific region
   with surgical precision). *)
let file_size path =
  try (Unix.stat path).Unix.st_size
  with Unix.Unix_error (e, _, _) ->
    raise (Sys_error (path ^ ": " ^ Unix.error_message e))

let layout path =
  retrying (fun () ->
      with_map path (fun m -> Result.map (fun () -> Segment.header m) (check_magic m)))
  |> Result.map_error (fun (e : load_error) -> e.error)
