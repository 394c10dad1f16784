(* Sharded-index persistence: a small checksummed manifest that records
   the partition, next to N Index_io segment replicas per shard.

   Manifest layout (version 3):  magic "XKSHM003" | version varint |
   payload-length varint | payload CRC-32 varint | payload.  The payload
   is the shard count, the subtree count, the assignment array, then per
   shard a replica count followed by, per replica, the segment basename
   and an optional serving endpoint (presence flag, then host bytes and
   a port varint).  Version 2 manifests (no endpoints) still load; v1
   (no replica lists at all) is refused with a rebuild hint.  Node data
   lives only in the per-shard segments; reloading re-derives the
   sub-documents from the corpus and the stored assignment, so a
   manifest stays valid for exactly the document it was built from
   (per-shard node-count checks enforce that).

   Replicas are written and verified independently (framing + CRC check
   after each copy), and the loader falls back across them in manifest
   order: a shard is lost only when every replica fails, and the typed
   error then carries each replica's failure and attempt count. *)

let magic = "XKSHM003"
let magic_v2 = "XKSHM002"
let magic_v1 = "XKSHM001"
let version = 3
let version_v2 = 2

type error =
  | Manifest of { error : Index_io.error; attempts : int }
  | Shard of { shard : int; failures : (string * Index_io.load_error) list }

let error_message = function
  | Manifest { error; attempts } ->
      "manifest: "
      ^ Index_io.load_error_message { Index_io.error; attempts }
  | Shard { shard; failures } ->
      let per_replica =
        List.map
          (fun (file, e) ->
            Printf.sprintf "%s: %s" file (Index_io.load_error_message e))
          failures
      in
      Printf.sprintf "shard %d: all %d replicas failed (%s)" shard
        (List.length failures)
        (String.concat "; " per_replica)

let segment_path path ~shard = Printf.sprintf "%s.%03d.seg" path shard

let replica_path path ~shard ~replica =
  if replica = 0 then segment_path path ~shard
  else Printf.sprintf "%s.%03d.r%d.seg" path shard replica

let write_atomically path (write : out_channel -> unit) =
  Xk_storage.Durable.write_atomically path write

exception Verify_failed of string

let save ?(replicas = 1) ?endpoints t path =
  if replicas < 1 then Xk_util.Err.invalid "Shard_io.save: replicas < 1";
  let shards = Sharding.count t in
  (match endpoints with
  | None -> ()
  | Some e ->
      if
        Array.length e <> shards
        || Array.exists (fun row -> Array.length row <> replicas) e
      then
        Xk_util.Err.invalid
          "Shard_io.save: endpoints shape must be shards x replicas");
  let payload = Buffer.create 256 in
  Xk_storage.Varint.write payload shards;
  let assignment = Sharding.assignment t in
  Xk_storage.Varint.write payload (Array.length assignment);
  Array.iter (Xk_storage.Varint.write payload) assignment;
  for s = 0 to shards - 1 do
    Xk_storage.Varint.write payload replicas;
    for r = 0 to replicas - 1 do
      let base = Filename.basename (replica_path path ~shard:s ~replica:r) in
      Xk_storage.Varint.write payload (String.length base);
      Buffer.add_string payload base;
      match endpoints with
      | None -> Xk_storage.Varint.write payload 0
      | Some e ->
          let host, port = e.(s).(r) in
          Xk_storage.Varint.write payload 1;
          Xk_storage.Varint.write payload (String.length host);
          Buffer.add_string payload host;
          Xk_storage.Varint.write payload port
    done
  done;
  let payload = Buffer.contents payload in
  write_atomically path (fun oc ->
      let header = Buffer.create 32 in
      Buffer.add_string header magic;
      Xk_storage.Varint.write header version;
      Xk_storage.Varint.write header (String.length payload);
      Xk_storage.Varint.write header (Xk_storage.Crc32.string payload);
      Buffer.output_buffer oc header;
      output_string oc payload);
  (* Each replica is written and verified independently: a write that
     slips through [Index_io.save]'s atomic rename but lands damaged
     must surface now, not at failover time. *)
  for s = 0 to shards - 1 do
    for r = 0 to replicas - 1 do
      let file = replica_path path ~shard:s ~replica:r in
      Index_io.save (Sharding.index t s) file;
      match Index_io.verify file with
      | Ok () -> ()
      | Error e ->
          raise
            (Verify_failed
               (Printf.sprintf "replica %s failed post-save verification: %s"
                  file
                  (Index_io.load_error_message e)))
    done
  done

exception Decode of string

type manifest = {
  m_shards : int;
  m_assignment : int array;
  m_files : string array array; (* per shard, replica basenames in order *)
  m_endpoints : (string * int) option array array;
      (* same shape as [m_files]; v2 manifests decode to all-[None] *)
}

let decode_manifest data ~pos ~with_endpoints =
  let c = Xk_storage.Varint.cursor_at data pos in
  let read_str what =
    let len = Xk_storage.Varint.read c in
    if len < 0 || c.pos + len > String.length data then
      raise (Decode (what ^ " cut short"));
    let s = String.sub data c.pos len in
    c.pos <- c.pos + len;
    s
  in
  try
    let shards = Xk_storage.Varint.read c in
    if shards < 1 then raise (Decode "no shards");
    let subtrees = Xk_storage.Varint.read c in
    let assignment =
      Array.init subtrees (fun _ ->
          let s = Xk_storage.Varint.read c in
          if s >= shards then raise (Decode "assignment names a missing shard");
          s)
    in
    let endpoints = ref [] in
    let files =
      Array.init shards (fun _ ->
          let replicas = Xk_storage.Varint.read c in
          if replicas < 1 then raise (Decode "shard with no replicas");
          let row_eps = Array.make replicas None in
          let row =
            Array.init replicas (fun r ->
                let f = read_str "segment name" in
                if with_endpoints then begin
                  match Xk_storage.Varint.read c with
                  | 0 -> ()
                  | 1 ->
                      let host = read_str "endpoint host" in
                      let port = Xk_storage.Varint.read c in
                      if port > 0xFFFF then raise (Decode "endpoint port > 65535");
                      row_eps.(r) <- Some (host, port)
                  | _ -> raise (Decode "bad endpoint flag")
                end;
                f)
          in
          endpoints := row_eps :: !endpoints;
          row)
    in
    {
      m_shards = shards;
      m_assignment = assignment;
      m_files = files;
      m_endpoints = Array.of_list (List.rev !endpoints);
    }
  with Invalid_argument _ -> raise (Decode "payload structure cut short")

(* One manifest read attempt; same failure classes and fault-injection
   hooks as the segment reader in [Index_io]: header-level anomalies are
   [`Suspect] (a torn read heals on re-read, real corruption repeats). *)
let attempt_manifest path :
    ( manifest,
      [ `Transient of string
      | `Crc of string
      | `Suspect of Index_io.error
      | `Fatal of Index_io.error ] )
    result =
  match
    Xk_resilience.Fault_injection.before_io ~path;
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Xk_resilience.Fault_injection.mangle_read ~path data
  with
  | exception Xk_resilience.Fault_injection.Injected_io msg ->
      Error (`Transient msg)
  | exception Sys_error msg -> Error (`Transient msg)
  | data -> (
      let mlen = String.length magic in
      if String.length data < mlen then
        Error (`Suspect (Index_io.Truncated "shorter than the manifest magic"))
      else if String.sub data 0 mlen = magic_v1 then
        Error
          (`Suspect
            (Index_io.Corrupted
               "legacy v1 manifest without replica lists; rebuild the index"))
      else
        (* v2 manifests (no endpoints) stay loadable; the magic decides
           which payload layout and version number to expect. *)
        let file_magic = String.sub data 0 mlen in
        let expected_version, with_endpoints =
          if file_magic = magic_v2 then (version_v2, false) else (version, true)
        in
        if file_magic <> magic && file_magic <> magic_v2 then
          Error (`Suspect (Index_io.Corrupted "bad manifest magic"))
        else
          match
            let c = Xk_storage.Varint.cursor_at data mlen in
            let v = Xk_storage.Varint.read c in
            let plen = Xk_storage.Varint.read c in
            let crc = Xk_storage.Varint.read c in
            (v, plen, crc, c.pos)
          with
          | exception Invalid_argument _ ->
              Error (`Suspect (Index_io.Truncated "header cut short"))
          | v, _, _, _ when v <> expected_version ->
              Error
                (`Suspect
                  (Index_io.Corrupted
                     (Printf.sprintf "unsupported manifest version %d" v)))
          | _, plen, crc, body -> (
              let avail = String.length data - body in
              if avail < plen then
                Error
                  (`Suspect
                    (Index_io.Truncated
                       (Printf.sprintf "payload has %d of %d bytes" avail plen)))
              else if avail > plen then
                Error
                  (`Suspect
                    (Index_io.Corrupted
                       (Printf.sprintf "%d trailing bytes after the payload"
                          (avail - plen))))
              else if Xk_storage.Crc32.sub data ~pos:body ~len:plen <> crc then
                Error (`Crc "manifest checksum mismatch")
              else
                match decode_manifest data ~pos:body ~with_endpoints with
                | m -> Ok m
                | exception Decode msg ->
                    Error (`Fatal (Index_io.Corrupted msg))))

let load_manifest ?(retries = 4) ?(backoff_ms = 1.0) path =
  match
    Xk_resilience.Retry.with_backoff_info ~retries ~backoff_ms
      ~retryable:(function
        | `Transient _ | `Crc _ | `Suspect _ -> true
        | `Fatal _ -> false)
      (fun () -> attempt_manifest path)
  with
  | Ok m, _ -> Ok m
  | Error e, attempts ->
      let error =
        match e with
        | `Transient msg -> Index_io.Io_failed msg
        | `Crc msg -> Index_io.Corrupted msg
        | `Suspect e | `Fatal e -> e
      in
      Error (Manifest { error; attempts })

let load_result ?damping ?cache_capacity ?retries ?backoff_ms ?verify_columns
    (doc : Xk_xml.Xml_tree.document) path =
  match load_manifest ?retries ?backoff_ms path with
  | Error _ as e -> e
  | Ok m ->
      let subtrees = List.length doc.root.children in
      if Array.length m.m_assignment <> subtrees then
        Error
          (Manifest
             {
               error =
                 Index_io.Corrupted
                   (Printf.sprintf
                      "manifest covers %d subtrees, document has %d"
                      (Array.length m.m_assignment)
                      subtrees);
               attempts = 1;
             })
      else
        let dir = Filename.dirname path in
        let make ~shard label ~stats =
          (* Replica fallback: try each copy in manifest order, succeed
             on the first clean load, and report every failure when the
             whole shard is lost. *)
          let rec try_replicas failures = function
            | [] ->
                Error (Shard { shard; failures = List.rev failures })
            | file :: rest -> (
                let full = Filename.concat dir file in
                match
                  Index_io.load_result ?damping ?cache_capacity ~stats
                    ?retries ?backoff_ms ?verify_columns label full
                with
                | Ok idx -> Ok idx
                | Error e -> try_replicas ((full, e) :: failures) rest)
          in
          try_replicas [] (Array.to_list m.m_files.(shard))
        in
        Sharding.build_with ~shards:m.m_shards ~assignment:m.m_assignment ~make
          doc

let load_segment (doc : Xk_xml.Xml_tree.document) path =
  let make ~shard label ~stats =
    Index_io.load_result ~stats label path
    |> Result.map_error (fun e -> Shard { shard; failures = [ (path, e) ] })
  in
  Sharding.build_with
    ~assignment:(Array.make (List.length doc.root.children) 0)
    ~make doc

let replica_files path =
  match load_manifest path with
  | Error _ as e -> e
  | Ok m ->
      let dir = Filename.dirname path in
      Ok (Array.map (Array.map (Filename.concat dir)) m.m_files)

let endpoints path =
  match load_manifest path with
  | Error _ as e -> e
  | Ok m -> Ok m.m_endpoints

let partition_spec path =
  match load_manifest path with
  | Error _ as e -> e
  | Ok m -> Ok (m.m_shards, m.m_assignment)

type copy_status =
  | Copy_clean
  | Copy_damaged of Index_io.load_error
  | Copy_missing

let copy_status_label = function
  | Copy_clean -> "clean"
  | Copy_damaged _ -> "damaged"
  | Copy_missing -> "missing"

let replica_status ?retries ?backoff_ms path =
  match replica_files path with
  | Error _ as e -> e
  | Ok files ->
      Ok
        (Array.map
           (Array.map (fun file ->
                if not (Sys.file_exists file) then (file, Copy_missing)
                else
                  match Index_io.verify ?retries ?backoff_ms file with
                  | Ok () -> (file, Copy_clean)
                  | Error e -> (file, Copy_damaged e)))
           files)

let is_manifest path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (String.length magic))
  with
  | m -> m = magic || m = magic_v2 || m = magic_v1
  | exception (Sys_error _ | End_of_file) -> false
