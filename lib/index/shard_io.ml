(* Sharded-index persistence: a small checksummed manifest that records
   the partition, next to N Index_io segment replicas per shard.

   Manifest layout (version 3), the Xk_storage.Framed container:
   magic "XKSHM003" | version varint | payload-length varint | payload
   CRC-32 varint | payload.  The payload
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
  Xk_storage.Durable.write_string_atomically path
    (Xk_storage.Framed.file ~magic ~version (Buffer.contents payload));
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

type manifest = {
  m_shards : int;
  m_assignment : int array;
  m_files : string array array; (* per shard, replica basenames in order *)
  m_endpoints : (string * int) option array array;
      (* same shape as [m_files]; v2 manifests decode to all-[None] *)
}

(* Every count and length is checked against the bytes left before
   anything is allocated for it: each entry it counts takes a byte. *)
let decode_manifest ~with_endpoints c =
  let fail = Xk_storage.Varint.malformed in
  let replica _ =
    let file = Xk_storage.Varint.string c in
    let endpoint =
      if not with_endpoints then None
      else
        match Xk_storage.Varint.read c with
        | 0 -> None
        | 1 ->
            let host = Xk_storage.Varint.string c in
            let port = Xk_storage.Varint.read c in
            if port > 0xFFFF then fail "endpoint port out of range";
            Some (host, port)
        | _ -> fail "bad endpoint flag"
    in
    (file, endpoint)
  in
  let shards = Xk_storage.Varint.count c ~width:1 in
  if shards < 1 then fail "no shards";
  let assignment =
    Array.init (Xk_storage.Varint.count c ~width:1) (fun _ ->
        let s = Xk_storage.Varint.read c in
        if s >= shards then fail "assignment names a missing shard";
        s)
  in
  let rows =
    Array.init shards (fun _ ->
        let replicas = Xk_storage.Varint.count c ~width:1 in
        if replicas < 1 then fail "shard with no replicas";
        Array.init replicas replica)
  in
  {
    m_shards = shards;
    m_assignment = assignment;
    m_files = Array.map (Array.map fst) rows;
    m_endpoints = Array.map (Array.map snd) rows;
  }

(* One manifest read attempt, through the same mapped read and failure
   classes as the segment reader in [Index_io]: framing anomalies are
   retried (a torn read heals on re-read, real corruption repeats). *)
let attempt_manifest path : (manifest, Index_io.attempt_error) result =
  Result.bind (Index_io.read_mapped path) (fun data ->
      (* v2 manifests (no endpoints) stay loadable; the magic decides
         which payload layout and version number to expect. *)
      let v2 = String.starts_with ~prefix:magic_v2 data in
      let magic, version = if v2 then (magic_v2, version_v2) else (magic, version) in
      match Xk_storage.Framed.check ~magic ~version data with
      | Error (Bad_magic m) when m = magic_v1 ->
          Error
            (`Suspect
              (Index_io.Corrupted
                 "legacy v1 manifest without replica lists; rebuild the index"))
      | Error e -> Error (Index_io.of_framed e)
      | Ok { pos; len } ->
          Xk_storage.Varint.(
            decode ~whole:false
              (decode_manifest ~with_endpoints:(not v2))
              (slice data ~pos ~stop:(pos + len)))
          |> Result.map_error (fun msg -> `Fatal (Index_io.Corrupted msg)))

let load_manifest ?retries ?backoff_ms path =
  Index_io.retrying ?retries ?backoff_ms (fun () -> attempt_manifest path)
  |> Result.map_error (fun ({ error; attempts } : Index_io.load_error) ->
         Manifest { error; attempts })

let load_result ?retries ?backoff_ms ?verify_columns
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
                  Index_io.load_result ~stats
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
  let dir = Filename.dirname path in
  Result.map
    (fun m -> Array.map (Array.map (Filename.concat dir)) m.m_files)
    (load_manifest path)

let endpoints path = Result.map (fun m -> m.m_endpoints) (load_manifest path)

let partition_spec path =
  Result.map (fun m -> (m.m_shards, m.m_assignment)) (load_manifest path)

let is_manifest path =
  let manifests = [ magic; magic_v2; magic_v1 ] in
  match Index_io.read_magic ~known:(manifests @ Index_io.magics) path with
  | Some m -> List.mem m manifests
  | None -> false
