(* Sharded-index persistence: a small checksummed manifest that records
   the partition, next to N Index_io segment replicas per shard.

   Manifest layout (version 3), the Xk_storage.Framed container:
   magic "XKSHM003" | version varint | payload-length varint | payload
   CRC-32 varint | payload.  The payload
   is the shard count, the subtree count, the assignment array, then per
   shard a replica count followed by, per replica, the segment basename
   and an optional serving endpoint (presence flag, then host bytes and
   a port varint).  The retired v1 (no replica lists) and v2 (no
   endpoints) manifests are refused with a rebuild hint, by the
   retired-magic rule the segments share ([Index_io.refuse_retired]), and
   so is a bare segment where the manifest belongs.
   Node data lives only in the per-shard segments; reloading re-derives
   the sub-documents from the corpus and the stored assignment, so a
   manifest stays valid for exactly the document it was built from
   (per-shard node-count checks enforce that).

   A shard's replicas are byte-identical copies of one encoding, each
   written and verified independently (framing + CRC check after each
   copy), and the shard's index keeps every copy that opens
   ([Index.raw_rows]): a shard is lost only when no replica opens, and
   the typed error then carries each replica's failure and attempts. *)

let magic = "XKSHM003"
let version = 3

type error =
  | Manifest of { error : Index_io.error; attempts : int }
  | Shard of { shard : int; failures : (string * Index_io.load_error) list }

let error_message = function
  | Manifest { error; attempts } ->
      Index_io.load_error_message ~kind:"manifest" { Index_io.error; attempts }
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
  (* A shard's index holds its segment's bytes, and the same bytes are
     written to every replica; each copy is verified independently: a
     write that slips through the atomic rename but lands damaged must
     surface now, not at failover time. *)
  for s = 0 to shards - 1 do
    let bytes = Index.bytes (Sharding.index t s) in
    for r = 0 to replicas - 1 do
      let file = replica_path path ~shard:s ~replica:r in
      Xk_storage.Durable.write_string_atomically file bytes;
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
  m_endpoints : (string * int) option array array; (* same shape as [m_files] *)
}

(* Every count and length is checked against the bytes left before
   anything is allocated for it: each entry it counts takes a byte. *)
let decode_manifest c =
  let fail = Xk_storage.Varint.malformed in
  let replica _ =
    let file = Xk_storage.Varint.string c in
    let endpoint =
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
   retried (a torn read heals on re-read, real corruption repeats).  A
   retired manifest or segment, and a bare segment where the manifest
   belongs, are intact files a re-read cannot make loadable, so they are
   refused on the first attempt with the rebuild hint. *)
let attempt_manifest path : (manifest, Index_io.attempt_error) result =
  Result.bind (Index_io.read_mapped path) (fun data ->
      Result.bind (Index_io.refuse_retired data) (fun () ->
          if String.starts_with ~prefix:Index_io.magic data then
            Error
              (`Fatal
                 (Index_io.Corrupted
                    "a bare segment, not a shard manifest; rebuild the \
                     index"))
          else
            match Xk_storage.Framed.check ~magic ~version data with
            | Error e -> Error (Index_io.of_framed e)
            | Ok { pos; len } ->
                Xk_storage.Varint.(
                  decode ~whole:false decode_manifest
                    (slice data ~pos ~stop:(pos + len)))
                |> Result.map_error (fun msg ->
                       `Fatal (Index_io.Corrupted msg))))

let load_manifest ?retries ?backoff_ms path =
  Index_io.retrying ?retries ?backoff_ms (fun () -> attempt_manifest path)
  |> Result.map_error (fun ({ error; attempts } : Index_io.load_error) ->
         Manifest { error; attempts })

let load_result ?retries ?backoff_ms (doc : Xk_xml.Xml_tree.document) path =
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
        let exception Lost of error in
        let make ~shard label ~stats =
          (* Every copy is opened, in manifest order. *)
          let opened, failures =
            Array.fold_left
              (fun (opened, failures) file ->
                let full = Filename.concat dir file in
                match
                  Index_io.retrying ?retries ?backoff_ms (fun () ->
                      Index_io.open_segment label full)
                with
                | Ok seg -> (seg :: opened, failures)
                | Error e -> (opened, (full, e) :: failures))
              ([], []) m.m_files.(shard)
          in
          match List.rev opened with
          | [] -> raise (Lost (Shard { shard; failures = List.rev failures }))
          | segs -> Index.of_segments ~stats label segs
        in
        match
          Sharding.build_with ~shards:m.m_shards ~assignment:m.m_assignment
            ~make doc
        with
        | sharding -> Ok sharding
        | exception Lost e -> Error e

let replica_files path =
  let dir = Filename.dirname path in
  Result.map
    (fun m -> Array.map (Array.map (Filename.concat dir)) m.m_files)
    (load_manifest path)

let endpoints path = Result.map (fun m -> m.m_endpoints) (load_manifest path)

let partition_spec path =
  Result.map (fun m -> (m.m_shards, m.m_assignment)) (load_manifest path)
