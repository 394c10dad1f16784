(* The live store.  Layout and crash discipline are documented in the
   interface; the invariants the code below leans on:

   - the [.docs] files plus the WAL are the source of truth; [.idx]
     files are tokenization caches that rebuild from the [.docs] on any
     load failure;
   - the manifest is the commit point of a compaction: every file it
     references is fully written and fsynced before the manifest rename,
     and nothing it stopped referencing is unlinked until after;
   - the published state is one immutable value behind an [Atomic];
     mutators swap it, readers [Atomic.get] it and never look back;
   - the writer token is a compare-and-swap flag, so no lock is ever
     held across file IO (and a competing writer fails fast with
     [Busy] instead of queueing behind an fsync). *)

module Varint = Xk_storage.Varint
module Framed = Xk_storage.Framed
module Durable = Xk_storage.Durable
module Chaos = Xk_resilience.Chaos

type error =
  | Busy
  | Unknown_doc of int
  | Unstorable of string
  | Corrupt of string
  | Io of string

let error_message = function
  | Busy -> "another mutation is in progress"
  | Unknown_doc id -> Printf.sprintf "no live document with id %d" id
  | Unstorable m -> "unstorable subtree: " ^ m
  | Corrupt m -> "corrupt live store: " ^ m
  | Io m -> "live store IO failure: " ^ m

let of_wal_error = function
  | Wal.Corrupted m -> Corrupt m
  | Wal.Io m -> Io m

type seg = { seg_gen : int; seg_docs : Wal.doc list }

type state = {
  st_lsn : int;
  st_next_doc : int;
  st_sealed : seg list; (* ascending generation *)
  st_delta : Delta.t;
  st_snapshot : Snapshot.t;
}

type t = {
  l_dir : string;
  l_fsync : bool;
  l_auto : int option;
  l_root_tag : string;
  l_root_attrs : Xk_xml.Xml_tree.attribute list;
  l_writer : bool Atomic.t;
  mutable l_wal : Wal.t; (* touched only under the writer token *)
  l_state : state Atomic.t;
}

type mutation =
  | Add of Xk_xml.Xml_tree.node
  | Replace of int * Xk_xml.Xml_tree.node
  | Remove of int

let crash_steps =
  [
    "wal-append";
    "wal-pre-fsync";
    "wal-post-fsync";
    "compact-begin";
    "compact-docs-torn";
    "compact-docs";
    "compact-seg";
    "compact-manifest";
    "compact-rotate";
    "compact-done";
  ]

(* Paths *)

let manifest_path dir = Filename.concat dir "live.manifest"
let wal_path dir = Filename.concat dir "wal.log"
let docs_path dir gen = Filename.concat dir (Printf.sprintf "seg-%04d.docs" gen)
let idx_path dir gen = Filename.concat dir (Printf.sprintf "seg-%04d.idx" gen)

(* Whole files (manifest, sealed documents) in the Xk_storage.Framed
   container, read through Index_io's mapped read and retry policy.  A
   payload that does not decode behind a verified checksum is fatal. *)

let manifest_magic = "XKLIV001"
let docs_magic = "XKDOC001"
let frame_version = 1

let save_framed ~fsync ~magic path payload =
  Durable.write_string_atomically ~fsync path
    (Framed.file ~magic ~version:frame_version payload)

let load_framed ~magic ~decode path =
  let name = Filename.basename path in
  Index_io.retrying (fun () ->
      Result.bind (Index_io.read_mapped path) (fun data ->
          match Framed.check ~magic ~version:frame_version data with
          | Error e -> Error (Index_io.of_framed e)
          | Ok { pos; len } ->
              Result.map_error
                (fun m -> `Fatal (Index_io.Corrupted m))
                (decode (Varint.slice data ~pos ~stop:(pos + len)))))
  |> Result.map_error (function
       | { Index_io.error = Io_failed m; _ } -> Io m
       | { error = Truncated m | Corrupted m; _ } -> Corrupt (name ^ ": " ^ m))

(* Payload codecs.  Decoders parse bytes whose CRC already checked out,
   so a short read here is structural damage, not a torn write. *)

type manifest = {
  m_root_tag : string;
  m_root_attrs : Xk_xml.Xml_tree.attribute list;
  m_next_doc : int;
  m_durable_lsn : int;
  m_gens : int list;
}

let encode_manifest m =
  let buf = Buffer.create 256 in
  let str s =
    Varint.write buf (String.length s);
    Buffer.add_string buf s
  in
  str m.m_root_tag;
  Varint.write buf (List.length m.m_root_attrs);
  List.iter
    (fun (a : Xk_xml.Xml_tree.attribute) ->
      str a.attr_name;
      str a.attr_value)
    m.m_root_attrs;
  Varint.write buf m.m_next_doc;
  Varint.write buf m.m_durable_lsn;
  Varint.write buf (List.length m.m_gens);
  List.iter (Varint.write buf) m.m_gens;
  Buffer.contents buf

let decode_manifest =
  Varint.decode ~whole:false (fun cur ->
      let m_root_tag = Varint.string cur in
      let m_root_attrs =
        List.init (Varint.count cur ~width:1) (fun _ ->
            let attr_name = Varint.string cur in
            let attr_value = Varint.string cur in
            { Xk_xml.Xml_tree.attr_name; attr_value })
      in
      let m_next_doc = Varint.read cur in
      let m_durable_lsn = Varint.read cur in
      let m_gens =
        List.init (Varint.count cur ~width:1) (fun _ -> Varint.read cur)
      in
      { m_root_tag; m_root_attrs; m_next_doc; m_durable_lsn; m_gens })

let by_id (a : Wal.doc) (b : Wal.doc) = Int.compare a.doc_id b.doc_id
let decode_docs cur = Result.map (List.sort by_id) (Wal.decode_docs cur)

(* Snapshot assembly: shard 0 is the delta, one shard per sealed
   generation after it.  A generation none of whose documents the delta
   touches is clean and may serve its saved index. *)

let build_snapshot ~dir ~root_tag ~root_attrs ~lsn ~sealed ~delta () =
  let delta_group = { Snapshot.g_docs = Delta.upserts delta; g_index = None } in
  let seg_group seg =
    let surviving =
      List.filter
        (fun (d : Wal.doc) -> not (Delta.touches delta d.doc_id))
        seg.seg_docs
    in
    let dirty = List.compare_lengths surviving seg.seg_docs <> 0 in
    {
      Snapshot.g_docs = surviving;
      g_index = (if dirty then None else Some (idx_path dir seg.seg_gen));
    }
  in
  Snapshot.build ~root_tag ~root_attrs ~lsn
    (delta_group :: List.map seg_group sealed)

(* Write generation [gen]'s index from its documents and verify it
   back: the one path that creates a sealed [.idx], shared by compaction
   and the re-seal at open.  [Index_io.save] replaces the file by a
   durable atomic rename. *)
let seal_index ~dir ~root_tag gen docs =
  let sub =
    {
      Xk_xml.Xml_tree.root =
        Xk_xml.Xml_tree.element root_tag
          (List.map (fun (d : Wal.doc) -> d.subtree) docs);
    }
  in
  Index_io.save (Index.build (Xk_encoding.Labeling.label sub)) (idx_path dir gen);
  match Index_io.verify (idx_path dir gen) with
  | Ok () -> Ok ()
  | Error le ->
      Error (Io ("segment verify failed after write: " ^ Index_io.load_error_message le))

(* A sealed [.idx] that fails verification (damaged, missing, or of a
   retired format) is rebuilt from its [.docs] once, at open, instead of
   costing every published snapshot a rebuild until compaction drops its
   generation.  Best effort: the [.idx] is a cache, so a store whose
   directory cannot be written still opens, and its snapshots rebuild
   the index in memory as before. *)
let reseal_damaged ~dir ~root_tag sealed =
  List.iter
    (fun seg ->
      if Result.is_error (Index_io.verify (idx_path dir seg.seg_gen)) then
        try ignore (seal_index ~dir ~root_tag seg.seg_gen seg.seg_docs)
        with Sys_error _ | Unix.Unix_error _ -> ())
    sealed

(* Construction and recovery *)

(* seg-<gen>.docs / seg-<gen>.idx basename -> generation *)
let seg_file_gen name =
  let parse suffix =
    if
      Filename.check_suffix name suffix
      && String.length name > 4 + String.length suffix
      && String.sub name 0 4 = "seg-"
    then
      int_of_string_opt
        (String.sub name 4 (String.length name - 4 - String.length suffix))
    else None
  in
  match parse ".docs" with Some g -> Some g | None -> parse ".idx"

(* Remove what no manifest references: temp files of writes that never
   committed, and segment files of generations the manifest dropped
   (a crash between segment writes and the manifest rename, or between
   the rename and the unlink pass). *)
let gc_orphans dir ~gens =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          let orphan =
            Filename.check_suffix name ".tmp"
            || match seg_file_gen name with
               | Some g -> not (List.mem g gens)
               | None -> false
          in
          if orphan then
            try Sys.remove (Filename.concat dir name)
            with Sys_error _ -> ())
        names

let ( let* ) = Result.bind

let open_ ?(fsync = true) ?auto_compact dir =
  let* m =
    load_framed ~magic:manifest_magic ~decode:decode_manifest (manifest_path dir)
  in
  let* sealed =
    List.fold_left
      (fun acc gen ->
        let* segs = acc in
        let* docs =
          load_framed ~magic:docs_magic ~decode:decode_docs (docs_path dir gen)
        in
        Ok ({ seg_gen = gen; seg_docs = docs } :: segs))
      (Ok []) m.m_gens
  in
  let sealed = List.rev sealed in
  let wal_file = wal_path dir in
  let* wal, records =
    Result.map_error of_wal_error
      (match Unix.stat wal_file with
      | { st_size = 0; _ } | (exception Unix.Unix_error (ENOENT, _, _)) ->
          (* a missing or empty log: nothing to replay *)
          Result.map
            (fun w -> (w, []))
            (Wal.create ~fsync ~base_lsn:m.m_durable_lsn wal_file)
      | _ | (exception Unix.Unix_error _) -> Wal.open_existing ~fsync wal_file)
  in
  let delta, max_insert =
    List.fold_left
      (fun (delta, mx) (r : Wal.record) ->
        if r.lsn <= m.m_durable_lsn then (delta, mx)
        else
          ( Delta.apply delta r.entry,
            match r.entry with
            | Put d -> max mx d.doc_id
            | Drop _ -> mx ))
      (Delta.empty, -1) records
  in
  gc_orphans dir ~gens:m.m_gens;
  reseal_damaged ~dir ~root_tag:m.m_root_tag sealed;
  let lsn = max m.m_durable_lsn (Wal.lsn wal) in
  let next_doc = max m.m_next_doc (max_insert + 1) in
  let snapshot =
    build_snapshot ~dir ~root_tag:m.m_root_tag
      ~root_attrs:m.m_root_attrs ~lsn ~sealed ~delta ()
  in
  Ok
    {
      l_dir = dir;
      l_fsync = fsync;
      l_auto = auto_compact;
      l_root_tag = m.m_root_tag;
      l_root_attrs = m.m_root_attrs;
      l_writer = Atomic.make false;
      l_wal = wal;
      l_state =
        Atomic.make
          {
            st_lsn = lsn;
            st_next_doc = next_doc;
            st_sealed = sealed;
            st_delta = delta;
            st_snapshot = snapshot;
          };
    }

(* A fresh store is an empty manifest and log, opened like any other. *)
let create ?(fsync = true) ?auto_compact ~root_tag ?(root_attrs = [])
    dir =
  match
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    if Sys.file_exists (manifest_path dir) then
      Error (Io (dir ^ ": already a live store"))
    else begin
      save_framed ~fsync ~magic:manifest_magic (manifest_path dir)
        (encode_manifest
           {
             m_root_tag = root_tag;
             m_root_attrs = root_attrs;
             m_next_doc = 0;
             m_durable_lsn = 0;
             m_gens = [];
           });
      Result.map Wal.close
        (Result.map_error of_wal_error
           (Wal.create ~fsync ~base_lsn:0 (wal_path dir)))
    end
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
  | exception Sys_error m -> Error (Io m)
  | Error _ as e -> e
  | Ok () -> open_ ~fsync ?auto_compact dir

let close t = Wal.close t.l_wal

(* Accessors *)

let snapshot t = (Atomic.get t.l_state).st_snapshot
let lsn t = (Atomic.get t.l_state).st_lsn
let doc_count t = Snapshot.doc_count (snapshot t)
let pending_ops t = Delta.ops (Atomic.get t.l_state).st_delta
let sealed_gens t = List.map (fun s -> s.seg_gen) (Atomic.get t.l_state).st_sealed
let dir t = t.l_dir

(* The writer token.  Fun.protect releases it even when a chaos crash
   point fires mid-mutation: the "dead process" semantics apply to the
   files, not to the in-memory token of the test harness's process. *)
let with_writer t f =
  if Atomic.compare_and_set t.l_writer false true then
    Fun.protect ~finally:(fun () -> Atomic.set t.l_writer false) f
  else Error Busy

(* Compaction *)

let rm path = try Sys.remove path with Sys_error _ -> ()

(* The durable steps of one compaction: the next generation's documents
   and index segment, the manifest, the WAL rotation, then the unlink
   pass.  Returns the sealed list after it. *)
let compact_steps t ~lsn ~next_doc ~clean ~dirty ~delta =
  Chaos.crash_point "compact-begin";
  let merged =
    List.sort by_id
      (Delta.upserts delta
      @ List.concat_map
          (fun seg ->
            List.filter
              (fun (d : Wal.doc) -> not (Delta.touches delta d.doc_id))
              seg.seg_docs)
          dirty)
  in
  let next_gen =
    1 + List.fold_left (fun m s -> max m s.seg_gen) 0 (clean @ dirty)
  in
  if Chaos.crash_armed "compact-docs-torn" && merged <> [] then begin
    (* a torn temp write: half the docs file lands, then the process
       dies before the rename.  Recovery's orphan GC must remove it. *)
    let payload = Wal.encode_docs merged in
    let oc = open_out_bin (docs_path t.l_dir next_gen ^ ".tmp") in
    output_string oc (String.sub payload 0 (String.length payload / 2));
    flush oc;
    close_out_noerr oc;
    Chaos.crash_point "compact-docs-torn"
  end;
  let* new_seg =
    if merged = [] then Ok []
    else begin
      save_framed ~fsync:t.l_fsync ~magic:docs_magic
        (docs_path t.l_dir next_gen)
        (Wal.encode_docs merged);
      Chaos.crash_point "compact-docs";
      let* () =
        seal_index ~dir:t.l_dir ~root_tag:t.l_root_tag
          next_gen merged
      in
      Chaos.crash_point "compact-seg";
      Ok [ { seg_gen = next_gen; seg_docs = merged } ]
    end
  in
  let sealed' = clean @ new_seg in
  Chaos.crash_point "compact-manifest";
  save_framed ~fsync:t.l_fsync ~magic:manifest_magic (manifest_path t.l_dir)
    (encode_manifest
       {
         m_root_tag = t.l_root_tag;
         m_root_attrs = t.l_root_attrs;
         m_next_doc = next_doc;
         m_durable_lsn = lsn;
         m_gens = List.map (fun s -> s.seg_gen) sealed';
       });
  Chaos.crash_point "compact-rotate";
  (* [Wal.create] replaces the log atomically: there is no instant at
     which [wal.log] exists with a half-written header. *)
  Wal.close t.l_wal;
  let* w =
    Result.map_error of_wal_error
      (Wal.create ~fsync:t.l_fsync ~base_lsn:lsn (wal_path t.l_dir))
  in
  t.l_wal <- w;
  Chaos.crash_point "compact-done";
  List.iter
    (fun s ->
      rm (docs_path t.l_dir s.seg_gen);
      rm (idx_path t.l_dir s.seg_gen))
    dirty;
  Ok sealed'

(* Compact the state [lsn], [next_doc], [sealed] and [delta], which the
   caller may not have published yet.  [None] when nothing changed since
   the last compaction.  Publishes nothing: the caller picks the
   snapshot that serves the result. *)
let compact_state t ~lsn ~next_doc ~sealed ~delta =
  let dirty, clean =
    List.partition
      (fun seg ->
        List.exists (fun (d : Wal.doc) -> Delta.touches delta d.doc_id) seg.seg_docs)
      sealed
  in
  if Delta.is_empty delta && dirty = [] && Wal.base_lsn t.l_wal = lsn then
    Ok None
  else
    match compact_steps t ~lsn ~next_doc ~clean ~dirty ~delta with
    | exception Sys_error m -> Error (Io m)
    | exception Unix.Unix_error (e, _, _) -> Error (Io (Unix.error_message e))
    | r -> Result.map Option.some r

let compact t =
  with_writer t (fun () ->
      let st = Atomic.get t.l_state in
      let* sealed =
        compact_state t ~lsn:st.st_lsn ~next_doc:st.st_next_doc
          ~sealed:st.st_sealed ~delta:st.st_delta
      in
      (* Readers are untouched: the published snapshot already serves
         this content, only the storage layout behind future snapshots
         moved. *)
      Option.iter
        (fun sealed ->
          Atomic.set t.l_state
            { st with st_sealed = sealed; st_delta = Delta.empty })
        sealed;
      Ok ())

(* Mutation *)

(* Encode every operation through the WAL codec before anything touches
   disk ([Wal.canonical]): the delta then holds exactly what recovery
   would reconstruct, so the in-memory store and a post-crash reopen
   cannot diverge, a subtree the codec cannot carry is rejected up
   front, and the bytes encoded here are the ones the WAL and, at
   compaction, the [.docs] file write. *)
let canonical_op op =
  Result.map_error (fun m -> Unstorable m) (Wal.canonical op)

let plan_batch st muts =
  let live = Hashtbl.create 64 in
  List.iter
    (fun seg ->
      List.iter
        (fun (d : Wal.doc) ->
          if not (Delta.is_deleted st.st_delta d.doc_id) then
            Hashtbl.replace live d.doc_id ())
        seg.seg_docs)
    st.st_sealed;
  List.iter
    (fun (d : Wal.doc) -> Hashtbl.replace live d.doc_id ())
    (Delta.upserts st.st_delta);
  let* entries_rev, ids_rev, _next =
    List.fold_left
      (fun acc mut ->
        let* entries, ids, next = acc in
        match mut with
        | Add subtree ->
            let* e = canonical_op (Wal.Insert { doc_id = next; subtree }) in
            Hashtbl.replace live next ();
            Ok (e :: entries, next :: ids, next + 1)
        | Replace (id, subtree) ->
            if not (Hashtbl.mem live id) then Error (Unknown_doc id)
            else
              let* e = canonical_op (Wal.Insert { doc_id = id; subtree }) in
              Ok (e :: entries, id :: ids, next)
        | Remove id ->
            if not (Hashtbl.mem live id) then Error (Unknown_doc id)
            else begin
              Hashtbl.remove live id;
              let* e = canonical_op (Wal.Delete { doc_id = id }) in
              Ok (e :: entries, id :: ids, next)
            end)
      (Ok ([], [], st.st_next_doc))
      muts
  in
  Ok (List.rev entries_rev, List.rev ids_rev)

let mutate t muts =
  with_writer t (fun () ->
      let st = Atomic.get t.l_state in
      let* entries, ids = plan_batch st muts in
      (* One durable write for the whole batch; a failed write keeps the
         durable prefix applied so memory and disk agree. *)
      let landed, failure =
        match Wal.append_batch t.l_wal entries with
        | Ok _ -> (entries, None)
        | Error (n, e) ->
            (List.filteri (fun i _ -> i < n) entries, Some (of_wal_error e))
      in
      let delta = List.fold_left Delta.apply st.st_delta landed in
      let next_doc =
        List.fold_left
          (fun n (e : Wal.entry) ->
            match e with Put d -> max n (d.doc_id + 1) | Drop _ -> n)
          st.st_next_doc landed
      in
      let lsn = Wal.lsn t.l_wal in
      let publish ~sealed ~delta =
        Atomic.set t.l_state
          {
            st_lsn = lsn;
            st_next_doc = next_doc;
            st_sealed = sealed;
            st_delta = delta;
            st_snapshot =
              build_snapshot ~dir:t.l_dir ~root_tag:t.l_root_tag
                ~root_attrs:t.l_root_attrs ~lsn ~sealed ~delta ();
          }
      in
      (* An auto-compaction runs on the batch's state before anything is
         published, so the one snapshot this batch publishes loads the
         segment just sealed and verified instead of indexing the delta
         in memory first. *)
      let compacted =
        match (failure, t.l_auto) with
        | None, Some threshold when Delta.ops delta >= threshold ->
            compact_state t ~lsn ~next_doc ~sealed:st.st_sealed ~delta
        | _ -> Ok None
      in
      (match compacted with
      | Ok (Some sealed) -> publish ~sealed ~delta:Delta.empty
      | Ok None | Error _ ->
          if landed <> [] then publish ~sealed:st.st_sealed ~delta);
      match (failure, compacted) with
      | Some e, _ | None, Error e -> Error e
      | None, Ok _ -> Ok ids)
