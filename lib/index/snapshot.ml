type group = {
  g_docs : Wal.doc list;
  g_index : string option;
}

type t = {
  sn_lsn : int;
  sn_doc : Xk_xml.Xml_tree.document;
  sn_doc_ids : int array;
  sn_sharding : Sharding.t;
  sn_rebuilt : int;
}

let build ~root_tag ~root_attrs ~lsn groups =
  if groups = [] then Xk_util.Err.invalid "Snapshot.build: no groups";
  let groups = Array.of_list groups in
  let tagged =
    List.concat
      (List.mapi
         (fun g grp ->
           List.map (fun (d : Wal.doc) -> (d.doc_id, g, d.subtree)) grp.g_docs)
         (Array.to_list groups))
  in
  let sorted =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) tagged
  in
  (let rec dup_check = function
     | (a, _, _) :: ((b, _, _) :: _ as rest) ->
         if a = b then
           Xk_util.Err.invalidf "Snapshot.build: duplicate document id %d" a
         else dup_check rest
     | _ -> ()
   in
   dup_check sorted);
  let doc_ids = Array.of_list (List.map (fun (id, _, _) -> id) sorted) in
  let assignment = Array.of_list (List.map (fun (_, g, _) -> g) sorted) in
  let children = List.map (fun (_, _, node) -> node) sorted in
  let doc =
    { Xk_xml.Xml_tree.root = Xk_xml.Xml_tree.element ~attrs:root_attrs root_tag children }
  in
  let rebuilt = Atomic.make 0 in
  let make ~shard labeling ~stats =
    let built () = Index.build ~stats labeling in
    match groups.(shard).g_index with
    | None -> built ()
    | Some path -> (
        match Index_io.load_result ~stats labeling path with
        | Ok idx -> idx
        | Error (_ : Index_io.load_error) ->
            (* a damaged saved segment costs a rebuild, not a failed
               snapshot: the subtrees are the source of truth *)
            Atomic.incr rebuilt;
            built ())
  in
  let sharding =
    Sharding.build_with ~shards:(Array.length groups) ~assignment ~make doc
  in
  {
    sn_lsn = lsn;
    sn_doc = doc;
    sn_doc_ids = doc_ids;
    sn_sharding = sharding;
    sn_rebuilt = Atomic.get rebuilt;
  }

let lsn t = t.sn_lsn
let document t = t.sn_doc
let doc_ids t = t.sn_doc_ids
let doc_count t = Array.length t.sn_doc_ids
let sharding t = t.sn_sharding
let rebuilt t = t.sn_rebuilt
