(* Document-partitioned indexing: top-level subtrees are distributed over
   N self-contained shard indices that all score with corpus-global
   statistics, so sharded execution reproduces the unsharded results
   bit-for-bit (see the interface for the root-result story).

   Only shard 0 keeps the root element's attributes: the root is
   replicated into every shard as a structural anchor, but its directly
   contained text must be indexed exactly once or document frequencies
   (and root witnesses) would double-count. *)

type shard = { sh_index : Index.t; sh_to_global : int array }

(* One entry per top-level subtree, in document order: where its nodes
   start globally and in its shard's local numbering. *)
type segment = {
  seg_global_start : int;
  seg_size : int;
  seg_shard : int;
  seg_local_start : int;
}

type t = {
  shards : shard array;
  assignment : int array;
  total_nodes : int;
  segments : segment array;
}

let subtree_size (n : Xk_xml.Xml_tree.node) =
  let rec go acc = function
    | Xk_xml.Xml_tree.Text _ -> acc + 1
    | Xk_xml.Xml_tree.Element e -> List.fold_left go (acc + 1) e.children
  in
  go 0 n

let validate_assignment ~shards ~children (a : int array) =
  if Array.length a <> children then
    Xk_util.Err.invalidf "Sharding: assignment covers %d of %d subtrees"
      (Array.length a) children;
  Array.iter
    (fun s ->
      if s < 0 || s >= shards then
        Xk_util.Err.invalidf "Sharding: subtree assigned to shard %d" s)
    a

let build_with ?shards ~(assignment : int array) ~make
    (doc : Xk_xml.Xml_tree.document) =
  let children = Array.of_list doc.root.children in
  let n_children = Array.length children in
  let shards =
    (* At least as many shards as the assignment names; the caller may ask
       for trailing empty shards (they index a bare root). *)
    let named = Array.fold_left (fun m s -> max m (s + 1)) 1 assignment in
    match shards with
    | None -> named
    | Some n ->
        if n < 1 then Xk_util.Err.invalid "Sharding.build_with: shards < 1";
        max n named
  in
  validate_assignment ~shards ~children:n_children assignment;
  let sizes = Array.map subtree_size children in
  let global_starts = Array.make n_children 1 in
  for j = 1 to n_children - 1 do
    global_starts.(j) <- global_starts.(j - 1) + sizes.(j - 1)
  done;
  let total_nodes = 1 + Array.fold_left ( + ) 0 sizes in
  (* Corpus-global document frequency: the sum of the shards' local
     dfs, which is exact because shard node sets are disjoint.  The sum
     reads the shards' dictionaries when a list shape is first
     materialized, by which time [built] holds every shard index. *)
  let built = ref [||] in
  let global_df term =
    let df =
      Array.fold_left
        (fun acc sh ->
          match Index.term_id sh.sh_index term with
          | Some id -> acc + Index.df sh.sh_index id
          | None -> acc)
        0 !built
    in
    if df > 0 then df else 1
  in
  let stats = { Index.so_total_nodes = total_nodes; so_df = global_df } in
  let segments = Array.make n_children None in
  let exception Stop of int in
  (* 'e is smuggled through a mutable cell so the exception stays
     monomorphic. *)
  let error = ref None in
  let build_shard s =
    let local_start = ref 1 in
    let assigned = ref [] in
    for j = 0 to n_children - 1 do
      if assignment.(j) = s then begin
        segments.(j) <-
          Some
            {
              seg_global_start = global_starts.(j);
              seg_size = sizes.(j);
              seg_shard = s;
              seg_local_start = !local_start;
            };
        local_start := !local_start + sizes.(j);
        assigned := children.(j) :: !assigned
      end
    done;
    let sub_root =
      {
        Xk_xml.Xml_tree.tag = doc.root.tag;
        attrs = (if s = 0 then doc.root.attrs else []);
        children = List.rev !assigned;
      }
    in
    let label = Xk_encoding.Labeling.label { Xk_xml.Xml_tree.root = sub_root } in
    match make ~shard:s label ~stats with
    | Error e ->
        error := Some e;
        raise (Stop s)
    | Ok idx ->
        let to_global = Array.make (Xk_encoding.Labeling.node_count label) 0 in
        for j = 0 to n_children - 1 do
          match segments.(j) with
          | Some seg when seg.seg_shard = s ->
              for i = 0 to seg.seg_size - 1 do
                to_global.(seg.seg_local_start + i) <- seg.seg_global_start + i
              done
          | _ -> ()
        done;
        { sh_index = idx; sh_to_global = to_global }
  in
  match Array.init shards build_shard with
  | exception Stop _ -> (
      match !error with
      | Some e -> Error e
      | None ->
          Xk_util.Err.unreachable "Sharding.build_with: Stop without error")
  | shards ->
      built := shards;
      Ok
        {
          shards;
          assignment;
          total_nodes;
          segments =
            Array.map
              (function
                | Some seg -> seg
                | None ->
                    Xk_util.Err.unreachable
                      "Sharding.build_with: segment left unfilled")
              segments;
        }

let partition ?cache_capacity ?assignment ~shards
    (doc : Xk_xml.Xml_tree.document) =
  if shards < 1 then Xk_util.Err.invalid "Sharding.partition: shards < 1";
  let n_children = List.length doc.root.children in
  let assignment =
    match assignment with
    | Some a ->
        validate_assignment ~shards ~children:n_children a;
        Array.copy a
    | None -> Array.init n_children (fun i -> i mod shards)
  in
  let make ~shard:_ label ~stats =
    Ok (Index.build ?cache_capacity ~stats label)
  in
  match build_with ~shards ~assignment ~make doc with
  | Error (_ : unit) ->
      Xk_util.Err.unreachable "Sharding.partition: infallible make failed"
  | Ok t -> t

let count t = Array.length t.shards
let index t s = t.shards.(s).sh_index
let assignment t = Array.copy t.assignment
let total_nodes t = t.total_nodes

let to_global t ~shard local = t.shards.(shard).sh_to_global.(local)

let locate t g =
  if g = 0 then (0, 0)
  else if g < 0 || g >= t.total_nodes then
    Xk_util.Err.invalidf "Sharding.locate: node %d out of range" g
  else begin
    (* Binary search the document-ordered segment table. *)
    let lo = ref 0 and hi = ref (Array.length t.segments - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if t.segments.(mid).seg_global_start <= g then lo := mid else hi := mid - 1
    done;
    let seg = t.segments.(!lo) in
    (seg.seg_shard, seg.seg_local_start + (g - seg.seg_global_start))
  end

let cache_stats t =
  Shard_cache.aggregate
    (Array.to_list (Array.map (fun sh -> Index.cache_stats sh.sh_index) t.shards))

let size_reports t =
  Array.map (fun sh -> Index_sizes.report sh.sh_index) t.shards

let size_report t = Index_sizes.aggregate (Array.to_list (size_reports t))

(* --- Root-result evidence ------------------------------------------- *)

type root_summary = {
  rs_best_all : float array;
  rs_best_free : float array;
  rs_full_subtree : bool;
}

(* The join algorithms reach the root having erased exactly the rows that
   sit inside a subtree containing every query keyword (matches are
   upward-closed below the root, so any erased row's own top-level
   subtree is keyword-complete).  One pass over the keyword lists
   therefore reconstructs the root's evidence: group occurrences by
   top-level subtree, find the keyword-complete subtrees, and take
   per-keyword maxima of the root-damped contributions over all rows
   ([rs_best_all]) and over the un-erased rows ([rs_best_free]). *)
let root_summary ?(budget = Xk_resilience.Budget.unlimited) t ~shard words =
  let idx = index t shard in
  let lab = Index.label idx in
  let damping = Index.damping idx in
  let nw = List.length words in
  let ids = Array.of_list (List.map (Index.term_id idx) words) in
  let best_all = Array.make nw neg_infinity in
  let best_free = Array.make nw neg_infinity in
  let coverage : (int, bool array) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i id ->
      match id with
      | None -> ()
      | Some id ->
          let jl = Index.jlist idx id in
          for r = 0 to Jlist.length jl - 1 do
            Xk_resilience.Budget.check budget;
            match Xk_encoding.Labeling.ancestor_at lab (Jlist.node jl r) ~depth:2 with
            | None -> () (* an occurrence at the root itself *)
            | Some top ->
                let mask =
                  match Hashtbl.find_opt coverage top with
                  | Some m -> m
                  | None ->
                      let m = Array.make nw false in
                      Hashtbl.add coverage top m;
                      m
                in
                mask.(i) <- true
          done)
    ids;
  let complete mask = Array.for_all Fun.id mask in
  let full_subtree =
    nw > 0 && Hashtbl.fold (fun _ m acc -> acc || complete m) coverage false
  in
  Array.iteri
    (fun i id ->
      match id with
      | None -> ()
      | Some id ->
          let jl = Index.jlist idx id in
          for r = 0 to Jlist.length jl - 1 do
            Xk_resilience.Budget.check budget;
            let damped =
              Jlist.score jl r
              *. Xk_score.Damping.apply damping (Jlist.row_len jl r - 1)
            in
            if damped > best_all.(i) then best_all.(i) <- damped;
            let free =
              match
                Xk_encoding.Labeling.ancestor_at lab (Jlist.node jl r) ~depth:2
              with
              | None -> true
              | Some top -> not (complete (Hashtbl.find coverage top))
            in
            if free && damped > best_free.(i) then best_free.(i) <- damped
          done)
    ids;
  { rs_best_all = best_all; rs_best_free = best_free; rs_full_subtree = full_subtree }
