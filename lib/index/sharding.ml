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
  let sizes = Array.of_list (List.map subtree_size doc.root.children) in
  let n_children = Array.length sizes in
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
  let total_nodes = 1 + Array.fold_left ( + ) 0 sizes in
  (* Subtrees are numbered in document order, globally over all of them
     and locally over each shard's own, after the root (node 0). *)
  let next_global = ref 1 and next_local = Array.make shards 1 in
  let segments =
    Array.init n_children (fun j ->
        let s = assignment.(j) in
        let seg =
          {
            seg_global_start = !next_global;
            seg_size = sizes.(j);
            seg_shard = s;
            seg_local_start = next_local.(s);
          }
        in
        next_global := !next_global + sizes.(j);
        next_local.(s) <- next_local.(s) + sizes.(j);
        seg)
  in
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
  let build_shard s =
    let sub_root =
      {
        Xk_xml.Xml_tree.tag = doc.root.tag;
        attrs = (if s = 0 then doc.root.attrs else []);
        children =
          List.filteri (fun j _ -> assignment.(j) = s) doc.root.children;
      }
    in
    let label = Xk_encoding.Labeling.label { Xk_xml.Xml_tree.root = sub_root } in
    let idx = make ~shard:s label ~stats in
    let to_global = Array.make (Xk_encoding.Labeling.node_count label) 0 in
    Array.iter
      (fun seg ->
        if seg.seg_shard = s then
          for i = 0 to seg.seg_size - 1 do
            to_global.(seg.seg_local_start + i) <- seg.seg_global_start + i
          done)
      segments;
    { sh_index = idx; sh_to_global = to_global }
  in
  let shards = Array.init shards build_shard in
  built := shards;
  { shards; assignment; total_nodes; segments }

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
  build_with ~shards ~assignment doc ~make:(fun ~shard:_ label ~stats ->
      Index.build ?cache_capacity ~stats label)

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
   subtree is keyword-complete).  A list's level-2 column already groups
   its rows by top-level subtree: one run per subtree that holds the
   keyword, valued by the subtree's JDewey number, and no entry for the
   root's own rows.  So the keyword-complete subtrees are the values
   every keyword's level-2 column holds, and one pass over each list
   takes the per-keyword maxima of the root-damped contributions over
   all rows ([rs_best_all]) and over the rows outside the complete
   subtrees' runs ([rs_best_free]). *)
let no_runs = Column.of_arrays ~values:[||] ~starts:[||] ~counts:[||]

let top_level jl =
  if Jlist.max_len jl >= 2 then Jlist.column jl ~level:2 else no_runs

let root_summary ?(budget = Xk_resilience.Budget.unlimited) t ~shard words =
  let idx = index t shard in
  let damping = Index.damping idx in
  let lists =
    Array.of_list
      (List.map
         (fun w ->
           Option.map
             (fun id ->
               let jl = Index.jlist idx id in
               (jl, top_level jl))
             (Index.term_id idx w))
         words)
  in
  let nw = Array.length lists in
  let best_all = Array.make nw neg_infinity in
  let best_free = Array.make nw neg_infinity in
  (* No subtree is complete when a keyword is absent from the shard. *)
  let complete =
    match List.filter_map (Option.map snd) (Array.to_list lists) with
    | first :: rest when List.length rest = nw - 1 ->
        List.filter
          (fun v -> List.for_all (fun col -> Column.find col v >= 0) rest)
          (List.init (Column.num_runs first) (Column.value first))
    | _ -> []
  in
  Array.iteri
    (fun i -> function
      | None -> ()
      | Some (jl, col) ->
          let inside = Array.make (Column.num_runs col) false in
          List.iter (fun v -> inside.(Column.find col v) <- true) complete;
          let scan lo hi ~free =
            for r = lo to hi - 1 do
              Xk_resilience.Budget.check budget;
              let damped =
                Jlist.score jl r
                *. Xk_score.Damping.apply damping (Jlist.row_len jl r - 1)
              in
              if damped > best_all.(i) then best_all.(i) <- damped;
              if free && damped > best_free.(i) then best_free.(i) <- damped
            done
          in
          (* Rows outside every run are the root's own: always free. *)
          let row = ref 0 in
          for k = 0 to Column.num_runs col - 1 do
            let start = Column.start col k in
            scan !row start ~free:true;
            row := start + Column.count col k;
            scan start !row ~free:(not inside.(k))
          done;
          scan !row (Jlist.length jl) ~free:true)
    lists;
  {
    rs_best_all = best_all;
    rs_best_free = best_free;
    rs_full_subtree = complete <> [];
  }
