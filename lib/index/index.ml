(* The corpus index: term dictionary plus raw postings (node, tf) built in
   one pass over the labeled tree.  The algorithm-specific list shapes —
   Dewey postings, JDewey column lists, score-ordered lists — are
   materialized per term on demand and cached, which mirrors the paper's
   hot-cache experimental setting.

   The three shape caches are sharded, bounded LRU caches (Shard_cache),
   so one index can be shared by concurrent query domains: everything
   else in [t] is immutable after construction (the dictionary is only
   written during build/of_raw). *)

type raw = { r_nodes : int array; r_tfs : int array }

(* Lazily-fetched rows: a zero-copy segment (Index_io v5) decodes a
   term's rows from mapped postings on first use instead of materializing
   the whole postings file at open.  [pv_rows] must be safe to call from
   any domain (it is pure decoding of immutable mapped bytes) and may
   raise the segment's typed fault exception; the per-shape caches above
   it make repeated query access cheap. *)
type provider = {
  pv_terms : int;
  pv_row_count : int -> int;
  pv_rows : int -> int array * int array;
}

type rows_src = Arrays of raw array | Lazy_rows of provider

let default_cache_capacity = 8192

(* Corpus-global ranking statistics, for shards of a partitioned corpus:
   the scorer norm uses the whole corpus's node count and [so_df] the
   whole corpus's per-term document frequency, so shard-local scores are
   bit-identical to the unsharded index.  [so_df] is only consulted at
   list-shape materialization time, so it may read a table that is filled
   after all shards have been constructed. *)
type stats_override = { so_total_nodes : int; so_df : string -> int }

type t = {
  label : Xk_encoding.Labeling.t;
  dict : Xk_text.Dictionary.t;
  raws : rows_src;
  scorer : Xk_score.Scorer.t;
  df_override : (string -> int) option;
  jcache : Jlist.t Shard_cache.t;
  pcache : Posting.t Shard_cache.t;
  scache : Score_list.t Shard_cache.t;
}

let make_caches capacity =
  if capacity < 1 then Xk_util.Err.invalid "Index: cache_capacity < 1";
  ( Shard_cache.create ~capacity (),
    Shard_cache.create ~capacity (),
    Shard_cache.create ~capacity () )

let scorer_for ?stats label =
  let total_nodes =
    match stats with
    | Some s -> s.so_total_nodes
    | None -> Xk_encoding.Labeling.node_count label
  in
  Xk_score.Scorer.make ~total_nodes

let df_override_of stats =
  Option.map (fun s -> s.so_df) stats

(* One pass over the nodes.  A node's term frequencies are tallied in two
   arrays indexed by term id, [last_node] (the node that last saw the
   term) and [tf], and the node's distinct ids drive the posting pushes
   into one flat buffer of (term, node, tf) rows in node order.  A
   counting pass by term id then cuts the buffer into per-term arrays, so
   each term's rows stay in node order; ids are interned in first-seen
   order, straight from the tokens' source spans. *)
let build ?(cache_capacity = default_cache_capacity) ?stats
    (label : Xk_encoding.Labeling.t) =
  let dict = Xk_text.Dictionary.create () in
  let last_node = ref [||] and tf = ref [||] in
  let ensure id =
    let cap = Array.length !last_node in
    if id >= cap then begin
      let grown a x =
        let b = Array.make (max 1024 (max (2 * cap) (id + 1))) x in
        Array.blit a 0 b 0 cap;
        b
      in
      last_node := grown !last_node (-1);
      tf := grown !tf 0
    end
  in
  let seen = ref [] in
  let tally i s pos len =
    let id = Xk_text.Dictionary.intern_folded dict s ~pos ~len in
    ensure id;
    if !last_node.(id) = i then !tf.(id) <- !tf.(id) + 1
    else begin
      !last_node.(id) <- i;
      !tf.(id) <- 1;
      seen := id :: !seen
    end
  in
  let row_terms = Ibuf.create () and row_nodes = Ibuf.create () and row_tfs = Ibuf.create () in
  let n = Xk_encoding.Labeling.node_count label in
  for i = 0 to n - 1 do
    (match Xk_encoding.Labeling.xml_node label i with
    | Xk_xml.Xml_tree.Text s -> Xk_text.Tokenizer.spans ~skip_stopwords:true s (tally i)
    | Xk_xml.Xml_tree.Element e ->
        List.iter
          (fun (a : Xk_xml.Xml_tree.attribute) ->
            Xk_text.Tokenizer.spans ~skip_stopwords:true a.attr_value (tally i))
          e.attrs);
    List.iter
      (fun id ->
        let tf = !tf.(id) in
        Ibuf.push row_terms id;
        Ibuf.push row_nodes i;
        Ibuf.push row_tfs tf;
        Xk_text.Dictionary.bump_df dict id;
        Xk_text.Dictionary.bump_cf dict id tf)
      !seen;
    seen := []
  done;
  let raws =
    Array.init (Xk_text.Dictionary.size dict) (fun id ->
        let df = Xk_text.Dictionary.df dict id in
        { r_nodes = Array.make df 0; r_tfs = Array.make df 0 })
  in
  let fill = Array.make (Array.length raws) 0 in
  for r = 0 to Ibuf.length row_terms - 1 do
    let id = Ibuf.get row_terms r in
    let k = fill.(id) in
    raws.(id).r_nodes.(k) <- Ibuf.get row_nodes r;
    raws.(id).r_tfs.(k) <- Ibuf.get row_tfs r;
    fill.(id) <- k + 1
  done;
  let jcache, pcache, scache = make_caches cache_capacity in
  {
    label;
    dict;
    raws = Arrays raws;
    scorer = scorer_for ?stats label;
    df_override = df_override_of stats;
    jcache;
    pcache;
    scache;
  }

(* Reassemble an index from persisted raw postings (see Index_io). *)
let of_raw ?(cache_capacity = default_cache_capacity) ?stats
    (label : Xk_encoding.Labeling.t)
    (entries : (string * int array * int array) list) =
  let dict = Xk_text.Dictionary.create () in
  let raws =
    List.map
      (fun (term, nodes, tfs) ->
        if Array.length nodes <> Array.length tfs then
          Xk_util.Err.invalid "Index.of_raw: row length mismatch";
        let id = Xk_text.Dictionary.intern dict term in
        Xk_text.Dictionary.set_stats dict id ~df:(Array.length nodes)
          ~cf:(Array.fold_left ( + ) 0 tfs);
        { r_nodes = nodes; r_tfs = tfs })
      entries
  in
  let jcache, pcache, scache = make_caches cache_capacity in
  {
    label;
    dict;
    raws = Arrays (Array.of_list raws);
    scorer = scorer_for ?stats label;
    df_override = df_override_of stats;
    jcache;
    pcache;
    scache;
  }

(* Wrap a lazy rows source (a mapped segment).  The caller supplies the
   dictionary already interned in term-id order with its statistics set
   from the segment directory: that is what makes open cost proportional
   to the dictionary, not to the postings. *)
let of_provider ?(cache_capacity = default_cache_capacity) ?stats ~dict
    (label : Xk_encoding.Labeling.t) (pv : provider) =
  if Xk_text.Dictionary.size dict <> pv.pv_terms then
    Xk_util.Err.invalid "Index.of_provider: dictionary/provider size mismatch";
  let jcache, pcache, scache = make_caches cache_capacity in
  {
    label;
    dict;
    raws = Lazy_rows pv;
    scorer = scorer_for ?stats label;
    df_override = df_override_of stats;
    jcache;
    pcache;
    scache;
  }

let label t = t.label
let dict t = t.dict
let damping _ = Xk_score.Damping.default
let scorer t = t.scorer

let term_count t =
  match t.raws with Arrays a -> Array.length a | Lazy_rows pv -> pv.pv_terms

(* Fetch one term's rows.  The Arrays form shares the stored arrays (the
   callers never mutate them); the lazy form decodes fresh arrays from
   the mapped postings each call — per-query cost is amortized by the
   shape caches, and whole-dictionary sweeps pay streaming decode. *)
let fetch_raw t id =
  match t.raws with
  | Arrays a -> a.(id)
  | Lazy_rows pv ->
      let nodes, tfs = pv.pv_rows id in
      { r_nodes = nodes; r_tfs = tfs }

let term_id t w = Xk_text.Dictionary.find_folded t.dict w ~pos:0 ~len:(String.length w)
let term t id = Xk_text.Dictionary.term t.dict id

let df t id =
  match t.raws with
  | Arrays a -> Array.length a.(id).r_nodes
  | Lazy_rows pv -> pv.pv_row_count id

(* Local scores of a term's rows.  [df] is the term's corpus-wide
   document frequency: the row count here, unless the index is one shard
   of a partitioned corpus, in which case the override supplies the sum
   over all shards. *)
let scores_of_raw t id (r : raw) =
  let df =
    match t.df_override with
    | None -> Array.length r.r_nodes
    | Some df -> df (Xk_text.Dictionary.term t.dict id)
  in
  Array.map (fun tf -> Xk_score.Scorer.local_score t.scorer ~tf ~df) r.r_tfs

let jlist t id =
  Shard_cache.find_or_add t.jcache id ~compute:(fun id ->
      let r = fetch_raw t id in
      let seqs =
        Array.map (fun n -> Xk_encoding.Labeling.jdewey_seq t.label n) r.r_nodes
      in
      let scores = scores_of_raw t id r in
      Jlist.make ~seqs ~nodes:r.r_nodes ~scores)

(* The posting and score-list shapes are built from the term's jlist, so
   they share its node and score arrays instead of decoding the rows and
   recomputing the scores again.  Their compute steps take the jcache
   shard lock from inside the pcache or scache shard lock.  Safe, because
   jlist's compute locks neither (no cyclic lock order across the three
   caches). *)
let posting t id =
  Shard_cache.find_or_add t.pcache id ~compute:(fun id ->
      let jl = jlist t id in
      let nodes = Jlist.nodes jl in
      let deweys =
        Array.map (fun n -> Xk_encoding.Labeling.dewey t.label n) nodes
      in
      Posting.make ~deweys ~nodes ~scores:(Jlist.scores jl))

let score_list t id =
  Shard_cache.find_or_add t.scache id ~compute:(fun id ->
      Score_list.make (jlist t id) Xk_score.Damping.default)

let cache_stats t =
  Shard_cache.(
    add_stats (stats t.jcache) (add_stats (stats t.pcache) (stats t.scache)))

(* Pre-materialize every list shape for the given terms: the benches call
   this before timing so measurements reflect the paper's hot cache. *)
let warm t ids =
  List.iter
    (fun id ->
      ignore (jlist t id);
      ignore (posting t id);
      ignore (score_list t id))
    ids

let term_ids_exn t words =
  List.map
    (fun w ->
      match term_id t w with
      | Some id -> id
      | None -> Xk_util.Err.invalidf "unknown keyword %S" w)
    words

(* Uncached access for whole-dictionary sweeps (index-size accounting),
   which must not blow up the per-term caches. *)
let raw_rows t id =
  let r = fetch_raw t id in
  (r.r_nodes, r.r_tfs)

let local_scores t id = scores_of_raw t id (fetch_raw t id)

(* Terms sorted by descending document frequency, for workload selection. *)
let terms_by_df t =
  let ids = Array.init (term_count t) (fun i -> i) in
  Array.sort (fun a b -> Int.compare (df t b) (df t a)) ids;
  ids
