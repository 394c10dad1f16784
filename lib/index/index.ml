(* The corpus index: term dictionary plus raw postings (node, tf) built in
   one pass over the labeled tree.  The algorithm-specific list shapes —
   Dewey postings, JDewey column lists, score-ordered lists — are
   materialized per term on demand and cached, which mirrors the paper's
   hot-cache experimental setting.

   The three shape caches are sharded, bounded LRU caches (Shard_cache),
   so one index can be shared by concurrent query domains: everything
   else in [t] is immutable after construction (the dictionary is only
   written during build). *)

(* The one term and row source.  A zero-copy segment (Index_io v9)
   looks a term up in its mapped, front-coded term region and decodes a
   term's rows from mapped postings on first use, instead of building a
   dictionary or materializing the postings at open; [build] hands over
   the dictionary and arrays it holds (callers never mutate rows).  Every
   function must be safe to call from any domain; [pv_rows] may raise the
   segment's typed fault exception, and the per-shape caches above it
   make repeated query access cheap. *)
type provider = {
  pv_terms : int;
  pv_term : int -> string;
  pv_find : string -> int option;
  pv_row_count : int -> int;
  pv_rows : int -> int array * int array;
}

let of_arrays dict nodes tfs =
  {
    pv_terms = Array.length nodes;
    pv_term = Xk_text.Dictionary.term dict;
    pv_find =
      (fun w -> Xk_text.Dictionary.find_folded dict w ~pos:0 ~len:(String.length w));
    pv_row_count = (fun id -> Array.length nodes.(id));
    pv_rows = (fun id -> (nodes.(id), tfs.(id)));
  }

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
  rows : provider;
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

let make ?(cache_capacity = default_cache_capacity) ?stats label rows =
  let jcache, pcache, scache = make_caches cache_capacity in
  {
    label;
    rows;
    scorer = scorer_for ?stats label;
    df_override = Option.map (fun s -> s.so_df) stats;
    jcache;
    pcache;
    scache;
  }

(* One pass over the nodes.  A node's term frequencies are tallied in two
   arrays indexed by term id, [last_node] (the node that last saw the
   term) and [tf], and the node's distinct ids drive the posting pushes
   into one flat buffer of (term, node, tf) rows in node order.  A
   counting pass by term id then cuts the buffer into per-term arrays, so
   each term's rows stay in node order; ids are interned in first-seen
   order, straight from the tokens' source spans.  Only the nodes
   [Labeling.term_bearing] admits are tokenized: a segment codes a row's
   node as its rank among them ([Index_io]), so the two must agree. *)
let build ?cache_capacity ?stats (label : Xk_encoding.Labeling.t) =
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
    let x = Xk_encoding.Labeling.xml_node label i in
    if Xk_encoding.Labeling.term_bearing x then begin
      match x with
      | Xk_xml.Xml_tree.Text s -> Xk_text.Tokenizer.spans s (tally i)
      | Xk_xml.Xml_tree.Element e ->
          List.iter
            (fun (a : Xk_xml.Xml_tree.attribute) ->
              Xk_text.Tokenizer.spans a.attr_value (tally i))
            e.attrs
    end;
    List.iter
      (fun id ->
        let tf = !tf.(id) in
        Ibuf.push row_terms id;
        Ibuf.push row_nodes i;
        Ibuf.push row_tfs tf;
        Xk_text.Dictionary.bump_df dict id)
      !seen;
    seen := []
  done;
  let terms = Xk_text.Dictionary.size dict in
  let nodes =
    Array.init terms (fun id -> Array.make (Xk_text.Dictionary.df dict id) 0)
  in
  let tfs = Array.map (fun a -> Array.make (Array.length a) 0) nodes in
  let fill = Array.make terms 0 in
  for r = 0 to Ibuf.length row_terms - 1 do
    let id = Ibuf.get row_terms r in
    let k = fill.(id) in
    nodes.(id).(k) <- Ibuf.get row_nodes r;
    tfs.(id).(k) <- Ibuf.get row_tfs r;
    fill.(id) <- k + 1
  done;
  make ?cache_capacity ?stats label (of_arrays dict nodes tfs)

(* Wrap a lazy term and rows source (a mapped segment), which builds no
   dictionary and decodes no posting up front. *)
let of_provider ?stats label (pv : provider) = make ?stats label pv

let label t = t.label
let damping _ = Xk_score.Damping.default
let term_count t = t.rows.pv_terms

(* One term's (nodes, tfs) rows.  A mapped segment decodes fresh arrays
   each call — per-query cost is amortized by the shape caches, and
   whole-dictionary sweeps pay streaming decode. *)
let raw_rows t id = t.rows.pv_rows id

let term_id t w = t.rows.pv_find w
let term t id = t.rows.pv_term id

let df t id = t.rows.pv_row_count id

(* Local scores of a term's rows.  [df] is the term's corpus-wide
   document frequency: the row count here, unless the index is one shard
   of a partitioned corpus, in which case the override supplies the sum
   over all shards. *)
let scores_of_raw t id (nodes, tfs) =
  let df =
    match t.df_override with
    | None -> Array.length nodes
    | Some df -> df (term t id)
  in
  Array.map (fun tf -> Xk_score.Scorer.local_score t.scorer ~tf ~df) tfs

let jlist t id =
  Shard_cache.find_or_add t.jcache id ~compute:(fun id ->
      let ((nodes, _) as r) = raw_rows t id in
      Jlist.make t.label ~nodes ~scores:(scores_of_raw t id r))

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

let local_scores t id = scores_of_raw t id (raw_rows t id)

(* Terms sorted by descending document frequency, for workload selection. *)
let terms_by_df t =
  let ids = Array.init (term_count t) (fun i -> i) in
  Array.sort (fun a b -> Int.compare (df t b) (df t a)) ids;
  ids
