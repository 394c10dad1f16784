(* The corpus index: term dictionary plus raw postings (node, tf) built in
   one pass over the labeled tree.  The algorithm-specific list shapes —
   Dewey postings, JDewey column lists, score-ordered lists — are
   materialized per term on demand and cached, which mirrors the paper's
   hot-cache experimental setting.

   Terms and rows are read from one source, a v9 segment ([Segment]):
   [build] encodes one and opens its own bytes, [Index_io] maps a file.
   A term's rows are decoded on first use; the shape caches make
   repeated query access cheap.

   The three shape caches are sharded, bounded LRU caches (Shard_cache),
   so one index can be shared by concurrent query domains: everything
   else in [t] is immutable after construction. *)

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
  seg : Segment.t;
  (* The byte-order id of each term in the order a fresh [build] first
     met it, which breaks [terms_by_df]'s ties; empty for an opened
     segment, which allocates none of it. *)
  first_seen : int array;
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

let make ?(cache_capacity = default_cache_capacity) ?stats ?(first_seen = [||]) label seg =
  let jcache, pcache, scache = make_caches cache_capacity in
  {
    label;
    seg;
    first_seen;
    scorer = scorer_for ?stats label;
    df_override = Option.map (fun s -> s.so_df) stats;
    jcache;
    pcache;
    scache;
  }

(* One pass over the nodes.  A node's term frequencies are tallied in two
   arrays indexed by term id, [last_node] (the node that last saw the
   term) and [tf], and the node's distinct ids drive the posting pushes
   into one flat buffer of (term, node, tf) rows in node order; ids are
   interned in first-seen order, straight from the tokens' source spans.
   Only the nodes [Labeling.term_bearing] admits are tokenized: a
   segment codes a row's node as its rank among them, so the two must
   agree.  The terms are then sorted into byte order, a counting pass
   by byte-order id cuts the buffer into one flat array of nodes and one
   of tfs (each term's rows stay in node order), and the segment is
   encoded once and opened through the checks a file gets. *)
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
  let by_seen = Array.init terms (Xk_text.Dictionary.term dict) in
  let order = Array.init terms Fun.id in
  Array.stable_sort (fun a b -> String.compare by_seen.(a) by_seen.(b)) order;
  let first_seen = Array.make terms 0 in
  Array.iteri (fun id s -> first_seen.(s) <- id) order;
  let starts = Array.make (terms + 1) 0 in
  for id = 0 to terms - 1 do
    starts.(id + 1) <- starts.(id) + Xk_text.Dictionary.df dict order.(id)
  done;
  let rows = Ibuf.length row_terms in
  let nodes = Array.make rows 0 and tfs = Array.make rows 0 in
  let fill = Array.sub starts 0 terms in
  for r = 0 to rows - 1 do
    let id = first_seen.(Ibuf.get row_terms r) in
    let k = fill.(id) in
    nodes.(k) <- Ibuf.get row_nodes r;
    tfs.(k) <- Ibuf.get row_tfs r;
    fill.(id) <- k + 1
  done;
  let bytes =
    Segment.encode label ~terms:(Array.map (Array.get by_seen) order) ~starts ~nodes ~tfs
  in
  make ?cache_capacity ?stats ~first_seen label
    (Segment.open_ label (Xk_storage.Mmap.of_string bytes))

let of_segment ?stats label seg = make ?stats label seg

let label t = t.label
let damping _ = Xk_score.Damping.default
let term_count t = Segment.term_count t.seg
let bytes t = Segment.bytes t.seg

(* One term's (nodes, tfs) rows, decoded fresh each call: per-query cost
   is amortized by the shape caches, and whole-dictionary sweeps pay
   streaming decode. *)
let raw_rows t id = Segment.rows t.seg t.label id

let term_id t w = Segment.find_term t.seg w
let term t id = Segment.term_of t.seg id
let df t id = Segment.df t.seg id
let first_seen t i = if Array.length t.first_seen = 0 then i else t.first_seen.(i)

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

(* Terms sorted by descending document frequency, for workload selection.
   The unstable sort starts from [first_seen] order, so a fresh build
   draws the same ties it drew when its ids were first-seen ids. *)
let terms_by_df t =
  let ids = Array.init (term_count t) (first_seen t) in
  Array.sort (fun a b -> Int.compare (df t b) (df t a)) ids;
  ids
