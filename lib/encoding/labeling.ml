(* Assigns both encodings to every node of a document in one DFS pass:

   - Dewey: 1-based sibling rank per level (stored as the rank; the full id
     is rebuilt by walking the parent chain);
   - JDewey: per-depth counters in document order, optionally multiplied by
     a gap to reserve numbering space for future insertions (the maintenance
     scheme of Section III-A).

   Numbering per depth in document order satisfies JDewey requirement 2: if
   v1 and v2 sit at the same depth and v1's number exceeds v2's, v1 comes
   after v2 in document order, hence so do all its children, hence their
   (document-ordered) numbers are greater.

   Per-node facts live in parallel int arrays indexed by node (struct of
   arrays), so labeling allocates a fixed handful of arrays rather than a
   record per node.  The k-th node (from 0) of a depth has JDewey number
   (k + 1) * gap, so the per-depth directory stores only node indexes and
   [find] is a division. *)

type t = {
  depths : int array;  (* 1-based; root = 1 *)
  jnums : int array;   (* JDewey number at the node's depth *)
  sibs : int array;    (* 1-based sibling rank (Dewey component) *)
  parents : int array; (* parent's node index; -1 for the root *)
  xml : Xk_xml.Xml_tree.node array;
  levels : int array array; (* levels.(d-1): node indexes of depth d in order *)
  gap : int;
  term_nodes : int; (* nodes that [term_bearing] admits *)
}

(* The nodes whose character data the index tokenizes: text nodes, and
   elements for their attribute values. *)
let term_bearing : Xk_xml.Xml_tree.node -> bool = function
  | Text _ -> true
  | Element e -> e.attrs <> []

(* Node count, term-bearing node count and height in one walk, to size
   the arrays. *)
let measure (doc : Xk_xml.Xml_tree.document) =
  let count = ref 0 and bearing = ref 0 and height = ref 0 in
  let rec go depth (x : Xk_xml.Xml_tree.node) =
    incr count;
    if term_bearing x then incr bearing;
    if depth > !height then height := depth;
    match x with
    | Text _ -> ()
    | Element e -> List.iter (go (depth + 1)) e.children
  in
  go 1 (Element doc.root);
  (!count, !bearing, !height)

let label ?(gap = 1) (doc : Xk_xml.Xml_tree.document) =
  if gap < 1 then Xk_util.Err.invalid "Labeling.label: gap must be >= 1";
  let n, term_nodes, height = measure doc in
  let depths = Array.make n 0 and jnums = Array.make n 0 in
  let sibs = Array.make n 0 and parents = Array.make n (-1) in
  let root = Xk_xml.Xml_tree.Element doc.root in
  let xml = Array.make n root in
  let counters = Array.make height 0 in
  let next = ref 0 in
  let rec go depth parent sib (x : Xk_xml.Xml_tree.node) =
    let idx = !next in
    next := idx + 1;
    let c = counters.(depth - 1) + 1 in
    counters.(depth - 1) <- c;
    depths.(idx) <- depth;
    jnums.(idx) <- c * gap;
    sibs.(idx) <- sib;
    parents.(idx) <- parent;
    xml.(idx) <- x;
    match x with
    | Text _ -> ()
    | Element e -> children (depth + 1) idx 1 e.children
  and children depth parent sib = function
    | [] -> ()
    | c :: rest ->
        go depth parent sib c;
        children depth parent (sib + 1) rest
  in
  go 1 (-1) 1 root;
  let levels = Array.map (fun w -> Array.make w 0) counters in
  let fill = Array.make height 0 in
  for i = 0 to n - 1 do
    let d = depths.(i) - 1 in
    levels.(d).(fill.(d)) <- i;
    fill.(d) <- fill.(d) + 1
  done;
  { depths; jnums; sibs; parents; xml; levels; gap; term_nodes }

let node_count t = Array.length t.depths
let term_node_count t = t.term_nodes
let height t = Array.length t.levels
let gap t = t.gap
let depth t i = t.depths.(i)
let jnum t i = t.jnums.(i)
let parent t i = t.parents.(i)
let xml_node t i = t.xml.(i)

(* The root-to-node sequence of one per-node column. *)
let path t col i =
  let s = Array.make t.depths.(i) 0 in
  let rec up i =
    s.(t.depths.(i) - 1) <- col.(i);
    let p = t.parents.(i) in
    if p >= 0 then up p
  in
  up i;
  s

let jdewey_seq t i : Jdewey.t = path t t.jnums i
let dewey t i : Dewey.t = path t t.sibs i

(* Record node [i]'s ancestors in [prev] up to the first one the previous
   row (open down to depth [top]) shares; return that depth, 0 if none. *)
let rec climb t prev ~top i =
  let d = t.depths.(i) in
  if d <= top && prev.(d - 1) = i then d
  else begin
    prev.(d - 1) <- i;
    let p = t.parents.(i) in
    if p >= 0 then climb t prev ~top p else 0
  end

(* The per-level JDewey columns of document-ordered rows, as runs of one
   number over consecutive rows.  Consecutive rows share their ancestors
   down to some depth, so a row climbs from its node only until it meets
   the previous row's ancestor at the same depth ([prev], trusted only
   down to the previous row's depth [top]).  The levels below that depth
   open new runs and the levels above it extend the previous row's.  A
   counting pass sizes the arrays and a second pass fills them, so no
   per-row sequence is built. *)
let jdewey_columns t nodes =
  let height = Array.length t.levels in
  let prev = Array.make height (-1) in
  let runs = Array.make height 0 in
  let top = ref 0 and last = ref (-1) and max_len = ref 0 in
  Array.iter
    (fun i ->
      if i < !last then
        Xk_util.Err.invalid "Labeling.jdewey_columns: rows out of document order";
      last := i;
      let d = t.depths.(i) in
      for l = climb t prev ~top:!top i to d - 1 do
        runs.(l) <- runs.(l) + 1
      done;
      top := d;
      max_len := max !max_len d)
    nodes;
  let values = Array.init !max_len (fun l -> Array.make runs.(l) 0) in
  let starts = Array.init !max_len (fun l -> Array.make runs.(l) 0) in
  let counts = Array.init !max_len (fun l -> Array.make runs.(l) 0) in
  let fill = Array.make !max_len 0 in
  top := 0;
  Array.iteri
    (fun r i ->
      let shared = climb t prev ~top:!top i in
      for l = 0 to t.depths.(i) - 1 do
        if l >= shared then begin
          values.(l).(fill.(l)) <- t.jnums.(prev.(l));
          starts.(l).(fill.(l)) <- r;
          fill.(l) <- fill.(l) + 1
        end;
        let k = fill.(l) - 1 in
        counts.(l).(k) <- counts.(l).(k) + 1
      done;
      top := t.depths.(i))
    nodes;
  Array.init !max_len (fun l -> (values.(l), starts.(l), counts.(l)))

(* Node lookup from a (depth, jdewey-number) pair: the numbers of a depth
   are gap, 2 * gap, ..., so the directory slot is a division away. *)
let find t ~depth ~jnum =
  if depth < 1 || depth > Array.length t.levels || jnum < 1 || jnum mod t.gap <> 0
  then None
  else
    let lev = t.levels.(depth - 1) in
    let k = (jnum / t.gap) - 1 in
    if k < Array.length lev then Some lev.(k) else None

(* The element to present for a result node: the node itself when it is an
   element, otherwise (text node) its parent element. *)
let rec element_of t i =
  match t.xml.(i) with
  | Xk_xml.Xml_tree.Element e -> Some e
  | Xk_xml.Xml_tree.Text _ ->
      let p = t.parents.(i) in
      if p < 0 then None else element_of t p

let level_width t ~depth =
  if depth < 1 || depth > Array.length t.levels then 0
  else Array.length t.levels.(depth - 1)

(* [ancestor_at t i ~depth] is the node index of [i]'s ancestor at [depth]
   (or [i] itself when depths match). *)
let ancestor_at t i ~depth =
  let rec up i =
    let d = t.depths.(i) in
    if d = depth then Some i
    else if d < depth || t.parents.(i) < 0 then None
    else up t.parents.(i)
  in
  up i
