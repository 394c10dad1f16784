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
}

(* Node count and height in one walk, to size the arrays. *)
let measure (doc : Xk_xml.Xml_tree.document) =
  let count = ref 0 and height = ref 0 in
  let rec go depth (x : Xk_xml.Xml_tree.node) =
    incr count;
    if depth > !height then height := depth;
    match x with
    | Text _ -> ()
    | Element e -> List.iter (go (depth + 1)) e.children
  in
  go 1 (Element doc.root);
  (!count, !height)

let label ?(gap = 1) (doc : Xk_xml.Xml_tree.document) =
  if gap < 1 then Xk_util.Err.invalid "Labeling.label: gap must be >= 1";
  let n, height = measure doc in
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
  { depths; jnums; sibs; parents; xml; levels; gap }

let node_count t = Array.length t.depths
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
