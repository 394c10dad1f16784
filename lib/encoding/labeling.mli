(** One-pass labeler: assigns Dewey sibling ranks and JDewey numbers to every
    node (elements and text nodes) of a document in document order.

    JDewey numbering is per depth, in document order, optionally multiplied
    by a [gap] to reserve space for insertions (paper Section III-A).  The
    index builds every list's JDewey columns here ({!jdewey_columns}),
    straight from the per-node arrays. *)

type t

val label : ?gap:int -> Xk_xml.Xml_tree.document -> t
(** Label all nodes.  [gap] (default 1) multiplies every assigned JDewey
    number, leaving [gap - 1] free numbers between consecutive nodes of a
    depth. *)

val node_count : t -> int

val term_bearing : Xk_xml.Xml_tree.node -> bool
(** Whether the index tokenizes a node: a text node (its character
    data) or an element with attributes (their values).  Only these
    nodes can hold a term. *)

val term_node_count : t -> int
(** The number of {!term_bearing} nodes, counted by the same walk as
    {!node_count}. *)

val height : t -> int
val gap : t -> int

val depth : t -> int -> int
val jnum : t -> int -> int
val parent : t -> int -> int
val xml_node : t -> int -> Xk_xml.Xml_tree.node

val jdewey_seq : t -> int -> Jdewey.t
(** JDewey sequence (root..node) of a node index. *)

val jdewey_columns : t -> int array -> (int array * int array * int array) array
(** The JDewey columns of a list of node indexes in document order
    (duplicates allowed), built from the labeling's arrays without a
    per-row sequence.  Entry [l - 1] is the level-l column as parallel run
    arrays [(values, starts, counts)]: run [k] holds the number
    [values.(k)] over rows [starts.(k) .. starts.(k) + counts.(k) - 1].
    Values strictly increase, and rows shallower than [l] are absent.
    There is one entry per level down to the deepest row.  Raises
    [Invalid_argument] if the nodes are not in document order. *)

val dewey : t -> int -> Dewey.t
(** Dewey id of a node index. *)

val find : t -> depth:int -> jnum:int -> int option
(** Node index identified by a (depth, JDewey-number) pair. *)

val element_of : t -> int -> Xk_xml.Xml_tree.element option
(** The element to present for a node: itself, or for a text node its parent
    element. *)

val level_width : t -> depth:int -> int
(** Number of nodes at a depth. *)

val ancestor_at : t -> int -> depth:int -> int option
