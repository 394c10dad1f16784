(** In-memory XML document model.

    Elements, attributes and character data only: that is all the keyword
    search pipeline consumes.  Comments, processing instructions and the
    DOCTYPE are discarded at parse time. *)

type attribute = { attr_name : string; attr_value : string }

type node =
  | Element of element
  | Text of string  (** raw character data, entities already resolved *)

and element = {
  tag : string;
  attrs : attribute list;
  children : node list;
}

type document = { root : element }

val element : ?attrs:attribute list -> string -> node list -> element
(** [element tag children] builds an element. *)

val elem : ?attrs:attribute list -> string -> node list -> node
(** [elem tag children] is [Element (element tag children)]. *)

val text : string -> node
(** [text s] is a character-data node. *)

val attr : string -> string -> attribute

val node_count : document -> int
(** Number of labelled nodes (elements plus text nodes). *)

val depth : document -> int
(** Height of the tree counting the root as depth 1. *)

val iter_nodes : (int -> node -> unit) -> document -> unit

val text_content : element -> string
(** All character data (including attribute values) under an element, in
    document order, space-separated. *)

val equal : document -> document -> bool
(** Structural equality, used by round-trip tests. *)
