(** XML serialization for {!Xml_tree.document}. *)

val to_buffer : ?indent:bool -> Buffer.t -> Xml_tree.document -> unit

val to_string : ?indent:bool -> Xml_tree.document -> string
(** [to_string d] serializes with an XML declaration.  With [indent:true]
    nodes are placed one per line (this changes whitespace inside mixed
    content; use the default for round-trip fidelity). *)

val element_to_string : Xml_tree.element -> string
(** One element and its subtree, without the XML declaration, in the
    round-trip form of {!to_string}. *)

val to_file : ?indent:bool -> string -> Xml_tree.document -> unit

val pp_element_summary :
  ?max_text:int -> Format.formatter -> Xml_tree.element -> unit
(** One-line summary of a result subtree: tag plus truncated text content. *)
