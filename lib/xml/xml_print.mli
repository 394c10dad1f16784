(** XML serialization for {!Xml_tree.document}. *)

val to_string : Xml_tree.document -> string
(** [to_string d] serializes with an XML declaration and no added
    whitespace, so parsing it back keeps every text node. *)

val element_to_string : Xml_tree.element -> string
(** One element and its subtree, without the XML declaration, in the
    round-trip form of {!to_string}. *)

val add_element : Buffer.t -> Xml_tree.element -> unit
(** Append {!element_to_string}'s bytes to a buffer. *)

val element_length : Xml_tree.element -> int
(** The byte length of {!element_to_string}, counted without printing. *)

val to_file : string -> Xml_tree.document -> unit

val pp_element_summary :
  ?max_text:int -> Format.formatter -> Xml_tree.element -> unit
(** One-line summary of a result subtree: tag plus truncated text content. *)
