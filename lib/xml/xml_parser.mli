(** Parser for the XML 1.0 subset used by the keyword-search pipeline.

    Supported: elements, attributes, character data, CDATA, comments,
    processing instructions, DOCTYPE (skipped), the five predefined entities
    and numeric character references.  Not supported: external/parameter
    entities, namespaces-aware processing (prefixes are kept in tag names). *)

type error = { line : int; col : int; message : string }

val pp_error : Format.formatter -> error -> unit

exception Error of error

val parse_string :
  ?keep_ws:bool -> string -> (Xml_tree.document, error) result
(** [parse_string s] parses a complete document.  Whitespace-only text nodes
    are dropped unless [keep_ws] is [true] (default [false]). *)

val parse_string_exn : ?keep_ws:bool -> string -> Xml_tree.document
(** Like {!parse_string} but raises {!Error}. *)

val parse_file : ?keep_ws:bool -> string -> (Xml_tree.document, error) result

val parse_file_exn : string -> Xml_tree.document
