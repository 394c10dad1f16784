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

val reads_back : Xml_tree.element -> bool
(** [reads_back e] is a sound check that
    [parse_string ~keep_ws:true (Xml_print.element_to_string e)] returns
    [e] itself: every tag and attribute name is an XML name as this
    parser reads one, no text child is empty and no two text children
    are adjacent.  Every tree the parser produces passes.  A tree that
    fails may still read back to something else (a tag ["ab\n"] reads
    back as ["ab"]). *)

val parse_file : ?keep_ws:bool -> string -> (Xml_tree.document, error) result

val parse_file_exn : string -> Xml_tree.document
