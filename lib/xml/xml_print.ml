(* Serializer for the document model.  Used by the data generators to emit
   corpora and by the round-trip tests. *)

let escape_text buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s

let escape_attr buf s =
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let add_attrs buf attrs =
  List.iter
    (fun (a : Xml_tree.attribute) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf a.attr_name;
      Buffer.add_string buf "=\"";
      escape_attr buf a.attr_value;
      Buffer.add_char buf '"')
    attrs

let rec add_node buf (n : Xml_tree.node) =
  match n with
  | Text s -> escape_text buf s
  | Element e -> add_element buf e

and add_element buf (e : Xml_tree.element) =
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  add_attrs buf e.attrs;
  match e.children with
  | [] -> Buffer.add_string buf "/>"
  | children ->
      Buffer.add_char buf '>';
      List.iter (add_node buf) children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'

let to_buffer buf (d : Xml_tree.document) =
  Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  Buffer.add_char buf '\n';
  add_element buf d.root

let to_string d =
  let buf = Buffer.create 4096 in
  to_buffer buf d;
  Buffer.contents buf

let element_to_string e =
  let buf = Buffer.create 256 in
  add_element buf e;
  Buffer.contents buf

let to_file path d =
  let oc = open_out_bin path in
  let buf = Buffer.create (1 lsl 16) in
  to_buffer buf d;
  Buffer.output_buffer oc buf;
  close_out oc

(* Pretty printer for result subtrees: truncates long text so interactive
   output stays readable. *)
let pp_element_summary ?(max_text = 60) ppf (e : Xml_tree.element) =
  let txt = Xml_tree.text_content e in
  let txt =
    if String.length txt > max_text then String.sub txt 0 max_text ^ "..."
    else txt
  in
  Fmt.pf ppf "<%s> %s" e.tag txt
