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

let rec add_node ~indent ~level buf (n : Xml_tree.node) =
  match n with
  | Text s ->
      if indent then pad buf level;
      escape_text buf s;
      if indent then Buffer.add_char buf '\n'
  | Element e -> add_element ~indent ~level buf e

and pad buf level =
  for _ = 1 to 2 * level do
    Buffer.add_char buf ' '
  done

and add_element ~indent ~level buf (e : Xml_tree.element) =
  if indent then pad buf level;
  Buffer.add_char buf '<';
  Buffer.add_string buf e.tag;
  add_attrs buf e.attrs;
  match e.children with
  | [] ->
      Buffer.add_string buf "/>";
      if indent then Buffer.add_char buf '\n'
  | [ Text s ] when not indent ->
      Buffer.add_char buf '>';
      escape_text buf s;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>'
  | children ->
      Buffer.add_char buf '>';
      if indent then Buffer.add_char buf '\n';
      List.iter (add_node ~indent ~level:(level + 1) buf) children;
      if indent then pad buf level;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.tag;
      Buffer.add_char buf '>';
      if indent then Buffer.add_char buf '\n'

let to_buffer ?(indent = false) buf (d : Xml_tree.document) =
  Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  Buffer.add_char buf '\n';
  add_element ~indent ~level:0 buf d.root

let to_string ?indent d =
  let buf = Buffer.create 4096 in
  to_buffer ?indent buf d;
  Buffer.contents buf

let element_to_string e =
  let buf = Buffer.create 256 in
  add_element ~indent:false ~level:0 buf e;
  Buffer.contents buf

let to_file ?indent path d =
  let oc = open_out_bin path in
  let buf = Buffer.create (1 lsl 16) in
  to_buffer ?indent buf d;
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
