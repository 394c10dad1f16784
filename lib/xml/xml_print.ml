(* Serializer for the document model.  Used by the data generators to emit
   corpora, by the WAL's subtree codec and by the round-trip tests. *)

(* Text escapes [<], [>] and [&]; an attribute value, quoted with ["],
   escapes [<], [&] and ["].  [*_special s i] is the first byte at or
   after [i] that needs an entity (or the end of [s]), so escaping scans
   in a tight loop and copies the runs between escaped bytes whole. *)
let rec text_special s i =
  if i = String.length s then i
  else match s.[i] with '<' | '>' | '&' -> i | _ -> text_special s (i + 1)

let rec attr_special s i =
  if i = String.length s then i
  else match s.[i] with '<' | '&' | '"' -> i | _ -> attr_special s (i + 1)

let entity = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | _ -> "&quot;"

let rec escape_from special buf s i =
  let j = special s i in
  Buffer.add_substring buf s i (j - i);
  if j < String.length s then begin
    Buffer.add_string buf (entity s.[j]);
    escape_from special buf s (j + 1)
  end

let rec escaped_length special s i acc =
  let j = special s i in
  if j = String.length s then acc + (j - i)
  else escaped_length special s (j + 1) (acc + (j - i) + String.length (entity s.[j]))

let add_attrs buf attrs =
  List.iter
    (fun (a : Xml_tree.attribute) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf a.attr_name;
      Buffer.add_string buf "=\"";
      escape_from attr_special buf a.attr_value 0;
      Buffer.add_char buf '"')
    attrs

let rec add_node buf (n : Xml_tree.node) =
  match n with
  | Text s -> escape_from text_special buf s 0
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

(* The byte length [add_element] prints, without printing. *)
let rec node_length acc (n : Xml_tree.node) =
  match n with
  | Text s -> escaped_length text_special s 0 acc
  | Element e -> element_length_from acc e

and element_length_from acc (e : Xml_tree.element) =
  let tag = String.length e.tag in
  let acc =
    List.fold_left
      (fun acc (a : Xml_tree.attribute) ->
        escaped_length attr_special a.attr_value 0
          (acc + String.length a.attr_name + 4))
      (acc + 1 + tag) e.attrs
  in
  match e.children with
  | [] -> acc + 2
  | children -> List.fold_left node_length (acc + 1) children + 3 + tag

let element_length e = element_length_from 0 e

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
