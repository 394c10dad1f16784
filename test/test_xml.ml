(* XML parser and printer tests. *)

open Xk_xml

let check = Alcotest.check
let tc = Alcotest.test_case

let parse s = Xml_parser.parse_string_exn s

let root_tag () =
  let d = parse "<a/>" in
  check Alcotest.string "tag" "a" d.root.tag

let nested () =
  let d = parse "<a><b><c>hello</c></b><b/></a>" in
  check Alcotest.int "children" 2 (List.length d.root.children);
  check Alcotest.int "node count" 5 (Xml_tree.node_count d);
  check Alcotest.int "depth" 4 (Xml_tree.depth d)

let attributes () =
  let d = parse {|<a x="1" y='two &amp; three'/>|} in
  match d.root.attrs with
  | [ x; y ] ->
      check Alcotest.string "x" "1" x.attr_value;
      check Alcotest.string "y" "two & three" y.attr_value
  | _ -> Alcotest.fail "expected two attributes"

let entities () =
  let d = parse "<a>&lt;tag&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>" in
  check Alcotest.string "text" "<tag> & \"q\" 'a' AB"
    (Xml_tree.text_content d.root)

let cdata () =
  let d = parse "<a><![CDATA[<not> & parsed]]></a>" in
  check Alcotest.string "cdata" "<not> & parsed" (Xml_tree.text_content d.root)

let comments_pis_doctype () =
  let d =
    parse
      {|<?xml version="1.0"?>
<!DOCTYPE root [ <!ELEMENT a ANY> ]>
<!-- top comment -->
<a><!-- inner --><?pi data?>text</a>
<!-- trailing -->|}
  in
  check Alcotest.string "text" "text" (Xml_tree.text_content d.root)

let whitespace_dropped () =
  let d = parse "<a>\n  <b>x</b>\n</a>" in
  check Alcotest.int "children" 1 (List.length d.root.children)

let whitespace_kept () =
  let d = Xml_parser.parse_string_exn ~keep_ws:true "<a>\n  <b>x</b>\n</a>" in
  check Alcotest.int "children" 3 (List.length d.root.children)

let mixed_content () =
  let d = parse "<p>one <b>two</b> three</p>" in
  check Alcotest.int "children" 3 (List.length d.root.children);
  check Alcotest.string "text" "one  two  three" (Xml_tree.text_content d.root)

let self_closing () =
  let d = parse "<a><b/><c x=\"1\"/></a>" in
  check Alcotest.int "children" 2 (List.length d.root.children)

let utf8_passthrough () =
  let d = parse "<a>caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac</a>" in
  check Alcotest.string "text" "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac"
    (Xml_tree.text_content d.root)

let fails s () =
  match Xml_parser.parse_string s with
  | Ok _ -> Alcotest.failf "expected a parse error for %S" s
  | Error _ -> ()

let error_positions () =
  match Xml_parser.parse_string "<a>\n<b></c></a>" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
      check Alcotest.int "line" 2 e.line;
      check Alcotest.bool "message mentions tags" true
        (String.length e.message > 0)

let roundtrip () =
  let src =
    {|<dblp><conf name="icde"><paper><title>top-k &amp; xml</title><authors><author>chen</author></authors></paper></conf></dblp>|}
  in
  let d = parse src in
  let printed = Xml_print.to_string d in
  let d2 = parse printed in
  check Alcotest.bool "roundtrip equal" true (Xml_tree.equal d d2)

(* Property: any generated random document survives print -> parse. *)
let roundtrip_prop =
  let gen_doc seed =
    let rng = Xk_datagen.Rng.create seed in
    Xk_datagen.Random_tree.generate rng
  in
  QCheck.Test.make ~count:200 ~name:"print/parse roundtrip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = gen_doc seed in
      let d2 = Xml_parser.parse_string_exn ~keep_ws:true (Xml_print.to_string d) in
      Xml_tree.equal d d2)

(* A printed random tree dressed in every construct the parser scans in
   runs: attributes in both quote styles with entities, character
   references, CDATA sections, comments and processing instructions. *)
let decorated_doc seed =
  let rng = Random.State.make [| seed |] in
  let d = Tutil.random_doc seed in
  let buf = Buffer.create 512 in
  let extra () =
    match Random.State.int rng 6 with
    | 0 -> Buffer.add_string buf "<!-- a -- comment\n -->"
    | 1 -> Buffer.add_string buf "<?pi some ? data?>"
    | 2 -> Buffer.add_string buf "<![CDATA[x <y> & ]] z]]>"
    | 3 -> Buffer.add_string buf " &amp;&lt;&#65;&#x42;&quot; "
    | _ -> ()
  in
  let rec node = function
    | Xml_tree.Text s ->
        Buffer.add_string buf s;
        extra ()
    | Xml_tree.Element e ->
        Buffer.add_char buf '<';
        Buffer.add_string buf e.tag;
        if Random.State.bool rng then Buffer.add_string buf {| a="v &amp; w"|};
        if Random.State.bool rng then Buffer.add_string buf {| b='&#x43;it&apos;s'|};
        Buffer.add_char buf '>';
        extra ();
        List.iter node e.children;
        Buffer.add_string buf ("</" ^ e.tag ^ ">")
  in
  Buffer.add_string buf "<?xml version=\"1.0\"?>\n<!-- head -->\n";
  node (Xml_tree.Element d.root);
  Buffer.contents buf

let total s =
  match Xml_parser.parse_string s with
  | Ok _ | Error _ -> true
  | exception e ->
      QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) s

(* Property: the parser is total on every strict prefix, every single-byte
   flip and random garbage derived from decorated documents. *)
let parse_total_prop =
  QCheck.Test.make ~count:60 ~name:"parse_string never raises"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let src = decorated_doc seed in
      let n = String.length src in
      (match Xml_parser.parse_string src with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "decorated doc rejected: %s" e.message);
      let rng = Random.State.make [| seed; 1 |] in
      let flip i =
        let b = Bytes.of_string src in
        Bytes.set b i (Char.chr (Random.State.int rng 256));
        Bytes.to_string b
      in
      let garbage () =
        String.init (Random.State.int rng 64) (fun _ ->
            if Random.State.bool rng then Char.chr (Random.State.int rng 256)
            else "<>&;\"'/=![]-?#x".[Random.State.int rng 15])
      in
      List.for_all total (List.init n (fun i -> String.sub src 0 i))
      && List.for_all total (List.init n flip)
      && List.for_all total
           (List.init 20 (fun _ ->
                let cut = Random.State.int rng (n + 1) in
                String.sub src 0 cut ^ garbage ()
                ^ String.sub src cut (n - cut))))

(* Error positions inside long runs: the line and column of each error, as
   the byte-at-a-time parser reported them. *)
let error_positions_in_runs () =
  let long = String.concat "\n" (List.init 5 (fun _ -> String.make 70 'w')) in
  let at src line col message =
    match Xml_parser.parse_string src with
    | Ok _ -> Alcotest.failf "expected an error for %S" src
    | Error e ->
        check Alcotest.(triple int int string) "line, column, message"
          (line, col, message) (e.line, e.col, e.message)
  in
  at ("<a>" ^ long ^ " & x</a>") 5 73 "expected a name";
  at ("<a>" ^ long ^ " < x</a>") 5 72 "malformed markup";
  at ("<a>" ^ long) 5 71 "unterminated element <a>";
  at ("<a>" ^ long ^ "&#x;</a>") 5 74 "empty character reference";
  at ("<a x=\"" ^ long ^ "<\"/>") 5 71 "'<' in attribute value";
  at ("<a x='" ^ long) 5 71 "unterminated attribute value";
  at ("<a><![CDATA[" ^ long) 5 71 "unterminated CDATA section";
  at ("<a><!--" ^ long) 5 71 "unterminated comment";
  at ("<a><!--" ^ long ^ "-- >") 5 75 "unterminated comment";
  at ("<a><?pi " ^ long ^ "? >") 5 74 "unterminated processing instruction";
  at ("<a>" ^ long ^ "&bogus;</a>") 5 78 "unknown entity &bogus;";
  at ("<a x=\"" ^ long ^ "&lt;" ^ long ^ "'/>") 9 74 "unterminated attribute value"

let fold_order () =
  let d = parse "<a><b>x</b><c><d/></c></a>" in
  let tags = ref [] in
  Xml_tree.iter_nodes
    (fun depth n ->
      match n with
      | Xml_tree.Element e -> tags := (e.tag, depth) :: !tags
      | Xml_tree.Text s -> tags := (s, depth) :: !tags)
    d;
  check
    Alcotest.(list (pair string int))
    "document order"
    [ ("a", 1); ("b", 2); ("x", 3); ("c", 2); ("d", 3) ]
    (List.rev !tags)

let suite =
  [
    ( "xml",
      [
        tc "root tag" `Quick root_tag;
        tc "nested structure" `Quick nested;
        tc "attributes with entities" `Quick attributes;
        tc "entities" `Quick entities;
        tc "cdata" `Quick cdata;
        tc "comments, PIs, doctype" `Quick comments_pis_doctype;
        tc "whitespace dropped by default" `Quick whitespace_dropped;
        tc "whitespace kept on demand" `Quick whitespace_kept;
        tc "mixed content" `Quick mixed_content;
        tc "self-closing" `Quick self_closing;
        tc "utf8 passthrough" `Quick utf8_passthrough;
        tc "error: mismatched tags" `Quick (fails "<a><b></a></b>");
        tc "error: unterminated" `Quick (fails "<a><b>");
        tc "error: garbage after root" `Quick (fails "<a/>junk");
        tc "error: bad entity" `Quick (fails "<a>&unknown;</a>");
        tc "error: empty input" `Quick (fails "");
        tc "error positions" `Quick error_positions;
        tc "error positions inside runs" `Quick error_positions_in_runs;
        tc "roundtrip" `Quick roundtrip;
        tc "fold order" `Quick fold_order;
        QCheck_alcotest.to_alcotest roundtrip_prop;
        QCheck_alcotest.to_alcotest parse_total_prop;
      ] );
  ]
