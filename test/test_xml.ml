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

(* Trees with adversarial names and text: names mostly well formed but
   sometimes empty, starting with a digit, or carrying whitespace,
   markup bytes or NUL; text over whitespace, the escaped bytes, quotes,
   NUL and UTF-8, sometimes empty, and siblings that are sometimes two
   adjacent texts. *)
let adversarial_tree =
  let open QCheck.Gen in
  let pick s = map (fun i -> s.[i]) (int_bound (String.length s - 1)) in
  let name_start = pick "abcxyzABZ_:\xc3\xe9" in
  let name_char = pick "abz09-._:\xa9" in
  let bad = pick " \n\t<>=/\"'&\000?!" in
  let good_name = map2 (fun c rest -> String.make 1 c ^ rest) name_start (string_size ~gen:name_char (int_bound 4)) in
  let name =
    frequency
      [
        (12, good_name);
        (1, return "");
        (1, map2 (fun d n -> String.make 1 d ^ n) (pick "0-.") good_name);
        (1, map2 (fun n c -> n ^ String.make 1 c) good_name bad);
      ]
  in
  let text =
    frequency
      [
        (8, string_size ~gen:(pick " \t\r\n<&>\"';\000ab\xc3\xa9") (int_range 1 8));
        (1, return "");
      ]
  in
  let attr = map2 Xml_tree.attr name text in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         let child =
           if depth = 0 then map Xml_tree.text text
           else
             frequency
               [ (2, map Xml_tree.text text); (3, map (fun e -> Xml_tree.Element e) (self (depth - 1))) ]
         in
         map3
           (fun tag attrs children -> Xml_tree.element ~attrs tag children)
           name
           (list_size (int_bound 2) attr)
           (list_size (int_bound 4) child))

let print_element e = Xml_print.element_to_string e

(* Property: [reads_back] is sound (the round trip returns the tree
   itself), every tree the parser produces passes it, and
   [element_length] counts exactly the printed bytes. *)
let reads_back_prop =
  QCheck.Test.make ~count:1000 ~name:"reads_back is sound"
    (QCheck.make ~print:print_element adversarial_tree)
    (fun e ->
      let printed = Xml_print.element_to_string e in
      if Xml_print.element_length e <> String.length printed then
        QCheck.Test.fail_reportf "element_length %d, printed %d bytes"
          (Xml_print.element_length e) (String.length printed);
      let back = Xml_parser.parse_string ~keep_ws:true printed in
      (match back with
      | Ok d when not (Xml_parser.reads_back d.root) ->
          QCheck.Test.fail_reportf "a parsed tree fails reads_back"
      | Ok _ | Error _ -> ());
      (not (Xml_parser.reads_back e))
      ||
      match back with
      | Ok d -> Xml_tree.equal d { root = e }
      | Error err ->
          QCheck.Test.fail_reportf "passes reads_back, parse fails: %s" err.message)

(* The generator must exercise both sides of the check. *)
let reads_back_both_sides () =
  let rand = Random.State.make [| 2010 |] in
  let trees = List.init 400 (fun _ -> adversarial_tree rand) in
  let pass = List.length (List.filter Xml_parser.reads_back trees) in
  check Alcotest.bool "some trees read back" true (pass > 40);
  check Alcotest.bool "some do not" true (pass < 360)

(* Trees that do not read back: the quirks a structural normalizer
   would have to copy. *)
let reads_back_fixed () =
  let open Xml_tree in
  let odd = element "ab\n" [ text "x"; text "y" ] in
  check Alcotest.bool "tag with a newline" false (Xml_parser.reads_back odd);
  check Alcotest.string "printed" "<ab\n>xy</ab\n>" (Xml_print.element_to_string odd);
  let d = Xml_parser.parse_string_exn ~keep_ws:true (Xml_print.element_to_string odd) in
  check Alcotest.bool "reads back as tag ab with one text" true
    (Xml_tree.equal d { root = element "ab" [ text "xy" ] });
  check Alcotest.bool "empty text" false (Xml_parser.reads_back (element "a" [ text "" ]));
  check Alcotest.bool "adjacent texts" false
    (Xml_parser.reads_back (element "a" [ text "x"; text "y" ]));
  check Alcotest.bool "empty attribute name" false
    (Xml_parser.reads_back (element ~attrs:[ attr "" "v" ] "a" []));
  check Alcotest.bool "texts split by an element" true
    (Xml_parser.reads_back
       (element ~attrs:[ attr "k" "<&\"\n" ] "a" [ text " "; elem "b" []; text "\000<>" ]))

(* Minor-heap words one parse allocates per source byte, on the printed
   DBLP corpus at scale 0.05.  The tree itself needs about one word per
   byte; scanning must not add a closure or an option per probe (the
   scanner that did allocated 3.98 words per byte here, this one 1.26). *)
let parse_minor_words () =
  let corpus = Xk_datagen.Dblp_gen.generate (Xk_datagen.Dblp_gen.scaled 0.05) in
  let src = Xml_print.to_string corpus.doc in
  let before = Gc.minor_words () in
  let parsed = Xml_parser.parse_string src in
  let words = Gc.minor_words () -. before in
  check Alcotest.bool "parses" true (Result.is_ok parsed);
  let per_byte = words /. float_of_int (String.length src) in
  if per_byte > 1.5 then
    Alcotest.failf "%.0f minor words for %d bytes: %.2f words per byte > 1.5" words
      (String.length src) per_byte

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
        tc "parse minor words per byte" `Quick parse_minor_words;
        tc "reads_back fixed cases" `Quick reads_back_fixed;
        tc "reads_back generator covers both sides" `Quick reads_back_both_sides;
        QCheck_alcotest.to_alcotest reads_back_prop;
        QCheck_alcotest.to_alcotest roundtrip_prop;
        QCheck_alcotest.to_alcotest parse_total_prop;
      ] );
  ]
