(* Recursive-descent parser for the XML 1.0 subset the pipeline needs:
   elements, attributes, character data, CDATA sections, comments,
   processing instructions, a skipped DOCTYPE (with internal subset), the
   five predefined entities and numeric character references.

   The input is treated as a byte string; bytes >= 0x80 flow through
   untouched, so UTF-8 documents work without a decoding pass.

   Character data is scanned in runs up to the next delimiter and never
   copied a byte at a time: a text node or attribute value that is one
   run of the source is taken with a single [String.sub], and only data
   assembled from several pieces (entities, CDATA, runs split by a
   comment) goes through the shared buffer. *)

type error = { line : int; col : int; message : string }

let pp_error ppf e =
  Fmt.pf ppf "XML parse error at line %d, column %d: %s" e.line e.col e.message

exception Error of error

type state = {
  src : string;
  mutable pos : int;
  keep_ws : bool;
  buf : Buffer.t;  (** character data of several pieces *)
  mutable run_start : int;
  mutable run_stop : int;
      (** a run of the source not yet copied into [buf]; empty when
          [run_start = run_stop] *)
}

let position st =
  (* Line/column are only computed on error, so a linear scan is fine. *)
  let line = ref 1 and col = ref 1 in
  for i = 0 to min st.pos (String.length st.src) - 1 do
    if st.src.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  (!line, !col)

let fail st fmt =
  Format.kasprintf
    (fun message ->
      let line, col = position st in
      raise (Error { line; col; message }))
    fmt

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

(* Does [s] occur in [src] at [i]?  Compared in place. *)
let occurs_at src i s =
  let n = String.length s in
  let rec go k = k = n || (src.[i + k] = s.[k] && go (k + 1)) in
  i + n <= String.length src && go 0

let looking_at st s = occurs_at st.src st.pos s

(* Start of the first [delim] at or after the cursor, or the end of the
   input. *)
let find st delim =
  let src = st.src and n = String.length st.src in
  let rec go i =
    match String.index_from_opt src i delim.[0] with
    | None -> n
    | Some j -> if occurs_at src j delim then j else go (j + 1)
  in
  go st.pos

(* End of the run at [i]: the first byte at or after [i] that is [a], [b]
   or [c], or the end of [src]. *)
let rec run_end src i a b c =
  if i >= String.length src then i
  else
    let x = src.[i] in
    if x = a || x = b || x = c then i else run_end src (i + 1) a b c

(* Move the pending run into the buffer. *)
let spill st =
  if st.run_stop > st.run_start then begin
    Buffer.add_substring st.buf st.src st.run_start (st.run_stop - st.run_start);
    st.run_start <- 0;
    st.run_stop <- 0
  end

(* Gather the source bytes [start, stop) as character data. *)
let add_run st start stop =
  if stop > start then
    if Buffer.length st.buf = 0 && st.run_stop = st.run_start then begin
      st.run_start <- start;
      st.run_stop <- stop
    end
    else begin
      spill st;
      Buffer.add_substring st.buf st.src start (stop - start)
    end

let gathered st = Buffer.length st.buf > 0 || st.run_stop > st.run_start

let clear st =
  Buffer.clear st.buf;
  st.run_start <- 0;
  st.run_stop <- 0

(* The character data gathered so far, which is then cleared. *)
let take st =
  let s =
    if Buffer.length st.buf = 0 then String.sub st.src st.run_start (st.run_stop - st.run_start)
    else begin
      spill st;
      Buffer.contents st.buf
    end
  in
  clear st;
  s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st "expected %S" s

let is_ws = function ' ' | '\t' | '\r' | '\n' -> true | _ -> false

let skip_ws st =
  while (not (eof st)) && is_ws (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Skip a name; returns where it started. *)
let skip_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  start

let parse_name st =
  let start = skip_name st in
  String.sub st.src start (st.pos - start)

(* Resolve one entity/char reference into the gathered character data;
   cursor sits just past '&'. *)
let parse_reference st =
  spill st;
  let buf = st.buf in
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' in
    if hex then advance st;
    let start = st.pos in
    let digit c =
      if hex then
        (c >= '0' && c <= '9')
        || (c >= 'a' && c <= 'f')
        || (c >= 'A' && c <= 'F')
      else c >= '0' && c <= '9'
    in
    while (not (eof st)) && digit (peek st) do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "bad character reference &#%s;" digits
    in
    match Uchar.of_int code with
    | u -> Buffer.add_utf_8_uchar buf u
    | exception Invalid_argument _ ->
        fail st "character reference out of range: %d" code
  end
  else begin
    let name = parse_name st in
    expect st ";";
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "apos" -> Buffer.add_char buf '\''
    | "quot" -> Buffer.add_char buf '"'
    | other -> fail st "unknown entity &%s;" other
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  let rec go () =
    let stop = run_end st.src st.pos quote '&' '<' in
    add_run st st.pos stop;
    st.pos <- stop;
    if eof st then fail st "unterminated attribute value";
    let c = peek st in
    if c = quote then advance st
    else if c = '&' then begin
      advance st;
      parse_reference st;
      go ()
    end
    else fail st "'<' in attribute value"
  in
  go ();
  take st

(* Move past the terminator [delim] of a construct opened by [opening]. *)
let skip_past st ~opening delim what =
  expect st opening;
  let stop = find st delim in
  st.pos <- stop;
  if eof st then fail st "unterminated %s" what;
  st.pos <- stop + String.length delim

let skip_comment st = skip_past st ~opening:"<!--" "-->" "comment"
let skip_pi st = skip_past st ~opening:"<?" "?>" "processing instruction"

let skip_doctype st =
  expect st "<!DOCTYPE";
  (* Skip to the matching '>', honouring an internal subset in brackets. *)
  let rec go depth in_subset =
    if eof st then fail st "unterminated DOCTYPE"
    else
      match peek st with
      | '[' ->
          advance st;
          go depth true
      | ']' ->
          advance st;
          go depth false
      | '<' when in_subset ->
          advance st;
          go (depth + 1) in_subset
      | '>' ->
          advance st;
          if depth > 0 then go (depth - 1) in_subset
      | _ ->
          advance st;
          go depth in_subset
  in
  go 0 false

let parse_cdata st =
  let start = st.pos + String.length "<![CDATA[" in
  skip_past st ~opening:"<![CDATA[" "]]>" "CDATA section";
  add_run st start (st.pos - String.length "]]>")

(* Is the gathered character data all whitespace?  Tested in place, so
   blank text between elements is never copied. *)
let gathered_blank st =
  let rec run i = i >= st.run_stop || (is_ws st.src.[i] && run (i + 1)) in
  let rec buf i = i >= Buffer.length st.buf || (is_ws (Buffer.nth st.buf i) && buf (i + 1)) in
  run st.run_start && buf 0

let parse_attributes st =
  let rec go acc =
    skip_ws st;
    let c = peek st in
    if c = '>' || c = '/' || c = '?' then List.rev acc
    else begin
      let name = parse_name st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let value = parse_attr_value st in
      go (Xml_tree.attr name value :: acc)
    end
  in
  go []

let rec parse_element st =
  expect st "<";
  let tag = parse_name st in
  let attrs = parse_attributes st in
  skip_ws st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Xml_tree.element ~attrs tag []
  end
  else begin
    expect st ">";
    let children = parse_content st tag in
    Xml_tree.element ~attrs tag children
  end

(* Children of [tag] up to and including its end tag. *)
and parse_content st tag =
  let out = ref [] in
  let flush_text () =
    if gathered st then
      if st.keep_ws || not (gathered_blank st) then out := Xml_tree.Text (take st) :: !out
      else clear st
  in
  let rec go () =
    if eof st then fail st "unterminated element <%s>" tag
    else if looking_at st "</" then begin
      flush_text ();
      st.pos <- st.pos + 2;
      let start = skip_name st in
      let stop = st.pos in
      skip_ws st;
      expect st ">";
      if not (stop - start = String.length tag && occurs_at st.src start tag) then
        fail st "mismatched end tag </%s>, expected </%s>"
          (String.sub st.src start (stop - start))
          tag
    end
    else if looking_at st "<![CDATA[" then begin
      parse_cdata st;
      go ()
    end
    else if looking_at st "<!--" then begin
      skip_comment st;
      go ()
    end
    else if looking_at st "<?" then begin
      skip_pi st;
      go ()
    end
    else if peek st = '<' then begin
      if not (is_name_start (peek2 st)) then fail st "malformed markup";
      flush_text ();
      let e = parse_element st in
      out := Xml_tree.Element e :: !out;
      go ()
    end
    else if peek st = '&' then begin
      advance st;
      parse_reference st;
      go ()
    end
    else begin
      let stop = run_end st.src st.pos '<' '&' '&' in
      add_run st st.pos stop;
      st.pos <- stop;
      go ()
    end
  in
  go ();
  List.rev !out

let parse_prolog st =
  (* Optional UTF-8 BOM. *)
  if looking_at st "\xef\xbb\xbf" then st.pos <- st.pos + 3;
  let rec go () =
    skip_ws st;
    if looking_at st "<?" then begin
      skip_pi st;
      go ()
    end
    else if looking_at st "<!--" then begin
      skip_comment st;
      go ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      skip_doctype st;
      go ()
    end
  in
  go ()

let parse_string_exn ?(keep_ws = false) src =
  let st =
    { src; pos = 0; keep_ws; buf = Buffer.create 64; run_start = 0; run_stop = 0 }
  in
  parse_prolog st;
  skip_ws st;
  if not (peek st = '<' && is_name_start (peek2 st)) then
    fail st "expected root element";
  let root = parse_element st in
  let rec trailer () =
    skip_ws st;
    if looking_at st "<!--" then begin
      skip_comment st;
      trailer ()
    end
    else if looking_at st "<?" then begin
      skip_pi st;
      trailer ()
    end
    else if not (eof st) then fail st "content after root element"
  in
  trailer ();
  { Xml_tree.root }

let parse_string ?keep_ws src =
  match parse_string_exn ?keep_ws src with
  | doc -> Ok doc
  | exception Error e -> Error e

let parse_file ?keep_ws path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse_string ?keep_ws s

let parse_file_exn path =
  match parse_file path with
  | Ok d -> d
  | Error e -> raise (Error e)
