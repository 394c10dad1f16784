(* Tokenizer and dictionary. *)

open Xk_text

let check = Alcotest.check
let tc = Alcotest.test_case

let basic_tokens () =
  check
    Alcotest.(list string)
    "tokens"
    [ "top"; "keyword"; "search"; "xml" ]
    (Tutil.tokens "Top-K keyword search (XML)!")

let min_length () =
  check Alcotest.(list string) "short dropped" [ "ab" ] (Tutil.tokens "a ab x")

let numbers_kept () =
  check Alcotest.(list string) "numbers" [ "2004"; "vldb" ] (Tutil.tokens "2004 VLDB")

let lowercasing () =
  check Alcotest.(list string) "lower" [ "icde" ] (Tutil.tokens "ICDE")

let unicode_words () =
  check
    Alcotest.(list string)
    "utf8 words stay whole"
    [ "caf\xc3\xa9" ]
    (Tutil.tokens "caf\xc3\xa9")

let max_length () =
  let long = String.make 50 'a' in
  check Alcotest.(list string) "too long dropped" [] (Tutil.tokens long)

let stopwords () =
  check Alcotest.(list string) "the" [] (Tutil.tokens "the");
  check Alcotest.(list string) "THE folds to a stopword" [] (Tutil.tokens "THE");
  check Alcotest.(list string) "xml" [ "xml" ] (Tutil.tokens "xml");
  check Alcotest.(list string) "indexed skips stopwords" [ "quick"; "fox" ]
    (Tutil.tokens "the quick fox")

let dictionary_basics () =
  let d = Dictionary.create () in
  let a = Dictionary.intern d "xml" in
  let b = Dictionary.intern d "data" in
  let a' = Dictionary.intern d "xml" in
  check Alcotest.int "stable id" a a';
  check Alcotest.bool "distinct ids" true (a <> b);
  check Alcotest.(option int) "find" (Some b) (Dictionary.find d "data");
  check Alcotest.(option int) "missing" None (Dictionary.find d "nope");
  check Alcotest.string "term" "xml" (Dictionary.term d a);
  check Alcotest.int "size" 2 (Dictionary.size d);
  Dictionary.bump_df d a;
  check Alcotest.int "df" 1 (Dictionary.df d a)

let dictionary_growth () =
  let d = Dictionary.create () in
  for i = 0 to 4999 do
    ignore (Dictionary.intern d (Printf.sprintf "term%d" i))
  done;
  check Alcotest.int "size" 5000 (Dictionary.size d);
  check Alcotest.string "term 4321" "term4321" (Dictionary.term d 4321);
  check Alcotest.(option int) "find after growth" (Some 4999) (Dictionary.find d "term4999")

let vocab_distinct () =
  let seen = Hashtbl.create 1024 in
  for r = 0 to 9999 do
    let w = Xk_datagen.Vocab.word r in
    if Hashtbl.mem seen w then Alcotest.failf "duplicate word %s at rank %d" w r;
    Hashtbl.add seen w ();
    (* Words must survive tokenization unchanged (indexable). *)
    match Tutil.tokens w with
    | [ t ] when String.equal t w -> ()
    | _ -> Alcotest.failf "word %s not tokenizer-stable" w
  done

(* The tokenizer's specification, written plainly: split on every byte
   that is not an ASCII letter or digit or >= 0x80, lowercase ASCII, keep
   tokens of 2 to 40 bytes that are not stopwords. *)
let reference_tokens s =
  let word c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || Char.code c >= 0x80
  in
  String.map (fun c -> if word c then c else ' ') s
  |> String.split_on_char ' '
  |> List.filter (fun t -> String.length t >= 2 && String.length t <= 40)
  |> List.map String.lowercase_ascii
  |> List.filter (fun t -> not (List.mem t Tutil.stopwords))

(* Random byte strings built from runs of capitals, lowercase letters,
   digits, high bytes, mixed word bytes and separators, some runs longer
   than the 40-byte cap. *)
let token_soup =
  let open QCheck.Gen in
  let run_of cls =
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (oneof [ int_range 0 6; int_range 38 43; int_range 0 60 ]) cls)
  in
  let classes =
    [
      char_range 'A' 'Z';
      char_range 'a' 'z';
      char_range '0' '9';
      map Char.chr (int_range 0x80 0xff);
      oneof [ char_range 'A' 'Z'; char_range 'a' 'z'; char_range '0' '9' ];
      map Char.chr (int_range 0 0xff);
      oneofl [ ' '; '-'; '.'; '\n'; '@'; '['; '`'; '{'; '/'; ':'; '\000' ];
    ]
  in
  map (String.concat "") (list_size (int_range 0 12) (oneof (List.map run_of classes)))

let tokens_match_reference_prop =
  QCheck.Test.make ~count:1000 ~name:"tokens = reference tokenizer"
    (QCheck.make ~print:(Printf.sprintf "%S") token_soup)
    (fun s -> Tutil.tokens s = reference_tokens s)

(* The dictionary against a [Hashtbl] model: whole-string interning is
   exact (an uppercase term is its own entry), span interning folds ASCII
   case in place, and ids are dense in first-seen order across both. *)
type dict_op =
  | Intern of string
  | Find of string
  | Intern_span of string * string * string (* prefix, token, suffix *)
  | Find_span of string * string * string

let dict_ops =
  let open QCheck.Gen in
  let word =
    map
      (fun l -> String.concat "" (List.map (String.make 1) l))
      (list_size (int_range 0 5) (oneofl [ 'a'; 'b'; 'A'; 'B'; 'z'; 'Z'; '9'; '-'; '\xc3' ]))
  in
  let span = triple word word word in
  list_size (int_range 1 400)
    (frequency
       [
         (3, map (fun w -> Intern w) word);
         (1, map (fun w -> Find w) word);
         (4, map (fun (p, w, q) -> Intern_span (p, w, q)) span);
         (2, map (fun (p, w, q) -> Find_span (p, w, q)) span);
       ])

let dictionary_vs_model =
  let print = function
    | Intern w -> Printf.sprintf "intern %S" w
    | Find w -> Printf.sprintf "find %S" w
    | Intern_span (p, w, q) -> Printf.sprintf "intern_folded %S|%S|%S" p w q
    | Find_span (p, w, q) -> Printf.sprintf "find_folded %S|%S|%S" p w q
  in
  QCheck.Test.make ~count:300 ~name:"dictionary = Hashtbl model"
    (QCheck.make ~print:(QCheck.Print.list print) dict_ops)
    (fun ops ->
      let d = Dictionary.create ~size:16 () in
      let model = Hashtbl.create 16 and order = ref [] in
      let model_intern w =
        match Hashtbl.find_opt model w with
        | Some id -> id
        | None ->
            let id = Hashtbl.length model in
            Hashtbl.add model w id;
            order := w :: !order;
            id
      in
      let expect what got want =
        if got <> want then QCheck.Test.fail_reportf "%s: got %s, want %s" what got want
      in
      let id = string_of_int and opt = Option.fold ~none:"none" ~some:string_of_int in
      List.iter
        (fun op ->
          match op with
          | Intern w -> expect (print op) (id (Dictionary.intern d w)) (id (model_intern w))
          | Find w -> expect (print op) (opt (Dictionary.find d w)) (opt (Hashtbl.find_opt model w))
          | Intern_span (p, w, q) ->
              let got =
                Dictionary.intern_folded d (p ^ w ^ q) ~pos:(String.length p)
                  ~len:(String.length w)
              in
              expect (print op) (id got) (id (model_intern (String.lowercase_ascii w)))
          | Find_span (p, w, q) ->
              let got =
                Dictionary.find_folded d (p ^ w ^ q) ~pos:(String.length p)
                  ~len:(String.length w)
              in
              expect (print op) (opt got)
                (opt (Hashtbl.find_opt model (String.lowercase_ascii w))))
        ops;
      let terms = List.rev !order in
      expect "size" (id (Dictionary.size d)) (id (List.length terms));
      List.iteri (fun i w -> expect "term" (Dictionary.term d i) w) terms;
      true)

(* Exact interning keeps an uppercase term apart from its folded form. *)
let dictionary_case () =
  let d = Dictionary.create () in
  let upper = Dictionary.intern d "XML" in
  let s = "<XML>" in
  let folded = Dictionary.intern_folded d s ~pos:1 ~len:3 in
  check Alcotest.bool "distinct ids" true (upper <> folded);
  check Alcotest.string "folded term" "xml" (Dictionary.term d folded);
  check Alcotest.(option int) "exact find" (Some upper) (Dictionary.find d "XML");
  check Alcotest.(option int) "folded find" (Some folded)
    (Dictionary.find_folded d "xMl" ~pos:0 ~len:3);
  Alcotest.check_raises "span outside its string"
    (Invalid_argument "Dictionary: span outside its string") (fun () ->
      ignore (Dictionary.intern_folded d s ~pos:3 ~len:3))

let suite =
  [
    ( "text",
      [
        tc "basic tokens" `Quick basic_tokens;
        tc "minimum length" `Quick min_length;
        tc "numbers kept" `Quick numbers_kept;
        tc "lowercasing" `Quick lowercasing;
        tc "unicode words" `Quick unicode_words;
        tc "maximum length" `Quick max_length;
        tc "stopwords" `Quick stopwords;
        tc "dictionary basics" `Quick dictionary_basics;
        tc "dictionary growth" `Quick dictionary_growth;
        tc "dictionary case" `Quick dictionary_case;
        QCheck_alcotest.to_alcotest dictionary_vs_model;
        tc "vocab words distinct and indexable" `Quick vocab_distinct;
        QCheck_alcotest.to_alcotest tokens_match_reference_prop;
      ] );
  ]
