(* Word tokenizer standing in for the paper's use of Lucene.

   A token is a maximal run of letters, digits or bytes >= 0x80 (so UTF-8
   multi-byte characters stay inside words).  Tokens shorter than
   [min_len] (2) or longer than [max_len] (40) bytes are dropped to keep
   the dictionary within reason, and so are stopwords.

   One scanner, [spans], finds every token as a span of its source string
   without copying it; the index builder interns the spans directly,
   lowercasing ASCII as it does (Dictionary.intern_folded). *)

let min_len = 2
let max_len = 40

(* Byte class table: '\001' for a word byte. *)
let word_bytes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || i >= 0x80
      then '\001'
      else '\000')

let is_word_byte c = String.unsafe_get word_bytes (Char.code c) = '\001'

(* First word byte of [s] at or after [i], or [String.length s]. *)
let rec skip s i = if i < String.length s && not (is_word_byte s.[i]) then skip s (i + 1) else i

(* End of the word starting at [i]. *)
let rec word_end s i = if i < String.length s && is_word_byte s.[i] then word_end s (i + 1) else i

(* A compact English stopword list; enough to keep glue words out of the
   inverted index, as Lucene's default analyzer does. *)
let stopwords =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "no"; "not"; "of"; "on"; "or"; "such"; "that";
    "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to"; "was";
    "will"; "with";
  ]

let max_stopword_len = List.fold_left (fun m w -> max m (String.length w)) 0 stopwords

(* The stopwords as a dictionary, so a span is tested in place. *)
let stopword_dict =
  let d = Dictionary.create ~size:(List.length stopwords) () in
  List.iter (fun w -> ignore (Dictionary.intern d w)) stopwords;
  d

let is_stopword_span s pos len =
  len <= max_stopword_len && Dictionary.find_folded stopword_dict s ~pos ~len <> None

(* Feed the span [(s, pos, len)] of every token of [s] (not yet
   lowercased) to [f].  No token is copied: the hot path of index
   construction goes through here once per text node. *)
let spans s f =
  let rec go start =
    if start < String.length s then begin
      let stop = word_end s start in
      let len = stop - start in
      if len >= min_len && len <= max_len && not (is_stopword_span s start len)
      then f s start len;
      go (skip s stop)
    end
  in
  go (skip s 0)
