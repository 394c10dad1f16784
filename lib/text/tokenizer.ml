(* Word tokenizer standing in for the paper's use of Lucene.

   A token is a maximal run of letters, digits or bytes >= 0x80 (so UTF-8
   multi-byte characters stay inside words), lowercased over ASCII.  Tokens
   shorter than [min_len] or longer than [max_len] bytes are dropped to
   keep the dictionary within reason. *)

let default_min_len = 2
let default_max_len = 40

let is_word_byte c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || Char.code c >= 0x80

let is_upper c = c >= 'A' && c <= 'Z'

(* First word byte of [s] at or after [i], or [String.length s]. *)
let rec skip s i = if i < String.length s && not (is_word_byte s.[i]) then skip s (i + 1) else i

(* End of the word starting at [i]. *)
let rec word_end s i = if i < String.length s && is_word_byte s.[i] then word_end s (i + 1) else i

let rec has_upper s i stop = i < stop && (is_upper s.[i] || has_upper s (i + 1) stop)

(* Feed every token of [s] to [f].  Each token's span is found in place
   and taken with one [String.sub], lowercased only when it holds an
   ASCII capital: the hot path of index construction goes through here
   once per text node. *)
let iter ?(min_len = default_min_len) ?(max_len = default_max_len) s f =
  let rec go start =
    if start < String.length s then begin
      let stop = word_end s start in
      let len = stop - start in
      if len >= min_len && len <= max_len then begin
        let t = String.sub s start len in
        f (if has_upper s start stop then String.lowercase_ascii t else t)
      end;
      go (skip s stop)
    end
  in
  go (skip s 0)

let tokens ?min_len ?max_len s =
  let acc = ref [] in
  iter ?min_len ?max_len s (fun t -> acc := t :: !acc);
  List.rev !acc

(* A compact English stopword list; enough to keep glue words out of the
   inverted index, as Lucene's default analyzer does. *)
let stopwords =
  [
    "a"; "an"; "and"; "are"; "as"; "at"; "be"; "but"; "by"; "for"; "if";
    "in"; "into"; "is"; "it"; "no"; "not"; "of"; "on"; "or"; "such"; "that";
    "the"; "their"; "then"; "there"; "these"; "they"; "this"; "to"; "was";
    "will"; "with";
  ]

let stopword_set : (string, unit) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter (fun w -> Hashtbl.replace h w ()) stopwords;
  h

let max_stopword_len = List.fold_left (fun m w -> max m (String.length w)) 0 stopwords

let is_stopword w = String.length w <= max_stopword_len && Hashtbl.mem stopword_set w

let iter_indexed ?min_len ?max_len s f =
  iter ?min_len ?max_len s (fun t -> if not (is_stopword t) then f t)
