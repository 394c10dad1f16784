(** Word tokenizer (the Lucene stand-in).

    Tokens are maximal runs of letters/digits/high bytes, ASCII-lowercased.
    [min_len]/[max_len] (default 2/40) bound accepted token lengths. *)

val default_min_len : int
val default_max_len : int

val spans :
  ?min_len:int ->
  ?max_len:int ->
  ?skip_stopwords:bool ->
  string ->
  (string -> int -> int -> unit) ->
  unit
(** [spans s f] calls [f s pos len] for each token of [s], in order,
    without copying it: the bytes are the token before lowercasing.  With
    [~skip_stopwords:true] (default false) stopwords are left out, as the
    index builder needs. *)

val iter : ?min_len:int -> ?max_len:int -> string -> (string -> unit) -> unit
(** Feed each token of a string to a callback, as a lowercase string. *)

val tokens : ?min_len:int -> ?max_len:int -> string -> string list

val is_stopword : string -> bool

val iter_indexed :
  ?min_len:int -> ?max_len:int -> string -> (string -> unit) -> unit
(** Like {!iter} but skips stopwords. *)
