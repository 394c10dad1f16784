(** Word tokenizer (the Lucene stand-in).

    Tokens are maximal runs of letters/digits/high bytes.  Only tokens of
    2 to 40 bytes that are not stopwords are indexed; both bounds are
    constants. *)

val spans : string -> (string -> int -> int -> unit) -> unit
(** [spans s f] calls [f s pos len] for each indexed token of [s], in
    order, without copying it: the bytes are the token before ASCII
    lowercasing, which the consumer applies
    ({!Dictionary.intern_folded}). *)
