(* Payload codecs for the shard RPC.  Both sides build on the storage
   varint: decoders read through its cursor, and any truncation or bad
   tag becomes [Frame.Malformed] — no exception escapes on foreign bytes. *)

module Varint = Xk_storage.Varint

type query = {
  q_shard : int;
  q_words : string list;
  q_semantics : Xk_core.Engine.semantics;
  q_mode : Xk_core.Engine.mode;
  q_deadline_ms : float option;
  q_ticks : int option;
}

type served = {
  s_summary : Xk_index.Sharding.root_summary option;
  s_outcome : Xk_core.Engine.run_outcome;
  s_bound : float;
}

type reply = Served of served | Refused of string

(* --- primitive writers ------------------------------------------------ *)

let put_int buf n = Varint.write buf n

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

(* Scores travel as their IEEE-754 bits: the gather's parity checks
   compare floats for equality, so the codec must be exact, including
   the +/- infinity bounds. *)
let put_float buf f = Buffer.add_int64_be buf (Int64.bits_of_float f)

let put_bool buf b = Buffer.add_uint8 buf (if b then 1 else 0)

let put_option put buf = function
  | None -> Buffer.add_uint8 buf 0
  | Some v ->
      Buffer.add_uint8 buf 1;
      put buf v

let put_list put buf xs =
  put_int buf (List.length xs);
  List.iter (put buf) xs

let put_float_array buf a =
  put_int buf (Array.length a);
  Array.iter (put_float buf) a

(* --- primitive readers ------------------------------------------------ *)

let get_float c =
  let s = Varint.take c 8 in
  Int64.float_of_bits (String.get_int64_be s 0)

let get_byte c =
  let s = Varint.take c 1 in
  Char.code s.[0]

let get_bool c what =
  match get_byte c with
  | 0 -> false
  | 1 -> true
  | b -> Varint.malformed "bad %s flag %d" what b

let get_option get c what =
  match get_byte c with
  | 0 -> None
  | 1 -> Some (get c)
  | b -> Varint.malformed "bad %s tag %d" what b

(* Counts are checked against the bytes left before anything is
   allocated: each element takes at least [width] bytes. *)
let get_list get c = List.init (Varint.count c ~width:1) (fun _ -> get c)

let get_float_array c =
  Array.init (Varint.count c ~width:8) (fun _ -> get_float c)

(* --- domain types ----------------------------------------------------- *)

let semantics_byte : Xk_core.Engine.semantics -> int = function
  | Elca -> 0
  | Slca -> 1

let semantics_of_byte = function
  | 0 -> Xk_core.Engine.Elca
  | 1 -> Xk_core.Engine.Slca
  | b -> Varint.malformed "bad semantics %d" b

let algorithm_byte : Xk_core.Engine.algorithm -> int = function
  | Join_based -> 0
  | Stack_based -> 1
  | Index_based -> 2
  | Oracle -> 3

let algorithm_of_byte : int -> Xk_core.Engine.algorithm = function
  | 0 -> Join_based
  | 1 -> Stack_based
  | 2 -> Index_based
  | 3 -> Oracle
  | b -> Varint.malformed "bad algorithm %d" b

let topk_byte : Xk_core.Engine.topk_algorithm -> int = function
  | Topk_join -> 0
  | Complete_then_sort -> 1
  | Rdil_baseline -> 2
  | Hybrid -> 3

let topk_of_byte : int -> Xk_core.Engine.topk_algorithm = function
  | 0 -> Topk_join
  | 1 -> Complete_then_sort
  | 2 -> Rdil_baseline
  | 3 -> Hybrid
  | b -> Varint.malformed "bad top-K algorithm %d" b

let put_mode buf : Xk_core.Engine.mode -> unit = function
  | Complete a ->
      Buffer.add_uint8 buf 0;
      Buffer.add_uint8 buf (algorithm_byte a)
  | Topk (a, k) ->
      Buffer.add_uint8 buf 1;
      Buffer.add_uint8 buf (topk_byte a);
      put_int buf k

let get_mode c : Xk_core.Engine.mode =
  match get_byte c with
  | 0 -> Complete (algorithm_of_byte (get_byte c))
  | 1 ->
      let a = topk_of_byte (get_byte c) in
      Topk (a, Varint.read c)
  | b -> Varint.malformed "bad mode tag %d" b

let put_hit buf (h : Xk_baselines.Hit.t) =
  put_int buf h.node;
  put_float buf h.score

let get_hit c : Xk_baselines.Hit.t =
  let node = Varint.read c in
  { node; score = get_float c }

let put_outcome buf : Xk_core.Engine.run_outcome -> unit = function
  | Done hits ->
      Buffer.add_uint8 buf 0;
      put_list put_hit buf hits
  | Partial hits ->
      Buffer.add_uint8 buf 1;
      put_list put_hit buf hits
  | Timed_out -> Buffer.add_uint8 buf 2

let get_outcome c : Xk_core.Engine.run_outcome =
  match get_byte c with
  | 0 -> Done (get_list get_hit c)
  | 1 -> Partial (get_list get_hit c)
  | 2 -> Timed_out
  | b -> Varint.malformed "bad outcome tag %d" b

let put_summary buf (s : Xk_index.Sharding.root_summary) =
  put_float_array buf s.rs_best_all;
  put_float_array buf s.rs_best_free;
  put_bool buf s.rs_full_subtree

let get_summary c : Xk_index.Sharding.root_summary =
  let rs_best_all = get_float_array c in
  let rs_best_free = get_float_array c in
  { rs_best_all; rs_best_free; rs_full_subtree = get_bool c "subtree" }

(* --- messages --------------------------------------------------------- *)

let encode_query q =
  let buf = Buffer.create 128 in
  put_int buf q.q_shard;
  put_list put_string buf q.q_words;
  Buffer.add_uint8 buf (semantics_byte q.q_semantics);
  put_mode buf q.q_mode;
  put_option put_float buf q.q_deadline_ms;
  put_option put_int buf q.q_ticks;
  Buffer.contents buf

let encode_reply r =
  let buf = Buffer.create 256 in
  (match r with
  | Served s ->
      Buffer.add_uint8 buf 0;
      put_option put_summary buf s.s_summary;
      put_outcome buf s.s_outcome;
      put_float buf s.s_bound
  | Refused msg ->
      Buffer.add_uint8 buf 1;
      put_string buf msg);
  Buffer.contents buf

(* Run a decoder over the whole payload; truncation, bad tags and
   trailing bytes all land in [Frame.Malformed]. *)
let decoding what get s =
  Varint.decode ~whole:true get (Varint.cursor s)
  |> Result.map_error (fun msg -> Frame.Malformed (what ^ ": " ^ msg))

let decode_query s =
  decoding "query" (fun c ->
      let q_shard = Varint.read c in
      let q_words = get_list Varint.string c in
      let q_semantics = semantics_of_byte (get_byte c) in
      let q_mode = get_mode c in
      let q_deadline_ms = get_option get_float c "deadline" in
      let q_ticks = get_option Varint.read c "ticks" in
      { q_shard; q_words; q_semantics; q_mode; q_deadline_ms; q_ticks })
    s

let decode_reply s =
  decoding "reply" (fun c ->
      match get_byte c with
      | 0 ->
          let s_summary = get_option get_summary c "summary" in
          let s_outcome = get_outcome c in
          Served { s_summary; s_outcome; s_bound = get_float c }
      | 1 -> Refused (Varint.string c)
      | b -> Varint.malformed "bad reply tag %d" b)
    s
