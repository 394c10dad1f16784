(* Term dictionary: interns term strings to dense integer ids and tracks
   collection statistics (document frequency = number of nodes directly
   containing the term; collection frequency = total occurrences). *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable terms : string array;
  mutable dfs : int array;
  mutable cfs : int array;
  mutable len : int;
}

(* [size] presizes the table and arrays: a segment loader knows the
   exact term count and skips every rehash and growth copy. *)
let create ?(size = 1024) () =
  let size = max 16 size in
  {
    ids = Hashtbl.create (max 4096 size);
    terms = Array.make size "";
    dfs = Array.make size 0;
    cfs = Array.make size 0;
    len = 0;
  }

let grow t =
  let cap = Array.length t.terms in
  let terms = Array.make (2 * cap) "" in
  let dfs = Array.make (2 * cap) 0 in
  let cfs = Array.make (2 * cap) 0 in
  Array.blit t.terms 0 terms 0 t.len;
  Array.blit t.dfs 0 dfs 0 t.len;
  Array.blit t.cfs 0 cfs 0 t.len;
  t.terms <- terms;
  t.dfs <- dfs;
  t.cfs <- cfs

let intern t w =
  match Hashtbl.find_opt t.ids w with
  | Some id -> id
  | None ->
      if t.len = Array.length t.terms then grow t;
      let id = t.len in
      t.terms.(id) <- w;
      t.len <- id + 1;
      Hashtbl.add t.ids w id;
      id

let find t w = Hashtbl.find_opt t.ids w
let term t id = t.terms.(id)
let size t = t.len
let df t id = t.dfs.(id)
let cf t id = t.cfs.(id)
let bump_df t id = t.dfs.(id) <- t.dfs.(id) + 1
let bump_cf t id n = t.cfs.(id) <- t.cfs.(id) + n

(* Bulk form for loaders that know the statistics up front (the v5
   segment directory): O(1) instead of one bump per posting row. *)
let set_stats t id ~df ~cf =
  t.dfs.(id) <- df;
  t.cfs.(id) <- cf

let iter t f =
  for id = 0 to t.len - 1 do
    f id t.terms.(id)
  done

(* Serialized footprint of the dictionary itself (term bytes + statistics),
   counted into every index flavour's size in Table I. *)
let approx_bytes t =
  let b = ref 0 in
  for id = 0 to t.len - 1 do
    b := !b + String.length t.terms.(id) + 1 + 8
  done;
  !b
