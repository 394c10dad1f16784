module Imap = Map.Make (Int)
module Iset = Set.Make (Int)

type t = { d_upserts : Wal.doc Imap.t; d_deletes : Iset.t }

let empty = { d_upserts = Imap.empty; d_deletes = Iset.empty }
let is_empty t = Imap.is_empty t.d_upserts && Iset.is_empty t.d_deletes

let apply t (e : Wal.entry) =
  match e with
  | Put d ->
      {
        d_upserts = Imap.add d.doc_id d t.d_upserts;
        d_deletes = Iset.remove d.doc_id t.d_deletes;
      }
  | Drop { doc_id; _ } ->
      {
        d_upserts = Imap.remove doc_id t.d_upserts;
        d_deletes = Iset.add doc_id t.d_deletes;
      }

let ops t = Imap.cardinal t.d_upserts + Iset.cardinal t.d_deletes
let upserts t = List.map snd (Imap.bindings t.d_upserts)
let deletes t = Iset.elements t.d_deletes
let is_deleted t id = Iset.mem id t.d_deletes
let touches t id = Imap.mem id t.d_upserts || Iset.mem id t.d_deletes
