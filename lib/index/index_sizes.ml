(* Index-size accounting for Table I.  Each flavour is measured by running
   the corresponding real serializer over every term's list:

   - join-based: column codec (delta blocks / run-length triples) plus
     sparse indices over large columns;
   - stack-based: prefix-compressed Dewey lists;
   - index-based: one (keyword, Dewey) composite-key B-tree entry per
     occurrence (the BerkeleyDB layout of [6], [8]);
   - top-K join: score-ordered group layout plus the same sparse indices;
   - RDIL: the Dewey lists plus one B+-tree per keyword.

   Every flavour also carries the dictionary bytes. *)

type flavour_size = { inverted_lists : int; auxiliary : int }

type report = {
  join_based : flavour_size;   (* auxiliary = sparse indices *)
  stack_based : flavour_size;  (* auxiliary = 0 *)
  index_based : flavour_size;  (* inverted_lists = composite B-tree *)
  topk_join : flavour_size;    (* auxiliary = sparse indices *)
  rdil : flavour_size;         (* auxiliary = per-list B-trees *)
}

let zero_flavour = { inverted_lists = 0; auxiliary = 0 }

let zero =
  {
    join_based = zero_flavour;
    stack_based = zero_flavour;
    index_based = zero_flavour;
    topk_join = zero_flavour;
    rdil = zero_flavour;
  }

let add_flavour a b =
  {
    inverted_lists = a.inverted_lists + b.inverted_lists;
    auxiliary = a.auxiliary + b.auxiliary;
  }

let add a b =
  {
    join_based = add_flavour a.join_based b.join_based;
    stack_based = add_flavour a.stack_based b.stack_based;
    index_based = add_flavour a.index_based b.index_based;
    topk_join = add_flavour a.topk_join b.topk_join;
    rdil = add_flavour a.rdil b.rdil;
  }

let aggregate = List.fold_left add zero

let total f = f.inverted_lists + f.auxiliary

let sparse_threshold_runs = 256

let sparse_size_of_jlist jl =
  let total = ref 0 in
  for level = 1 to Jlist.max_len jl do
    let c = Jlist.column jl ~level in
    if Column.num_runs c >= sparse_threshold_runs then begin
      let sp = Sparse_index.build c in
      total := !total + Sparse_index.encoded_size sp
    end
  done;
  !total

let report (idx : Index.t) =
  (* The dictionary's footprint: per term its bytes, a length byte and
     the two frequencies. *)
  let dict_bytes = ref 0 in
  let join_il = ref 0
  and join_sparse = ref 0
  and stack_il = ref 0
  and topk_il = ref 0 in
  let postings_for_btree = ref [] in
  let terms = Index.term_count idx in
  for id = 0 to terms - 1 do
    dict_bytes := !dict_bytes + String.length (Index.term idx id) + 1 + 8;
    if Index.df idx id > 0 then begin
      (* Build the shapes without going through the per-term caches: this
         pass runs over the whole dictionary, so lists are discarded
         immediately after being measured. *)
      let label = Index.label idx in
      let r_nodes, _tfs = Index.raw_rows idx id in
      let scores = Index.local_scores idx id in
      let deweys =
        Array.map (fun n -> Xk_encoding.Labeling.dewey label n) r_nodes
      in
      let jl = Jlist.make label ~nodes:r_nodes ~scores in
      join_il := !join_il + Jlist.encoded_size jl;
      join_sparse := !join_sparse + sparse_size_of_jlist jl;
      let p = Posting.make ~deweys ~nodes:r_nodes ~scores in
      stack_il := !stack_il + Posting.encoded_size p;
      let sl = Score_list.make jl (Index.damping idx) in
      topk_il := !topk_il + Score_list.encoded_size sl;
      postings_for_btree := (Index.term idx id, deweys) :: !postings_for_btree
    end
  done;
  let btree = Xk_storage.Btree_sim.composite_btree_size !postings_for_btree in
  let rdil_btrees = Xk_storage.Btree_sim.per_list_btree_size !postings_for_btree in
  {
    join_based =
      { inverted_lists = !join_il + !dict_bytes; auxiliary = !join_sparse };
    stack_based = { inverted_lists = !stack_il + !dict_bytes; auxiliary = 0 };
    index_based = { inverted_lists = btree; auxiliary = 0 };
    topk_join =
      { inverted_lists = !topk_il + !dict_bytes; auxiliary = !join_sparse };
    rdil = { inverted_lists = !stack_il + !dict_bytes; auxiliary = rdil_btrees };
  }
