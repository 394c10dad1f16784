(* RDIL (XRank [5]): the straightforward application of the Threshold
   Algorithm to XML keyword search that the paper argues against
   (Section II-C).

   Each inverted list is sorted by descending local score.  At every step
   one occurrence is pulled from the list with the highest next score; its
   deepest all-containing ancestor is located by closest-occurrence probes
   (the role of the B-trees over the Dewey-ordered lists) and verified as
   an ELCA with the scan-and-skip verifier.  The scores of unseen results
   are bounded by the sum of the next undamped local scores; generated
   results at or above the bound are emitted without blocking.

   The two weaknesses the paper points out are visible in this
   implementation: verification re-derives the semantic pruning from
   scratch for every candidate, and a high local score says nothing about
   the damped global score, so the threshold decreases slowly. *)

type stats = { mutable pulled : int; mutable verified : int }

let topk ?stats ?(budget = Xk_resilience.Budget.unlimited)
    (idx : Xk_index.Index.t) (terms : int list) ~k:want =
  let k = List.length terms in
  if k = 0 then Xk_util.Err.invalid "Rdil.topk";
  let label = Xk_index.Index.label idx in
  let damping = Xk_index.Index.damping idx in
  let posts = Array.of_list (List.map (Xk_index.Index.posting idx) terms) in
  (* Score-descending row orders: the "ranked" Dewey inverted lists. *)
  let orders =
    Array.map
      (fun p ->
        let n = Xk_index.Posting.length p in
        let rows = Array.init n (fun r -> r) in
        Array.sort
          (fun a b ->
            let c =
              Float.compare (Xk_index.Posting.score p b)
                (Xk_index.Posting.score p a)
            in
            if c <> 0 then c else Int.compare a b)
          rows;
        rows)
      posts
  in
  let cursors = Array.make k 0 in
  let next_score i =
    if cursors.(i) >= Array.length orders.(i) then neg_infinity
    else Xk_index.Posting.score posts.(i) orders.(i).(cursors.(i))
  in
  let processed : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let blocked : Hit.t Xk_util.Heap.t = Xk_util.Heap.create () in
  let out = ref [] and emitted = ref 0 in
  let bump_stat f = match stats with Some s -> f s | None -> () in
  let threshold () =
    let t = ref 0. in
    for i = 0 to k - 1 do
      t := !t +. next_score i
    done;
    !t (* neg_infinity once any list is exhausted: all results generated *)
  in
  let rec flush () =
    if
      !emitted < want
      && (not (Xk_util.Heap.is_empty blocked))
      && Xk_util.Heap.top_at_least blocked (threshold ())
    then begin
      out := Xk_util.Heap.pop_value blocked :: !out;
      incr emitted;
      flush ()
    end
  in
  let exhausted () = Array.for_all2 (fun c o -> c >= Array.length o) cursors orders in
  while !emitted < want && not (exhausted ()) do
    Xk_resilience.Budget.check budget;
    (* Sorted access on the list with the highest next local score. *)
    let besti = ref 0 in
    for i = 1 to k - 1 do
      if next_score i > next_score !besti then besti := i
    done;
    let i = !besti in
    let row = orders.(i).(cursors.(i)) in
    cursors.(i) <- cursors.(i) + 1;
    bump_stat (fun s -> s.pulled <- s.pulled + 1);
    let x = Xk_index.Posting.dewey posts.(i) row in
    let depth = Elca_verify.cand_depth posts i x in
    if depth >= 1 then begin
      let u = Array.sub x 0 depth in
      let key = Xk_encoding.Dewey.to_string u in
      if not (Hashtbl.mem processed key) then begin
        Hashtbl.add processed key ();
        bump_stat (fun s -> s.verified <- s.verified + 1);
        match Elca_verify.verify posts damping u with
        | None -> ()
        | Some score ->
            let node =
              match
                Xk_encoding.Labeling.ancestor_at label
                  (Xk_index.Posting.node posts.(i) row)
                  ~depth
              with
              | Some n -> n
              | None ->
                  Xk_util.Err.unreachable
                    "Rdil.topk: posting node has no ancestor at its depth"
            in
            Xk_util.Heap.push blocked score { Hit.node; score }
      end
    end;
    flush ()
  done;
  flush ();
  List.rev !out
