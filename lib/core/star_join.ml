(* Top-K star join (Section IV-B): k score-sorted lists star-joined on a
   key with the aggregate score Sum.  This is the only implementation of
   the operator: [topk] runs it over relations of (id, score) tuples, and
   Topk_keyword runs it once per column of a keyword query, sharing one
   [run] (K, the blocked heap and the results emitted so far) across the
   columns.

   Two thresholds over the unseen results are implemented:

   - [Classic]: the HRJN bound of [21], max_i (s^i + sum_{j<>i} c^j),
     using per-list ceilings c (a relation's top score, or a keyword
     list's best damped score at the column);
   - [Tight]: the paper's bound, max_P (ms(G_P) + sum_{j notin P} s^j),
     grouping the partially joined tuples in the hash bucket by the set P
     of lists already seen.

   The per-group maxima ms(G_P) are maintained monotonically (they are not
   decreased when a tuple leaves its group), which keeps them upper bounds
   - the threshold may be slightly conservative but never unsafe. *)

type threshold = Classic | Tight

type relation = { keys : int array; scores : float array }
(* sorted by descending score; keys unique within a relation *)

type result = { key : int; total : float }

type stats = {
  mutable pulled : int;  (* sorted accesses *)
  mutable emitted : int;
  mutable bucket_peak : int;
}

let new_stats () = { pulled = 0; emitted = 0; bucket_peak = 0 }

let dead = min_int

let relation ~keys ~scores =
  let n = Array.length keys in
  if Array.length scores <> n then Xk_util.Err.invalid "Star_join.relation";
  for i = 0 to n - 1 do
    if not (scores.(i) > neg_infinity) then
      Xk_util.Err.invalid
        "Star_join.relation: scores must be above neg_infinity";
    if i > 0 && scores.(i) > scores.(i - 1) then
      Xk_util.Err.invalid "Star_join.relation: scores must be descending";
    if keys.(i) = dead then
      Xk_util.Err.invalid "Star_join.relation: min_int is not a key"
  done;
  { keys; scores }

type 'a run = {
  want : int;
  stats : stats;
  blocked : 'a Xk_util.Heap.t; (* generated, not yet above the threshold *)
  mutable out : 'a list; (* emitted, best last *)
  mutable emitted : int;
}

let run ?stats ~k () =
  let stats = match stats with Some s -> s | None -> new_stats () in
  { want = k; stats; blocked = Xk_util.Heap.create (); out = []; emitted = 0 }

let complete r = r.emitted >= r.want

let emit r x =
  r.out <- x :: r.out;
  r.emitted <- r.emitted + 1;
  r.stats.emitted <- r.stats.emitted + 1

type entry = { slots : float array; mutable mask : int; mutable filled : int }

let join r ~threshold ~budget ~below ~accept ~ceilings ~next ~pull ~make =
  let k = Array.length ceilings in
  let alive i = next.(i) > neg_infinity in
  let rec any_alive i = i < k && (alive i || any_alive (i + 1)) in
  let bucket : (int, entry) Hashtbl.t = Hashtbl.create 256 in
  (* Keys already generated: a keyword list can hold a key more than
     once, and a key must not be generated twice. *)
  let completed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* Monotone per-subset maxima of partial sums, indexed by bitmask P,
     with the slots of the entry that set each maximum. *)
  let group_max = Array.make (1 lsl k) neg_infinity in
  let group_slots = Array.make (1 lsl k) [||] in
  let unseen () =
    match threshold with
    | Classic ->
        let best = ref neg_infinity in
        for i = 0 to k - 1 do
          if alive i then begin
            let t = ref next.(i) in
            for j = 0 to k - 1 do
              if j <> i then t := !t +. ceilings.(j)
            done;
            if !t > !best then best := !t
          end
        done;
        !best
    | Tight ->
        (* Case 1: keys unseen everywhere. *)
        let case1 = ref 0. in
        for j = 0 to k - 1 do
          case1 := !case1 +. next.(j)
        done;
        (* Case 2: partially seen keys, grouped by subset. *)
        let best = ref !case1 in
        for p = 1 to (1 lsl k) - 2 do
          if group_max.(p) > neg_infinity then begin
            (* ms(G_P) + sum_{j notin P} s^j, summed in list order like
               a completed total, so that an entry's own stale group
               term rounds to at most its total: next.(j) <= slot j. *)
            let slots = group_slots.(p) in
            let t = ref 0. in
            for j = 0 to k - 1 do
              t := !t +. if p land (1 lsl j) = 0 then next.(j) else slots.(j)
            done;
            if !t > !best then best := !t
          end
        done;
        !best
  in
  (* The emptiness test spares computing the bound for an empty heap. *)
  let rec flush () =
    if
      r.emitted < r.want
      && (not (Xk_util.Heap.is_empty r.blocked))
      && Xk_util.Heap.top_at_least r.blocked (Float.max (unseen ()) below)
    then begin
      emit r (Xk_util.Heap.pop_value r.blocked);
      flush ()
    end
  in
  let rr = ref 0 in
  (* Anytime loop: when the budget trips, stop pulling - everything
     emitted so far beat the unseen-results bound and remains a valid
     top-|out| prefix. *)
  while
    r.emitted < r.want
    && any_alive 0
    && Xk_resilience.Budget.alive budget
  do
    (* List choice (Section IV-B): round-robin until K results exist,
       then the list with the highest next score. *)
    let i =
      if r.emitted + Xk_util.Heap.size r.blocked < r.want then begin
        let tries = ref 0 and found = ref (-1) in
        while !found < 0 && !tries < k do
          let c = !rr mod k in
          rr := !rr + 1;
          if alive c then found := c;
          incr tries
        done;
        !found
      end
      else begin
        let best = ref (-1) in
        for j = 0 to k - 1 do
          if alive j && (!best < 0 || next.(j) > next.(!best)) then best := j
        done;
        !best
      end
    in
    assert (i >= 0);
    let s = next.(i) in
    let key = pull i in
    r.stats.pulled <- r.stats.pulled + 1;
    if key <> dead && not (Hashtbl.mem completed key) then begin
      let e =
        match Hashtbl.find_opt bucket key with
        | Some e -> e
        | None ->
            let e =
              { slots = Array.make k neg_infinity; mask = 0; filled = 0 }
            in
            Hashtbl.add bucket key e;
            r.stats.bucket_peak <-
              max r.stats.bucket_peak (Hashtbl.length bucket);
            e
      in
      if e.slots.(i) = neg_infinity then begin
        e.slots.(i) <- s;
        e.mask <- e.mask lor (1 lsl i);
        e.filled <- e.filled + 1;
        if e.filled = k then begin
          let total = Array.fold_left ( +. ) 0. e.slots in
          Hashtbl.remove bucket key;
          Hashtbl.add completed key ();
          if accept key then Xk_util.Heap.push r.blocked total (make key total)
        end
        else begin
          let partial = ref 0. in
          Array.iter
            (fun v -> if v > neg_infinity then partial := !partial +. v)
            e.slots;
          if !partial > group_max.(e.mask) then begin
            group_max.(e.mask) <- !partial;
            group_slots.(e.mask) <- Array.copy e.slots
          end
        end
      end
    end;
    flush ()
  done

let finish ~budget r =
  (* Every list exhausted: everything joinable has joined; drain the heap
     - unless the budget tripped, in which case blocked results were
     never confirmed against the threshold and must not be emitted. *)
  while
    r.emitted < r.want
    && not (Xk_util.Heap.is_empty r.blocked)
    && not (Xk_resilience.Budget.exhausted budget)
  do
    emit r (Xk_util.Heap.pop_value r.blocked)
  done;
  List.rev r.out

let topk ?stats ?(threshold = Tight) (rels : relation array)
    ~k:want : result list =
  let k = Array.length rels in
  if k = 0 then Xk_util.Err.invalid "Star_join.topk: no relations";
  let r = run ?stats ~k:want () in
  let score i pos =
    if pos < Array.length rels.(i).scores then rels.(i).scores.(pos)
    else neg_infinity
  in
  let cursors = Array.make k 0 in
  let next = Array.init k (fun i -> score i 0) in
  let pull i =
    let pos = cursors.(i) in
    cursors.(i) <- pos + 1;
    next.(i) <- score i (pos + 1);
    rels.(i).keys.(pos)
  in
  let budget = Xk_resilience.Budget.unlimited in
  join r ~threshold ~budget ~below:neg_infinity
    ~accept:(fun _ -> true)
    ~ceilings:(Array.copy next) ~next ~pull
    ~make:(fun key total -> { key; total });
  finish ~budget r
