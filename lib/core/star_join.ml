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

module type S = sig
  type 'a run

  val run : ?stats:stats -> k:int -> unit -> 'a run
  val complete : 'a run -> bool

  val join :
    'a run ->
    threshold:threshold ->
    budget:Xk_resilience.Budget.t ->
    below:float ->
    accept:(int -> bool) ->
    ceilings:float array ->
    next:float array ->
    pull:(int -> int) ->
    make:(int -> float -> 'a) ->
    unit

  val finish : budget:Xk_resilience.Budget.t -> 'a run -> 'a list
end

(* The hash bucket, flat: an int-keyed open-addressing table (linear
   probing, [dead] marks an empty slot) from a key to its entry, and
   append-only entry arrays - the lists an entry has matched as a
   bitmask, and its [k] scores at [entry * k].  A generated key keeps its
   entry with mask -1, so the bucket is also the set of generated keys
   and nothing is ever removed; the table is cleared per column.  A score
   slot never changes once set, so a group maximum is kept as the entry
   that set it: the entry's slots of the group's lists are the values a
   copy would hold.

   One bucket per domain is kept between calls and taken by one run at a
   time; a run that finds it taken (or lost to an exception) allocates
   its own.  Arrays grow by doubling and are never shrunk. *)
type bucket = {
  mutable table : int array; (* slot s: key at 2s, entry at 2s + 1 *)
  mutable shift : int; (* 63 - log2 (slots) *)
  mutable slot_of : int array; (* entry -> its table slot *)
  mutable seen : int array; (* entry -> lists matched; -1 once generated *)
  mutable vals : float array; (* entry e, list i at e * k + i *)
  mutable len : int; (* entries this column *)
  mutable group_max : float array; (* by subset mask P: ms(G_P) *)
  mutable group_ent : int array; (* the entry that set group_max *)
  bound : float array; (* the unseen-results bound, one cell *)
}

let new_bucket () =
  let bits = 6 in
  {
    table = Array.make (2 lsl bits) dead;
    shift = 63 - bits;
    slot_of = Array.make (1 lsl (bits - 1)) 0;
    seen = Array.make (1 lsl (bits - 1)) 0;
    vals = [||];
    len = 0;
    group_max = [||];
    group_ent = [||];
    bound = [| neg_infinity |];
  }

let spare : bucket option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let take_bucket () =
  match Atomic.exchange (Domain.DLS.get spare) None with
  | Some b -> b
  | None -> new_bucket ()

(* Multiplicative hashing: the top bits of the key times an odd
   constant. *)
let home b key = (key * 0x2545F4914F6CDD1D) lsr b.shift

let rec free_slot table ~mask h =
  if table.(2 * h) = dead then h else free_slot table ~mask ((h + 1) land mask)

let grow_table b =
  let old = b.table in
  let slots = Array.length old (* the old slot count, doubled *) in
  let table = Array.make (2 * slots) dead in
  b.shift <- b.shift - 1;
  let mask = slots - 1 in
  for s = 0 to (Array.length old / 2) - 1 do
    let key = old.(2 * s) in
    if key <> dead then begin
      let h = free_slot table ~mask (home b key) in
      let e = old.((2 * s) + 1) in
      table.(2 * h) <- key;
      table.((2 * h) + 1) <- e;
      b.slot_of.(e) <- h
    end
  done;
  b.table <- table

let grow_entries b =
  let cap = 2 * Array.length b.seen in
  let extend a = Array.append a (Array.make (cap - Array.length a) 0) in
  b.slot_of <- extend b.slot_of;
  b.seen <- extend b.seen

(* Empties the bucket for a column of [k] lists. *)
let clear b ~k =
  for e = 0 to b.len - 1 do
    b.table.(2 * b.slot_of.(e)) <- dead
  done;
  b.len <- 0;
  let groups = 1 lsl k in
  if Array.length b.group_max < groups then begin
    b.group_max <- Array.make groups neg_infinity;
    b.group_ent <- Array.make groups 0
  end
  else Array.fill b.group_max 0 groups neg_infinity

(* The entry of [key], appended with an empty mask if the key is new.
   The probe is a loop, not a local function: a closure would be
   allocated on every pull. *)
let entry b ~k key =
  if 2 * (b.len + 1) > Array.length b.table / 2 then grow_table b;
  let table = b.table in
  let mask = (Array.length table / 2) - 1 in
  let h = ref (home b key) in
  while table.(2 * !h) <> key && table.(2 * !h) <> dead do
    h := (!h + 1) land mask
  done;
  let h = !h in
  if table.(2 * h) = key then table.((2 * h) + 1)
  else begin
    let e = b.len in
    if e = Array.length b.seen then grow_entries b;
    if (e + 1) * k > Array.length b.vals then
      b.vals <- Array.append b.vals (Array.make ((e + 1) * k) 0.);
    table.(2 * h) <- key;
    table.((2 * h) + 1) <- e;
    b.slot_of.(e) <- h;
    b.seen.(e) <- 0;
    b.len <- e + 1;
    e
  end

type 'a run = {
  want : int;
  stats : stats;
  blocked : 'a Xk_util.Heap.t; (* generated, not yet above the threshold *)
  mutable out : 'a list; (* emitted, best last *)
  mutable emitted : int;
  bucket : bucket;
}

let run ?stats ~k () =
  let stats = match stats with Some s -> s | None -> new_stats () in
  {
    want = k;
    stats;
    blocked = Xk_util.Heap.create ();
    out = [];
    emitted = 0;
    bucket = take_bucket ();
  }

let complete r = r.emitted >= r.want

let emit r x =
  r.out <- x :: r.out;
  r.emitted <- r.emitted + 1;
  r.stats.emitted <- r.stats.emitted + 1

let join r ~threshold ~budget ~below ~accept ~ceilings ~next ~pull ~make =
  let k = Array.length ceilings in
  let alive i = next.(i) > neg_infinity in
  let rec any_alive i = i < k && (alive i || any_alive (i + 1)) in
  let b = r.bucket in
  clear b ~k;
  let full = (1 lsl k) - 1 in
  (* Entries not yet generated, for [bucket_peak]. *)
  let partial_entries = ref 0 in
  (* The bound over unseen results, raised to [below], is written to
     [b.bound.(0)] rather than returned: a float returned from a closure
     or passed to [Heap] is boxed, and this runs after every pull. *)
  let set_bound () =
    let best = ref neg_infinity in
    (match threshold with
    | Classic ->
        for i = 0 to k - 1 do
          if alive i then begin
            let t = ref next.(i) in
            for j = 0 to k - 1 do
              if j <> i then t := !t +. ceilings.(j)
            done;
            if !t > !best then best := !t
          end
        done
    | Tight ->
        (* Case 1: keys unseen everywhere. *)
        let case1 = ref 0. in
        for j = 0 to k - 1 do
          case1 := !case1 +. next.(j)
        done;
        best := !case1;
        (* Case 2: partially seen keys, grouped by subset. *)
        for p = 1 to full - 1 do
          if b.group_max.(p) > neg_infinity then begin
            (* ms(G_P) + sum_{j notin P} s^j, summed in list order like
               a completed total, so that an entry's own stale group
               term rounds to at most its total: next.(j) <= slot j. *)
            let base = b.group_ent.(p) * k in
            let t = ref 0. in
            for j = 0 to k - 1 do
              t :=
                !t +. if p land (1 lsl j) = 0 then next.(j) else b.vals.(base + j)
            done;
            if !t > !best then best := !t
          end
        done);
    (* Float.max without the call; no score is NaN. *)
    b.bound.(0) <- (if below > !best then below else !best)
  in
  (* The emptiness test spares computing the bound for an empty heap. *)
  let rec flush () =
    if
      r.emitted < r.want
      && (not (Xk_util.Heap.is_empty r.blocked))
      && (set_bound ();
          Xk_util.Heap.top_at_least_cell r.blocked b.bound 0)
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
    if key <> dead then begin
      let before = b.len in
      let e = entry b ~k key in
      if b.len > before then begin
        incr partial_entries;
        r.stats.bucket_peak <- max r.stats.bucket_peak !partial_entries
      end;
      let seen = b.seen.(e) in
      (* Skipped: a generated key, or a key this list repeats. *)
      if seen >= 0 && seen land (1 lsl i) = 0 then begin
        let base = e * k in
        b.vals.(base + i) <- s;
        let seen = seen lor (1 lsl i) in
        if seen = full then begin
          b.seen.(e) <- -1;
          decr partial_entries;
          let total = ref 0. in
          for j = 0 to k - 1 do
            total := !total +. b.vals.(base + j)
          done;
          if accept key then
            Xk_util.Heap.push r.blocked !total (make key !total)
        end
        else begin
          b.seen.(e) <- seen;
          let partial = ref 0. in
          for j = 0 to k - 1 do
            if seen land (1 lsl j) <> 0 then partial := !partial +. b.vals.(base + j)
          done;
          if !partial > b.group_max.(seen) then begin
            b.group_max.(seen) <- !partial;
            b.group_ent.(seen) <- e
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
  Atomic.set (Domain.DLS.get spare) (Some r.bucket);
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
