(* Join-based top-K keyword search (Section IV-C).

   Inverted lists are read in descending damped-score order: per list, rows
   are grouped by sequence length (Figure 7) and the column order is
   recovered by merging the group cursors (within a group the damping
   factor is a common constant, so the local-score order is the damped
   order at every level).

   Columns are processed bottom-up, each through one Star_join.join
   (Section IV-B) keyed by the JDewey number, all of them sharing one
   Star_join.run: generated results are emitted as soon as their score
   reaches the threshold of all unseen results - the star-join bound
   within the current column combined with the static per-column ceilings
   of the shallower columns (including the paper's column-skip rule,
   which the precomputed ceilings implement implicitly).

   Semantic pruning: cursors skip rows erased at deeper levels; when a
   column drains without the K results being found, a merge join over the
   full columns erases every matched value's runs (the range exclusion of
   Section III-E) before the next column starts.  A column that ends early
   - because the K results were emitted - never pays for that scan, which
   is exactly where the top-K algorithm wins. *)

type threshold = Star_join.threshold = Classic | Tight

type stats = {
  mutable pulled : int;
  mutable dead_skipped : int;
  mutable columns : int;
  mutable generated : int;
  mutable early_exit_level : int; (* 0 when every column was processed *)
}

let new_stats () =
  { pulled = 0; dead_skipped = 0; columns = 0; generated = 0; early_exit_level = 0 }

type hit = Join_query.hit = { level : int; value : int; score : float }

type semantics = Join_query.semantics = Elca | Slca

type cursor = {
  rows : int array;
  numbers : int array; (* the group's level-major JDewey numbers *)
  base : int; (* offset of this level's slice in [numbers] *)
  dfactor : float; (* d(group_len - level) *)
  mutable pos : int;
}

(* Written against [Star_join.S], so the tests can run this column loop
   over a reference join; [topk] runs it over [Star_join]. *)
let topk_over (module J : Star_join.S) ~stats ~threshold ~semantics ~budget
    (slists : Xk_index.Score_list.t array) damping ~k:want : hit list =
  let k = Array.length slists in
  if k = 0 then Xk_util.Err.invalid "Topk_keyword.topk: no lists";
  let jls = Array.map Xk_index.Score_list.jlist slists in
  if Array.exists (fun jl -> Xk_index.Jlist.length jl = 0) jls then []
  else begin
    let lmin =
      Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int
        jls
    in
    (* Static per-column ceilings: up(l) = sum_i ms_i(l); up_prefix(l) =
       max_{l' <= l} up(l') bounds every result of columns 1..l. *)
    let up = Array.make (lmin + 1) neg_infinity in
    for level = 1 to lmin do
      let s = ref 0. in
      Array.iter
        (fun sl ->
          s := !s +. Xk_index.Score_list.max_damped sl ~level)
        slists;
      up.(level) <- !s
    done;
    let up_prefix = Array.make (lmin + 1) neg_infinity in
    for level = 1 to lmin do
      up_prefix.(level) <- Float.max up_prefix.(level - 1) up.(level)
    done;
    let erased = Array.init k (fun _ -> Erased.create ()) in
    (* The hot loops below read each list's score array and this
       request's damping table directly: a float returned across a module
       boundary is boxed, once per row or pull. *)
    let scores = Array.map Xk_index.Jlist.scores jls in
    let dtab =
      Array.init
        (Array.fold_left (fun m jl -> max m (Xk_index.Jlist.max_len jl)) 0 jls + 1)
        (Xk_score.Damping.apply damping)
    in
    let run = J.run ~k:want () in
    let finished = ref false in
    let level = ref lmin in
    (* Anytime execution: the budget is polled at column entry and on
       every pull; once it trips, the loops unwind and the results already
       emitted - each confirmed against the unseen-results threshold - are
       returned as a valid prefix of the full top-K. *)
    while not !finished && !level >= 1 && Xk_resilience.Budget.alive budget do
      let l = !level in
      stats.columns <- stats.columns + 1;
      (* Dynamic refinement of the cross-column ceilings: with the
         exclusions applied so far, no future result can beat the sum of
         the per-list best damped scores over still-alive rows (each row
         peaks at the future column closest to its own depth).  The static
         ceilings ignore erasure; on correlated data almost everything
         below the current column is already dead and this bound collapses
         right after the deepest column - which is what lets the top-K
         join stop early where the complete join keeps scanning. *)
      let dyn_below =
        if l <= 1 then neg_infinity
        else begin
          let total = ref 0. in
          let any_empty = ref false in
          (* One list's best damped score, in a float array so the
             closure below stores it unboxed. *)
          let best = [| neg_infinity |] in
          for i = 0 to k - 1 do
            let jl = jls.(i) and sc = scores.(i) in
            best.(0) <- neg_infinity;
            Erased.iter_alive erased.(i) ~lo:0 ~hi:(Xk_index.Jlist.length jl)
              (fun lo hi ->
                for r = lo to hi - 1 do
                  let v = sc.(r) *. dtab.(max 0 (Xk_index.Jlist.row_len jl r - l + 1)) in
                  if v > best.(0) then best.(0) <- v
                done);
            if best.(0) = neg_infinity then any_empty := true
            else total := !total +. best.(0)
          done;
          if !any_empty then neg_infinity else !total
        end
      in
      (* Fresh cursors: every group of length >= l participates. *)
      let cursors =
        Array.map
          (fun sl ->
            let gs =
              Array.to_list (Xk_index.Score_list.groups sl)
              |> List.filter (fun (g : Xk_index.Score_list.group) -> g.len >= l)
            in
            Array.of_list
              (List.map
                 (fun (g : Xk_index.Score_list.group) ->
                   {
                     rows = g.rows;
                     numbers = g.numbers;
                     base = (l - 1) * Array.length g.rows;
                     dfactor = dtab.(g.len - l);
                     pos = 0;
                   })
                 gs))
          slists
      in
      (* Best cursor per list (highest next damped score), cached and
         refreshed only for the list just pulled from - this sits on the
         per-pull hot path. *)
      let cbest = Array.make k (-1) in
      let cscore = Array.make k neg_infinity in
      let refresh i =
        let cs = cursors.(i) and sc = scores.(i) in
        let best = ref (-1) and bs = ref neg_infinity in
        for ci = 0 to Array.length cs - 1 do
          let c = cs.(ci) in
          if c.pos < Array.length c.rows then begin
            let s = sc.(c.rows.(c.pos)) *. c.dfactor in
            if s > !bs then begin
              bs := s;
              best := ci
            end
          end
        done;
        cbest.(i) <- !best;
        cscore.(i) <- !bs
      in
      for i = 0 to k - 1 do
        refresh i
      done;
      let pull i =
        let c = cursors.(i).(cbest.(i)) in
        let row = c.rows.(c.pos) in
        c.pos <- c.pos + 1;
        refresh i;
        stats.pulled <- stats.pulled + 1;
        if Erased.is_dead erased.(i) row then begin
          stats.dead_skipped <- stats.dead_skipped + 1;
          Star_join.dead
        end
        else c.numbers.(c.base + c.pos - 1)
      in
      (* SLCA (Section III-F): a value is disqualified if any of its runs
         contains a row erased by a deeper match - that row witnesses a
         descendant containing all keywords. *)
      let accept value =
        let ok =
          match semantics with
          | Elca -> true
          | Slca ->
              let clean = ref true in
              Array.iteri
                (fun j jl ->
                  let c = Xk_index.Jlist.column jl ~level:l in
                  let r = Xk_index.Column.find c value in
                  if r < 0 then clean := false
                  else
                    let lo = Xk_index.Column.start c r in
                    if
                      Erased.covered erased.(j) ~lo
                        ~hi:(lo + Xk_index.Column.count c r)
                      > 0
                    then clean := false)
                jls;
              !clean
        in
        if ok then stats.generated <- stats.generated + 1;
        ok
      in
      J.join run ~threshold ~budget
        ~below:
          (if l > 1 then Float.min up_prefix.(l - 1) dyn_below
           else neg_infinity)
        ~accept
        ~ceilings:
          (Array.map (fun sl -> Xk_index.Score_list.max_damped sl ~level:l)
             slists)
        ~next:cscore
        ~pull
        ~make:(fun value score -> { level = l; value; score });
      if J.complete run then begin
        stats.early_exit_level <- l;
        finished := true
      end
      else begin
        (* Column drained: apply the range exclusion before moving up.
           The exclusion scan itself is budgeted; if it expires mid-join
           the kills are discarded and the outer loop unwinds with the
           confirmed results. *)
        let cols = Array.map (fun jl -> Xk_index.Jlist.column jl ~level:l) jls in
        match Level_join.join ~budget ~plan:Level_join.Force_merge cols with
        | exception Xk_resilience.Budget.Expired -> ()
        | ms ->
            Join_query.exclude cols ms erased;
            level := l - 1
      end
    done;
    (* All columns processed: no unseen results remain. *)
    J.finish ~budget run
  end

let topk ?stats ?(threshold = Tight) ?(semantics = Elca)
    ?(budget = Xk_resilience.Budget.unlimited) slists damping ~k =
  let stats = match stats with Some s -> s | None -> new_stats () in
  topk_over (module Star_join) ~stats ~threshold ~semantics ~budget slists
    damping ~k
