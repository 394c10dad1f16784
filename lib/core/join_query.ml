(* Algorithm 1: the join-based evaluation of complete ELCA/SLCA result
   sets (Sections III-B through III-F).

   Columns are joined bottom-up, from the deepest level every list reaches
   up to the root.  A matched JDewey number N at level l:

   - ELCA: is a result iff every list still has an un-erased row inside
     N's run (the |Ak| > |B2| + |B3| range check of Section III-E);
   - SLCA: is a result iff no run of N contains an erased row (Section
     III-F's ancestor pruning);

   and either way N's full runs are erased from every list, implementing
   the exclusion of subtrees that already contain all keywords. *)

type semantics = Elca | Slca

type hit = { level : int; value : int; score : float }

(* Best damped local score among the rows [lo, hi) of a list -
   [neg_infinity] for an empty range. *)
let max_damped (jl : Xk_index.Jlist.t) damping ~lo ~hi ~level =
  let best = ref neg_infinity in
  for r = lo to hi - 1 do
    let v =
      Xk_index.Jlist.score jl r
      *. Xk_score.Damping.apply damping (Xk_index.Jlist.row_len jl r - level)
    in
    if v > !best then best := v
  done;
  !best

(* The same over the rows that survive [erased] - [neg_infinity] when none
   do (the |Ak| > |B2|+|B3| range check). *)
let max_alive_damped jl damping erased ~lo ~hi ~level =
  let best = ref neg_infinity in
  Erased.iter_alive erased ~lo ~hi (fun lo hi ->
      best := Float.max !best (max_damped jl damping ~lo ~hi ~level));
  !best

(* The exclusion of Section III-E: erase every match's full runs from
   every list, one sorted batch per list (matches ascend, so their runs'
   rows do too). *)
let exclude (cols : Xk_index.Column.t array) (ms : Level_join.matches)
    (erased : Erased.t array) =
  Array.iteri
    (fun i col ->
      let batch = ref [] in
      for m = ms.count - 1 downto 0 do
        let r = ms.runs.(i).(m) in
        let lo = Xk_index.Column.start col r in
        batch := (lo, lo + Xk_index.Column.count col r) :: !batch
      done;
      Erased.add_batch erased.(i) !batch)
    cols

let run ?(plan = Level_join.Dynamic) ?join_stats
    ?(budget = Xk_resilience.Budget.unlimited)
    (lists : Xk_index.Jlist.t array) damping semantics : hit list =
  let k = Array.length lists in
  if k = 0 then Xk_util.Err.invalid "Join_query.run: no lists";
  if Array.exists (fun jl -> Xk_index.Jlist.length jl = 0) lists then []
  else begin
    let lmin =
      Array.fold_left (fun m jl -> min m (Xk_index.Jlist.max_len jl)) max_int
        lists
    in
    let erased = Array.init k (fun _ -> Erased.create ()) in
    let out = ref [] in
    for level = lmin downto 1 do
      let cols = Array.map (fun jl -> Xk_index.Jlist.column jl ~level) lists in
      let ms = Level_join.join ?stats:join_stats ~budget ~plan cols in
      (* Run [m]'s rows in list [i], as a half-open range. *)
      let lo i m = Xk_index.Column.start cols.(i) ms.runs.(i).(m) in
      let hi i m = lo i m + Xk_index.Column.count cols.(i) ms.runs.(i).(m) in
      (* Exclusions of this level are applied in one batch once the level's
         checks finish (Section III-E); matches at one level never share
         rows, so checks within the level only depend on deeper levels. *)
      for m = 0 to ms.count - 1 do
        Xk_resilience.Budget.check budget;
        match semantics with
        | Elca ->
            (* Range check: every list needs an alive row in N's run. *)
            let score = ref 0. and ok = ref true in
            for i = 0 to k - 1 do
              if !ok then begin
                let best =
                  max_alive_damped lists.(i) damping erased.(i) ~lo:(lo i m)
                    ~hi:(hi i m) ~level
                in
                if best = neg_infinity then ok := false
                else score := !score +. best
              end
            done;
            if !ok then
              out := { level; value = ms.values.(m); score = !score } :: !out
        | Slca ->
            (* N is an SLCA iff no strict descendant matched, i.e. no run
               of N contains a previously erased row. *)
            let clean = ref true in
            for i = 0 to k - 1 do
              if Erased.covered erased.(i) ~lo:(lo i m) ~hi:(hi i m) > 0 then
                clean := false
            done;
            if !clean then begin
              let score = ref 0. in
              for i = 0 to k - 1 do
                score :=
                  !score
                  +. max_damped lists.(i) damping ~lo:(lo i m) ~hi:(hi i m)
                       ~level
              done;
              out := { level; value = ms.values.(m); score = !score } :: !out
            end
      done;
      exclude cols ms erased
    done;
    List.rev !out
  end
