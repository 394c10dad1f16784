(* Score-ordered organization of a JDewey list for top-K processing
   (Section IV-C, Figure 7).

   Sequences are grouped by length; within a group the damping factor at
   any level is a common constant, so descending local score is a total
   order valid at every level.  A column's global score order is then
   recovered online by merging the group cursors; {!max_damped} gives the
   static per-level score ceilings used for the cross-column thresholds.

   Each group keeps its rows' JDewey numbers in score order, level-major
   in one flat array, so a cursor reading column l walks one contiguous
   slice of it. *)

type group = {
  len : int;
  rows : int array; (* descending local score *)
  numbers : int array; (* level l of rows.(i) at (l - 1) * |rows| + i *)
}

type t = {
  jlist : Jlist.t;
  groups : group array; (* ascending [len] *)
  max_damped : float array; (* per level l: ceiling of damped scores *)
}

let make (jl : Jlist.t) (damping : Xk_score.Damping.t) =
  let n = Jlist.length jl and height = Jlist.max_len jl in
  let scores = Jlist.scores jl in
  let lens = Array.init n (Jlist.row_len jl) in
  (* A counting pass by sequence length sizes every group; a second one
     fills each group in ascending row order. *)
  let count = Array.make (height + 1) 0 in
  Array.iter (fun len -> count.(len) <- count.(len) + 1) lens;
  let rows = Array.map (fun c -> Array.make c 0) count in
  let fill = Array.make (height + 1) 0 in
  Array.iteri
    (fun r len ->
      rows.(len).(fill.(len)) <- r;
      fill.(len) <- fill.(len) + 1)
    lens;
  (* Sort each group by descending score; the sort is stable and the
     rows start ascending, so ties stay in row order.  Note every row's
     position in its group; then each column's runs, read in row order,
     scatter their numbers into the groups. *)
  let by_score a b = Float.compare scores.(b) scores.(a) in
  let pos = Array.make n 0 in
  Array.iter
    (fun rows ->
      Array.stable_sort by_score rows;
      Array.iteri (fun i r -> pos.(r) <- i) rows)
    rows;
  let numbers = Array.mapi (fun len c -> Array.make (len * c) 0) count in
  for level = 1 to height do
    let c = Jlist.column jl ~level in
    for k = 0 to Column.num_runs c - 1 do
      let v = Column.value c k and start = Column.start c k in
      for r = start to start + Column.count c k - 1 do
        let len = lens.(r) in
        numbers.(len).(((level - 1) * count.(len)) + pos.(r)) <- v
      done
    done
  done;
  let groups = ref [] in
  for len = height downto 0 do
    if count.(len) > 0 then
      groups := { len; rows = rows.(len); numbers = numbers.(len) } :: !groups
  done;
  let groups = Array.of_list !groups in
  let max_damped =
    Array.init height (fun i ->
        let level = i + 1 in
        Array.fold_left
          (fun acc g ->
            if g.len >= level then
              Float.max acc
                (scores.(g.rows.(0))
                *. Xk_score.Damping.apply damping (g.len - level))
            else acc)
          neg_infinity groups)
  in
  { jlist = jl; groups; max_damped }

let jlist t = t.jlist
let groups t = t.groups

let max_damped t ~level =
  if level < 1 || level > Array.length t.max_damped then neg_infinity
  else t.max_damped.(level - 1)

(* Serialized size in the score-ordered layout: per group, sequences are
   stored in score order, so columns lose their sortedness and store raw
   varint numbers; each row also carries a 4-byte quantized score.  This is
   the "Top-K Join" inverted-list layout of Table I. *)
let encoded_size t =
  let nodes = Jlist.nodes t.jlist in
  let varints = Array.fold_left (fun a v -> a + Xk_storage.Varint.size v) 0 in
  Array.fold_left
    (fun acc g ->
      let payload =
        Array.fold_left
          (fun a r -> a + 4 (* score *) + Xk_storage.Varint.size nodes.(r))
          0 g.rows
      in
      acc + varints g.numbers + payload + 8 (* group header: len + row count *))
    0 t.groups
