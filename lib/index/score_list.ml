(* Score-ordered organization of a JDewey list for top-K processing
   (Section IV-C, Figure 7).

   Sequences are grouped by length; within a group the damping factor at
   any level is a common constant, so descending local score is a total
   order valid at every level.  A column's global score order is then
   recovered online by merging the group cursors; {!max_damped} gives the
   static per-level score ceilings used for the cross-column thresholds. *)

type group = { len : int; rows : int array (* descending local score *) }

type t = {
  jlist : Jlist.t;
  groups : group array; (* ascending [len] *)
  max_damped : float array; (* per level l: ceiling of damped scores *)
}

let make (jl : Jlist.t) (damping : Xk_score.Damping.t) =
  let n = Jlist.length jl and height = Jlist.max_len jl in
  let scores = Jlist.scores jl in
  (* A counting pass by sequence length sizes every group; a second one
     fills each group in ascending row order. *)
  let count = Array.make (height + 1) 0 in
  for r = 0 to n - 1 do
    let len = Jlist.row_len jl r in
    count.(len) <- count.(len) + 1
  done;
  let rows = Array.map (fun c -> Array.make c 0) count in
  let fill = Array.make (height + 1) 0 in
  for r = 0 to n - 1 do
    let len = Jlist.row_len jl r in
    rows.(len).(fill.(len)) <- r;
    fill.(len) <- fill.(len) + 1
  done;
  let by_score a b =
    let c = Float.compare scores.(b) scores.(a) in
    if c <> 0 then c else Int.compare a b
  in
  let groups = ref [] in
  for len = height downto 0 do
    if count.(len) > 0 then begin
      Array.sort by_score rows.(len);
      groups := { len; rows = rows.(len) } :: !groups
    end
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
  let jl = t.jlist in
  Array.fold_left
    (fun acc g ->
      let per_group =
        Array.fold_left
          (fun acc r ->
            let s = Jlist.seq jl r in
            let seq_bytes =
              Array.fold_left
                (fun a v -> a + Xk_storage.Varint.size v)
                0 s
            in
            acc + seq_bytes + 4 (* score *) + Xk_storage.Varint.size (Jlist.node jl r))
          0 g.rows
      in
      acc + per_group + 8 (* group header: len + row count *))
    0 t.groups
