(* Query workload construction for the experiments (Section V): random
   keyword sets drawn from document-frequency buckets, equal-frequency
   sets, and the planted correlated sets of the generators.

   "For each experiment, forty queries within each frequency range are
   randomly selected" - [random_queries] reproduces that: each query takes
   one keyword near the high frequency and k-1 keywords near the low
   frequency.  Control terms (digit-suffixed) are excluded from random
   selection so the planted correlations do not leak into the random
   workloads. *)

type query = string list

let has_digit s =
  let r = ref false in
  String.iter (fun c -> if c >= '0' && c <= '9' then r := true) s;
  !r

(* Term ids whose df lies in [lo, hi], most frequent first. *)
let terms_in_df_range (idx : Xk_index.Index.t) ~lo ~hi =
  let out = ref [] in
  let ids = Xk_index.Index.terms_by_df idx in
  Array.iter
    (fun id ->
      let df = Xk_index.Index.df idx id in
      if df >= lo && df <= hi && not (has_digit (Xk_index.Index.term idx id))
      then out := id :: !out)
    ids;
  Array.of_list (List.rev !out)

(* A random term with df within a factor-2 window of [near]; the window
   widens while every term in it is already [drawn] (an empty window
   included), degenerating to "any indexable term" for absurd targets.
   The draw is uniform over the whole window, drawn terms included, so a
   caller that needs a fresh term draws again.  Fails only when no
   usable term is left to draw. *)
let pick_near ~drawn rng (idx : Xk_index.Index.t) ~near =
  (* No document frequency can exceed the corpus node count; a window of
     [1, df_ceiling] is "everything". *)
  let df_ceiling =
    Xk_encoding.Labeling.node_count (Xk_index.Index.label idx) + 1
  in
  let fresh id = not (List.mem (Xk_index.Index.term idx id) drawn) in
  let rec go spread =
    let lo = max 1 (near / spread) in
    let hi =
      if near >= df_ceiling / spread then df_ceiling else near * spread
    in
    let pool = terms_in_df_range idx ~lo ~hi in
    if Array.exists fresh pool then
      Xk_index.Index.term idx pool.(Xk_datagen.Rng.int rng (Array.length pool))
    else if lo = 1 && hi = df_ceiling then
      Xk_util.Err.invalid "Workload.pick_near: no term left to draw"
    else go (spread * 8)
  in
  go 2

(* Highest df over non-control terms: the experiments pin the high
   frequency to it, as the paper pins 100k. *)
let max_df (idx : Xk_index.Index.t) =
  let ids = Xk_index.Index.terms_by_df idx in
  let rec go i =
    if i >= Array.length ids then 1
    else if has_digit (Xk_index.Index.term idx ids.(i)) then go (i + 1)
    else Xk_index.Index.df idx ids.(i)
  in
  go 0

(* [n] queries of [k] keywords: one near [high], k-1 near [low], all
   distinct within a query. *)
let random_queries rng (idx : Xk_index.Index.t) ~k ~high ~low ~n : query list =
  List.init n (fun _ ->
      let rec distinct acc need near =
        if need = 0 then acc
        else begin
          let w = pick_near ~drawn:acc rng idx ~near in
          if List.mem w acc then distinct acc need near
          else distinct (w :: acc) (need - 1) near
        end
      in
      let lows = distinct [] (k - 1) low in
      distinct lows 1 high)

let equal_freq_queries rng (idx : Xk_index.Index.t) ~k ~freq ~n : query list =
  List.init n (fun _ ->
      let rec distinct acc need =
        if need = 0 then acc
        else begin
          let w = pick_near ~drawn:acc rng idx ~near:freq in
          if List.mem w acc then distinct acc need
          else distinct (w :: acc) (need - 1)
        end
      in
      distinct [] k)
