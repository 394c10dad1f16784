(* Judging a change against its parent from paired runs, by the rules of
   the repository's measurement method:

   - at least ten pairs, each a parent run and a change run on the same
     workload and seed, made alternately;
   - improved: the change wins at least nine tenths of the pairs (ties
     count for neither side) and the medians differ by more than the
     parent's interquartile distance;
   - unresolved: the run-to-run spread (interquartile distance over the
     median, on either side) is wider than the metric's bound, unless
     every change run reads better than every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - unchanged otherwise. *)

type better = Lower | Higher

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type judgement = {
  verdict : verdict;
  pairs : int;
  wins : int;
  parent : float * float * float;  (** quartiles *)
  change : float * float * float;
  worse_by : float;  (** relative move of the median in the bad direction *)
  spread : float;  (** the wider side's interquartile distance / median *)
}

let min_pairs = 10

let judge ~better ~bound pairs =
  let n = List.length pairs in
  let ps = Array.of_list (List.map fst pairs) and cs = Array.of_list (List.map snd pairs) in
  let beats a b = match better with Lower -> a < b | Higher -> a > b in
  let wins = List.length (List.filter (fun (p, c) -> beats c p) pairs) in
  if n < 2 then
    { verdict = Unresolved; pairs = n; wins; parent = (nan, nan, nan); change = (nan, nan, nan); worse_by = nan; spread = nan }
  else begin
    let ((p1, pm, p3) as parent) = Stats.quartiles ps in
    let ((_, cm, _) as change) = Stats.quartiles cs in
    let worse_by =
      let d = match better with Lower -> cm -. pm | Higher -> pm -. cm in
      if pm <> 0. then d /. Float.abs pm else if d = 0. then 0. else Float.copy_sign infinity d
    in
    let spread = Float.max (Stats.rel_spread ps) (Stats.rel_spread cs) in
    let every_run_better =
      Array.for_all (fun c -> Array.for_all (fun p -> beats c p) ps) cs
    in
    let verdict =
      if n < min_pairs then Unresolved
      else if 10 * wins >= 9 * n && Float.abs (cm -. pm) > p3 -. p1 then Improved
      else if spread > bound then if every_run_better then Unchanged else Unresolved
      else if worse_by > bound then Worse
      else Unchanged
    in
    { verdict; pairs = n; wins; parent; change; worse_by; spread }
  end

(* --- Run files ------------------------------------------------------- *)

type run = {
  file : string;
  line : int;
  workload : string;
  seed : int;
  time : float;
  failed : int;
  metrics : (string * float) list;
}

let read_runs file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")
  |> List.filter_map (fun (line, l) ->
         let j = Json.of_string l in
         let num k = Option.bind (Json.member k j) Json.to_num in
         match (Json.member "trace" j, Option.bind (Json.member "workload" j) Json.to_str, num "seed") with
         | Some (Json.Bool false), Some workload, Some seed ->
             let metrics =
               match Json.member "metrics" j with
               | Some (Json.Obj l) ->
                   List.filter_map
                     (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
                     l
               | _ -> []
             in
             Some
               {
                 file;
                 line;
                 workload;
                 seed = int_of_float seed;
                 time = Option.value ~default:0. (num "unix_time");
                 failed = int_of_float (Option.value ~default:0. (num "failed"));
                 metrics;
               }
         | _ -> None)

(* Pair the k-th parent run of a (workload, seed) with the k-th change
   run of the same workload and seed. *)
let pair_runs ~workload parent change =
  let of_w runs = List.filter (fun r -> r.workload = workload) runs in
  let parent = of_w parent and change = of_w change in
  let seeds = List.sort_uniq compare (List.map (fun r -> r.seed) parent) in
  List.concat_map
    (fun seed ->
      let p = List.filter (fun r -> r.seed = seed) parent
      and c = List.filter (fun r -> r.seed = seed) change in
      let rec zip = function a :: x, b :: y -> (a, b) :: zip (x, y) | _ -> [] in
      zip (p, c))
    seeds

let report ~spec ~parent ~change =
  let pruns = read_runs parent and cruns = read_runs change in
  let names section =
    match Json.member section spec with Some (Json.Arr l) -> l | _ -> []
  in
  let workloads =
    List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_str) (names "workloads")
  in
  let used = ref [] in
  Printf.printf "%-11s %-16s %-10s %12s %23s %12s %23s %6s %8s %6s %6s\n" "workload" "metric"
    "verdict" "parent" "parent q1..q3" "change" "change q1..q3" "wins" "worse_by" "spread" "bound";
  List.iter
    (fun workload ->
      let pairs = pair_runs ~workload pruns cruns in
      List.iter (fun (p, c) -> used := p :: c :: !used) pairs;
      List.iter
        (fun m ->
          let str k = Option.bind (Json.member k m) Json.to_str in
          match (str "name", str "better", Option.bind (Json.member "bound" m) Json.to_num) with
          | Some name, Some b, Some bound ->
              let better = if b = "higher" then Higher else Lower in
              let values =
                List.filter_map
                  (fun (p, c) ->
                    match (List.assoc_opt name p.metrics, List.assoc_opt name c.metrics) with
                    | Some x, Some y -> Some (x, y)
                    | _ -> None)
                  pairs
              in
              let j = judge ~better ~bound values in
              let p1, pm, p3 = j.parent and c1, cm, c3 = j.change in
              Printf.printf "%-11s %-16s %-10s %12.6g %11.6g..%-10.6g %12.6g %11.6g..%-10.6g %3d/%-2d %8.4f %6.4f %6.3f\n"
                workload name (verdict_name j.verdict) pm p1 p3 cm c1 c3 j.wins j.pairs j.worse_by
                j.spread bound
          | _ -> ())
        (names "end_to_end");
      let failed runs = List.fold_left (fun n r -> n + r.failed) 0 runs in
      let pf = failed (List.map fst pairs) and cf = failed (List.map snd pairs) in
      if cf > pf then
        Printf.printf "%-11s failed operations rose from %d to %d: no gain counts\n" workload pf cf)
    workloads;
  Printf.printf "\nruns used (%d):\n" (List.length !used);
  List.iter
    (fun r -> Printf.printf "  %s:%d %s seed %d at %.0f\n" r.file r.line r.workload r.seed r.time)
    (List.sort (fun a b -> compare (a.time, a.file, a.line) (b.time, b.file, b.line)) !used)
