(* Unit tests of the benchmark harness's statistics, span accounting and
   verdict rules. *)

open Suite

let check = Alcotest.check
let flt = Alcotest.float 1e-9

(* --- Percentiles -------------------------------------------------------- *)

let tail_rule () =
  let tail n = Stats.tail_percentile n in
  check Alcotest.(option (float 0.)) "1000 samples support p99" (Some 99.) (tail 1000);
  check Alcotest.(option (float 0.)) "500 samples support p98" (Some 98.) (tail 500);
  check Alcotest.(option (float 0.)) "100 samples support p90" (Some 90.) (tail 100);
  check Alcotest.(option (float 0.)) "10000 samples stop at p99" (Some 99.) (tail 10000);
  check Alcotest.(option (float 0.)) "20 samples: only the median" (Some 50.) (tail 20);
  check Alcotest.(option (float 0.)) "10 samples: no tail" None (tail 10);
  List.iter
    (fun n ->
      match tail n with
      | None -> ()
      | Some p ->
          check Alcotest.bool
            (Printf.sprintf "n=%d: p%.0f leaves ten beyond" n p)
            true
            (Stats.beyond ~n p >= 10);
          if p < 99. then
            check Alcotest.bool
              (Printf.sprintf "n=%d: p%.0f is the highest" n (p +. 1.))
              false
              (Stats.supports ~n (p +. 1.)))
    [ 11; 20; 57; 100; 101; 499; 500; 999; 1000; 4321 ]

let nearest_rank () =
  let xs = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  check flt "p99 of 1..1000" 990. (Stats.percentile xs 99.);
  check flt "p50 of 1..1000" 500. (Stats.percentile xs 50.);
  check flt "p100 is the maximum" 1000. (Stats.percentile xs 100.);
  check Alcotest.int "ten samples beyond p99" 10 (Stats.beyond ~n:1000 99.);
  check Alcotest.int "p99.9 of 1000 keeps one beyond" 1 (Stats.beyond ~n:1000 99.9)

(* statistics.quantiles(data, n=4) of Python, computed by hand. *)
let quartiles () =
  let q xs = Stats.quartiles (Array.of_list xs) in
  let triple = Alcotest.(triple flt flt flt) in
  check triple "1..10" (2.75, 5.5, 8.25) (q [ 10.; 9.; 8.; 7.; 6.; 5.; 4.; 3.; 2.; 1. ]);
  check triple "1..4" (1.25, 2.5, 3.75) (q [ 1.; 2.; 3.; 4. ]);
  check triple "two values extrapolate" (0.75, 1.5, 2.25) (q [ 1.; 2. ]);
  check flt "spread of a constant" 0. (Stats.rel_spread [| 3.; 3.; 3. |])

(* --- Spans -------------------------------------------------------------- *)

let span id parent start stop : Trace.span =
  { id; parent; rid = 0; name = Printf.sprintf "s%d" id; start_ns = Int64.of_int start; stop_ns = Int64.of_int stop }

let self_of spans id =
  List.assoc id (List.map (fun ((s : Trace.span), self) -> (s.id, Int64.to_int self)) (Trace.self_times spans))

let self_time () =
  let spans = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 50 60; span 3 1 12 20 ] in
  check Alcotest.int "parent minus its children" 70 (self_of spans 0);
  check Alcotest.int "child minus its grandchild" 12 (self_of spans 1);
  check Alcotest.int "leaf" 10 (self_of spans 2);
  let overlapping = [ span 0 (-1) 0 100; span 1 0 10 30; span 2 0 20 40 ] in
  check Alcotest.int "overlapping children counted once" 70 (self_of overlapping 0);
  let spilling = [ span 0 (-1) 0 100; span 1 0 90 130 ] in
  check Alcotest.int "a child is clipped to its parent" 90 (self_of spilling 0)

let recorder () =
  let tr = Trace.create ~enabled:true () in
  Trace.set_request tr 7;
  let v =
    Trace.span tr "outer" (fun () ->
        Trace.span tr "inner" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
        42)
  in
  check Alcotest.int "value passes through" 42 v;
  (match Trace.spans tr with
  | [ inner; outer ] ->
      check Alcotest.string "inner closes first" "inner" inner.name;
      check Alcotest.int "inner's parent" outer.id inner.parent;
      check Alcotest.int "outer is top level" (-1) outer.parent;
      check Alcotest.int "request id" 7 outer.rid;
      let selfs = Trace.self_times (Trace.spans tr) in
      let outer_self = Int64.to_int (List.assq outer selfs) in
      check Alcotest.bool "self time within duration" true
        (outer_self >= 0 && outer_self <= Int64.to_int (Trace.duration_ns outer))
  | l -> Alcotest.failf "expected two spans, got %d" (List.length l));
  let off = Trace.create ~enabled:false () in
  check Alcotest.int "disabled recorder runs the call" 3 (Trace.span off "x" (fun () -> 3));
  check Alcotest.int "and records nothing" 0 (List.length (Trace.spans off))

(* --- Verdicts ----------------------------------------------------------- *)

let pairs f = List.init 10 f

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Verdict.verdict_name v))
    ( = )

let judge ?(better = Verdict.Lower) ?(bound = 0.1) ps = (Verdict.judge ~better ~bound ps).verdict

let verdicts () =
  let jitter i = float_of_int (i mod 3) *. 0.002 in
  check verdict "clear win" Verdict.Improved
    (judge (pairs (fun i -> (10. *. (1. +. jitter i), 8. *. (1. +. jitter i)))));
  check verdict "clear win, higher is better" Verdict.Improved
    (judge ~better:Verdict.Higher (pairs (fun i -> (100. +. float_of_int i, 130. +. float_of_int i))));
  check verdict "within the bound" Verdict.Unchanged
    (judge (pairs (fun i -> (10. *. (1. +. jitter i), 10.3 *. (1. +. jitter i)))));
  check verdict "worse beyond the bound" Verdict.Worse
    (judge (pairs (fun i -> (10. *. (1. +. jitter i), 12. *. (1. +. jitter i)))));
  check verdict "spread wider than the bound" Verdict.Unresolved
    (judge (pairs (fun i -> let x = 10. +. (4. *. float_of_int (i mod 4)) in (x, x +. 1.))));
  check verdict "wide spread, but every change run better" Verdict.Unchanged
    (judge (pairs (fun i -> ((if i < 5 then 10. else 100.), 9.9))));
  check verdict "a tie" Verdict.Unchanged (judge (pairs (fun _ -> (5., 5.))));
  check verdict "too few pairs" Verdict.Unresolved
    (judge (List.init 9 (fun _ -> (10., 5.))));
  let j = Verdict.judge ~better:Verdict.Lower ~bound:0.1 (pairs (fun _ -> (5., 5.))) in
  check Alcotest.int "ties count for neither side" 0 j.wins

let () =
  Alcotest.run "bench_suite"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "nearest-rank percentiles" `Quick nearest_rank;
          Alcotest.test_case "quartiles as Python computes them" `Quick quartiles;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time from nested spans" `Quick self_time;
          Alcotest.test_case "recorder nesting" `Quick recorder;
        ] );
      ("compare", [ Alcotest.test_case "verdicts on synthetic runs" `Quick verdicts ]);
    ]
