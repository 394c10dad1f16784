(* Damping and the local scorer. *)

open Xk_score

let check = Alcotest.check
let tc = Alcotest.test_case
let approx = Alcotest.float 1e-9

let damping_values () =
  let d = Damping.make 0.9 in
  check approx "d(0)" 1.0 (Damping.apply d 0);
  check approx "d(1)" 0.9 (Damping.apply d 1);
  check approx "d(3)" (0.9 ** 3.) (Damping.apply d 3);
  check (Alcotest.float 1e-12) "d(100) beyond memo" (0.9 ** 100.) (Damping.apply d 100)

let damping_invalid () =
  Alcotest.check_raises "zero decay"
    (Invalid_argument "Damping.make: decay must be in (0, 1]") (fun () ->
      ignore (Damping.make 0.));
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Damping.apply: negative distance") (fun () ->
      ignore (Damping.apply Damping.default (-1)))

let scorer_monotone_tf () =
  let s = Scorer.make ~total_nodes:10_000 in
  let g1 = Scorer.local_score s ~tf:1 ~df:100 in
  let g2 = Scorer.local_score s ~tf:5 ~df:100 in
  check Alcotest.bool "tf monotone" true (g2 > g1)

let scorer_antitone_df () =
  let s = Scorer.make ~total_nodes:10_000 in
  let rare = Scorer.local_score s ~tf:1 ~df:10 in
  let common = Scorer.local_score s ~tf:1 ~df:5_000 in
  check Alcotest.bool "idf" true (rare > common)

let scorer_bounded () =
  let s = Scorer.make ~total_nodes:1_000 in
  List.iter
    (fun (tf, df) ->
      let g = Scorer.local_score s ~tf ~df in
      if not (g > 0. && g <= 1.) then
        Alcotest.failf "score %f out of (0,1] for tf=%d df=%d" g tf df)
    [ (1, 1); (1, 1_000); (1_000, 1); (50, 42); (100_000, 1) ]

let suite =
  [
    ( "score",
      [
        tc "damping values" `Quick damping_values;
        tc "damping invalid input" `Quick damping_invalid;
        tc "scorer monotone in tf" `Quick scorer_monotone_tf;
        tc "scorer antitone in df" `Quick scorer_antitone_df;
        tc "scorer bounded" `Quick scorer_bounded;
      ] );
  ]
