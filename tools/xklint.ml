(* xklint - project-specific static analysis for the concurrency, budget
   and error-discipline invariants (see DESIGN.md "Mechanized
   invariants" and "Whole-program invariants").  Usage:

     dune exec tools/xklint -- [options] [PATH...]

   Paths default to [lib bin tools] - the whole program the call-graph
   passes analyze.  Findings not covered by [xklint.config] (curated
   allowlist) or [xklint.baseline] (grandfathered findings) are printed
   as [file:line severity rule message] (with their interprocedural
   trace indented below) and make the exit status non-zero, which is
   how the CI lint job gates regressions.  A run over the whole program
   also reports every [xklint.config] entry that suppressed no finding
   and fails on it the same way: when code is deleted, its allow entries
   go with it. *)

open Xklint_lib

let version = "2.0"

let usage =
  "xklint [--config FILE] [--baseline FILE] [--update-baseline] \
   [--no-baseline] [--format text|sarif] [--sarif FILE] [--graph dot] \
   [--stats] [PATH...]"

let () =
  let config_file = ref "xklint.config" in
  let baseline_file = ref "xklint.baseline" in
  let update_baseline = ref false in
  let no_baseline = ref false in
  let format = ref "text" in
  let sarif_file = ref "" in
  let graph_format = ref "" in
  let stats = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--config",
        Arg.Set_string config_file,
        "FILE allowlist file (default: xklint.config)" );
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE baseline file (default: xklint.baseline)" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " rewrite the baseline from the current findings and exit" );
      ( "--no-baseline",
        Arg.Set no_baseline,
        " ignore the baseline: report every finding as new" );
      ( "--format",
        Arg.Set_string format,
        "FMT output format for new findings: text (default) or sarif" );
      ( "--sarif",
        Arg.Set_string sarif_file,
        "FILE also write all findings as SARIF 2.1.0 to FILE" );
      ( "--graph",
        Arg.Set_string graph_format,
        "FMT dump the cross-module call graph (dot) to stdout and exit" );
      ("--stats", Arg.Set stats, " print an analysis-cost summary line");
    ]
  in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  let paths =
    match List.rev !paths with [] -> [ "lib"; "bin"; "tools" ] | ps -> ps
  in
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "xklint: no such path %s\n" p;
        exit 2
      end)
    paths;
  let config =
    match Lint_config.of_file !config_file with
    | Ok c -> c
    | Error msg ->
        Printf.eprintf "xklint: bad config %s: %s\n" !config_file msg;
        exit 2
  in
  let t0 = Unix.gettimeofday () in
  let { Lint_engine.files; graph; findings } =
    Lint_engine.lint_paths config paths
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  if !graph_format <> "" then begin
    (match !graph_format with
    | "dot" -> print_string (Lint_callgraph.to_dot graph)
    | fmt ->
        Printf.eprintf "xklint: unknown graph format %s (try: dot)\n" fmt;
        exit 2);
    exit 0
  end;
  if !sarif_file <> "" then begin
    let oc = open_out_bin !sarif_file in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (Lint_sarif.to_string ~tool_version:version findings))
  end;
  if !update_baseline then begin
    Lint_baseline.save !baseline_file findings;
    Printf.printf "xklint: wrote %d finding(s) to %s\n" (List.length findings)
      !baseline_file;
    exit 0
  end;
  let baseline =
    if !no_baseline then Lint_baseline.empty ()
    else Lint_baseline.of_file !baseline_file
  in
  let { Lint_baseline.fresh; baselined; stale } =
    Lint_baseline.filter baseline findings
  in
  (match !format with
  | "text" -> List.iter (fun f -> print_endline (Lint_finding.to_string f)) fresh
  | "sarif" -> print_endline (Lint_sarif.to_string ~tool_version:version fresh)
  | fmt ->
      Printf.eprintf "xklint: unknown format %s (try: text, sarif)\n" fmt;
      exit 2);
  List.iter
    (fun k ->
      Printf.eprintf
        "xklint: stale baseline entry (fixed? regenerate the baseline): %s\n"
        (String.map (fun c -> if c = '\t' then ' ' else c) k))
    stale;
  if !stats then begin
    let per_rule = Hashtbl.create 8 in
    List.iter
      (fun (f : Lint_finding.t) ->
        Hashtbl.replace per_rule f.rule
          (1 + Option.value (Hashtbl.find_opt per_rule f.rule) ~default:0))
      findings;
    let rules =
      Hashtbl.fold (fun r n acc -> (r, n) :: acc) per_rule []
      |> List.sort compare
      |> List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n)
    in
    Printf.printf
      "xklint: stats: files=%d nodes=%d edges=%d findings=[%s] wall=%.3fs\n"
      files
      (Lint_callgraph.n_defs graph)
      (Lint_callgraph.n_edges graph)
      (String.concat " " rules) elapsed
  end;
  (* An entry's finding can only be missed over a partial program, so
     unused entries are judged only when every root is linted. *)
  let whole_program =
    List.for_all
      (fun root ->
        List.exists
          (fun p ->
            let p = Lint_util.normalize_path p in
            p = root || p = root ^ "/")
          paths)
      [ "lib"; "bin"; "tools" ]
  in
  let unused = if whole_program then Lint_config.unused config else [] in
  List.iter
    (fun e ->
      Printf.eprintf
        "xklint: stale allow entry in %s (suppresses no finding; delete \
         it): %s\n"
        !config_file (Lint_config.entry_to_string e))
    unused;
  Printf.printf
    "xklint: %d file(s), %d finding(s): %d new, %d baselined, %d stale; %d \
     unused allow entr%s\n"
    files (List.length findings) (List.length fresh) baselined
    (List.length stale) (List.length unused)
    (if List.length unused = 1 then "y" else "ies");
  exit (if fresh = [] && unused = [] then 0 else 1)
