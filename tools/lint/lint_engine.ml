(* Parse + lint, whole-program: every [.ml] is parsed once, the
   syntactic rules (Lint_rules) run per file, then the cross-module
   call graph is built over all of them (Lint_callgraph) and the
   interprocedural analyses run over the graph (Lint_dataflow); last,
   every lib/ module must have a caller elsewhere (Lint_units).
   [.mli] files carry no loops, locks or state and are skipped. *)

type result = {
  files : int;
  graph : Lint_callgraph.t;
  findings : Lint_finding.t list;
}

let parse ~file src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf file;
  match Ppxlib.Parse.implementation lexbuf with
  | str -> Ok str
  | exception e ->
      Error
        (Lint_finding.v ~file ~line:1 ~rule:"parse-error"
           (Printf.sprintf "file does not parse: %s" (Printexc.to_string e)))

(* [sources] are (path, contents) pairs - real files or in-memory
   fixtures; the whole-program passes see them as one project. *)
let lint_sources config sources =
  let parsed, errors =
    List.fold_left
      (fun (parsed, errors) (file, src) ->
        let file = Lint_util.normalize_path file in
        match parse ~file src with
        | Ok str -> ((file, str) :: parsed, errors)
        | Error f -> (parsed, f :: errors))
      ([], []) sources
  in
  let parsed = List.rev parsed in
  let syntactic =
    List.concat_map (fun (file, str) -> Lint_rules.run config ~file str) parsed
  in
  let graph = Lint_callgraph.build parsed in
  let interprocedural = Lint_dataflow.run config graph in
  let units = Lint_units.run config parsed in
  {
    files = List.length sources;
    graph;
    findings =
      List.sort_uniq Lint_finding.compare
        (errors @ syntactic @ interprocedural @ units);
  }

(* Single-source convenience (the test fixtures): the file is its own
   whole program. *)
let lint_source config ~file src = (lint_sources config [ (file, src) ]).findings

let skip_dir name =
  name = "_build" || name = "_opam" || String.starts_with ~prefix:"." name

let rec collect_ml acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc
           else collect_ml acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths config paths =
  let files = List.fold_left collect_ml [] paths |> List.sort String.compare in
  lint_sources config
    (List.map (fun path -> (path, Lint_util.read_file path)) files)
