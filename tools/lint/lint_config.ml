(* The curated allowlist ([xklint.config]).  One directive per line:

     allow <rule> <path> [name]

   [rule] is a rule id or [*].  [path] matches a linted file when it is
   equal to it, is a suffix of it at a [/] boundary, or - when it ends
   with [/] - is a directory component prefix of it.  [name] depends on
   the rule: the enclosing (or defined) function for [budget-loop], the
   bound variable for [shared-state], the offending identifier for
   [bare-lock]/[typed-error], the module for [test-only-module] and
   [val?label] for [test-only-option]; omitted or [*] matches anything.  [#]
   starts a comment. *)

type entry = { rule : string; path : string; name : string option }
type t = { allows : entry list }

let empty = { allows = [] }

let of_string src =
  let errors = ref [] in
  let entries = ref [] in
  String.split_on_char '\n' src
  |> List.iteri (fun i line ->
         let line =
           match String.index_opt line '#' with
           | Some j -> String.sub line 0 j
           | None -> line
         in
         match
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         with
         | [] -> ()
         | [ "allow"; rule; path ] ->
             entries := { rule; path; name = None } :: !entries
         | [ "allow"; rule; path; "*" ] ->
             entries := { rule; path; name = None } :: !entries
         | [ "allow"; rule; path; name ] ->
             entries := { rule; path; name = Some name } :: !entries
         | _ ->
             errors :=
               Printf.sprintf "line %d: expected 'allow <rule> <path> [name]'"
                 (i + 1)
               :: !errors);
  match !errors with
  | [] -> Ok { allows = List.rev !entries }
  | es -> Error (String.concat "; " (List.rev es))

let of_file path =
  if not (Sys.file_exists path) then Ok empty
  else
    let ic = open_in_bin path in
    let src = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        In_channel.input_all ic)
    in
    of_string src

let path_matches ~pattern file =
  pattern = file
  || String.ends_with ~suffix:("/" ^ pattern) file
  || (String.length pattern > 0
     && pattern.[String.length pattern - 1] = '/'
     && (String.starts_with ~prefix:pattern file
        || Lint_util.contains_substring ~sub:("/" ^ pattern) file))

let allowed t ~rule ~file ~name =
  List.exists
    (fun e ->
      (e.rule = rule || e.rule = "*")
      && path_matches ~pattern:e.path file
      && match e.name with None -> true | Some n -> name = Some n)
    t.allows
