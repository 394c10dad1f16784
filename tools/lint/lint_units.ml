(* Whole-program pass 3: [test-only-module].  A [lib/] module that no
   other unit in [lib/], [bin/] or [tools/] references is code that only
   the tests run - the serving path never does, so what the tests check
   there says nothing about production.  A module counts as referenced
   when its name is a component of any value, type, constructor, field
   or module path in another file.

   The executables are the roots of that question, so the pass runs only
   when the linted set includes [bin/] or [tools/]: over [lib/] alone,
   every top-level caller is missing. *)

open Ppxlib

let rule = "test-only-module"

let in_dir = Lint_dataflow.in_dir

let module_name file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

(* Every path component the file names. *)
let references str =
  let names = Hashtbl.create 64 in
  let rec add = function
    | Lident s -> Hashtbl.replace names s ()
    | Ldot (p, s) ->
        add p;
        Hashtbl.replace names s ()
    | Lapply (a, b) ->
        add a;
        add b
  in
  (object
     inherit Ast_traverse.iter
     method! longident l = add l
  end)
    #structure str;
  names

let run config parsed =
  if not (List.exists (fun (f, _) -> in_dir "bin" f || in_dir "tools" f) parsed)
  then []
  else
    let refs =
      List.filter_map
        (fun (file, str) ->
          if Lint_dataflow.serving_scope file then Some (file, references str)
          else None)
        parsed
    in
    List.filter_map
      (fun (file, _) ->
        let m = module_name file in
        if
          in_dir "lib" file
          && (not
                (List.exists
                   (fun (f, names) -> f <> file && Hashtbl.mem names m)
                   refs))
          && not (Lint_config.allowed config ~rule ~file ~name:(Some m))
        then
          Some
            (Lint_finding.v ~file ~line:1 ~rule
               (Printf.sprintf
                  "module %s is referenced by no other unit in lib/, bin/ or \
                   tools/: only tests run it - give it a caller or delete it"
                  m))
        else None)
      parsed
