(* Whole-program pass 4: [test-only-option], the parameter-level sibling
   of [test-only-module].  An optional parameter of a [val] in a [lib/]
   interface that no application in [lib/], [bin/] or [tools/] passes by
   label ([~l] or [?l]) is a knob only the tests turn: either production
   runs its default alone, and it should be a constant, or it is a seam
   a test needs (a fake clock, a small cache), which an [xklint.config]
   entry names with its reason.

   Matching is by name.  An application passes [l] to [M.v] when its
   function is a path ending in [v] whose module component, if it has
   one, is [M] (the interface's module, or the nested module the [val]
   sits in).  Like [test-only-module], the pass runs only when the
   linted set includes [bin/] or [tools/]. *)

open Ppxlib

let rule = "test-only-option"

let in_dir = Lint_dataflow.in_dir

(* The optional labels on the arrow spine of a type. *)
let rec optional_labels (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) -> optional_labels rest
  | Ptyp_poly (_, t) -> optional_labels t
  | _ -> []

(* (module, val, label, line) for every optional parameter a signature
   declares, nested module signatures included. *)
let declared ~file (sg : signature) =
  let acc = ref [] in
  let rec items m sg = List.iter (item m) sg
  and item m (it : signature_item) =
    match it.psig_desc with
    | Psig_value vd ->
        let line = vd.pval_loc.loc_start.pos_lnum in
        List.iter
          (fun l -> acc := (m, vd.pval_name.txt, l, line) :: !acc)
          (optional_labels vd.pval_type)
    | Psig_module
        {
          pmd_name = { txt = Some m; _ };
          pmd_type = { pmty_desc = Pmty_signature sg; _ };
          _;
        } ->
        items m sg
    | _ -> ()
  in
  items (Lint_units.module_name file) sg;
  List.rev !acc

(* Every (module component or "", function name, label) an application
   in the file passes by label. *)
let passed tbl str =
  let rec comps acc = function
    | Lident s -> s :: acc
    | Ldot (p, s) -> comps (s :: acc) p
    | Lapply _ -> acc
  in
  (object
     inherit Ast_traverse.iter as super

     method! expression e =
       (match e.pexp_desc with
       | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
           match List.rev (comps [] txt) with
           | f :: rest ->
               let m = match rest with m :: _ -> m | [] -> "" in
               List.iter
                 (fun (lbl, _) ->
                   match lbl with
                   | Labelled l | Optional l ->
                       Hashtbl.replace tbl (m, f, l) ()
                   | Nolabel -> ())
                 args
           | [] -> ())
       | _ -> ());
       super#expression e
  end)
    #structure str

let run config ~interfaces parsed =
  if not (List.exists (fun (f, _) -> in_dir "bin" f || in_dir "tools" f) parsed)
  then []
  else begin
    let tbl = Hashtbl.create 1024 in
    List.iter
      (fun (file, str) ->
        if Lint_dataflow.serving_scope file then passed tbl str)
      parsed;
    List.concat_map
      (fun (file, sg) ->
        if not (in_dir "lib" file) then []
        else
          List.filter_map
            (fun (m, v, l, line) ->
              let name = v ^ "?" ^ l in
              if
                Hashtbl.mem tbl (m, v, l)
                || Hashtbl.mem tbl ("", v, l)
                || Lint_config.allowed config ~rule ~file ~name:(Some name)
              then None
              else
                Some
                  (Lint_finding.v ~file ~line ~rule
                     (Printf.sprintf
                        "optional parameter ?%s of %s.%s is passed by no \
                         application in lib/, bin/ or tools/: only tests set \
                         it - make it a constant or allow it with its reason"
                        l m v)))
            (declared ~file sg))
      interfaces
  end
