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
   sits in).  An application that forwards an enclosing function's own
   option ([let f ?l x = M.v ?l x]) sets [M.v]'s [l] only when [f]'s [l]
   is set, which the pass resolves to a fixpoint.  Like
   [test-only-module], the pass runs only when the linted set includes
   [bin/] or [tools/]. *)

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

(* The [?l] parameters without a default of a binding's function, as
   (variable, label) pairs: the ones it can forward as [?l:x]. *)
let rec optional_params e =
  match e.pexp_desc with
  | Pexp_function (params, _, body) -> (
      List.filter_map
        (function
          | {
              pparam_desc =
                Pparam_val
                  (Optional l, None, { ppat_desc = Ppat_var { txt; _ }; _ });
              _;
            } ->
              Some (txt, l)
          | _ -> None)
        params
      @
      match body with
      | Pfunction_body b -> optional_params b
      | Pfunction_cases _ -> [])
  | Pexp_newtype (_, b) | Pexp_constraint (b, _) -> optional_params b
  | _ -> []

(* Every (module component or "", function name, label) an application
   in [file] passes by label goes into [set], except an application
   [?l:x] whose [x] is an optional parameter of an enclosing binding: it
   goes into [forwards], keyed by the application and carrying that
   binding's own (module, function, label). *)
let passed ~file set forwards str =
  let rec comps acc = function
    | Lident s -> s :: acc
    | Ldot (p, s) -> comps (s :: acc) p
    | Lapply _ -> acc
  in
  (object
     inherit Ast_traverse.iter as super

     val mutable modules = [ Lint_units.module_name file ]

     (* Innermost first: (module, function, [(variable, label)]). *)
     val mutable scopes = []

     method! module_binding mb =
       let saved = modules in
       Option.iter (fun m -> modules <- m :: modules) mb.pmb_name.txt;
       super#module_binding mb;
       modules <- saved

     method! value_binding vb =
       match
         (Lint_ast.binding_name vb, optional_params vb.pvb_expr, modules)
       with
       | Some f, (_ :: _ as params), m :: _ ->
           let saved = scopes in
           scopes <- (m, f, params) :: scopes;
           super#value_binding vb;
           scopes <- saved
       | _ -> super#value_binding vb

     method! expression e =
       (match e.pexp_desc with
       | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
           match List.rev (comps [] txt) with
           | f :: rest ->
               let m = match rest with m :: _ -> m | [] -> "" in
               List.iter
                 (fun (lbl, (arg : expression)) ->
                   match (lbl, arg.pexp_desc) with
                   | Optional l, Pexp_ident { txt = Lident x; _ } -> (
                       match
                         List.find_map
                           (fun (om, of_, params) ->
                             Option.map
                               (fun ol -> (om, of_, ol))
                               (List.assoc_opt x params))
                           scopes
                       with
                       | Some owner ->
                           forwards := ((m, f, l), owner) :: !forwards
                       | None -> Hashtbl.replace set (m, f, l) ())
                   | (Labelled l | Optional l), _ ->
                       Hashtbl.replace set (m, f, l) ()
                   | Nolabel, _ -> ())
                 args
           | [] -> ())
       | _ -> ());
       super#expression e
  end)
    #structure str

let is_set set (m, v, l) =
  Hashtbl.mem set (m, v, l) || Hashtbl.mem set ("", v, l)

(* A forwarded option is set once its forwarder's is; forwarders chain,
   so this runs until no forward adds a label. *)
let rec close set forwards =
  let grew =
    List.fold_left
      (fun grew (callee, owner) ->
        if (not (Hashtbl.mem set callee)) && is_set set owner then begin
          Hashtbl.replace set callee ();
          true
        end
        else grew)
      false forwards
  in
  if grew then close set forwards

let run config ~interfaces parsed =
  if not (List.exists (fun (f, _) -> in_dir "bin" f || in_dir "tools" f) parsed)
  then []
  else begin
    let set = Hashtbl.create 1024 and forwards = ref [] in
    List.iter
      (fun (file, str) ->
        if Lint_dataflow.serving_scope file then passed ~file set forwards str)
      parsed;
    close set !forwards;
    List.concat_map
      (fun (file, sg) ->
        if not (in_dir "lib" file) then []
        else
          List.filter_map
            (fun (m, v, l, line) ->
              let name = v ^ "?" ^ l in
              if
                is_set set (m, v, l)
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
