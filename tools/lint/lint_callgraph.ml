(* Whole-program pass 1: parse every file, build a def table (top-level
   bindings, bindings nested in modules and in function bodies, and
   lambda arguments lifted at call sites) and a cross-module call graph,
   and collect per-def facts for the interprocedural analyses in
   Lint_dataflow:

   - calls, with the set of lock keys held lexically at the site, the
     enclosing loops, and any lambda arguments (lifted to anonymous
     defs so a callee's summary can place them under the callee's lock);
   - loops (while loops; recursive bindings are self-edges in the
     graph), with whether their own subtree polls a [Budget];
   - lock acquisitions ([Sync.with_lock] / [Sync.Protected.with_]),
     keyed by the printed lock expression;
   - blocking identifiers ([Unix.*], [In_channel.*], [Out_channel.*],
     [Rpc.Client.*]) with the locks held around them;
   - parameter invocations ("this def calls its [~compute] argument
     under lock K"), the higher-order summary that lets a caller's
     lambda be analyzed under a callee's critical section;
   - mmap taint expressions for let bindings, return positions and
     sink arguments.

   Resolution maps [Module.f] through the dune library wrappers
   ([Xk_core.Engine.f] -> lib/core/engine.ml#f), sibling modules of the
   same directory ([Erased.add] in lib/core -> lib/core/erased.ml#add),
   [include]d modules, top-level [module X = Path] aliases and nested
   modules ([Sync.Protected.with_] -> lib/util/sync.ml#Protected.with_).
   Anything else - first-class functions, record-field calls, stdlib -
   is an [External] (known dotted path) or [Unknown] (no claim) node. *)

open Ppxlib

type target = Local of string | External of string | Unknown

type call = {
  c_raw : string;  (* the dotted path as written *)
  mutable c_target : target;
  c_line : int;
  c_locks : string list;  (* lock keys held lexically, outermost first *)
  c_loops : int list;  (* enclosing loop ids within the def *)
  c_lambdas : (string * string) list;  (* (arg label or "", lifted def id) *)
}

type loop = {
  lp_id : int;
  lp_line : int;
  lp_desc : string;
  mutable lp_polls : bool;  (* Budget mention in its own subtree *)
  lp_enclosing : int list;
  lp_waived : bool;
}

type acquire = {
  a_key : string;
  a_line : int;
  a_held : string list;  (* keys already held at this acquisition *)
  a_waived : bool;
}

type blocking = {
  b_path : string;
  b_line : int;
  b_locks : string list;
  b_waived : bool;
}

(* A taint descriptor for one expression: does it mention [Mmap]
   directly, which functions does it apply in value position (their
   return taint flows through), and which local variables does it
   mention (their binding taint flows through). *)
type texpr = {
  t_line : int;
  t_direct : bool;
  t_raw_calls : string list;
  mutable t_targets : target list;
  t_vars : string list;
}

type sink = { k_sink : string; k_line : int; k_taint : texpr; k_waived : bool }

type def = {
  d_id : string;  (* file ^ "#" ^ dotted def path *)
  d_file : string;
  d_name : string;  (* display name, e.g. "Shard_cache.find_or_add" *)
  d_line : int;
  d_rec : bool;
  d_lambda : bool;
  d_params : (string * string) list;  (* (label or "", parameter name) *)
  mutable d_polls : bool;
  mutable d_calls : call list;
  mutable d_loops : loop list;
  mutable d_acquires : acquire list;
  mutable d_blocking : blocking list;
  mutable d_param_calls : (string * string list) list;  (* param, lock keys *)
  mutable d_lets : (string * texpr) list;
  mutable d_ret : texpr list;
  d_budget_waived : bool;
  mutable d_sinks : sink list;
}

type t = {
  defs : (string, def) Hashtbl.t;
  order : string list;  (* def ids, deterministic (file then source order) *)
  n_files : int;
}

let find_def t id = Hashtbl.find_opt t.defs id
let n_defs t = Hashtbl.length t.defs
let n_edges t = Hashtbl.fold (fun _ d n -> n + List.length d.d_calls) t.defs 0

(* --- vocabulary ------------------------------------------------------ *)

let lock_wrappers =
  [
    "Sync.with_lock";
    "Xk_util.Sync.with_lock";
    "with_lock";
    "Sync.Protected.with_";
    "Xk_util.Sync.Protected.with_";
    "Protected.with_";
  ]

let blocking_prefixes =
  [ "Unix."; "In_channel."; "Out_channel."; "Rpc.Client."; "Xk_rpc.Client." ]

let is_blocking path =
  List.exists (fun p -> String.starts_with ~prefix:p path) blocking_prefixes

let mmap_sinks =
  [
    "Shard_cache.find_or_add";
    "Xk_index.Shard_cache.find_or_add";
    "Hashtbl.add";
    "Hashtbl.replace";
    "Atomic.set";
    ":=";
  ]

let mentions_mmap_path path =
  List.exists (fun part -> part = "Mmap") (String.split_on_char '.' path)

(* Mmap accessors that return plain copies (ints, fresh strings): an
   application of one of these at value depth is "decode into plain
   OCaml values", the documented safe pattern.  The same application
   inside a stored closure still captures the handle and taints. *)
let mmap_accessors = [ "sub_string"; "size"; "path"; "is_closed"; "error_message" ]

let is_mmap_accessor path =
  match List.rev (String.split_on_char '.' path) with
  | leaf :: "Mmap" :: _ -> List.mem leaf mmap_accessors
  | _ -> false

let lowercase_head s = String.length s > 0 && s.[0] >= 'a' && s.[0] <= 'z'
let rule_budget = "budget-loop"
let rule_lock_io = "blocking-io-under-lock"
let rule_lock_order = "lock-order"
let rule_mmap = "mmap-lifetime"

(* --- module universe -------------------------------------------------- *)

(* One parsed file plus what resolution needs to know about it. *)
type pfile = {
  p_path : string;
  p_dir : string;
  p_module : string;  (* "Shard_cache" for lib/index/shard_cache.ml *)
  p_str : structure;
  mutable p_includes : string list list;  (* raw module paths *)
  mutable p_aliases : (string * string list) list;
  mutable p_allows : string list;  (* file-level [@@@xklint.allow] *)
}

let module_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* The dune library wrapper a directory compiles into: lib/<x> wraps as
   Xk_<x>, tools/lint as Xklint_lib.  Derived from the path (the tests
   lint in-memory fixtures, so reading dune files is not an option). *)
let wrapper_of_dir dir =
  let base = Filename.basename dir in
  if base = "" then None
  else if Filename.basename (Filename.dirname dir) = "lib" || dir = "lib"
  then Some (String.capitalize_ascii ("xk_" ^ base))
  else if base = "lint" then Some "Xklint_lib"
  else None

type universe = {
  u_files : (string, pfile) Hashtbl.t;  (* path -> file *)
  u_by_module : (string * string, string) Hashtbl.t;  (* (dir, Mod) -> path *)
  u_wrappers : (string, string) Hashtbl.t;  (* "Xk_core" -> "lib/core" *)
  u_defs : (string, def) Hashtbl.t;
  mutable u_order : string list;  (* reversed during build *)
}

let add_def u d =
  if not (Hashtbl.mem u.u_defs d.d_id) then begin
    Hashtbl.replace u.u_defs d.d_id d;
    u.u_order <- d.d_id :: u.u_order
  end

(* --- collection ------------------------------------------------------- *)

(* Mutable traversal state for one def body. *)
type cstate = {
  cs_def : def;
  mutable cs_locks : string list;
  mutable cs_loops : int list;
  mutable cs_allows : string list list;
  mutable cs_next_loop : int;
  mutable cs_next_anon : int;
}

let line_of loc = loc.loc_start.pos_lnum

let waived_here st file_allows rule =
  Lint_ast.allows_hit rule file_allows
  || List.exists (Lint_ast.allows_hit rule) st.cs_allows

(* Structural taint scan: which [Mmap] mentions, function applications
   and variables can flow into this expression's value.  Function
   arguments do not propagate (a call's taint is its callee's return
   taint), which is what lets "decode into plain values first" pass. *)
let texpr_of e =
  let direct = ref false in
  let calls = ref [] in
  let vars = ref [] in
  let rec go ~closed e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let path = Lint_ast.strip_stdlib (Lint_ast.ident_path txt) in
        if mentions_mmap_path path then direct := true
        else
          match txt with
          | Lident v
            when String.length v > 0 && v.[0] >= 'a' && v.[0] <= 'z' ->
              vars := v :: !vars
          | _ -> ())
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        let path = Lint_ast.strip_stdlib (Lint_ast.ident_path txt) in
        if mentions_mmap_path path then begin
          if closed || not (is_mmap_accessor path) then direct := true
          (* copying accessor at value depth: a plain decoded value *)
        end
        else calls := path :: !calls
    | Pexp_apply (_, _) -> ()
    | Pexp_function (_, _, Pfunction_body b) -> go ~closed:true b
    | Pexp_function (_, _, Pfunction_cases (cases, _, _)) ->
        List.iter (fun c -> go ~closed:true c.pc_rhs) cases
    | Pexp_tuple es | Pexp_array es -> List.iter (go ~closed) es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> go ~closed a
    | Pexp_record (fields, base) ->
        List.iter (fun (_, v) -> go ~closed v) fields;
        Option.iter (go ~closed) base
    | Pexp_field (b, _) -> go ~closed b
    | Pexp_lazy b -> go ~closed:true b
    | Pexp_let _ | Pexp_sequence _ | Pexp_ifthenelse _ | Pexp_match _
    | Pexp_try _ | Pexp_constraint _ | Pexp_coerce _ | Pexp_open _
    | Pexp_letmodule _ | Pexp_letexception _ ->
        List.iter (go ~closed) (Lint_ast.tail_exprs e)
    | _ -> ()
  in
  go ~closed:false e;
  {
    t_line = line_of e.pexp_loc;
    t_direct = !direct;
    t_raw_calls = !calls;
    t_targets = [];
    t_vars = !vars;
  }

(* The per-def collector: a Ast_traverse.iter whose [expression] handles
   the interesting shapes and defers the rest to the default traversal.
   Nested named functions and lambda arguments spawn fresh collectors
   over fresh defs. *)
let rec collect_def u (pf : pfile) ~defpath ~(def : def) ~locks bodies =
  let st =
    {
      cs_def = def;
      cs_locks = locks;
      cs_loops = [];
      cs_allows = [];
      cs_next_loop = 0;
      cs_next_anon = 0;
    }
  in
  let visitor =
    object (self)
      inherit Ast_traverse.iter as super

      method private note_path path line =
        if
          List.exists
            (fun part -> part = "Budget")
            (String.split_on_char '.' path)
        then begin
          def.d_polls <- true;
          List.iter
            (fun id ->
              List.iter
                (fun lp -> if lp.lp_id = id then lp.lp_polls <- true)
                def.d_loops)
            st.cs_loops
        end;
        if is_blocking path then
          def.d_blocking <-
            {
              b_path = path;
              b_line = line;
              b_locks = st.cs_locks;
              b_waived = waived_here st pf.p_allows rule_lock_io;
            }
            :: def.d_blocking

      method private record_call ?(lambdas = []) path line =
        def.d_calls <-
          {
            c_raw = path;
            c_target = Unknown;
            c_line = line;
            c_locks = st.cs_locks;
            c_loops = st.cs_loops;
            c_lambdas = lambdas;
          }
          :: def.d_calls

      method private lift_lambda label e =
        let line = line_of e.pexp_loc in
        st.cs_next_anon <- st.cs_next_anon + 1;
        let anon =
          Printf.sprintf "<fun:%d:%d>" line st.cs_next_anon
        in
        let path = defpath @ [ anon ] in
        let id = pf.p_path ^ "#" ^ String.concat "." path in
        let _, bodies = Lint_ast.peel_function e in
        let sub =
          {
            d_id = id;
            d_file = pf.p_path;
            d_name = pf.p_module ^ "." ^ String.concat "." path;
            d_line = line;
            d_rec = false;
            d_lambda = true;
            d_params = [];
            d_polls = false;
            d_calls = [];
            d_loops = [];
            d_acquires = [];
            d_blocking = [];
            d_param_calls = [];
            d_lets = [];
            d_ret = List.concat_map Lint_ast.tail_exprs bodies
                    |> List.map texpr_of;
            d_budget_waived = waived_here st pf.p_allows rule_budget;
            d_sinks = [];
          }
        in
        add_def u sub;
        collect_def u pf ~defpath:path ~def:sub ~locks:st.cs_locks
          (Lint_ast.param_defaults e @ bodies);
        (label, id)

      method private nested_binding rf vb =
        match Lint_ast.binding_name vb with
        | Some name when Lint_ast.is_function_binding vb ->
            let vb_allows = Lint_ast.allows_of_attributes vb.pvb_attributes in
            st.cs_allows <- vb_allows :: st.cs_allows;
            let path = defpath @ [ name ] in
            let id = pf.p_path ^ "#" ^ String.concat "." path in
            let params, bodies = Lint_ast.peel_function vb.pvb_expr in
            let sub =
              {
                d_id = id;
                d_file = pf.p_path;
                d_name = pf.p_module ^ "." ^ String.concat "." path;
                d_line = line_of vb.pvb_loc;
                d_rec = (rf = Recursive);
                d_lambda = false;
                d_params = params;
                d_polls = false;
                d_calls = [];
                d_loops = [];
                d_acquires = [];
                d_blocking = [];
                d_param_calls = [];
                d_lets = [];
                d_ret = List.concat_map Lint_ast.tail_exprs bodies
                        |> List.map texpr_of;
                d_budget_waived = waived_here st pf.p_allows rule_budget;
                d_sinks = [];
              }
            in
            add_def u sub;
            collect_def u pf ~defpath:path ~def:sub ~locks:st.cs_locks
              (Lint_ast.param_defaults vb.pvb_expr @ bodies);
            (* The definition site is an edge: a nested function is at
               least callable where it is defined. *)
            self#record_call name (line_of vb.pvb_loc);
            st.cs_allows <- Lint_ast.pop_stack st.cs_allows
        | Some name ->
            def.d_lets <- (name, texpr_of vb.pvb_expr) :: def.d_lets;
            self#expression vb.pvb_expr
        | None -> self#expression vb.pvb_expr

      (* [Sync.with_lock m (fun () -> body)]: the body runs with [m]
         held.  Also [with_lock m f] for a named or parameter [f]. *)
      method private section wrapper args line =
        ignore wrapper;
        match args with
        | (_, lock_e) :: rest when rest <> [] ->
            let key = Lint_ast.expr_key lock_e in
            def.d_acquires <-
              {
                a_key = key;
                a_line = line;
                a_held = st.cs_locks;
                a_waived = waived_here st pf.p_allows rule_lock_order;
              }
              :: def.d_acquires;
            self#expression lock_e;
            List.iter
              (fun (_, arg) ->
                if Lint_ast.is_lambda arg then begin
                  let saved = st.cs_locks in
                  st.cs_locks <- st.cs_locks @ [ key ];
                  let _, bodies = Lint_ast.peel_function arg in
                  List.iter self#expression bodies;
                  st.cs_locks <- saved
                end
                else
                  match arg.pexp_desc with
                  | Pexp_ident { txt = Lident v; _ }
                    when List.exists (fun (_, p) -> p = v) def.d_params ->
                      def.d_param_calls <-
                        (v, st.cs_locks @ [ key ]) :: def.d_param_calls
                  | Pexp_ident { txt; _ } ->
                      let saved = st.cs_locks in
                      st.cs_locks <- st.cs_locks @ [ key ];
                      self#record_call
                        (Lint_ast.strip_stdlib (Lint_ast.ident_path txt))
                        (line_of arg.pexp_loc);
                      st.cs_locks <- saved
                  | _ ->
                      let saved = st.cs_locks in
                      st.cs_locks <- st.cs_locks @ [ key ];
                      self#expression arg;
                      st.cs_locks <- saved)
              rest
        | _ -> List.iter (fun (_, a) -> self#expression a) args

      method private apply head_txt args line =
        let path = Lint_ast.strip_stdlib (Lint_ast.ident_path head_txt) in
        self#note_path path line;
        if List.mem path lock_wrappers then self#section path args line
        else begin
          (if List.mem path mmap_sinks then
             List.iter
               (fun ((_, arg) : arg_label * expression) ->
                 def.d_sinks <-
                   {
                     k_sink = path;
                     k_line = line_of arg.pexp_loc;
                     k_taint = texpr_of arg;
                     k_waived = waived_here st pf.p_allows rule_mmap;
                   }
                   :: def.d_sinks)
               args);
          match head_txt with
          | Lident v when List.exists (fun (_, p) -> p = v) def.d_params ->
              def.d_param_calls <- (v, st.cs_locks) :: def.d_param_calls;
              List.iter (fun (_, a) -> self#expression a) args
          | _ ->
              let lambdas = ref [] in
              List.iter
                (fun ((lbl, arg) : arg_label * expression) ->
                  if Lint_ast.is_lambda arg then
                    let label =
                      match lbl with
                      | Nolabel -> ""
                      | Labelled l | Optional l -> l
                    in
                    lambdas := self#lift_lambda label arg :: !lambdas
                  else self#expression arg)
                args;
              self#record_call ~lambdas:(List.rev !lambdas) path line
        end

      method! expression e =
        let allows = Lint_ast.allows_of_attributes e.pexp_attributes in
        st.cs_allows <- allows :: st.cs_allows;
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
            let path = Lint_ast.strip_stdlib (Lint_ast.ident_path txt) in
            let line = line_of e.pexp_loc in
            self#note_path path line;
            (* A bare mention of a function is a potential call (passed
               to an iterator, stored, spawned): keep the edge so
               reachability stays conservative.  A bare mention of a
               parameter is NOT an invocation - storing a job in a
               queue under a lock runs it later, elsewhere - so only
               real applications feed the higher-order summary. *)
            match txt with
            | Lident v when List.exists (fun (_, p) -> p = v) def.d_params
              ->
                ()
            | Lident v when lowercase_head v -> self#record_call path line
            | Ldot (_, _) when not (is_blocking path) ->
                self#record_call path line
            | _ -> ())
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            self#apply txt args (line_of e.pexp_loc)
        | Pexp_apply (head, args) ->
            self#expression head;
            List.iter (fun (_, a) -> self#expression a) args
        | Pexp_while (cond, body) ->
            st.cs_next_loop <- st.cs_next_loop + 1;
            let lp =
              {
                lp_id = st.cs_next_loop;
                lp_line = line_of e.pexp_loc;
                lp_desc = "while loop";
                lp_polls = false;
                lp_enclosing = st.cs_loops;
                lp_waived = waived_here st pf.p_allows rule_budget;
              }
            in
            def.d_loops <- lp :: def.d_loops;
            st.cs_loops <- lp.lp_id :: st.cs_loops;
            self#expression cond;
            self#expression body;
            st.cs_loops <- Lint_ast.pop_stack st.cs_loops
        | Pexp_let (rf, vbs, cont) ->
            List.iter (self#nested_binding rf) vbs;
            self#expression cont
        | _ -> super#expression e);
        st.cs_allows <- Lint_ast.pop_stack st.cs_allows
    end
  in
  List.iter visitor#expression bodies

(* Top-level structure walk: defs for every binding (function or value),
   nested modules with a dotted prefix, includes and aliases. *)
let rec collect_structure u pf ~scope items =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_attribute attr -> (
          match Lint_ast.allows_of_attribute attr with
          | Some rules -> pf.p_allows <- rules @ pf.p_allows
          | None -> ())
      | Pstr_value (rf, vbs) ->
          List.iter
            (fun vb ->
              match Lint_ast.binding_name vb with
              | Some name ->
                  let vb_allows =
                    Lint_ast.allows_of_attributes vb.pvb_attributes
                  in
                  let path = scope @ [ name ] in
                  let id = pf.p_path ^ "#" ^ String.concat "." path in
                  let params, bodies = Lint_ast.peel_function vb.pvb_expr in
                  let d =
                    {
                      d_id = id;
                      d_file = pf.p_path;
                      d_name = pf.p_module ^ "." ^ String.concat "." path;
                      d_line = line_of vb.pvb_loc;
                      d_rec = (rf = Recursive);
                      d_lambda = false;
                      d_params = params;
                      d_polls = false;
                      d_calls = [];
                      d_loops = [];
                      d_acquires = [];
                      d_blocking = [];
                      d_param_calls = [];
                      d_lets = [];
                      d_ret =
                        List.concat_map Lint_ast.tail_exprs bodies
                        |> List.map texpr_of;
                      d_budget_waived =
                        Lint_ast.allows_hit rule_budget vb_allows
                        || Lint_ast.allows_hit rule_budget pf.p_allows;
                      d_sinks = [];
                    }
                  in
                  add_def u d;
                  collect_def u pf ~defpath:path ~def:d ~locks:[]
                    (Lint_ast.param_defaults vb.pvb_expr @ bodies)
              | None -> ())
            vbs
      | Pstr_module { pmb_name = { txt = Some name; _ }; pmb_expr; _ } -> (
          match pmb_expr.pmod_desc with
          | Pmod_structure sub -> collect_structure u pf ~scope:(scope @ [ name ]) sub
          | Pmod_constraint ({ pmod_desc = Pmod_structure sub; _ }, _) ->
              collect_structure u pf ~scope:(scope @ [ name ]) sub
          | Pmod_ident { txt; _ } -> (
              match Longident.flatten_exn txt with
              | parts -> pf.p_aliases <- (name, parts) :: pf.p_aliases
              | exception _ -> ())
          | _ -> ())
      | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        -> (
          match Longident.flatten_exn txt with
          | parts -> pf.p_includes <- parts :: pf.p_includes
          | exception _ -> ())
      | _ -> ())
    items

(* --- resolution ------------------------------------------------------- *)

(* Resolve a raw module path to a file of the universe: either
   [Wrapper.Module] through a dune library, or a sibling [Module] of
   [from_dir]. *)
let file_of_module_path u ~from_dir parts =
  match parts with
  | w :: m :: _ when Hashtbl.mem u.u_wrappers w -> (
      match Hashtbl.find_opt u.u_wrappers w with
      | Some dir -> Hashtbl.find_opt u.u_by_module (dir, m)
      | None -> None)
  | [ m ] -> Hashtbl.find_opt u.u_by_module (from_dir, m)
  | _ -> None

let rec resolve_in_file u ~depth path rest v =
  if depth > 4 then Unknown
  else
    let id = path ^ "#" ^ String.concat "." (rest @ [ v ]) in
    if Hashtbl.mem u.u_defs id then Local id
    else
      match Hashtbl.find_opt u.u_files path with
      | None -> Unknown
      | Some pf ->
          let via_include =
            List.find_map
              (fun inc ->
                match
                  file_of_module_path u ~from_dir:pf.p_dir inc
                with
                | Some path' -> (
                    match
                      resolve_in_file u ~depth:(depth + 1) path' rest v
                    with
                    | Local _ as r -> Some r
                    | _ -> None)
                | None -> None)
              pf.p_includes
          in
          (match via_include with Some r -> r | None -> Unknown)

(* Resolve one dotted path as written at a call site in [pf] inside the
   def whose dotted path is [defpath]. *)
let resolve u (pf : pfile) ~defpath raw =
  let parts = String.split_on_char '.' raw in
  let rec split_value acc = function
    | [ v ] -> (List.rev acc, v)
    | m :: rest -> split_value (m :: acc) rest
    | [] -> ([], "")
  in
  let ms, v = split_value [] parts in
  if v = "" then Unknown
  else
    match ms with
    | [] ->
        if not (lowercase_head v) then Unknown
        else
          (* innermost enclosing scope first, then file top level *)
          let rec try_prefix prefix =
            let id = pf.p_path ^ "#" ^ String.concat "." (prefix @ [ v ]) in
            if Hashtbl.mem u.u_defs id then Some (Local id)
            else
              match prefix with
              | [] -> None
              | _ -> try_prefix (Lint_ast.pop_stack (List.rev prefix) |> List.rev)
          in
          (match try_prefix defpath with Some r -> r | None -> Unknown)
    | m :: rest -> (
        (* module alias defined in this file? *)
        let ms =
          match List.assoc_opt m pf.p_aliases with
          | Some expansion -> expansion @ rest
          | None -> ms
        in
        match ms with
        | [] -> Unknown
        | m :: rest -> (
            match Hashtbl.find_opt u.u_wrappers m with
            | Some dir -> (
                match rest with
                | [] -> Unknown
                | fm :: rest' -> (
                    match Hashtbl.find_opt u.u_by_module (dir, fm) with
                    | Some path -> (
                        match resolve_in_file u ~depth:0 path rest' v with
                        | Local _ as r -> r
                        | _ -> External raw)
                    | None -> External raw))
            | None -> (
                match Hashtbl.find_opt u.u_by_module (pf.p_dir, m) with
                | Some path -> (
                    match resolve_in_file u ~depth:0 path rest v with
                    | Local _ as r -> r
                    | _ -> Unknown)
                | None -> (
                    (* nested module of the current file *)
                    match resolve_in_file u ~depth:0 pf.p_path ms v with
                    | Local _ as r -> r
                    | _ -> External raw))))

(* --- build ------------------------------------------------------------ *)

let build (files : (string * structure) list) : t =
  let u =
    {
      u_files = Hashtbl.create 64;
      u_by_module = Hashtbl.create 64;
      u_wrappers = Hashtbl.create 16;
      u_defs = Hashtbl.create 512;
      u_order = [];
    }
  in
  let pfiles =
    List.map
      (fun (path, str) ->
        let dir = Filename.dirname path in
        let pf =
          {
            p_path = path;
            p_dir = dir;
            p_module = module_of_path path;
            p_str = str;
            p_includes = [];
            p_aliases = [];
            p_allows = [];
          }
        in
        Hashtbl.replace u.u_files path pf;
        Hashtbl.replace u.u_by_module (dir, pf.p_module) path;
        (match wrapper_of_dir dir with
        | Some w when not (Hashtbl.mem u.u_wrappers w) ->
            Hashtbl.replace u.u_wrappers w dir
        | _ -> ());
        pf)
      files
  in
  (* Pass A: defs, aliases, includes, facts.  (Raw call targets are
     resolved in pass B once every def of every file exists.) *)
  List.iter (fun pf -> collect_structure u pf ~scope:[] pf.p_str) pfiles;
  (* Pass B: resolve raw call paths and taint calls. *)
  Hashtbl.iter
    (fun _ d ->
      match Hashtbl.find_opt u.u_files d.d_file with
      | None -> ()
      | Some pf ->
          (* Unqualified names resolve innermost scope out, starting
             from the def's own dotted path: a call in [handle_load]'s
             body to a nested [go] must find [#handle_load.go] before
             falling back to the file's top level. *)
          let defpath =
            match String.index_opt d.d_id '#' with
            | Some i ->
                String.sub d.d_id (i + 1) (String.length d.d_id - i - 1)
                |> String.split_on_char '.'
            | None -> []
          in
          List.iter
            (fun c -> c.c_target <- resolve u pf ~defpath c.c_raw)
            d.d_calls;
          let resolve_texpr (tx : texpr) =
            tx.t_targets <-
              List.map (fun raw -> resolve u pf ~defpath raw) tx.t_raw_calls
          in
          List.iter (fun (_, tx) -> resolve_texpr tx) d.d_lets;
          List.iter resolve_texpr d.d_ret;
          List.iter (fun k -> resolve_texpr k.k_taint) d.d_sinks)
    u.u_defs;
  { defs = u.u_defs; order = List.rev u.u_order; n_files = List.length files }

(* --- graph dump ------------------------------------------------------- *)

let to_dot t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph xklint {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  List.iter
    (fun id ->
      match find_def t id with
      | None -> ()
      | Some d ->
          let attrs =
            String.concat ""
              [
                (if d.d_polls then ", polls" else "");
                (if d.d_loops <> [] then
                   Printf.sprintf ", loops=%d" (List.length d.d_loops)
                 else "");
                (if d.d_acquires <> [] then ", locks" else "");
              ]
          in
          Buffer.add_string buf
            (Printf.sprintf "  %S [label=%S];\n" d.d_id
               (d.d_name ^ attrs));
          List.iter
            (fun c ->
              match c.c_target with
              | Local id2 ->
                  Buffer.add_string buf
                    (Printf.sprintf "  %S -> %S%s;\n" d.d_id id2
                       (if c.c_locks <> [] then " [color=red]" else ""))
              | External _ | Unknown -> ())
            d.d_calls;
          List.iter
            (fun (_, anon) ->
              Buffer.add_string buf
                (Printf.sprintf "  %S -> %S [style=dashed];\n" d.d_id anon))
            (List.concat_map (fun c -> c.c_lambdas) d.d_calls))
    t.order;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
