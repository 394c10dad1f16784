(* The syntactic (single-file) invariants, checked over ppxlib's
   parsetree (so the same source parses on every compiler in the CI
   matrix):

   - [rpc-budget]: in the serving layers ([lib/rpc], [lib/exec]) every
     RPC handler - a function binding named [handle*] - must thread a
     [Budget.*]: the request frame carries the caller's remaining
     deadline/ticks and a handler that never touches a budget is one
     that cannot degrade under it.  Framing plumbing that does no query
     work keeps other names ([dispatch], [serve], ...).
   - [bare-lock]: [Mutex.lock]/[unlock]/[try_lock] never appear outside
     [Xk_util.Sync] - critical sections use [Sync.with_lock], which
     releases on raise.  Checked in [lib/], [bin/] and [tools/].
   - [shared-state]: a top-level binding in a domain-crossing library
     ([lib/exec], [lib/index], [lib/resilience]) must not build bare
     mutable state ([ref]/[Hashtbl.create]/[Buffer.create]/
     [Queue.create]); it is either [Atomic.make] or wrapped in
     [Sync.Protected.create].  Creation under a [fun] is per-call state
     and is fine.
   - [typed-error]: no [failwith]/[invalid_arg] (use [Xk_util.Err]), no
     bare [assert false] (use [Err.unreachable] with context), no
     partial stdlib calls ([List.hd]/[List.tl]/[Option.get]) and no
     [Array.unsafe_*] in [lib/], [bin/] and [tools/]; and no handler of
     [Invalid_argument] in [lib/]: it reports a bug, and a decoder
     reports damage as a typed error, not by catching a bounds check.
   - [durability-sync]: in the persistence layers ([lib/index],
     [lib/storage]) a function that both writes and renames must have
     an fsync in its subtree - a bare write-then-rename is atomic
     against concurrent readers but not against power loss; route the
     artifact through [Xk_storage.Durable.write_atomically] or fsync
     the file and its directory explicitly.
   - [mapped-read]: in the persistence layers ([lib/index],
     [lib/storage]) no durable file is read through a channel
     ([open_in*], [In_channel.*], [really_input*]): every read maps the
     file ([Index_io.read_mapped] or the segment loader), the one place
     [Chaos] injects storage faults, so fault drills exercise the bytes
     production reads.
   - [no-blocking-in-callback]: an [~on_*] lambda handed to a
     [Circuit_breaker], [Health] or [Supervisor] call must not perform
     blocking IO ([Unix.*], channel IO, RPC client calls): those
     callbacks run inline on the request/supervision path that
     triggered them, so a blocking callback stalls the very machinery
     that is trying to shed or heal load.  Checked in [lib/], [bin/]
     and [tools/].
   - [process-exit]: no [exit] in [lib/] or [bin/].  A library reports
     failure as a typed value or exception, and xkq chooses its status in
     one place (its exit table), whose one [exit] carries an
     [[@xklint.allow process-exit]]: a second call would be a second
     mapping from outcomes to codes.

   [budget-loop], [blocking-io-under-lock], [lock-order] and
   [mmap-lifetime] are whole-program rules, checked interprocedurally
   over the cross-module call graph by Lint_callgraph / Lint_dataflow.

   Any finding can be waived in place with [[@xklint.allow <rule>]] on
   an enclosing expression or binding, [[@@@xklint.allow <rule>]] for a
   whole file, or an entry in [xklint.config]. *)

open Ppxlib

let rule_rpc = "rpc-budget"
let rule_lock = "bare-lock"
let rule_state = "shared-state"
let rule_error = "typed-error"
let rule_sync = "durability-sync"
let rule_callback = "no-blocking-in-callback"
let rule_read = "mapped-read"
let rule_exit = "process-exit"

type ctx = {
  file : string;
  config : Lint_config.t;
  mutable findings : Lint_finding.t list;
  mutable fn_stack : string list; (* enclosing binding names, innermost first *)
  mutable allow_stack : string list list; (* rules waived by enclosing attrs *)
  mutable file_allows : string list; (* from [@@@xklint.allow ...] *)
  mutable expr_depth : int; (* 0 = structure level *)
  check_rpc : bool; (* handle* bindings must thread a Budget *)
  check_state : bool;
  check_lib : bool; (* bare-lock + typed-error *)
  check_sync : bool; (* write-then-rename must fsync; reads are mapped *)
  check_exit : bool; (* no exit outside the one allowed mapping *)
  check_handlers : bool; (* no Invalid_argument handler *)
}

let in_dir dir file = Lint_util.contains_substring ~sub:("/" ^ dir ^ "/") ("/" ^ file)

let make_ctx config ~file =
  {
    file;
    config;
    findings = [];
    fn_stack = [];
    allow_stack = [];
    file_allows = [];
    expr_depth = 0;
    check_rpc = in_dir "lib/rpc" file || in_dir "lib/exec" file;
    check_state =
      in_dir "lib/exec" file || in_dir "lib/index" file
      || in_dir "lib/resilience" file;
    check_lib = in_dir "lib" file || in_dir "bin" file || in_dir "tools" file;
    check_sync = in_dir "lib/index" file || in_dir "lib/storage" file;
    check_exit = in_dir "lib" file || in_dir "bin" file;
    check_handlers = in_dir "lib" file;
  }

let waived ctx rule =
  Lint_ast.allows_hit rule ctx.file_allows
  || List.exists (Lint_ast.allows_hit rule) ctx.allow_stack

let report ctx ~loc ~rule ?name msg =
  if not (waived ctx rule) then
    if not (Lint_config.allowed ctx.config ~rule ~file:ctx.file ~name) then
      ctx.findings <-
        Lint_finding.v ~file:ctx.file ~line:loc.loc_start.pos_lnum ~rule msg
        :: ctx.findings

let enclosing_fn ctx =
  match ctx.fn_stack with name :: _ -> name | [] -> "<toplevel>"

(* The durability-sync vocabulary: a rename is the publication point, a
   write is what makes it durability-relevant, and an fsync mention -
   direct or via the [Durable] atomic-write helpers, which fsync
   internally - is what discharges the obligation. *)
let rename_idents = [ "Sys.rename"; "Unix.rename" ]

let write_idents =
  [
    "output_string";
    "output_bytes";
    "output_char";
    "output_byte";
    "Buffer.output_buffer";
    "Printf.fprintf";
  ]

let write_prefixes = [ "Out_channel."; "Unix.write" ]
let sync_markers = [ "fsync"; "write_atomically"; "write_string_atomically" ]
let mentions_rename = Lint_ast.mentions_path (fun p -> List.mem p rename_idents)

let mentions_write =
  Lint_ast.mentions_path (fun p ->
      List.mem p write_idents
      || List.exists (fun pre -> String.starts_with ~prefix:pre p) write_prefixes)

let mentions_sync =
  Lint_ast.mentions_path (fun p ->
      List.exists (fun m -> Lint_util.contains_substring ~sub:m p) sync_markers)

let channel_read path =
  List.mem path [ "open_in"; "open_in_bin"; "open_in_gen" ]
  || String.starts_with ~prefix:"In_channel." path
  || String.starts_with ~prefix:"really_input" path

(* Mutable-state scan for one top-level right-hand side.  Stops at
   lambdas (per-call state) and at sanctioned wrappers. *)
let bare_state_ctors = [ "ref"; "Hashtbl.create"; "Buffer.create"; "Queue.create" ]

let sanctioned_wrappers =
  [
    "Atomic.make";
    "Sync.Protected.create";
    "Xk_util.Sync.Protected.create";
    "Protected.create";
  ]

let scan_toplevel_state ~on_hit =
  object
    inherit Ast_traverse.iter as super

    method! expression e =
      let allows = Lint_ast.allows_of_attributes e.pexp_attributes in
      if Lint_ast.allows_hit rule_state allows then ()
      else
        match e.pexp_desc with
        | Pexp_function _ -> () (* per-call state *)
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
          when List.mem
                 (Lint_ast.strip_stdlib (Lint_ast.ident_path txt))
                 sanctioned_wrappers ->
            ()
        | Pexp_ident { txt; _ }
          when List.mem
                 (Lint_ast.strip_stdlib (Lint_ast.ident_path txt))
                 bare_state_ctors ->
            on_hit e.pexp_loc (Lint_ast.strip_stdlib (Lint_ast.ident_path txt))
        | _ -> super#expression e
  end

let locked_idents = [ "Mutex.lock"; "Mutex.unlock"; "Mutex.try_lock" ]
let exit_idents = [ "exit"; "Unix._exit" ]

(* Modules whose [~on_*] callbacks run inline on the serving or
   supervision path; blocking inside one stalls the resilience
   machinery itself.  Matching is by path component, so
   [Xk_resilience.Circuit_breaker.create], [Circuit_breaker.create] and
   [Xk_exec.Supervisor.create] all qualify. *)
let callback_owners = [ "Circuit_breaker"; "Health"; "Supervisor" ]

let callback_owner path =
  List.exists
    (fun part -> List.mem part callback_owners)
    (String.split_on_char '.' path)

let mentions_blocking = Lint_ast.mentions_path Lint_callgraph.is_blocking

let partial_msg = function
  | ("List.hd" | "List.tl" | "Option.get") as p ->
      Some (Printf.sprintf "partial call '%s'; match on the shape instead" p)
  | p when String.starts_with ~prefix:"Array.unsafe_" p ->
      Some (Printf.sprintf "unchecked access '%s'; use the safe variant" p)
  | "failwith" ->
      Some
        "'failwith' raises untyped Failure; raise a typed exception \
         (Xk_util.Err or a module-specific one)"
  | "invalid_arg" ->
      Some "'invalid_arg' bypasses Xk_util.Err; use Err.invalid/invalidf"
  | _ -> None

(* Does a handler pattern catch [Invalid_argument]?  [exception]
   patterns of a [match] count, as do or-patterns and aliases. *)
let rec catches_invalid_arg p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) ->
      Lint_ast.strip_stdlib (Lint_ast.ident_path txt) = "Invalid_argument"
  | Ppat_or (a, b) -> catches_invalid_arg a || catches_invalid_arg b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_exception p ->
      catches_invalid_arg p
  | _ -> false

let rec exception_case p =
  match p.ppat_desc with
  | Ppat_exception p -> catches_invalid_arg p
  | Ppat_or (a, b) -> exception_case a || exception_case b
  | _ -> false

class linter ctx =
  object (self)
    inherit Ast_traverse.iter as super

    method private check_toplevel_state vbs =
      if ctx.check_state && ctx.expr_depth = 0 then
        List.iter
          (fun vb ->
            let name = Lint_ast.binding_name vb in
            let allows = Lint_ast.allows_of_attributes vb.pvb_attributes in
            if not (Lint_ast.allows_hit rule_state allows) then
              (scan_toplevel_state ~on_hit:(fun loc ctor ->
                   report ctx ~loc ~rule:rule_state ?name
                     (Printf.sprintf
                        "top-level mutable state '%s' built with '%s' in a \
                         domain-crossing library; use Atomic.t or \
                         Xk_util.Sync.Protected"
                        (Option.value name ~default:"_")
                        ctor)))
                #expression vb.pvb_expr)
          vbs

    method! structure_item si =
      (match si.pstr_desc with
      | Pstr_attribute attr -> (
          match Lint_ast.allows_of_attribute attr with
          | Some rules -> ctx.file_allows <- rules @ ctx.file_allows
          | None -> ())
      | Pstr_value (_, vbs) -> self#check_toplevel_state vbs
      | _ -> ());
      super#structure_item si

    method! value_binding vb =
      (* Only function bindings anchor [fn_stack]: a [while] inside
         [let hits = ... while ... done ...] reports the enclosing
         function, not 'hits'. *)
      let fn_name =
        match vb.pvb_expr.pexp_desc with
        | Pexp_function _ | Pexp_newtype _ -> Lint_ast.binding_name vb
        | _ -> None
      in
      let allows = Lint_ast.allows_of_attributes vb.pvb_attributes in
      (if ctx.check_rpc then
         match fn_name with
         | Some n
           when String.starts_with ~prefix:"handle" n
                && (not (Lint_ast.allows_hit rule_rpc allows))
                && not (Lint_ast.mentions_budget vb.pvb_expr) ->
             report ctx ~loc:vb.pvb_loc ~rule:rule_rpc ~name:n
               (Printf.sprintf
                  "RPC handler '%s' never threads a Budget; rebuild one from \
                   the request's deadline/ticks and run the work under it"
                  n)
         | _ -> ());
      (if ctx.check_sync then
         match fn_name with
         | Some n
           when (not (Lint_ast.allows_hit rule_sync allows))
                && mentions_rename vb.pvb_expr
                && mentions_write vb.pvb_expr
                && not (mentions_sync vb.pvb_expr) ->
             report ctx ~loc:vb.pvb_loc ~rule:rule_sync ~name:n
               (Printf.sprintf
                  "'%s' writes then renames with no fsync in sight; after a \
                   power cut the renamed file may hold garbage - route it \
                   through Xk_storage.Durable.write_atomically or fsync the \
                   file and its directory"
                  n)
         | _ -> ());
      ctx.allow_stack <- allows :: ctx.allow_stack;
      (match fn_name with
      | Some n -> ctx.fn_stack <- n :: ctx.fn_stack
      | None -> ());
      super#value_binding vb;
      (match fn_name with
      | Some _ -> ctx.fn_stack <- Lint_ast.pop_stack ctx.fn_stack
      | None -> ());
      ctx.allow_stack <- Lint_ast.pop_stack ctx.allow_stack

    method! expression e =
      let allows = Lint_ast.allows_of_attributes e.pexp_attributes in
      ctx.allow_stack <- allows :: ctx.allow_stack;
      ctx.expr_depth <- ctx.expr_depth + 1;
      (match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
        when ctx.check_lib
             && callback_owner (Lint_ast.strip_stdlib (Lint_ast.ident_path txt))
        ->
          List.iter
            (fun (label, (arg : expression)) ->
              match label with
              | Labelled l
                when String.starts_with ~prefix:"on_" l
                     && Lint_ast.is_lambda arg
                     && (not
                           (Lint_ast.allows_hit rule_callback
                              (Lint_ast.allows_of_attributes
                                 arg.pexp_attributes)))
                     && mentions_blocking arg ->
                  report ctx ~loc:arg.pexp_loc ~rule:rule_callback ~name:l
                    (Printf.sprintf
                       "blocking IO inside the '~%s' callback of '%s'; the \
                        callback runs inline on the serving/supervision path \
                        - record the event and do the IO outside"
                       l
                       (Lint_ast.strip_stdlib (Lint_ast.ident_path txt)))
              | _ -> ())
            args
      | Pexp_ident { txt; _ } when ctx.check_lib -> (
          let path = Lint_ast.strip_stdlib (Lint_ast.ident_path txt) in
          if List.mem path locked_idents then
            report ctx ~loc:e.pexp_loc ~rule:rule_lock ~name:path
              (Printf.sprintf
                 "'%s' outside Xk_util.Sync; wrap the critical section in \
                  Sync.with_lock so a raise cannot leak the lock (in '%s')"
                 path (enclosing_fn ctx))
          else if ctx.check_exit && List.mem path exit_idents then
            report ctx ~loc:e.pexp_loc ~rule:rule_exit ~name:path
              (Printf.sprintf
                 "'%s' ends the process (in '%s'); return a typed error or \
                  status and let the executable's one exit mapping choose \
                  the code"
                 path (enclosing_fn ctx))
          else if ctx.check_sync && channel_read path then
            report ctx ~loc:e.pexp_loc ~rule:rule_read ~name:path
              (Printf.sprintf
                 "'%s' reads a durable file through a channel, beneath the \
                  storage fault hooks; read it through Index_io.read_mapped \
                  (in '%s')"
                 path (enclosing_fn ctx))
          else
            match partial_msg path with
            | Some msg ->
                report ctx ~loc:e.pexp_loc ~rule:rule_error ~name:path msg
            | None -> ())
      | (Pexp_try (_, cases) | Pexp_match (_, cases)) when ctx.check_handlers ->
          let is_try = match e.pexp_desc with Pexp_try _ -> true | _ -> false in
          List.iter
            (fun c ->
              if
                (is_try && catches_invalid_arg c.pc_lhs)
                || exception_case c.pc_lhs
              then
                report ctx ~loc:c.pc_lhs.ppat_loc ~rule:rule_error
                  ~name:"Invalid_argument"
                  (Printf.sprintf
                     "handler of Invalid_argument (in '%s'); it reports a \
                      bug, so check the input and return or raise a typed \
                      error instead"
                     (enclosing_fn ctx)))
            cases
      | Pexp_assert
          { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
        when ctx.check_lib ->
          report ctx ~loc:e.pexp_loc ~rule:rule_error ~name:"assert-false"
            "bare 'assert false'; use Xk_util.Err.unreachable with a \
             \"Module.fn: why\" message"
      | _ -> ());
      super#expression e;
      ctx.expr_depth <- ctx.expr_depth - 1;
      ctx.allow_stack <- Lint_ast.pop_stack ctx.allow_stack
  end

let run config ~file str =
  let ctx = make_ctx config ~file in
  (new linter ctx)#structure str;
  List.sort Lint_finding.compare ctx.findings
