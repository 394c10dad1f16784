(* Whole-program pass 2: three interprocedural analyses over the
   Lint_callgraph.

   Budget reachability: every loop and recursive cycle reachable from a
   serving entry point (Engine.run_request*, Shard_run.run, handle_*
   handlers) without an intervening poll must itself poll a [Budget].
   A call edge is covered when its site sits inside a loop whose body
   transitively polls (the work between two polls of a driving loop is
   assumed bounded - the invariant the old hand-argued allowlist
   encoded) or when the calling frame consults [Budget] at all (a
   budget-aware frame polls around the work it delegates).

   Lock-held sets: the set of [Sync.with_lock] / [Protected.with_]
   sections held at each call edge is propagated down the graph;
   blocking operations ([Unix.*], channels, [Rpc.Client.*]) reachable
   with a non-empty held set are reported with the caller chain.
   Closures passed into a callee that invokes a parameter under its own
   lock ([Shard_cache.find_or_add ~compute]) are analyzed under that
   lock.  Lock identity is the printed acquisition expression, so two
   instances of one sharded lock field look the same: re-entry of the
   same key is deliberately not reported, inversions of distinct keys
   are.

   Mmap-view escapes: a function's return taints when a tail position
   mentions an [Mmap] handle (or builds a closure over one, or calls a
   tainted local function); copying accessors at value depth
   ([Mmap.u32], [Mmap.sub_string]) are the sanctioned decode-to-plain
   pattern and do not taint.  Sink arguments ([Hashtbl.add],
   [Shard_cache.find_or_add], [Atomic.set], [:=]) are evaluated against
   the local let environment and the returns-taint of called
   functions. *)

module G = Lint_callgraph

let in_dir dir file =
  String.starts_with ~prefix:(dir ^ "/") file
  || Lint_util.contains_substring ~sub:("/" ^ dir ^ "/") file

let serving_scope file =
  in_dir "lib" file || in_dir "bin" file || in_dir "tools" file

let mmap_scope file = in_dir "lib/index" file || in_dir "lib/storage" file

let base_name (d : G.def) =
  match List.rev (String.split_on_char '.' d.d_name) with
  | base :: _ -> base
  | [] -> d.d_name

(* Serving entry points: the RPC handlers and the engine request
   dispatchers.  Server.run's accept loop is deliberately not an entry:
   a server loops forever by design; budgets are per-request. *)
let is_entry (d : G.def) =
  (not d.d_lambda)
  && serving_scope d.d_file
  &&
  let base = base_name d in
  String.starts_with ~prefix:"run_request" base
  || String.starts_with ~prefix:"handle" base
  || (base = "run" && String.ends_with ~suffix:"shard_run.ml" d.d_file)

let allowed config ~rule ~file names =
  List.exists
    (fun n -> Lint_config.allowed config ~rule ~file ~name:(Some n))
    names

let defs_in_order (g : G.t) =
  List.filter_map (fun id -> G.find_def g id) g.order

(* Facts are consed during collection; source order is the reverse. *)
let calls_of (d : G.def) = List.rev d.d_calls
let loops_of (d : G.def) = List.rev d.d_loops
let acquires_of (d : G.def) = List.rev d.d_acquires
let blocking_of (d : G.def) = List.rev d.d_blocking
let sinks_of (d : G.def) = List.rev d.d_sinks

(* --- budget reachability --------------------------------------------- *)

(* eventually_polls: does calling this def reach a Budget mention?  Least
   fixpoint over call and lifted-closure edges. *)
let compute_ep g =
  let ep = Hashtbl.create 256 in
  let get id = Hashtbl.find_opt ep id = Some true in
  List.iter (fun (d : G.def) -> Hashtbl.replace ep d.d_id d.d_polls)
    (defs_in_order g);
  let call_polls (c : G.call) =
    (match c.c_target with G.Local id -> get id | _ -> false)
    || List.exists (fun (_, anon) -> get anon) c.c_lambdas
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : G.def) ->
        if not (get d.d_id) then
          if List.exists call_polls d.d_calls then begin
            Hashtbl.replace ep d.d_id true;
            changed := true
          end)
      (defs_in_order g)
  done;
  (get, call_polls)

(* Which loops of [d] are transitively polled: their own subtree
   mentions Budget, or a call made from inside them reaches one. *)
let polled_loops (d : G.def) call_polls =
  List.filter_map
    (fun (lp : G.loop) ->
      if
        lp.lp_polls
        || List.exists
             (fun (c : G.call) ->
               List.mem lp.lp_id c.c_loops && call_polls c)
             d.d_calls
      then Some lp.lp_id
      else None)
    d.d_loops

(* Unpolled reachability: BFS from the entries, stopping at covered
   edges.  Returns the set plus a predecessor map for traces. *)
let unpolled_reach g call_polls =
  let reach = Hashtbl.create 256 in
  let pred = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun (d : G.def) ->
      if is_entry d && not (Hashtbl.mem reach d.d_id) then begin
        Hashtbl.replace reach d.d_id ();
        Queue.add d.d_id queue
      end)
    (defs_in_order g);
  while not (Queue.is_empty queue) do
    match Queue.take_opt queue with
    | None -> ()
    | Some id -> (
        match G.find_def g id with
        | None -> ()
        | Some d ->
            if not d.d_polls then
              let polled = polled_loops d call_polls in
              List.iter
                (fun (c : G.call) ->
                  let covered =
                    List.exists (fun lp -> List.mem lp polled) c.c_loops
                  in
                  if not covered then
                    let visit tgt =
                      if not (Hashtbl.mem reach tgt) then begin
                        Hashtbl.replace reach tgt ();
                        Hashtbl.replace pred tgt (id, c.c_line, c.c_raw);
                        Queue.add tgt queue
                      end
                    in
                    (match c.c_target with
                    | G.Local tgt -> visit tgt
                    | G.External _ | G.Unknown -> ());
                    List.iter (fun (_, anon) -> visit anon) c.c_lambdas)
                (calls_of d))
  done;
  (reach, pred)

(* Caller chain from an entry down to [id], entry first. *)
let trace_to g pred id =
  let rec up id acc n =
    if n > 8 then acc
    else
      match Hashtbl.find_opt pred id with
      | None -> (
          match G.find_def g id with
          | Some d -> (d.d_file, d.d_line, "entry point " ^ d.d_name) :: acc
          | None -> acc)
      | Some (from, line, raw) -> (
          match G.find_def g from with
          | Some df ->
              up from
                ((df.d_file, line, df.d_name ^ " calls " ^ raw) :: acc)
                (n + 1)
          | None -> acc)
  in
  up id [] 0

(* Strongly connected components of the Local call graph (iterative
   Tarjan), for recursion cycles. *)
let sccs g =
  let index = Hashtbl.create 256 in
  let lowlink = Hashtbl.create 256 in
  let on_stack = Hashtbl.create 256 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let succs id =
    match G.find_def g id with
    | None -> []
    | Some d ->
        List.concat_map
          (fun (c : G.call) ->
            (match c.c_target with G.Local t -> [ t ] | _ -> [])
            @ List.map snd c.c_lambdas)
          d.d_calls
  in
  let rec strongconnect v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strongconnect w;
          let lv = Hashtbl.find_opt lowlink v and lw = Hashtbl.find_opt lowlink w in
          match (lv, lw) with
          | Some a, Some b -> Hashtbl.replace lowlink v (min a b)
          | _ -> ()
        end
        else if Hashtbl.mem on_stack w then
          match (Hashtbl.find_opt lowlink v, Hashtbl.find_opt index w) with
          | Some a, Some b -> Hashtbl.replace lowlink v (min a b)
          | _ -> ())
      (succs v);
    if Hashtbl.find_opt lowlink v = Hashtbl.find_opt index v then begin
      let rec pop acc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      out := pop [] :: !out
    end
  in
  List.iter
    (fun (d : G.def) ->
      if not (Hashtbl.mem index d.d_id) then strongconnect d.d_id)
    (defs_in_order g);
  List.rev !out

let budget_findings config g =
  let _ep, call_polls = compute_ep g in
  let reach, pred = unpolled_reach g call_polls in
  let loops =
    List.concat_map
      (fun (d : G.def) ->
        if
          (not (Hashtbl.mem reach d.d_id))
          || (not (serving_scope d.d_file))
          || d.d_budget_waived
        then []
        else
          let polled = polled_loops d call_polls in
          List.filter_map
            (fun (lp : G.loop) ->
              if
                List.mem lp.lp_id polled
                || List.exists (fun e -> List.mem e polled) lp.lp_enclosing
                || lp.lp_waived
                || allowed config ~rule:G.rule_budget ~file:d.d_file
                     [ base_name d ]
              then None
              else
                let trace =
                  trace_to g pred d.d_id
                  @ [ (d.d_file, lp.lp_line, "unpolled " ^ lp.lp_desc) ]
                in
                Some
                  (Lint_finding.v ~file:d.d_file ~line:lp.lp_line ~trace
                     ~rule:G.rule_budget
                     (Printf.sprintf
                        "%s in %s is reachable from a serving entry point \
                         but never polls Budget (poll in the loop or on \
                         the call chain)"
                        lp.lp_desc d.d_name)))
            (loops_of d))
      (defs_in_order g)
  in
  let cycles =
    List.filter_map
      (fun scc ->
        let members = List.filter_map (G.find_def g) scc in
        let has_cycle =
          match members with
          | [] -> false
          | [ (d : G.def) ] ->
              List.exists
                (fun (c : G.call) -> c.c_target = G.Local d.d_id)
                d.d_calls
          | _ :: _ :: _ -> true
        in
        if not has_cycle then None
        else
          let polls =
            List.exists
              (fun (d : G.def) ->
                d.d_polls || List.exists call_polls d.d_calls)
              members
          in
          let reachable =
            List.filter
              (fun (d : G.def) ->
                Hashtbl.mem reach d.d_id && serving_scope d.d_file)
              members
          in
          (* Consulted only for a cycle that would be reported, so an
             allow entry counts only the findings it suppresses. *)
          let waived () =
            List.exists
              (fun (d : G.def) ->
                d.d_budget_waived
                || allowed config ~rule:G.rule_budget ~file:d.d_file
                     [ base_name d ])
              members
          in
          match reachable with
          | [] -> None
          | _ when polls || waived () -> None
          | rep :: _ ->
              let names =
                List.map (fun (d : G.def) -> d.d_name) members
                |> List.sort String.compare
              in
              let trace =
                trace_to g pred rep.d_id
                @ [ (rep.d_file, rep.d_line, "recursive cycle") ]
              in
              Some
                (Lint_finding.v ~file:rep.d_file ~line:rep.d_line ~trace
                   ~rule:G.rule_budget
                   (Printf.sprintf
                      "recursive cycle (%s) is reachable from a serving \
                       entry point but never polls Budget"
                      (String.concat ", " names))))
      (sccs g)
  in
  loops @ cycles

(* --- lock-held sets --------------------------------------------------- *)

(* First blocking operation reachable from a def, with the frame chain
   to it.  Memoized; a cycle contributes nothing on the back edge. *)
let first_blocking g =
  let memo : (string, (string * string * int * (string * int * string) list) option) Hashtbl.t =
    Hashtbl.create 256
  in
  let in_progress = Hashtbl.create 16 in
  let rec fb id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
        if Hashtbl.mem in_progress id then None
        else begin
          Hashtbl.replace in_progress id ();
          let result =
            match G.find_def g id with
            | None -> None
            | Some d -> (
                match
                  List.find_opt
                    (fun (b : G.blocking) -> not b.b_waived)
                    (blocking_of d)
                with
                | Some b -> Some (b.b_path, d.d_file, b.b_line, [])
                | None ->
                    List.find_map
                      (fun (c : G.call) ->
                        let via tgt note =
                          match fb tgt with
                          | Some (path, file, line, frames) ->
                              Some
                                ( path,
                                  file,
                                  line,
                                  (d.d_file, c.c_line, note) :: frames )
                          | None -> None
                        in
                        let from_lambdas =
                          List.find_map
                            (fun (_, anon) ->
                              via anon (d.d_name ^ " passes a closure"))
                            c.c_lambdas
                        in
                        match from_lambdas with
                        | Some r -> Some r
                        | None -> (
                            match c.c_target with
                            | G.Local tgt ->
                                via tgt (d.d_name ^ " calls " ^ c.c_raw)
                            | G.External _ | G.Unknown -> None))
                      (calls_of d))
          in
          Hashtbl.remove in_progress id;
          Hashtbl.replace memo id result;
          result
        end
  in
  fb

let lock_findings config g =
  let fb = first_blocking g in
  let check_names d (b_path : string) =
    [ base_name d; b_path ]
  in
  List.concat_map
    (fun (d : G.def) ->
      if not (serving_scope d.d_file) then []
      else
        (* blocking op lexically under a lock (the old syntactic rule) *)
        let local =
          List.filter_map
            (fun (b : G.blocking) ->
              if
                b.b_locks = [] || b.b_waived
                || allowed config ~rule:G.rule_lock_io ~file:d.d_file
                     (check_names d b.b_path)
              then None
              else
                Some
                  (Lint_finding.v ~file:d.d_file ~line:b.b_line
                     ~rule:G.rule_lock_io
                     (Printf.sprintf
                        "blocking call %s while holding lock [%s]" b.b_path
                        (String.concat "; " b.b_locks))))
            (blocking_of d)
        in
        (* call made under a lock whose callee chain blocks *)
        let transitive =
          List.concat_map
            (fun (c : G.call) ->
              if c.c_locks = [] then []
              else
                let report tgt intro =
                  match fb tgt with
                  | Some (path, bfile, bline, frames)
                    when not
                           (allowed config ~rule:G.rule_lock_io
                              ~file:d.d_file (check_names d path)) ->
                      [
                        Lint_finding.v ~file:d.d_file ~line:c.c_line
                          ~trace:
                            (((d.d_file, c.c_line, intro) :: frames)
                            @ [ (bfile, bline, "blocking call " ^ path) ])
                          ~rule:G.rule_lock_io
                          (Printf.sprintf
                             "call to %s under lock [%s] reaches blocking \
                              %s (%s:%d)"
                             c.c_raw
                             (String.concat "; " c.c_locks)
                             path bfile bline);
                      ]
                  | _ -> []
                in
                match c.c_target with
                | G.Local tgt ->
                    report tgt
                      (Printf.sprintf "%s calls %s holding [%s]" d.d_name
                         c.c_raw
                         (String.concat "; " c.c_locks))
                | G.External _ | G.Unknown -> [])
            (calls_of d)
        in
        (* closure handed to a callee that runs it under its own lock *)
        let via_params =
          List.concat_map
            (fun (c : G.call) ->
              match c.c_target with
              | G.Local tgt_id -> (
                  match G.find_def g tgt_id with
                  | None -> []
                  | Some tgt ->
                      List.concat_map
                        (fun (label, anon) ->
                          List.concat_map
                            (fun (p, locks) ->
                              if
                                locks = []
                                || (label <> "" && label <> p)
                              then []
                              else
                                match fb anon with
                                | Some (path, bfile, bline, frames)
                                  when not
                                         (allowed config
                                            ~rule:G.rule_lock_io
                                            ~file:d.d_file
                                            (check_names d path)) ->
                                    [
                                      Lint_finding.v ~file:d.d_file
                                        ~line:c.c_line
                                        ~trace:
                                          ([
                                             ( d.d_file,
                                               c.c_line,
                                               Printf.sprintf
                                                 "%s passes a closure to \
                                                  %s"
                                                 d.d_name c.c_raw );
                                             ( tgt.d_file,
                                               tgt.d_line,
                                               Printf.sprintf
                                                 "%s invokes [%s] under \
                                                  lock [%s]"
                                                 tgt.d_name p
                                                 (String.concat "; " locks)
                                             );
                                           ]
                                          @ frames
                                          @ [
                                              ( bfile,
                                                bline,
                                                "blocking call " ^ path );
                                            ])
                                        ~rule:G.rule_lock_io
                                        (Printf.sprintf
                                           "closure passed to %s runs \
                                            under lock [%s] and reaches \
                                            blocking %s (%s:%d)"
                                           c.c_raw
                                           (String.concat "; " locks)
                                           path bfile bline);
                                    ]
                                | _ -> [])
                            tgt.d_param_calls)
                        c.c_lambdas)
              | G.External _ | G.Unknown -> [])
            (calls_of d)
        in
        local @ transitive @ via_params)
    (defs_in_order g)

(* --- lock order ------------------------------------------------------- *)

(* All acquisitions reachable from a def (its own plus its callees'). *)
let acquired_under g =
  let memo = Hashtbl.create 256 in
  let in_progress = Hashtbl.create 16 in
  let rec au id =
    match Hashtbl.find_opt memo id with
    | Some r -> r
    | None ->
        if Hashtbl.mem in_progress id then []
        else begin
          Hashtbl.replace in_progress id ();
          let result =
            match G.find_def g id with
            | None -> []
            | Some d ->
                let own =
                  List.filter_map
                    (fun (a : G.acquire) ->
                      if a.a_waived then None
                      else Some (a.a_key, d.d_file, a.a_line))
                    (acquires_of d)
                in
                let below =
                  List.concat_map
                    (fun (c : G.call) ->
                      (match c.c_target with
                      | G.Local tgt -> au tgt
                      | _ -> [])
                      @ List.concat_map (fun (_, anon) -> au anon) c.c_lambdas)
                    (calls_of d)
                in
                (* dedup by key, keeping the first witness *)
                List.fold_left
                  (fun acc ((k, _, _) as site) ->
                    if List.exists (fun (k', _, _) -> k' = k) acc then acc
                    else acc @ [ site ])
                  [] (own @ below)
          in
          Hashtbl.remove in_progress id;
          Hashtbl.replace memo id result;
          result
        end
  in
  au

let order_findings config g =
  let au = acquired_under g in
  (* (k1, k2) -> first witness of k2 acquired while k1 is held *)
  let edges : (string * string, string * int * string) Hashtbl.t =
    Hashtbl.create 64
  in
  let add_edge k1 k2 file line note =
    if k1 <> k2 && not (Hashtbl.mem edges (k1, k2)) then
      Hashtbl.replace edges (k1, k2) (file, line, note)
  in
  List.iter
    (fun (d : G.def) ->
      if serving_scope d.d_file then begin
        List.iter
          (fun (a : G.acquire) ->
            if not a.a_waived then
              List.iter
                (fun k1 ->
                  add_edge k1 a.a_key d.d_file a.a_line
                    (Printf.sprintf "%s acquires [%s] holding [%s]" d.d_name
                       a.a_key k1))
                a.a_held)
          (acquires_of d);
        List.iter
          (fun (c : G.call) ->
            if c.c_locks <> [] then
              let reached =
                (match c.c_target with G.Local tgt -> au tgt | _ -> [])
                @ List.concat_map (fun (_, anon) -> au anon) c.c_lambdas
              in
              List.iter
                (fun (k2, _, _) ->
                  List.iter
                    (fun k1 ->
                      add_edge k1 k2 d.d_file c.c_line
                        (Printf.sprintf
                           "%s calls %s holding [%s]; the callee acquires \
                            [%s]"
                           d.d_name c.c_raw k1 k2))
                    c.c_locks)
                reached)
          (calls_of d)
      end)
    (defs_in_order g);
  let pairs = ref [] in
  Hashtbl.iter
    (fun (k1, k2) w12 ->
      if k1 < k2 then
        match Hashtbl.find_opt edges (k2, k1) with
        | Some w21 -> pairs := ((k1, k2), w12, w21) :: !pairs
        | None -> ())
    edges;
  List.sort compare !pairs
  |> List.filter_map (fun ((k1, k2), (f1, l1, n1), (f2, l2, n2)) ->
         let file, line, trace =
           if (f1, l1) <= (f2, l2) then
             (f1, l1, [ (f1, l1, n1); (f2, l2, n2) ])
           else (f2, l2, [ (f2, l2, n2); (f1, l1, n1) ])
         in
         if
           allowed config ~rule:G.rule_lock_order ~file [ k1; k2 ]
         then None
         else
           Some
             (Lint_finding.v ~file ~line ~trace ~rule:G.rule_lock_order
                (Printf.sprintf
                   "locks [%s] and [%s] are acquired in both orders \
                    (%s:%d and %s:%d)"
                   k1 k2 f1 l1 f2 l2)))

(* --- mmap escapes ----------------------------------------------------- *)

(* Returns-taint fixpoint.  [scoped] restricts the taint sources to
   defs in lib/index / lib/storage, the layers whose views the rule
   polices: taint entering from elsewhere is someone else's fixture. *)
let returns_mmap g ~scoped =
  let rm = Hashtbl.create 256 in
  let get id = Hashtbl.find_opt rm id = Some true in
  let taints (d : G.def) (tx : G.texpr) =
    let rec tx_taint seen (tx : G.texpr) =
      (tx.t_direct && ((not scoped) || mmap_scope d.d_file))
      || List.exists
           (function G.Local id -> get id | _ -> false)
           tx.t_targets
      || List.exists
           (fun v ->
             (not (List.mem v seen))
             &&
             match List.assoc_opt v d.d_lets with
             | Some tx' -> tx_taint (v :: seen) tx'
             | None -> false)
           tx.t_vars
    in
    tx_taint [] tx
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : G.def) ->
        if not (get d.d_id) then
          if List.exists (taints d) d.d_ret then begin
            Hashtbl.replace rm d.d_id true;
            changed := true
          end)
      (defs_in_order g)
  done;
  (get, taints)

let mmap_findings config g =
  let rms, taints = returns_mmap g ~scoped:true in
  List.concat_map
    (fun (d : G.def) ->
      List.filter_map
        (fun (k : G.sink) ->
          let tainted = taints d k.k_taint in
          if
            (not tainted) || k.k_waived
            || allowed config ~rule:G.rule_mmap ~file:d.d_file
                 [ base_name d; k.k_sink ]
          then None
          else
            let via =
              List.find_map
                (function
                  | G.Local id when rms id -> G.find_def g id
                  | _ -> None)
                k.k_taint.t_targets
            in
            let trace =
              match via with
              | Some src ->
                  [
                    ( src.d_file,
                      src.d_line,
                      src.d_name ^ " returns an Mmap-backed value" );
                    (d.d_file, k.k_line, "stored into " ^ k.k_sink);
                  ]
              | None -> []
            in
            Some
              (Lint_finding.v ~file:d.d_file ~line:k.k_line ~trace
                 ~rule:G.rule_mmap
                 (Printf.sprintf
                    "Mmap-backed value flows into long-lived sink %s \
                     (decode into plain values first)"
                    k.k_sink)))
        (sinks_of d))
    (defs_in_order g)

(* --- driver ----------------------------------------------------------- *)

let run config g =
  budget_findings config g @ lock_findings config g @ order_findings config g
  @ mmap_findings config g
  |> List.sort_uniq Lint_finding.compare
