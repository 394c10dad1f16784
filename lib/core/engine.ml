(* Public facade: build an index from an XML document and run keyword
   queries under the ELCA or SLCA semantics, with any of the implemented
   algorithms, in complete-result or top-K mode. *)

type t = { index : Xk_index.Index.t }

type semantics = Elca | Slca

type algorithm =
  | Join_based   (* Algorithm 1 (this paper) *)
  | Stack_based  (* DIL-style merge [5], [6] *)
  | Index_based  (* indexed lookup [6], [8] *)
  | Oracle       (* definitional ground truth (testing) *)

type topk_algorithm =
  | Topk_join           (* the paper's join-based top-K (Section IV) *)
  | Complete_then_sort  (* Algorithm 1 + sort, the paper's "general" *)
  | Rdil_baseline       (* RDIL [5] *)
  | Hybrid              (* Section V-D cardinality-routed choice *)

let create (doc : Xk_xml.Xml_tree.document) =
  let label = Xk_encoding.Labeling.label doc in
  { index = Xk_index.Index.build label }

let of_index index = { index }
let of_string s = create (Xk_xml.Xml_parser.parse_string_exn s)

let index t = t.index
let label t = Xk_index.Index.label t.index

(* Distinct term ids of the query keywords; [None] when a keyword does not
   occur in the corpus (the result set is empty then). *)
let resolve t words =
  let ids = List.filter_map (Xk_index.Index.term_id t.index) words in
  if List.length ids <> List.length words then None
  else
    (* Ids are ranks in byte order in every index, so id order is term
       order: the same plan, and the same float summation order, on every
       shard and on the unsharded index. *)
    Some (List.sort_uniq Int.compare ids)

let node_of_join_hit t (h : Join_query.hit) =
  match Xk_encoding.Labeling.find (label t) ~depth:h.level ~jnum:h.value with
  | Some node -> { Xk_baselines.Hit.node; score = h.score }
  | None ->
      Xk_util.Err.unreachable
        "Engine.node_of_join_hit: join hit level/jnum has no labeled node"

let query ?(semantics = Elca) ?(algorithm = Join_based) ?plan ?budget t words :
    Xk_baselines.Hit.t list =
  match resolve t words with
  | None -> []
  | Some [] -> []
  | Some ids ->
      let hits =
        match algorithm with
        | Join_based ->
            let jls =
              Array.of_list (List.map (Xk_index.Index.jlist t.index) ids)
            in
            let sem =
              match semantics with
              | Elca -> Join_query.Elca
              | Slca -> Join_query.Slca
            in
            Join_query.run ?plan ?budget jls (Xk_index.Index.damping t.index) sem
            |> List.map (node_of_join_hit t)
        | Stack_based -> (
            match semantics with
            | Elca -> Xk_baselines.Stack.elca ?budget t.index ids
            | Slca -> Xk_baselines.Stack.slca ?budget t.index ids)
        | Index_based -> (
            match semantics with
            | Elca -> Xk_baselines.Indexed.elca ?budget t.index ids
            | Slca -> Xk_baselines.Indexed.slca ?budget t.index ids)
        | Oracle -> (
            match semantics with
            | Elca -> Xk_baselines.Oracle.elca t.index ids
            | Slca -> Xk_baselines.Oracle.slca t.index ids)
      in
      Xk_baselines.Hit.sort_desc hits

(* Top-K.  All algorithms support ELCA; the join-based ones also support
   SLCA (RDIL is ELCA-only and routes SLCA requests through complete
   evaluation). *)
let query_topk ?(semantics = Elca) ?(algorithm = Topk_join) ?stats ?budget t
    words ~k : Xk_baselines.Hit.t list =
  match resolve t words with
  | None -> []
  | Some [] -> []
  | Some ids ->
      let damping = Xk_index.Index.damping t.index in
      let jls = Array.of_list (List.map (Xk_index.Index.jlist t.index) ids) in
      let slists () =
        Array.of_list (List.map (Xk_index.Index.score_list t.index) ids)
      in
      let sem =
        match semantics with Elca -> Join_query.Elca | Slca -> Join_query.Slca
      in
      let level_width l = Xk_encoding.Labeling.level_width (label t) ~depth:l in
      let complete_then_sort () =
        Join_query.run ?budget jls damping sem
        |> List.map (node_of_join_hit t)
        |> Xk_baselines.Hit.top_k k
      in
      let hits =
        match algorithm with
        | Topk_join ->
            Topk_keyword.topk ?stats ~semantics:sem ?budget (slists ()) damping
              ~k
            |> List.map (node_of_join_hit t)
        | Complete_then_sort -> complete_then_sort ()
        | Rdil_baseline -> (
            match semantics with
            | Elca -> Xk_baselines.Rdil.topk ?budget t.index ids ~k
            | Slca -> complete_then_sort ())
        | Hybrid ->
            Hybrid.topk ?stats ~semantics:sem ?budget (slists ()) damping
              ~level_width ~k
            |> List.map (node_of_join_hit t)
      in
      Xk_baselines.Hit.sort_desc hits

(* Batched requests: one self-contained query each, so heterogeneous
   workloads travel through a single batch.  [query_batch] is the
   sequential reference that the parallel service (Xk_exec) reproduces. *)

type mode = Complete of algorithm | Topk of topk_algorithm * int

type request = {
  req_words : string list;
  req_semantics : semantics;
  req_mode : mode;
  req_deadline_ms : float option;
}

let complete_request ?(semantics = Elca) ?(algorithm = Join_based) words =
  { req_words = words; req_semantics = semantics;
    req_mode = Complete algorithm; req_deadline_ms = None }

let topk_request ?(semantics = Elca) ?(algorithm = Topk_join) ~k words =
  { req_words = words; req_semantics = semantics;
    req_mode = Topk (algorithm, k); req_deadline_ms = None }

let run_request t (r : request) =
  match r.req_mode with
  | Complete algorithm ->
      query ~semantics:r.req_semantics ~algorithm t r.req_words
  | Topk (algorithm, k) ->
      query_topk ~semantics:r.req_semantics ~algorithm t r.req_words ~k

let query_batch t reqs = List.map (run_request t) reqs

(* Budget-aware dispatch.  The join-based top-K algorithms are anytime:
   an exhausted budget makes them return the confirmed prefix of the full
   top-K, reported as [Partial].  Complete evaluations (and RDIL, whose
   blocked candidates are unconfirmed) cannot return a meaningful prefix,
   so budget expiry there surfaces as [Timed_out]. *)
type run_outcome =
  | Done of Xk_baselines.Hit.t list
  | Partial of Xk_baselines.Hit.t list
  | Timed_out

let budget_of_request (r : request) =
  match r.req_deadline_ms with
  | None -> Xk_resilience.Budget.unlimited
  | Some deadline_ms -> Xk_resilience.Budget.create ~deadline_ms ()

let run_request_outcome ?budget t (r : request) =
  let budget =
    match budget with Some b -> b | None -> budget_of_request r
  in
  let anytime f =
    let hits = f () in
    if Xk_resilience.Budget.exhausted budget then Partial hits else Done hits
  in
  let complete f =
    match f () with
    | hits -> Done hits
    | exception Xk_resilience.Budget.Expired -> Timed_out
  in
  let sem = r.req_semantics in
  match r.req_mode with
  | Complete algorithm ->
      complete (fun () -> query ~semantics:sem ~algorithm ~budget t r.req_words)
  | Topk (((Topk_join | Hybrid) as algorithm), k) ->
      anytime (fun () ->
          query_topk ~semantics:sem ~algorithm ~budget t r.req_words ~k)
  | Topk (((Complete_then_sort | Rdil_baseline) as algorithm), k) ->
      complete (fun () ->
          query_topk ~semantics:sem ~algorithm ~budget t r.req_words ~k)

let element_of_hit t (h : Xk_baselines.Hit.t) =
  Xk_encoding.Labeling.element_of (label t) h.node

(* Per-keyword witness: the occurrence below the result with the best
   damped contribution (no exclusion applied - presentation, not
   semantics). *)
type witness = { keyword : string; occurrence : int; contribution : float }

let explain t words (h : Xk_baselines.Hit.t) : witness list =
  let lab = label t in
  let damping = Xk_index.Index.damping t.index in
  let u_dewey = Xk_encoding.Labeling.dewey lab h.node in
  let u_depth = Xk_encoding.Labeling.depth lab h.node in
  List.filter_map
    (fun word ->
      match Xk_index.Index.term_id t.index word with
      | None -> None
      | Some id ->
          let p = Xk_index.Index.posting t.index id in
          let lo, hi = Xk_index.Posting.subtree_range p u_dewey in
          let best = ref None in
          for r = lo to hi - 1 do
            let depth = Array.length (Xk_index.Posting.dewey p r) in
            let c =
              Xk_index.Posting.score p r
              *. Xk_score.Damping.apply damping (depth - u_depth)
            in
            match !best with
            | Some (_, bc) when bc >= c -> ()
            | _ -> best := Some (Xk_index.Posting.node p r, c)
          done;
          Option.map
            (fun (occurrence, contribution) ->
              { keyword = word; occurrence; contribution })
            !best)
    words

(* A short text snippet around each witness, for result display. *)
let snippet ?(width = 50) t words (h : Xk_baselines.Hit.t) =
  let lab = label t in
  List.filter_map
    (fun (w : witness) ->
      match Xk_encoding.Labeling.element_of lab w.occurrence with
      | None -> None
      | Some e ->
          let txt = Xk_xml.Xml_tree.text_content e in
          let txt =
            if String.length txt <= width then txt
            else begin
              (* Center the snippet on the keyword when present. *)
              let lower = String.lowercase_ascii txt in
              let kw = String.lowercase_ascii w.keyword in
              let kn = String.length kw and n = String.length lower in
              let pos = ref 0 in
              (try
                 for i = 0 to n - kn do
                   if String.sub lower i kn = kw then begin
                     pos := i;
                     raise Exit
                   end
                 done
               with Exit -> ());
              let start = max 0 (min !pos (String.length txt - width)) in
              String.sub txt start width
            end
          in
          Some (w.keyword, txt))
    (explain t words h)

let pp_hit t ppf (h : Xk_baselines.Hit.t) =
  match element_of_hit t h with
  | Some e ->
      Fmt.pf ppf "%.4f %a" h.score (Xk_xml.Xml_print.pp_element_summary ?max_text:None) e
  | None -> Fmt.pf ppf "%.4f <node %d>" h.score h.node
