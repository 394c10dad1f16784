(** Public facade: build an index over an XML document and run keyword
    queries under the ELCA or SLCA semantics, complete or top-K, with any
    of the implemented algorithms. *)

type t

type semantics = Elca | Slca

type algorithm =
  | Join_based   (** Algorithm 1 - the paper's contribution *)
  | Stack_based  (** document-order stack merge (XRank / DIL style) *)
  | Index_based  (** indexed lookup baseline *)
  | Oracle       (** definitional ground truth (testing) *)

type topk_algorithm =
  | Topk_join           (** the paper's join-based top-K (Section IV) *)
  | Complete_then_sort  (** Algorithm 1 + sort - the paper's "general" *)
  | Rdil_baseline       (** RDIL (ELCA only; SLCA falls back to complete) *)
  | Hybrid              (** Section V-D cardinality-routed choice *)

val create : Xk_xml.Xml_tree.document -> t
(** Parse nothing - label and index an in-memory document. *)

val of_string : string -> t
(** Parse, label and index an XML string.  Raises {!Xk_xml.Xml_parser.Error}
    on malformed input. *)

val of_index : Xk_index.Index.t -> t
(** Wrap a prebuilt (e.g. reloaded) index. *)

val index : t -> Xk_index.Index.t
val label : t -> Xk_encoding.Labeling.t

val query :
  ?semantics:semantics ->
  ?algorithm:algorithm ->
  ?plan:Level_join.plan ->
  ?budget:Xk_resilience.Budget.t ->
  t ->
  string list ->
  Xk_baselines.Hit.t list
(** Complete result set, best score first.  Unknown keywords yield an empty
    result; duplicate keywords collapse; matching is case-insensitive.
    All algorithms except [Oracle] poll [budget] in their hot loops and
    raise [Xk_resilience.Budget.Expired] on expiry (a complete result set
    has no meaningful prefix). *)

val query_topk :
  ?semantics:semantics ->
  ?algorithm:topk_algorithm ->
  ?stats:Topk_keyword.stats ->
  ?budget:Xk_resilience.Budget.t ->
  t ->
  string list ->
  k:int ->
  Xk_baselines.Hit.t list
(** The K best results, best first.  [Topk_join] and [Hybrid] are anytime:
    on budget expiry they return the confirmed results emitted so far — a
    prefix of the full top-K — without raising.  [Complete_then_sort] and
    [Rdil_baseline] raise [Xk_resilience.Budget.Expired] instead. *)

(** {1 Batched requests}

    A [request] is one self-contained query — keywords, semantics and
    evaluation mode — so heterogeneous workloads (complete and top-K,
    ELCA and SLCA, any algorithm) can travel through one batch. *)

type mode =
  | Complete of algorithm
  | Topk of topk_algorithm * int  (** algorithm and K *)

type request = {
  req_words : string list;
  req_semantics : semantics;
  req_mode : mode;
  req_deadline_ms : float option;
      (** wall-clock budget for this request; [None] = unlimited *)
}

val complete_request :
  ?semantics:semantics ->
  ?algorithm:algorithm ->
  string list ->
  request
(** Defaults: ELCA, join-based, no deadline. *)

val topk_request :
  ?semantics:semantics ->
  ?algorithm:topk_algorithm ->
  k:int ->
  string list ->
  request
(** Defaults: ELCA, the paper's join-based top-K, no deadline. *)

val run_request : t -> request -> Xk_baselines.Hit.t list
(** Dispatch one request through {!query} or {!query_topk}, ignoring
    [req_deadline_ms] — the unbudgeted sequential reference. *)

(** {2 Budget-aware dispatch} *)

type run_outcome =
  | Done of Xk_baselines.Hit.t list  (** ran to completion *)
  | Partial of Xk_baselines.Hit.t list
      (** budget expired mid-run; the hits are the confirmed prefix of the
          full top-K (anytime algorithms only) *)
  | Timed_out
      (** budget expired and the algorithm cannot return a partial result *)

val run_request_outcome :
  ?budget:Xk_resilience.Budget.t -> t -> request -> run_outcome
(** Run one request under a budget ([budget] overrides the one implied by
    [req_deadline_ms]).  Top-K via [Topk_join] or [Hybrid] degrades to
    [Partial]; all other modes report [Timed_out] on expiry. *)

val query_batch : t -> request list -> Xk_baselines.Hit.t list list
(** Sequential batch evaluation, one result list per request in order —
    the reference semantics that [Xk_exec.Shard_exec] must reproduce
    when it executes the same batch on a domain pool. *)

val element_of_hit : t -> Xk_baselines.Hit.t -> Xk_xml.Xml_tree.element option
(** The element to present for a result (a text-node result maps to its
    parent element). *)

type witness = {
  keyword : string;
  occurrence : int;  (** node index of the contributing occurrence *)
  contribution : float;  (** its damped local score *)
}

val explain : t -> string list -> Xk_baselines.Hit.t -> witness list
(** Per query keyword, the best-contributing occurrence below the result
    (presentation aid; no ELCA exclusion applied). *)

val snippet :
  ?width:int -> t -> string list -> Xk_baselines.Hit.t -> (string * string) list
(** Per keyword, a text snippet around its witness. *)

val pp_hit : t -> Format.formatter -> Xk_baselines.Hit.t -> unit
(** One-line rendering: score, tag and truncated text content. *)
