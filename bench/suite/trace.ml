(* Spans recorded by the harness around its calls into each layer.

   A span has a name, monotonic start and stop times, the span that was
   open when it started (its parent), and the request it belongs to.
   Spans stay in memory until the run ends.  A recorder made with
   [~enabled:false] runs the wrapped call and records nothing, so set-up
   code is written once for the traced and the untraced run. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a top-level span *)
  rid : int;  (** request id; negative outside requests (set-up) *)
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

type t = {
  enabled : bool;
  mutable spans : span list;  (** most recently closed first *)
  mutable next_id : int;
  mutable open_ : int list;
  mutable rid : int;
}

let now_ns () = Monotonic_clock.now ()
let ms_between a b = Int64.to_float (Int64.sub b a) /. 1e6

let create ~enabled () =
  { enabled; spans = []; next_id = 0; open_ = []; rid = -1 }

let set_request t rid = t.rid <- rid

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let outer = t.open_ in
    t.open_ <- id :: outer;
    let start_ns = now_ns () in
    let close () =
      t.spans <-
        { id; parent; rid = t.rid; name; start_ns; stop_ns = now_ns () } :: t.spans;
      t.open_ <- outer
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let spans t = List.rev t.spans

let duration_ns s = Int64.sub s.stop_ns s.start_ns

(* Duration of the span that closed last, or 0 when disabled. *)
let last_ms t =
  match t.spans with s :: _ -> Int64.to_float (duration_ns s) /. 1e6 | [] -> 0.

(* Self time: the span's duration minus the part of its interval that its
   children cover.  Children are clipped to the parent and their union
   is taken, so overlapping children are not subtracted twice. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (max c.start_ns s.start_ns, min c.stop_ns s.stop_ns))
        |> List.filter (fun (a, b) -> Int64.compare a b < 0)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if Int64.compare a b >= 0 then (acc, reach)
            else (Int64.add acc (Int64.sub b a), b))
          (0L, Int64.min_int) kids
      in
      (s, Int64.sub (duration_ns s) covered))
    spans

type totals = {
  calls : int;
  requests : int;  (** distinct request ids among the spans *)
  self_ms : float;
  total_ms : float;
}

(* Per span name: call count, distinct requests, summed self time and
   summed duration. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let calls, rids, self_ns, dur_ns =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None -> (0, Hashtbl.create 64, 0L, 0L)
      in
      Hashtbl.replace rids s.rid ();
      Hashtbl.replace tbl s.name
        (calls + 1, rids, Int64.add self_ns self, Int64.add dur_ns (duration_ns s)))
    (self_times spans);
  Hashtbl.fold
    (fun name (calls, rids, self_ns, dur_ns) acc ->
      ( name,
        {
          calls;
          requests = Hashtbl.length rids;
          self_ms = Int64.to_float self_ns /. 1e6;
          total_ms = Int64.to_float dur_ns /. 1e6;
        } )
      :: acc)
    tbl []
  |> List.sort compare

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\trid\tname\tstart_ns\tstop_ns\tself_ns\n";
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\t%Ld\n" s.id s.parent s.rid
        s.name s.start_ns s.stop_ns self)
    (self_times (spans t));
  close_out oc
