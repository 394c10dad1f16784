(* Per-replica health: a fixed-size ring of the most recent observations
   (ok flag + latency).  All state lives behind one [Sync.Protected]
   value; recording is O(1) and snapshots fold the live window, so the
   router can rank replicas on every request without bookkeeping. *)

type obs = { ok : bool; latency_ms : float }

type state = {
  window : obs option array;
  mutable next : int; (* ring cursor *)
  mutable seen : int; (* total observations ever *)
}

type t = state Xk_util.Sync.Protected.t

type snapshot = {
  observations : int;
  window_size : int;
  successes : int;
  failures : int;
  success_rate : float;
  mean_latency_ms : float;
}

let window_size = 32

let create () =
  Xk_util.Sync.Protected.create
    { window = Array.make window_size None; next = 0; seen = 0 }

let record t ~ok ~latency_ms =
  Xk_util.Sync.Protected.with_ t (fun st ->
      st.window.(st.next) <- Some { ok; latency_ms };
      st.next <- (st.next + 1) mod Array.length st.window;
      st.seen <- st.seen + 1)

let snapshot t =
  Xk_util.Sync.Protected.with_ t (fun st ->
      let successes = ref 0 and failures = ref 0 and lat = ref 0.0 in
      Array.iter
        (function
          | None -> ()
          | Some o ->
              if o.ok then incr successes else incr failures;
              lat := !lat +. o.latency_ms)
        st.window;
      let n = !successes + !failures in
      {
        observations = st.seen;
        window_size = Array.length st.window;
        successes = !successes;
        failures = !failures;
        success_rate =
          (if n = 0 then 1.0 else float_of_int !successes /. float_of_int n);
        mean_latency_ms = (if n = 0 then 0.0 else !lat /. float_of_int n);
      })

let score t =
  let s = snapshot t in
  (* Success rate dominates; among equals, lower latency ranks higher.
     The latency term is squashed into [0, 0.001) so it can never
     outvote a single success-rate difference over a 32-wide window. *)
  s.success_rate +. (0.001 /. (1.0 +. s.mean_latency_ms))
