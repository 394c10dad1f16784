(* Per-replica health: a fixed-size ring of the most recent observations
   (ok flag + latency).  All state lives behind one [Sync.Protected]
   value; recording is O(1) and [score] folds the live window, so the
   router can rank replicas on every request without bookkeeping. *)

type obs = { ok : bool; latency_ms : float }

type state = {
  window : obs option array;
  mutable next : int; (* ring cursor *)
}

type t = state Xk_util.Sync.Protected.t

let window_size = 32

let create () =
  Xk_util.Sync.Protected.create
    { window = Array.make window_size None; next = 0 }

let record t ~ok ~latency_ms =
  Xk_util.Sync.Protected.with_ t (fun st ->
      st.window.(st.next) <- Some { ok; latency_ms };
      st.next <- (st.next + 1) mod Array.length st.window)

let score t =
  Xk_util.Sync.Protected.with_ t (fun st ->
      let n = ref 0 and successes = ref 0 and lat = ref 0.0 in
      Array.iter
        (function
          | None -> ()
          | Some o ->
              incr n;
              if o.ok then incr successes;
              lat := !lat +. o.latency_ms)
        st.window;
      let success_rate, mean_latency_ms =
        if !n = 0 then (1.0, 0.0)
        else
          let n = float_of_int !n in
          (float_of_int !successes /. n, !lat /. n)
      in
      (* Success rate dominates; among equals, lower latency ranks higher.
         The latency term is squashed into [0, 0.001) so it can never
         outvote a single success-rate difference over a 32-wide window. *)
      success_rate +. (0.001 /. (1.0 +. mean_latency_ms)))
