let default_sleep ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

module Jitter = struct
  (* Decorrelated jitter (min(cap, uniform(base, 3 * prev))): each delay
     is drawn from a range anchored on the previous one, so a cohort of
     restarting clients spreads out instead of thundering back in
     lockstep.  The generator is a tiny xorshift seeded explicitly -
     deterministic under test, distinct across supervisor instances. *)

  type t = { mutable rng : int }

  let create ?(seed = 0x2545F49) () =
    (* A zero state would be a fixed point of xorshift; [lor 1] rules it
       out for every seed. *)
    { rng = (seed lxor 0x9E3779B9) lor 1 }

  let uniform t =
    let x = t.rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    t.rng <- x;
    float_of_int (x land 0xFFFFFF) /. 16777216.0

  let next t ~base_ms ~cap_ms ~prev_ms =
    let base = Float.max 0. base_ms in
    let hi = Float.max base (prev_ms *. 3.) in
    Float.min cap_ms (base +. ((hi -. base) *. uniform t))
end

let with_backoff_info ?(retries = 4) ?(backoff_ms = 1.0)
    ?(sleep = default_sleep) ~retryable f =
  let rec go attempt delay =
    match f () with
    | Ok _ as ok -> (ok, attempt + 1)
    | Error e when attempt < retries && retryable e ->
        sleep delay;
        go (attempt + 1) (delay *. 2.)
    | Error _ as err -> (err, attempt + 1)
  in
  go 0 backoff_ms
