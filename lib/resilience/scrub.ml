(* Background replica scrubbing: walk a manifest's replica files and
   re-validate each copy through an injected verifier.

   The walk is sliced: after every [slice] files the scrubber sleeps
   [throttle_ms], so a scrub pass trickles along without saturating the
   IO path that serving depends on, and the budget is polled before
   every file so a deadline (or cancellation from the serving side)
   stops the pass at a file boundary.  The verifier is injected rather
   than imported — the index layer passes [Index_io.verify], keeping
   this module free of a dependency cycle and letting tests substitute
   arbitrary classifiers. *)

type status = Clean | Damaged of string | Missing

type entry = {
  e_shard : int;
  e_replica : int;
  e_file : string;
  e_status : status;
}

type report = {
  entries : entry list;
  scanned : int;
  clean : int;
  damaged : int;
  missing : int;
  complete : bool;
}

let healthy r = r.complete && r.damaged = 0 && r.missing = 0
let needs_repair r = List.filter (fun e -> e.e_status <> Clean) r.entries

let summary_line r =
  Printf.sprintf "scrub: %d scanned, %d clean, %d damaged, %d missing%s"
    r.scanned r.clean r.damaged r.missing
    (if r.complete then "" else " (budget expired; pass incomplete)")

exception Budget_stop

let default_sleep ms = if ms > 0. then Unix.sleepf (ms /. 1000.)

let run ?(budget = Budget.unlimited) ?(slice = 4) ?(throttle_ms = 0.)
    ?(sleep = default_sleep) ~verify files =
  if slice < 1 then Xk_util.Err.invalid "Scrub.run: slice < 1";
  let entries = ref [] in
  let clean = ref 0 and damaged = ref 0 and missing = ref 0 in
  let in_slice = ref 0 in
  let complete = ref true in
  (try
     Array.iteri
       (fun s replicas ->
         Array.iteri
           (fun r file ->
             if not (Budget.alive budget) then begin
               complete := false;
               raise Budget_stop
             end;
             if !in_slice >= slice then begin
               sleep throttle_ms;
               in_slice := 0
             end;
             incr in_slice;
             let st =
               if not (Sys.file_exists file) then Missing
               else
                 match verify file with
                 | Ok () -> Clean
                 | Error msg -> Damaged msg
             in
             (match st with
             | Clean -> incr clean
             | Damaged _ -> incr damaged
             | Missing -> incr missing);
             entries :=
               { e_shard = s; e_replica = r; e_file = file; e_status = st }
               :: !entries)
           replicas)
       files
   with Budget_stop -> ());
  let entries = List.rev !entries in
  {
    entries;
    scanned = List.length entries;
    clean = !clean;
    damaged = !damaged;
    missing = !missing;
    complete = !complete;
  }
