(* Replica repair: turn a scrub report back into full replication.

   Every damaged or missing copy is rewritten from a surviving clean
   copy of the same shard (byte-for-byte), or rebuilt from an in-memory
   index (the Live store's sealed generations, or a freshly partitioned
   corpus) when no clean copy survives.  Publication is the same
   recipe the original save used: Durable.write_*_atomically stages the
   bytes in a temp file, fsyncs, renames into place and fsyncs the
   directory, so a concurrent reader either maps the old inode (which
   its open mapping keeps alive and consistent) or the complete healed
   file — never a torn mixture.  Every heal is verified after the write
   through the same full Index_io.verify the scrubber uses; a copy that
   does not read back clean is reported Unrepairable, never silently
   trusted.  Within one repair pass a freshly healed copy immediately
   counts as a source for the next damaged copy of its shard. *)

type copy = { r_shard : int; r_replica : int; r_file : string }
type source = From_replica of string | Rebuilt

type outcome =
  | Repaired of { copy : copy; source : source }
  | Unrepairable of { copy : copy; reason : string }

type summary = { outcomes : outcome list; repaired : int; unrepairable : int }

let outcome_copy = function
  | Repaired { copy; _ } | Unrepairable { copy; _ } -> copy

let outcome_line o =
  let c = outcome_copy o in
  match o with
  | Repaired { source = From_replica src; _ } ->
      Printf.sprintf "repaired s%dr%d %s from %s" c.r_shard c.r_replica
        c.r_file (Filename.basename src)
  | Repaired { source = Rebuilt; _ } ->
      Printf.sprintf "repaired s%dr%d %s (rebuilt)" c.r_shard c.r_replica
        c.r_file
  | Unrepairable { reason; _ } ->
      Printf.sprintf "unrepairable s%dr%d %s: %s" c.r_shard c.r_replica
        c.r_file reason

let verify_to_result ?retries ?backoff_ms file =
  match Index_io.verify ?retries ?backoff_ms file with
  | Ok () -> Ok ()
  | Error e -> Error (Index_io.load_error_message e)

let scrub ?budget ?slice ?throttle_ms ?retries ?backoff_ms path =
  match Shard_io.replica_files path with
  | Error _ as e -> e
  | Ok files ->
      Ok
        (Xk_resilience.Scrub.run ?budget ?slice ?throttle_ms
           ~verify:(verify_to_result ?retries ?backoff_ms)
           files)

(* Rewrite [target]: clear any injected-fault marks first (the simulated
   media is being replaced), publish atomically, then verify the healed
   copy end to end before claiming success. *)
let heal_copy ?retries ?backoff_ms ~write target =
  Xk_resilience.Chaos.heal ~path:target;
  match write target with
  | exception exn -> Error (Printexc.to_string exn)
  | () -> (
      match verify_to_result ?retries ?backoff_ms target with
      | Ok () -> Ok ()
      | Error msg -> Error ("post-write verify failed: " ^ msg))

let repair ?rebuild ?retries ?backoff_ms (report : Xk_resilience.Scrub.report)
    =
  (* Clean copies per shard, kept current as heals land: a copy healed
     early in the pass can source later heals of its shard. *)
  let clean = Hashtbl.create 8 in
  List.iter
    (fun (e : Xk_resilience.Scrub.entry) ->
      if e.e_status = Xk_resilience.Scrub.Clean then
        Hashtbl.replace clean e.e_shard
          (e.e_file
          :: Option.value (Hashtbl.find_opt clean e.e_shard) ~default:[]))
    report.entries;
  let heal_one (e : Xk_resilience.Scrub.entry) =
    let copy = { r_shard = e.e_shard; r_replica = e.e_replica; r_file = e.e_file } in
    let finish source = function
      | Ok () ->
          Hashtbl.replace clean e.e_shard
            (e.e_file
            :: Option.value (Hashtbl.find_opt clean e.e_shard) ~default:[]);
          Repaired { copy; source }
      | Error reason -> Unrepairable { copy; reason }
    in
    (* The first source whose map verifies now, not at scrub time: the
       bytes written are the ones that passed. *)
    let source =
      Option.value (Hashtbl.find_opt clean e.e_shard) ~default:[]
      |> List.find_map (fun src ->
             if src = e.e_file then None
             else
               Index_io.read_verified ?retries ?backoff_ms src
               |> Result.to_option
               |> Option.map (fun bytes -> (src, bytes)))
    in
    match source with
    | Some (src, bytes) ->
        heal_copy ?retries ?backoff_ms
          ~write:(fun target ->
            Xk_storage.Durable.write_string_atomically target bytes)
          e.e_file
        |> finish (From_replica src)
    | None -> (
        match rebuild with
        | None ->
            Unrepairable { copy; reason = "no clean replica to copy from" }
        | Some make -> (
            match make ~shard:e.e_shard with
            | None ->
                Unrepairable
                  { copy; reason = "no clean replica and no rebuild source" }
            | Some idx ->
                heal_copy ?retries ?backoff_ms
                  ~write:(fun target -> Index_io.save idx target)
                  e.e_file
                |> finish Rebuilt))
  in
  let outcomes =
    List.map heal_one (Xk_resilience.Scrub.needs_repair report)
  in
  let repaired =
    List.length
      (List.filter (function Repaired _ -> true | _ -> false) outcomes)
  in
  {
    outcomes;
    repaired;
    unrepairable = List.length outcomes - repaired;
  }

let summary_line (r : summary) =
  Printf.sprintf "repair: %d repaired, %d unrepairable" r.repaired
    r.unrepairable
