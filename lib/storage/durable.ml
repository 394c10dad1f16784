(* Durable write primitives.  The policy lives here so every segment,
   manifest and WAL writer follows the same sequence: write the temp
   file, fsync it, rename, fsync the directory.  fsync failures on
   descriptors that cannot be synced (pipes in tests, filesystems
   without directory sync) are swallowed — durability hardening must
   not turn a completed write into an error. *)

let issued = Atomic.make 0
let fsyncs () = Atomic.get issued

let fsync_fd fd =
  Atomic.incr issued;
  try Unix.fsync fd with Unix.Unix_error _ -> ()

let fsync_out_channel oc =
  flush oc;
  fsync_fd (Unix.descr_of_out_channel oc)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> fsync_fd fd)

let fsync_file path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> fsync_fd fd)

let write_atomically ?(fsync = true) path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     write oc;
     if fsync then fsync_out_channel oc;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  if fsync then fsync_dir (Filename.dirname path)

let write_string_atomically ?fsync path data =
  write_atomically ?fsync path (fun oc -> output_string oc data)
