(* The `ormp serve --jobs 1` daemon as a separate process, and the serve
   phase that streams recorded events through it with
   {!Ormp_server.Client.run_session}, one session at a time. *)

module Client = Ormp_server.Client

type t = { pid : int; socket : string; root : string }

(* Data frames carry at most this many accesses (the client's chunk
   capacity); the daemon acks every [ack_every] data frames. *)
let frame_capacity = Ormp_trace.Batch.default_capacity
let ack_every = 4

(* Daemons started and not yet stopped, for {!kill_all}. *)
let running = ref []

let start ~ormp ~socket ~root ~log =
  (try Sys.remove socket with Sys_error _ -> ());
  Offline.mkdirs root;
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process ormp
      [| ormp; "serve"; "--socket"; socket; "--root"; root; "--jobs"; "1"; "--quiet" |]
      null out out
  in
  Unix.close null;
  Unix.close out;
  let t = { pid; socket; root } in
  running := t :: !running;
  (* Ready once it answers a stats request over the socket. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Client.fetch_stats ~socket ~io_timeout_s:1.0 () with
    | Ok _ -> Ok t
    | Error e -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Error ("daemon not ready: " ^ e)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
      | _ -> Error (Printf.sprintf "daemon exited before serving (see %s)" log))
  in
  wait ()

(* Peak resident set of a process so far, from its /proc status. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.value ~default:acc (int_of_string_opt kb)
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' s)

(* SIGTERM drains and exits 0; a daemon that does not is killed. *)
let stop t =
  running := List.filter (fun d -> d.pid <> t.pid) !running;
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid);
        false
      end
      else begin
        Unix.sleepf 0.005;
        reap ()
      end
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  reap ()

(* Stream one recorded program as session [token]. *)
let session t ~token (r : Suite.recorded) =
  let retry = { Client.default_retry with Client.attempts = 3 } in
  Client.run_session ~socket:t.socket ~token ~workload:r.Suite.prog.Suite.name
    ~events:r.Suite.events ~ack_every ~retry ()

let kill_all () = List.iter (fun t -> ignore (stop t)) !running

let session_dir t token = Filename.concat (Filename.concat t.root "sessions") token

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
