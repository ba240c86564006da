(* Child-process lifecycle: the [hyperbench serve] daemon and the
   campaign child. Every child is registered until it has been waited
   for; an exit handler kills and reaps whatever is left, so the
   benchmark never leaves a process behind, also when a check fails. *)

let live : int list ref = ref []

let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* A signal ends the run through [exit], so the exit handler still reaps
   the children. *)
let () =
  at_exit reap_all;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ]

let forget pid = live := List.filter (( <> ) pid) !live

(* The child environment: the parent's, minus the program's HB_* knobs,
   so nothing in the caller's environment changes what is measured. *)
let env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv > 3 && String.sub kv 0 3 = "HB_"))
       (Array.to_list (Unix.environment ())))

let spawn prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) (env ()) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  live := pid :: !live;
  (pid, Unix.in_channel_of_descr rd)

let wait_exit pid =
  let _, st = Unix.waitpid [] pid in
  forget pid;
  st

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* VmHWM of a live process, in MB (Linux). *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let hyperbench = "_build/default/bin/hyperbench.exe"

type daemon = { pid : int; port : int; out : in_channel; started_s : float }

(* Spawn [hyperbench serve -p 0 -j 2 [--cache dir]] and read the bound port
   from its startup line; [started_s] is the time from spawn until that
   line arrived. *)
let start ?cache () =
  let t0 = Unix.gettimeofday () in
  let pid, out =
    spawn hyperbench
      ([ "serve"; "-p"; "0"; "-j"; "2" ] @ match cache with Some d -> [ "--cache"; d ] | None -> [])
  in
  let line = try input_line out with End_of_file -> "" in
  let started_s = Unix.gettimeofday () -. t0 in
  match Scanf.sscanf line "hyperbenchd listening on http://%[^:]:%d" (fun _ p -> p) with
  | port -> { pid; port; out; started_s }
  | exception _ -> failwith (Printf.sprintf "daemon startup line not understood: %S" line)

(* SIGTERM, then insist on a clean drain: exit status 0. *)
let stop d =
  Unix.kill d.pid Sys.sigterm;
  let st = wait_exit d.pid in
  close_in_noerr d.out;
  if st <> Unix.WEXITED 0 then
    failwith ("daemon did not exit cleanly on SIGTERM: " ^ describe st)
