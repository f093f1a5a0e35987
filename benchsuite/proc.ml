(* Driving the mwct binary: one-shot runs timed from spawn to exit with
   peak resident memory polled from /proc, and the client that measures
   how long serve takes to answer. *)

let now = Unix.gettimeofday

(* High-water resident set of a live process, in KiB. *)
let vmhwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> None
          | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" -> (
            try Some (Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id)
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
          | _ -> scan ()
        in
        scan ())

(* CPU time the hypervisor gave to other guests ("steal" in /proc/stat),
   summed over CPUs, in seconds at Linux's 100 ticks per second. A run
   with steal reads slow for reasons outside the program. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        match List.filter (( <> ) "") (String.split_on_char ' ' (input_line ic)) with
        | "cpu" :: fields when List.length fields >= 8 ->
          Option.value ~default:0. (float_of_string_opt (List.nth fields 7)) /. 100.
        | _ -> 0.
        | exception End_of_file -> 0.)

let rec restart_on_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

type run = { wall_s : float; peak_rss_kb : int; exit_code : int }

let exit_code = function Unix.WEXITED c -> c | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

let open_w p = Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644

(* Run [argv] with stdout and stderr redirected to files. With
   [~poll_rss] the process is polled every 2 ms for its high-water RSS
   (VmHWM only grows, so the last read before exit is the peak up to
   one poll interval); without it the wait blocks, so short runs are
   timed to the microsecond. *)
let run ?(poll_rss = false) ~out ~err argv : run =
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let fd_out = open_w out and fd_err = open_w err in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv fd_in fd_out fd_err in
  List.iter Unix.close [ fd_in; fd_out; fd_err ];
  let peak = ref 0 in
  let rec wait () =
    if not poll_rss then restart_on_eintr (fun () -> Unix.waitpid [] pid)
    else
      match restart_on_eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
      | 0, _ ->
        (match vmhwm_kb pid with Some kb -> peak := max !peak kb | None -> ());
        Unix.sleepf 0.002;
        wait ()
      | r -> r
  in
  let _, status = wait () in
  { wall_s = now () -. t0; peak_rss_kb = !peak; exit_code = exit_code status }

(* ---------- the serve client ---------- *)

type client = {
  latencies_ms : float array;  (** one per answered request *)
  errors : int;  (** serve error lines *)
  final_metrics : string option;  (** the metrics line serve prints at end of input *)
  client_exit : int;
}

let is_metrics l = String.length l > 18 && String.sub l 0 18 = "{\"type\":\"metrics\","
let is_error l = String.length l > 16 && String.sub l 0 16 = "{\"type\":\"error\","

(* Lines from a file descriptor; [None] at end of file. *)
let line_reader fd =
  let buf = Bytes.create 65536 and pos = ref 0 and len = ref 0 in
  let partial = Buffer.create 256 in
  let rec next () =
    if !pos < !len then begin
      match Bytes.index_from_opt buf !pos '\n' with
      | Some i when i < !len ->
        Buffer.add_subbytes partial buf !pos (i - !pos);
        pos := i + 1;
        let l = Buffer.contents partial in
        Buffer.clear partial;
        Some l
      | _ ->
        Buffer.add_subbytes partial buf !pos (!len - !pos);
        pos := !len;
        next ()
    end
    else begin
      let n = restart_on_eintr (fun () -> Unix.read fd buf 0 (Bytes.length buf)) in
      pos := 0;
      len := n;
      if n > 0 then next ()
      else if Buffer.length partial > 0 then begin
        let l = Buffer.contents partial in
        Buffer.clear partial;
        Some l
      end
      else None
    end
  in
  next

(* One client drives serve over its stdin and stdout in a closed loop:
   it writes [batch] events of the journal [lines] ([lines.(0)] is the
   init line) followed by a text [metrics] probe, waits for the metrics
   line that answers it, then sends the next batch. A request's latency
   runs from writing its batch to reading the answer. At the end of the
   stream stdin closes and serve prints its final metrics line. *)
let closed_loop ~err ~batch (lines : string array) argv : client =
  let rd_out, wr_out = Unix.pipe ~cloexec:true () in
  let rd_in, wr_in = Unix.pipe ~cloexec:true () in
  let fd_err = open_w err in
  let pid = Unix.create_process argv.(0) argv rd_in wr_out fd_err in
  List.iter Unix.close [ rd_in; wr_out; fd_err ];
  let next_line = line_reader rd_out in
  let errors = ref 0 and final = ref None and alive = ref true in
  let write s =
    let rec go off =
      if off < String.length s then go (off + restart_on_eintr (fun () -> Unix.write_substring wr_in s off (String.length s - off)))
    in
    try go 0 with Unix.Unix_error (Unix.EPIPE, _, _) -> alive := false
  in
  (* read up to the next metrics line; false once serve has closed its output *)
  let rec await () =
    match next_line () with
    | None -> false
    | Some l when is_metrics l ->
      final := Some l;
      true
    | Some l ->
      if is_error l then incr errors;
      await ()
  in
  let n = Array.length lines - 1 in
  let lat = Array.make ((n / batch) + 1) 0. and answered = ref 0 in
  write (lines.(0) ^ "\n");
  let b = Buffer.create 8192 in
  let i = ref 1 in
  while !alive && !i <= n do
    Buffer.clear b;
    let last = min n (!i + batch - 1) in
    for k = !i to last do
      Buffer.add_string b lines.(k);
      Buffer.add_char b '\n'
    done;
    Buffer.add_string b "metrics\n";
    let t0 = now () in
    write (Buffer.contents b);
    if !alive && await () then begin
      lat.(!answered) <- (now () -. t0) *. 1e3;
      incr answered
    end
    else alive := false;
    i := last + 1
  done;
  Unix.close wr_in;
  while await () do
    ()
  done;
  Unix.close rd_out;
  let _, status = restart_on_eintr (fun () -> Unix.waitpid [] pid) in
  { latencies_ms = Array.sub lat 0 !answered; errors = !errors; final_metrics = !final; client_exit = exit_code status }
