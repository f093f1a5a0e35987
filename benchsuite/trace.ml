(* In-memory span recorder for the traced run. The benchmark wraps its
   own calls into each layer (and the closures it hands to the library)
   in spans; each span stores its name, start, end, parent span and the
   input event it served. Spans stay in flat arrays until the run ends,
   then are summarised and written out. *)

type t = {
  names : string array;  (* span name table, indexed by [name] ids *)
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable event : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable open_ : int list;  (* stack of open spans; the head is the current parent *)
  mutable cur_event : int;
}

let create names =
  let cap = 1024 in
  {
    names;
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    event = Array.make cap 0;
    t0 = Array.make cap 0.;
    t1 = Array.make cap 0.;
    open_ = [];
    cur_event = -1;
  }

let id tr name =
  let rec find i =
    if i >= Array.length tr.names then invalid_arg ("Trace.id: unknown span " ^ name)
    else if tr.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let set_event tr e = tr.cur_event <- e

let grow tr =
  let cap = 2 * Array.length tr.name in
  let g a z = let b = Array.make cap z in Array.blit a 0 b 0 tr.n; b in
  tr.name <- g tr.name 0;
  tr.parent <- g tr.parent 0;
  tr.event <- g tr.event 0;
  tr.t0 <- g tr.t0 0.;
  tr.t1 <- g tr.t1 0.

let start tr name =
  if tr.n = Array.length tr.name then grow tr;
  let i = tr.n in
  tr.n <- i + 1;
  tr.name.(i) <- name;
  tr.parent.(i) <- (match tr.open_ with p :: _ -> p | [] -> -1);
  tr.event.(i) <- tr.cur_event;
  tr.open_ <- i :: tr.open_;
  tr.t0.(i) <- Unix.gettimeofday ();
  i

let stop tr i =
  tr.t1.(i) <- Unix.gettimeofday ();
  match tr.open_ with
  | j :: rest when j = i -> tr.open_ <- rest
  | _ -> invalid_arg "Trace.stop: spans must nest"

(* [span tr name f] runs [f] inside a span named by the id [name]; with
   no tracer it is a plain call, so the untraced pass runs the same
   code. An exception from [f] ends the run, so it needs no cleanup. *)
let span tr name f =
  match tr with
  | None -> f ()
  | Some tr ->
    let s = start tr name in
    let r = f () in
    stop tr s;
    r

type summary = {
  busy : float array;  (* per name: total span duration *)
  self : float array;  (* per name: duration minus time covered by child spans *)
}

let summarise tr =
  let k = Array.length tr.names in
  let child = Array.make tr.n 0. in
  for i = 0 to tr.n - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (tr.t1.(i) -. tr.t0.(i))
  done;
  let busy = Array.make k 0. and self = Array.make k 0. in
  for i = 0 to tr.n - 1 do
    let d = tr.t1.(i) -. tr.t0.(i) in
    let nm = tr.name.(i) in
    busy.(nm) <- busy.(nm) +. d;
    self.(nm) <- self.(nm) +. (d -. child.(i))
  done;
  { busy; self }

let busy tr s name = s.busy.(id tr name)
let self tr s name = s.self.(id tr name)

(* One span per line: name, start and end (seconds from the first
   span), parent span index, input event. *)
let write tr path =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc "#span\tname\tstart_s\tend_s\tparent\tevent\n";
      let base = if tr.n > 0 then tr.t0.(0) else 0. in
      for i = 0 to tr.n - 1 do
        Printf.fprintf oc "%d\t%s\t%.6f\t%.6f\t%d\t%d\n" i tr.names.(tr.name.(i)) (tr.t0.(i) -. base)
          (tr.t1.(i) -. base) tr.parent.(i) tr.event.(i)
      done)
