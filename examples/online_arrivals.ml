(* Online scheduling with task arrivals: the non-clairvoyant simulator
   of lib/ncv compares WDEQ against EQUI and a weight-priority policy
   on a workload where tasks keep arriving, and against the clairvoyant
   optimal makespan (the release-dates LP).

   The last section records the same WDEQ run through the online
   runtime as a JSONL journal, reloads it with Journal.replay, and
   checks the replayed objective is identical — the runtime's
   deterministic-replay invariant, live.

   Run with:  dune exec examples/online_arrivals.exe *)

module Sim = Mwct_ncv.Simulator.Float
module E = Mwct_core.Engine.Float
module En = Mwct_runtime.Engine.Float
module J = Mwct_runtime.Journal.Float
module G = Mwct_workload.Generator
module Rng = Mwct_util.Rng
module Tablefmt = Mwct_util.Tablefmt

let () =
  let rng = Rng.create 777 in
  let n = 10 and procs = 6 in
  let spec = G.uniform rng ~procs ~n () in
  let inst = E.Instance.of_spec spec in
  (* Tasks arrive in three waves. *)
  let releases = Array.init n (fun i -> float_of_int (i / 4) *. 0.15) in
  Printf.printf "Instance: %s\n" (Mwct_core.Spec.to_string spec);
  Printf.printf "Releases: %s\n\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.2f") releases)));

  let table =
    Tablefmt.create ~title:"online policies under arrivals"
      [ "policy"; "sum w*C"; "sum w*(C-r)"; "makespan"; "trace valid" ]
  in
  Tablefmt.set_align table [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Right; Tablefmt.Left ];
  List.iter
    (fun policy ->
      let tr = Sim.run ~releases inst policy in
      Tablefmt.add_row table
        [
          Sim.P.name policy;
          Printf.sprintf "%.4f" (Sim.weighted_completion_time tr);
          Printf.sprintf "%.4f" (Sim.weighted_flow_time tr);
          Printf.sprintf "%.4f" (Sim.makespan tr);
          (match Sim.check tr with Ok () -> "yes" | Error e -> "NO: " ^ e);
        ])
    Sim.P.all;
  Tablefmt.print table;

  (* Clairvoyant reference: the optimal makespan with release dates
     (exact LP over the release columns). *)
  let t_opt = E.Release_dates.optimal_makespan inst releases in
  Printf.printf "Clairvoyant optimal makespan with these releases: %.4f\n" t_opt;
  let tr = Sim.run ~releases inst Sim.P.Wdeq in
  Printf.printf "WDEQ online/offline makespan ratio: %.4f\n" (Sim.makespan tr /. t_opt);

  (* Event log of the WDEQ run. *)
  Printf.printf "\nWDEQ event trace:\n";
  List.iter
    (fun (t, e) ->
      match e with
      | Sim.Arrival i -> Printf.printf "  %8.4f  arrival    T%d\n" t i
      | Sim.Completion i -> Printf.printf "  %8.4f  completion T%d\n" t i)
    tr.Sim.events;

  (* Record the same run through the online runtime as a JSONL journal,
     then reload and replay it: the replayed engine must land on the
     exact same objective. *)
  let path =
    if Sys.file_exists "_build" && Sys.is_directory "_build" then "_build/online.jsonl"
    else Filename.concat (Filename.get_temp_dir_name ()) "online.jsonl"
  in
  let oc = open_out path in
  let seq = ref 0 in
  let record e =
    output_string oc (J.to_line ~seq:!seq e);
    output_char oc '\n';
    incr seq
  in
  record (J.Init { capacity = float_of_int procs; policy = "wdeq" });
  let eng = En.create ~capacity:(float_of_int procs) ~policy:(Sim.P.engine_policy Sim.P.Wdeq) () in
  let apply ev =
    match En.apply eng ev with
    | Ok notes ->
      record (J.Input ev);
      List.iter (fun (nt : En.notification) -> record (J.Output { id = nt.En.id; at = nt.En.at })) notes
    | Error e -> failwith (En.error_to_string e)
  in
  Array.iteri
    (fun i r ->
      if r > En.now eng then apply (En.Advance (r -. En.now eng));
      apply
        (En.Submit
           {
             id = i;
             volume = inst.E.Types.tasks.(i).E.Types.volume;
             weight = inst.E.Types.tasks.(i).E.Types.weight;
             cap = E.Instance.effective_delta inst i;
             speedup = E.Instance.speedup_arrays inst i;
             deps = [];
           }))
    releases;
  apply En.Drain;
  close_out oc;
  Printf.printf "\nRecorded %d journal lines to %s\n" !seq path;
  let replayed =
    match J.load path with
    | Error msg -> failwith ("journal load failed: " ^ msg)
    | Ok entries -> (
      let resolve name = Option.map Sim.P.engine_policy (Sim.P.of_name name) in
      match J.replay ~resolve entries with
      | Error msg -> failwith ("journal replay failed: " ^ msg)
      | Ok eng' -> eng')
  in
  Printf.printf "Recorded sum w*C: %.6f | replayed: %.6f\n" (En.weighted_completion eng)
    (En.weighted_completion replayed);
  assert (En.weighted_completion eng = En.weighted_completion replayed);
  assert (En.dump eng = En.dump replayed);
  Printf.printf "Replay reproduced the recorded run exactly.\n"
