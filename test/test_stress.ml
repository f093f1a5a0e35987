(* Stress tests: the core algorithms at sizes far beyond the property
   tests (hundreds of tasks), checking validity, bounds and the
   preemption theorems at scale. Marked `Slow but still seconds. *)

open Test_support
module EF = Support.EF
module SF = Mwct_solver.Solver.Float
module DF = Mwct_solver.Driver.Float
module G = Mwct_workload.Generator
module Rng = Mwct_util.Rng
module Instances = Mwct_check.Instances

let big_instance ~n ~procs seed =
  let rng = Rng.create seed in
  let draw lo hi = Rng.int_in rng lo hi in
  Support.finst (Instances.sample_sized draw ~procs ~n Instances.Uniform)

let test_greedy_wf_at_scale () =
  let n = 200 and procs = 32 in
  let inst = big_instance ~n ~procs 1 in
  let sigma = EF.Orderings.smith inst in
  let g = EF.Greedy.run inst sigma in
  Alcotest.(check bool) "greedy valid at n=200" true (EF.Schedule.is_valid g);
  let s = EF.Water_filling.normalize g in
  Alcotest.(check bool) "normal form valid at n=200" true (EF.Schedule.is_valid s);
  Alcotest.(check bool) "objective preserved" true
    (Float.abs (EF.Schedule.weighted_completion_time g -. EF.Schedule.weighted_completion_time s) < 1e-6);
  Alcotest.(check bool) "Theorem 9 at n=200" true (EF.Preemption.total_changes s <= n)

let test_wdeq_at_scale () =
  let n = 300 and procs = 24 in
  let inst = big_instance ~n ~procs 2 in
  let s = EF.Wdeq.wdeq inst in
  let d = EF.Wdeq.split s in
  Alcotest.(check bool) "WDEQ valid at n=300" true (EF.Schedule.is_valid s);
  let tc = EF.Schedule.weighted_completion_time s in
  let bound =
    2.
    *. (EF.Lower_bounds.squashed_area (EF.Instance.sub_instance inst d.EF.Wdeq.limited_volume)
       +. EF.Lower_bounds.height_bound (EF.Instance.sub_instance inst d.EF.Wdeq.full_volume))
  in
  Alcotest.(check bool) "Lemma 2 at n=300" true (tc <= bound +. 1e-6);
  Alcotest.(check bool) "above the lower bound" true (EF.Lower_bounds.best inst <= tc +. 1e-6)

let test_integerize_at_scale () =
  let n = 120 and procs = 16 in
  let inst = big_instance ~n ~procs 3 in
  let s = EF.Water_filling.normalize (EF.Greedy.run inst (EF.Orderings.smith inst)) in
  let is, wrap = EF.Integerize.of_columns s in
  Alcotest.(check bool) "wrap no overlap" true (EF.Assignment.no_overlap wrap);
  let g = EF.Assignment.assign is in
  Alcotest.(check bool) "assignment no overlap" true (EF.Assignment.no_overlap g);
  Alcotest.(check bool) "Theorem 10 at n=120" true (EF.Assignment.preemptions g <= 3 * n);
  let volumes = EF.Assignment.booked_volume g in
  Alcotest.(check bool) "volumes preserved" true
    (Array.for_all2
       (fun v (t : EF.Types.task) -> Float.abs (v -. t.EF.Types.volume) < 1e-4)
       volumes inst.EF.Types.tasks)

let test_makespan_at_scale () =
  let n = 500 and procs = 64 in
  let inst = big_instance ~n ~procs 4 in
  let t_star = EF.Makespan.optimal inst in
  let s = EF.Makespan.schedule inst in
  Alcotest.(check bool) "schedule valid at n=500" true (EF.Schedule.is_valid s);
  Alcotest.(check (float 1e-6)) "makespan achieved" t_star (EF.Schedule.makespan s)

let test_ncv_at_scale () =
  let n = 150 and procs = 16 in
  let inst = big_instance ~n ~procs 5 in
  let module Sim = Mwct_ncv.Simulator.Float in
  let rng = Rng.create 6 in
  let releases = Array.init n (fun _ -> float_of_int (Rng.dyadic rng ~den:32) /. 16.) in
  let tr = Sim.run ~releases inst Sim.P.Wdeq in
  Alcotest.(check (result unit string)) "trace valid at n=150 with arrivals" (Ok ()) (Sim.check tr)

let test_homogeneous_at_scale () =
  (* The recurrence is linear-time; exercise a large exact run. *)
  let module Q = Support.Q in
  let module EQ = Support.EQ in
  let ds = G.homogeneous_deltas (Rng.create 7) ~n:400 ~den:1024 () in
  let deltas = Array.map (fun (r : Mwct_core.Spec.rat) -> Q.of_q r.num r.den) ds in
  let order = EQ.Orderings.identity 400 in
  let gap = EQ.Homogeneous.reversal_gap deltas order in
  Alcotest.(check string) "Conjecture 13 exactly at n=400" "0" (Q.to_string gap)

let test_registry_at_scale () =
  (* Every polynomial solver in the registry, through the uniform
     driver, at n = 150: valid schedule, coherent report, objective at
     or above the lower bound. Enumerative solvers are skipped by their
     capability flag — exactly how the bench loop sizes instances. *)
  let inst = big_instance ~n:150 ~procs:16 8 in
  List.iter
    (fun (s : SF.t) ->
      if not (SF.has_cap Mwct_solver.Solver.Enumerative s) then begin
        let name = s.SF.info.Mwct_solver.Solver.name in
        let r = DF.run s inst in
        Alcotest.(check bool) (name ^ " valid at n=150") true (DF.valid r);
        Alcotest.(check (float 0.)) (name ^ " objective matches schedule")
          (EF.Schedule.weighted_completion_time r.DF.schedule)
          r.DF.objective;
        match r.DF.ratio_to_bound with
        | Some ratio -> Alcotest.(check bool) (name ^ " above the lower bound") true (ratio >= 1. -. 1e-9)
        | None -> Alcotest.fail (name ^ ": lower bound unexpectedly zero")
      end)
    SF.all

let () =
  Alcotest.run "stress"
    [
      ( "scale",
        [
          Alcotest.test_case "greedy + WF n=200" `Slow test_greedy_wf_at_scale;
          Alcotest.test_case "WDEQ n=300" `Slow test_wdeq_at_scale;
          Alcotest.test_case "integerize n=120" `Slow test_integerize_at_scale;
          Alcotest.test_case "makespan n=500" `Slow test_makespan_at_scale;
          Alcotest.test_case "ncv arrivals n=150" `Slow test_ncv_at_scale;
          Alcotest.test_case "conjecture 13 n=400 exact" `Slow test_homogeneous_at_scale;
          Alcotest.test_case "solver registry n=150" `Slow test_registry_at_scale;
        ] );
    ]
