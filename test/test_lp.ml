(* Tests for the Corollary-1 LP machinery: schedule reconstruction,
   optimality sandwiching (bounds <= OPT <= heuristics), exact/float
   agreement, and cross-validation of the enumeration. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module Rng = Mwct_util.Rng

let f = Alcotest.(check (float 1e-6))

(* Single task: optimum is height V/delta, schedule saturates. *)
let test_lp_single_task () =
  let inst = Support.finst (Support.uspec ~procs:4 [ ((8, 1), 2) ]) in
  let obj, s = EF.Lp_schedule.optimal inst in
  f "objective = V/delta" 4. obj;
  Alcotest.(check bool) "schedule valid" true (EF.Schedule.is_valid s)

(* Two unit tasks, P=1, delta=1: optimum is 1 + 2 = 3 (sequential). *)
let test_lp_sequential () =
  let inst = Support.finst (Support.uspec ~procs:1 [ ((1, 1), 1); ((1, 1), 1) ]) in
  let obj, s = EF.Lp_schedule.optimal inst in
  f "objective" 3. obj;
  Alcotest.(check bool) "schedule valid" true (EF.Schedule.is_valid s)

(* Weighted Smith case with delta = P: heavy-weight task first.
   P=1, T0 (V=1, w=1), T1 (V=1, w=10): optimal = run T1 first:
   1*10 + 2*1 = 12 (versus 1 + 2*10 = 21). *)
let test_lp_weights_matter () =
  let inst = Support.finst (Support.spec ~procs:1 [ ((1, 1), (1, 1), 1); ((1, 1), (10, 1), 1) ]) in
  let obj, _ = EF.Lp_schedule.optimal inst in
  f "objective" 12. obj

(* Exact optimum on a known fractional case: P=2, two tasks V=1,
   delta=1, and one wide task V=2, delta=2, all weight 1.
   (Checks the exact engine end-to-end through the LP.) *)
let test_lp_exact_small () =
  let inst = Support.qinst (Support.uspec ~procs:2 [ ((1, 1), 1); ((1, 1), 1); ((2, 1), 2) ]) in
  let obj, s = EQ.Lp_schedule.optimal inst in
  Alcotest.(check bool) "schedule valid" true (EQ.Schedule.is_valid s);
  (* Cross-check against best greedy (Conjecture 12 holds here). *)
  let bg, _ = EQ.Lp_schedule.best_greedy inst in
  Alcotest.(check string) "optimal = best greedy" (Q.to_string bg) (Q.to_string obj)

let test_lp_guard () =
  let inst = Support.finst (Support.uspec ~procs:2 (List.init 9 (fun _ -> ((1, 1), 1)))) in
  Alcotest.(check bool) "guard triggers" true
    (try
       ignore (EF.Lp_schedule.optimal inst);
       false
     with Invalid_argument _ -> true)

(* ---------- properties ---------- *)

let prop_lp_schedule_valid =
  QCheck2.Test.make ~name:"LP-optimal schedules are valid" ~count:60 ~print:Support.print_spec
    (Support.gen_spec ~max_procs:5 ~max_n:4 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let _, s = EF.Lp_schedule.optimal inst in
      EF.Schedule.is_valid s)

let prop_lp_sandwich =
  QCheck2.Test.make ~name:"bounds <= OPT <= heuristics" ~count:60 ~print:Support.print_spec
    (Support.gen_spec ~max_procs:5 ~max_n:4 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let opt, _ = EF.Lp_schedule.optimal inst in
      let lower = EF.Lower_bounds.best inst in
      let wdeq = EF.Wdeq.wdeq inst in
      let wdeq_obj = EF.Schedule.weighted_completion_time wdeq in
      let smith_greedy = EF.Greedy.objective inst (EF.Orderings.smith inst) in
      lower <= opt +. 1e-6 && opt <= wdeq_obj +. 1e-6 && opt <= smith_greedy +. 1e-6)

let prop_lp_exact_matches_float =
  QCheck2.Test.make ~name:"exact LP optimum matches float LP optimum" ~count:25
    ~print:Support.print_spec
    (Support.gen_spec ~max_procs:4 ~max_n:3 ~den:16 `Uniform)
    (fun spec ->
      let fo, _ = EF.Lp_schedule.optimal (Support.finst spec) in
      let qo, _ = EQ.Lp_schedule.optimal (Support.qinst spec) in
      Float.abs (fo -. Q.to_float qo) < 1e-6)

let prop_optimal_below_every_order =
  QCheck2.Test.make ~name:"optimum below each single-order LP" ~count:40
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:4 ~max_n:4 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let opt, _ = EF.Lp_schedule.optimal inst in
      let n = Array.length inst.EF.Types.tasks in
      let pi = EF.Orderings.random (Rng.create seed) n in
      match EF.Lp_schedule.optimal_for_order inst pi with
      | None -> false
      | Some (obj, s) -> opt <= obj +. 1e-6 && EF.Schedule.is_valid s)

(* The LP for the order a greedy schedule realizes is never worse than
   that greedy schedule. *)
let prop_lp_improves_greedy_order =
  QCheck2.Test.make ~name:"LP on greedy's own order improves greedy" ~count:40
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:4 ~max_n:4 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      let completion_order = g.EF.Types.order in
      match EF.Lp_schedule.optimal_for_order inst completion_order with
      | None -> false
      | Some (obj, _) -> obj <= EF.Schedule.weighted_completion_time g +. 1e-6)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "lp_schedule"
    [
      ( "unit",
        [
          Alcotest.test_case "single task" `Quick test_lp_single_task;
          Alcotest.test_case "sequential" `Quick test_lp_sequential;
          Alcotest.test_case "weights matter" `Quick test_lp_weights_matter;
          Alcotest.test_case "exact small" `Quick test_lp_exact_small;
          Alcotest.test_case "enumeration guard" `Quick test_lp_guard;
        ] );
      ( "properties",
        q
          [
            prop_lp_schedule_valid;
            prop_lp_sandwich;
            prop_lp_exact_matches_float;
            prop_optimal_below_every_order;
            prop_lp_improves_greedy_order;
          ] );
    ]
