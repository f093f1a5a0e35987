(* Tests for the lower bounds (Definitions 5-6, Lemma 1), the optimal
   makespan (Table I Cmax row), Lmax (Table I row), and the polynomial
   single-machine special cases. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module Rng = Mwct_util.Rng

let f = Alcotest.(check (float 1e-9))

(* ---------- lower bounds ---------- *)

let test_squashed_area_hand () =
  (* P=2; tasks (V=2,w=1), (V=4,w=4): Smith ratios 2 and 1 -> order
     T1 then T0. A = 4*(4/2) + 1*(4/2 + 2/2) = 8 + 3 = 11. *)
  let inst = Support.finst (Support.spec ~procs:2 [ ((2, 1), (1, 1), 1); ((4, 1), (4, 1), 2) ]) in
  f "A(I)" 11. (EF.Lower_bounds.squashed_area inst);
  (* H = 1*(2/1) + 4*(4/2) = 10. *)
  f "H(I)" 10. (EF.Lower_bounds.height_bound inst);
  f "best is max" 11. (EF.Lower_bounds.best inst)

let test_squashed_area_equals_smith () =
  (* A(I) is by definition the Smith optimum with delta = P. *)
  let spec = Support.spec ~procs:3 [ ((1, 2), (1, 1), 1); ((3, 2), (2, 1), 2); ((5, 4), (1, 2), 3) ] in
  let inst = Support.finst spec in
  let smith_obj, _ = EF.Single_machine.smith inst in
  f "A = Smith" smith_obj (EF.Lower_bounds.squashed_area inst)

let test_mixed_bound_degenerate () =
  let inst = Support.finst (Support.spec ~procs:2 [ ((2, 1), (1, 1), 1); ((4, 1), (4, 1), 2) ]) in
  let v = Array.map (fun (t : EF.Types.task) -> t.EF.Types.volume) inst.EF.Types.tasks in
  let zeros = Array.map (fun _ -> 0.) v in
  (* All volume on the A side = A(I); all on the H side = H(I). *)
  f "mixed(V, 0) = A" (EF.Lower_bounds.squashed_area inst) (EF.Lower_bounds.mixed inst v zeros);
  f "mixed(0, V) = H" (EF.Lower_bounds.height_bound inst) (EF.Lower_bounds.mixed inst zeros v);
  Alcotest.check_raises "bad subdivision rejected"
    (Invalid_argument "Lower_bounds.mixed: subdivision does not sum to V") (fun () ->
      ignore (EF.Lower_bounds.mixed inst zeros zeros))

let prop_bounds_below_optimal =
  QCheck2.Test.make ~name:"A and H are lower bounds of OPT" ~count:50 ~print:Support.print_spec
    (Support.gen_spec ~max_procs:5 ~max_n:4 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let opt, _ = EF.Lp_schedule.optimal inst in
      EF.Lower_bounds.squashed_area inst <= opt +. 1e-6
      && EF.Lower_bounds.height_bound inst <= opt +. 1e-6)

let prop_mixed_below_optimal =
  QCheck2.Test.make ~name:"Lemma 1: mixed bound below OPT (random split)" ~count:50
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:5 ~max_n:4 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let rng = Rng.create seed in
      let v1 =
        Array.map
          (fun (t : EF.Types.task) ->
            t.EF.Types.volume *. (float_of_int (Rng.int_in rng 0 16) /. 16.))
          inst.EF.Types.tasks
      in
      let v2 = Array.mapi (fun i (t : EF.Types.task) -> t.EF.Types.volume -. v1.(i)) inst.EF.Types.tasks in
      let opt, _ = EF.Lp_schedule.optimal inst in
      EF.Lower_bounds.mixed inst v1 v2 <= opt +. 1e-6)

(* ---------- makespan ---------- *)

let test_makespan_hand () =
  (* P=2; volumes 4 (d=1) and 2 (d=2): T* = max(6/2, 4/1, 2/2) = 4. *)
  let inst = Support.finst (Support.uspec ~procs:2 [ ((4, 1), 1); ((2, 1), 2) ]) in
  f "T*" 4. (EF.Makespan.optimal inst);
  let s = EF.Makespan.schedule inst in
  Alcotest.(check bool) "schedule valid" true (EF.Schedule.is_valid s);
  f "makespan achieved" 4. (EF.Schedule.makespan s)

let test_makespan_area_bound_binds () =
  (* Wide tasks: area dominates. P=2, V=3 d=2 twice: T* = 3. *)
  let inst = Support.finst (Support.uspec ~procs:2 [ ((3, 1), 2); ((3, 1), 2) ]) in
  f "T* = area" 3. (EF.Makespan.optimal inst)

let prop_makespan_tight =
  QCheck2.Test.make ~name:"T* feasible; (1-eps)T* infeasible" ~count:150 ~print:Support.print_spec
    (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let t_star = EF.Makespan.optimal inst in
      let n = Array.length inst.EF.Types.tasks in
      let all v = Array.make n v in
      EF.Water_filling.feasible inst (all t_star)
      && not (EF.Water_filling.feasible inst (all (t_star *. 0.99))))

let prop_makespan_below_any_schedule =
  QCheck2.Test.make ~name:"T* below every heuristic's makespan" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let t_star = EF.Makespan.optimal inst in
      let g = EF.Greedy.run inst sigma in
      let w = EF.Wdeq.wdeq inst in
      t_star <= EF.Schedule.makespan g +. 1e-6 && t_star <= EF.Schedule.makespan w +. 1e-6)

let test_makespan_exact () =
  let inst = Support.qinst (Support.uspec ~procs:2 [ ((4, 1), 1); ((2, 1), 2) ]) in
  Alcotest.(check string) "T* exact" "4" (Q.to_string (EQ.Makespan.optimal inst));
  let s = EQ.Makespan.schedule inst in
  Alcotest.(check bool) "strictly valid" true (EQ.Schedule.is_valid ~exact:true s)

(* ---------- lateness ---------- *)

let test_lateness_hand () =
  (* P=1, two unit tasks delta=1, due dates 1 and 2: schedule them in
     EDF order -> lateness 0. Due dates 1 and 1 -> someone is late by
     1. *)
  let inst = Support.finst (Support.uspec ~procs:1 [ ((1, 1), 1); ((1, 1), 1) ]) in
  Alcotest.(check bool) "L=0 feasible with staggered due dates" true
    (EF.Lateness.feasible inst [| 1.; 2. |] 0.);
  Alcotest.(check bool) "L=0 infeasible with equal due dates" false
    (EF.Lateness.feasible inst [| 1.; 1. |] 0.);
  let lo, hi, s = EF.Lateness.minimize ~tol:1e-6 inst [| 1.; 1. |] in
  Alcotest.(check bool) "Lmax close to 1" true (lo <= 1. && 1. <= hi +. 1e-6 && hi -. 1. < 1e-5);
  Alcotest.(check bool) "schedule valid" true (EF.Schedule.is_valid s)

let prop_lateness_bracket =
  QCheck2.Test.make ~name:"lateness search brackets a feasible point" ~count:60
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:5 ~max_n:5 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let rng = Rng.create seed in
      let due =
        Array.init n (fun _ -> float_of_int (Rng.dyadic rng ~den:64) /. 64. *. 4.)
      in
      let lo, hi, s = EF.Lateness.minimize ~tol:1e-6 inst due in
      lo <= hi
      && hi -. lo <= 1e-5
      && EF.Lateness.feasible inst due hi
      && ((not (EF.Lateness.feasible inst due (lo -. 1e-3))) || Float.abs (hi -. lo) < 1e-9)
      && EF.Schedule.is_valid s)

(* ---------- single machine special cases ---------- *)

let test_smith_hand () =
  (* P=1, (V=2,w=1) and (V=1,w=2): Smith order T1 T0:
     obj = 2*1 + 1*3 = 5. *)
  let inst = Support.finst (Support.spec ~procs:1 [ ((2, 1), (1, 1), 1); ((1, 1), (2, 1), 1) ]) in
  let obj, c = EF.Single_machine.smith inst in
  f "objective" 5. obj;
  f "C1 first" 1. c.(1);
  f "C0 second" 3. c.(0)

let test_spt_hand () =
  (* P=2, volumes 1,2,3, delta irrelevant: SPT loads: m0 <- 1, m1 <- 2,
     m0 <- 1+3. objective = 1 + 2 + 4 = 7. *)
  let inst = Support.finst (Support.uspec ~procs:2 [ ((1, 1), 1); ((2, 1), 1); ((3, 1), 1) ]) in
  let obj, _ = EF.Single_machine.spt inst in
  f "objective" 7. obj

let prop_smith_optimal_when_wide =
  (* With all deltas = P the LP optimum equals Smith. *)
  QCheck2.Test.make ~name:"Smith = OPT when deltas = P" ~count:30 ~print:Support.print_spec
    (Support.gen_spec ~max_procs:4 ~max_n:4 `Uniform)
    (fun spec ->
      (* Force deltas to P. *)
      let spec =
        Mwct_core.Spec.make ~procs:spec.Mwct_core.Spec.procs
          (Array.to_list
             (Array.map
                (fun (t : Mwct_core.Spec.task) -> { t with Mwct_core.Spec.delta = spec.Mwct_core.Spec.procs })
                spec.Mwct_core.Spec.tasks))
      in
      let inst = Support.finst spec in
      let opt, _ = EF.Lp_schedule.optimal inst in
      let smith_obj, _ = EF.Single_machine.smith inst in
      Float.abs (opt -. smith_obj) < 1e-6)

let prop_spt_optimal_when_narrow =
  (* With all deltas = 1 and unit weights, the LP optimum equals SPT. *)
  QCheck2.Test.make ~name:"SPT = OPT when deltas = 1 (unweighted)" ~count:30 ~print:Support.print_spec
    (Support.gen_spec ~max_procs:4 ~max_n:4 `Unweighted)
    (fun spec ->
      let spec =
        Mwct_core.Spec.make ~procs:spec.Mwct_core.Spec.procs
          (Array.to_list
             (Array.map
                (fun (t : Mwct_core.Spec.task) -> { t with Mwct_core.Spec.delta = 1 })
                spec.Mwct_core.Spec.tasks))
      in
      let inst = Support.finst spec in
      let opt, _ = EF.Lp_schedule.optimal inst in
      let spt_obj, _ = EF.Single_machine.spt inst in
      Float.abs (opt -. spt_obj) < 1e-6)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "bounds_makespan"
    [
      ( "bounds",
        [
          Alcotest.test_case "squashed area hand" `Quick test_squashed_area_hand;
          Alcotest.test_case "A equals Smith" `Quick test_squashed_area_equals_smith;
          Alcotest.test_case "mixed degenerate" `Quick test_mixed_bound_degenerate;
        ] );
      ("bounds-props", q [ prop_bounds_below_optimal; prop_mixed_below_optimal ]);
      ( "makespan",
        [
          Alcotest.test_case "hand" `Quick test_makespan_hand;
          Alcotest.test_case "area binds" `Quick test_makespan_area_bound_binds;
          Alcotest.test_case "exact" `Quick test_makespan_exact;
        ] );
      ("makespan-props", q [ prop_makespan_tight; prop_makespan_below_any_schedule ]);
      ("lateness", [ Alcotest.test_case "hand" `Quick test_lateness_hand ]);
      ("lateness-props", q [ prop_lateness_bracket ]);
      ( "single-machine",
        [
          Alcotest.test_case "smith hand" `Quick test_smith_hand;
          Alcotest.test_case "spt hand" `Quick test_spt_hand;
        ] );
      ("single-machine-props", q [ prop_smith_optimal_when_wide; prop_spt_optimal_when_narrow ]);
    ]
