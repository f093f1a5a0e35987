(* Tests for WDEQ (Section III): the share fixpoint, schedule validity,
   the Lemma 2 inequality, and the Theorem 4 two-approximation against
   the exact LP optimum. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q

let f = Alcotest.(check (float 1e-9))

(* P=4; T0 (w=1, d=1), T1 (w=1, d=4). Fair share is 2 each; T0 is
   clipped to 1 and T1 gets the surplus: 3. *)
let test_share_clipping () =
  let inst =
    Support.finst
      (Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4) ])
  in
  let s = EF.Wdeq.wdeq inst in
  Alcotest.(check bool) "valid" true (EF.Schedule.is_valid s);
  f "T0 share" 1. (EF.Schedule.alloc s 0 0);
  f "T1 share" 3. (EF.Schedule.alloc s 1 0);
  (* T0 finishes at 1; T1 then runs at its cap 4: remaining 3 units take
     3/4. *)
  f "C0" 1. (EF.Schedule.completion_time s 0);
  f "C1" 1.75 (EF.Schedule.completion_time s 1)

let test_weighted_share () =
  (* P=3, weights 1 and 2, large deltas: shares 1 and 2. *)
  let inst =
    Support.finst (Support.spec ~procs:3 [ ((1, 1), (1, 1), 3); ((2, 1), (2, 1), 3) ]) in
  let s = EF.Wdeq.wdeq inst in
  f "T0 share w-proportional" 1. (EF.Schedule.alloc s 0 0);
  f "T1 share w-proportional" 2. (EF.Schedule.alloc s 1 0);
  (* Both finish exactly at t=1 (simultaneous): two columns, tie. *)
  f "C0" 1. (EF.Schedule.completion_time s 0);
  f "C1" 1. (EF.Schedule.completion_time s 1)

let test_deq_ignores_weights () =
  let spec = Support.spec ~procs:2 [ ((1, 1), (5, 1), 2); ((1, 1), (1, 1), 2) ] in
  let inst = Support.finst spec in
  let s = EF.Wdeq.deq inst in
  (* Equal shares despite unequal weights. *)
  f "T0 share 1" 1. (EF.Schedule.alloc s 0 0);
  f "T1 share 1" 1. (EF.Schedule.alloc s 1 0)

let test_diagnostics_partition () =
  let inst =
    Support.finst (Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4) ]) in
  let d = EF.Wdeq.split (EF.Wdeq.wdeq inst) in
  (* Volumes split into full-allocation and limited parts, summing to V. *)
  for i = 0 to 1 do
    f
      (Printf.sprintf "VF + VF-bar = V for task %d" i)
      inst.EF.Types.tasks.(i).EF.Types.volume
      (d.EF.Wdeq.full_volume.(i) +. d.EF.Wdeq.limited_volume.(i))
  done;
  (* T0 runs at its cap from the start: fully "full allocation". *)
  f "T0 all full" 1. d.EF.Wdeq.full_volume.(0);
  (* T1: 3 volume at share 3 (limited), then 3 at cap 4 (full). *)
  f "T1 limited part" 3. d.EF.Wdeq.limited_volume.(1);
  f "T1 full part" 3. d.EF.Wdeq.full_volume.(1)

let test_exact_wdeq () =
  let inst = Support.qinst (Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4) ]) in
  let s = EQ.Wdeq.wdeq inst in
  Alcotest.(check bool) "strictly valid" true (EQ.Schedule.is_valid ~exact:true s);
  Alcotest.(check string) "C1 = 7/4" "7/4" (Q.to_string (EQ.Schedule.completion_time s 1))

(* ---------- properties ---------- *)

let prop_wdeq_valid =
  QCheck2.Test.make ~name:"WDEQ schedules are valid" ~count:300 ~print:Support.print_spec
    (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let s = EF.Wdeq.wdeq inst in
      EF.Schedule.is_valid s)

let prop_diagnostics_sum =
  QCheck2.Test.make ~name:"WDEQ diagnostics partition the volume" ~count:300 ~print:Support.print_spec
    (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let d = EF.Wdeq.split (EF.Wdeq.wdeq inst) in
      Array.for_all
        (fun i ->
          Float.abs
            (d.EF.Wdeq.full_volume.(i) +. d.EF.Wdeq.limited_volume.(i)
            -. inst.EF.Types.tasks.(i).EF.Types.volume)
          < 1e-6)
        (Array.init (Array.length inst.EF.Types.tasks) (fun i -> i)))

let prop_lemma2_bound =
  QCheck2.Test.make ~name:"Lemma 2: TC_WD <= 2(A(VF̄) + H(VF))" ~count:300 ~print:Support.print_spec
    (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let s = EF.Wdeq.wdeq inst in
      let d = EF.Wdeq.split s in
      let tc = EF.Schedule.weighted_completion_time s in
      let a = EF.Lower_bounds.squashed_area (EF.Instance.sub_instance inst d.EF.Wdeq.limited_volume) in
      let h = EF.Lower_bounds.height_bound (EF.Instance.sub_instance inst d.EF.Wdeq.full_volume) in
      tc <= (2. *. (a +. h)) +. 1e-6)

let prop_theorem4_two_approx =
  QCheck2.Test.make ~name:"Theorem 4: WDEQ <= 2 OPT (exact, vs LP optimum)" ~count:25
    ~print:Support.print_spec
    (Support.gen_spec ~max_procs:4 ~max_n:4 ~den:16 `Uniform)
    (fun spec ->
      let qi = Support.qinst spec in
      let s = EQ.Wdeq.wdeq qi in
      let wdeq_obj = EQ.Schedule.weighted_completion_time s in
      let opt, _ = EQ.Lp_schedule.optimal qi in
      Q.compare wdeq_obj (Q.mul (Q.of_int 2) opt) <= 0)

let prop_wdeq_above_lower_bounds =
  QCheck2.Test.make ~name:"WDEQ objective dominates the lower bounds" ~count:300
    ~print:Support.print_spec (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let s = EF.Wdeq.wdeq inst in
      let tc = EF.Schedule.weighted_completion_time s in
      EF.Lower_bounds.best inst <= tc +. 1e-6)

let prop_deq_equals_wdeq_when_unweighted =
  QCheck2.Test.make ~name:"DEQ = WDEQ on unweighted instances" ~count:200 ~print:Support.print_spec
    (Support.gen_spec `Unweighted)
    (fun spec ->
      let inst = Support.finst spec in
      let s1 = EF.Wdeq.wdeq inst in
      let s2 = EF.Wdeq.deq inst in
      Float.abs
        (EF.Schedule.weighted_completion_time s1 -. EF.Schedule.weighted_completion_time s2)
      < 1e-6)

(* The adversarial families from lib/check: exact completion-time ties
   (near-tie), fully malleable tasks (delta-full) and non-dyadic
   rationals (tiny-den) exercise the event paths that uniform dyadic
   draws rarely hit. *)
let gen_adversarial =
  QCheck2.Gen.oneof
    [ Support.gen_spec `Near_tie; Support.gen_spec `Delta_full; Support.gen_spec `Tiny_den ]

let prop_wdeq_valid_adversarial =
  QCheck2.Test.make ~name:"WDEQ schedules are valid on the adversarial families" ~count:150
    ~print:Support.print_spec gen_adversarial
    (fun spec ->
      let inst = Support.finst spec in
      let s = EF.Wdeq.wdeq inst in
      EF.Schedule.is_valid s)

let prop_lemma2_exact_near_tie =
  QCheck2.Test.make ~name:"Lemma 2 holds exactly under completion-time ties" ~count:60
    ~print:Support.print_spec (Support.gen_spec `Near_tie)
    (fun spec ->
      let qi = Support.qinst spec in
      let s = EQ.Wdeq.wdeq qi in
      let d = EQ.Wdeq.split s in
      let tc = EQ.Schedule.weighted_completion_time s in
      let a = EQ.Lower_bounds.squashed_area (EQ.Instance.sub_instance qi d.EQ.Wdeq.limited_volume) in
      let h = EQ.Lower_bounds.height_bound (EQ.Instance.sub_instance qi d.EQ.Wdeq.full_volume) in
      Q.compare tc (Q.mul (Q.of_int 2) (Q.add a h)) <= 0)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "wdeq"
    [
      ( "unit",
        [
          Alcotest.test_case "share clipping" `Quick test_share_clipping;
          Alcotest.test_case "weighted shares" `Quick test_weighted_share;
          Alcotest.test_case "deq ignores weights" `Quick test_deq_ignores_weights;
          Alcotest.test_case "diagnostics partition" `Quick test_diagnostics_partition;
          Alcotest.test_case "exact engine" `Quick test_exact_wdeq;
        ] );
      ( "properties",
        q
          [
            prop_wdeq_valid;
            prop_diagnostics_sum;
            prop_lemma2_bound;
            prop_theorem4_two_approx;
            prop_wdeq_above_lower_bounds;
            prop_deq_equals_wdeq_when_unweighted;
            prop_wdeq_valid_adversarial;
            prop_lemma2_exact_near_tie;
          ] );
    ]
