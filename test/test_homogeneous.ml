(* Tests for the Section V-B homogeneous class: the recurrence, the
   small-case optimal patterns the paper reports, and Conjecture 13
   (order-reversal symmetry), verified exactly with rationals as the
   paper did with Sage. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module Rng = Mwct_util.Rng
module G = Mwct_workload.Generator

let qdeltas_of_spec = Array.map (fun (r : Mwct_core.Spec.rat) -> Q.of_q r.num r.den)

let test_recurrence_hand () =
  (* Two unit tasks with delta 1 and 1/2 on P=1.
     Order (0,1): C0 = 1; C1 = 1 + (1 - 0)/ (1/2) = 3. Total 4.
     Order (1,0): C1 = 2; C0 = 2 + (1 - (1/2)*2)/1 = 2. Total 4.
     (reversal symmetry visible by hand) *)
  let deltas = [| Q.one; Q.of_q 1 2 |] in
  let c01 = EQ.Homogeneous.completion_times deltas [| 0; 1 |] in
  Alcotest.(check string) "C0" "1" (Q.to_string c01.(0));
  Alcotest.(check string) "C1" "3" (Q.to_string c01.(1));
  let c10 = EQ.Homogeneous.completion_times deltas [| 1; 0 |] in
  Alcotest.(check string) "C1 first" "2" (Q.to_string c10.(0));
  Alcotest.(check string) "C0 second" "2" (Q.to_string c10.(1));
  Alcotest.(check string) "reversal gap zero" "0"
    (Q.to_string (EQ.Homogeneous.reversal_gap deltas [| 0; 1 |]))

let test_valid_deltas () =
  Alcotest.(check bool) "ok" true (EQ.Homogeneous.valid_deltas [| Q.of_q 1 2; Q.one |]);
  Alcotest.(check bool) "too small" false (EQ.Homogeneous.valid_deltas [| Q.of_q 1 4 |]);
  Alcotest.(check bool) "too large" false (EQ.Homogeneous.valid_deltas [| Q.of_q 3 2 |])

(* The paper's reported optimal-order patterns (deltas sorted
   non-increasing δ1 >= δ2 >= ...):
   - 3 tasks: 1,3,2 and 2,3,1 (smallest delta in the middle);
   - 4 tasks: 1,3,2,4 and 4,2,3,1.
   (1-based in the paper; 0-based here.) *)
let test_three_task_pattern () =
  let deltas = [| Q.of_q 9 10; Q.of_q 7 10; Q.of_q 3 5 |] in
  (* sorted non-increasing *)
  let _, orders = EQ.Homogeneous.optimal_orders deltas in
  let has o = List.exists (fun o' -> o' = o) orders in
  Alcotest.(check bool) "1,3,2 optimal" true (has [| 0; 2; 1 |]);
  Alcotest.(check bool) "2,3,1 optimal" true (has [| 1; 2; 0 |])

(* NOTE (reproduction finding, see EXPERIMENTS.md E3): the paper prints
   the optimal 4-task orders as "1,3,2,4 and 4,2,3,1". Exhaustive exact
   search — cross-checked against the independent LP optimum — shows the
   generic optimal pair is 1,3,4,2 and its reverse 2,4,3,1; the paper's
   line appears to be a typo. *)
let test_four_task_pattern () =
  let deltas = [| Q.of_q 31 32; Q.of_q 27 32; Q.of_q 23 32; Q.of_q 18 32 |] in
  let _, orders = EQ.Homogeneous.optimal_orders deltas in
  let has o = List.exists (fun o' -> o' = o) orders in
  Alcotest.(check bool) "1,3,4,2 optimal" true (has [| 0; 2; 3; 1 |]);
  Alcotest.(check bool) "2,4,3,1 optimal" true (has [| 1; 3; 2; 0 |]);
  Alcotest.(check bool) "paper's printed 1,3,2,4 is NOT optimal here" false (has [| 0; 2; 1; 3 |])

let test_two_task_both_orders_optimal () =
  let deltas = [| Q.of_q 4 5; Q.of_q 2 3 |] in
  let _, orders = EQ.Homogeneous.optimal_orders deltas in
  Alcotest.(check int) "both orders optimal" 2 (List.length orders)

let test_to_instance_cross_check () =
  let deltas = [| Q.of_q 3 4; Q.of_q 1 2; Q.one |] in
  let inst = EQ.Homogeneous.to_instance deltas in
  let order = [| 2; 0; 1 |] in
  let by_rec = EQ.Homogeneous.total deltas order in
  let by_greedy = EQ.Schedule.sum_completion_time (EQ.Greedy.run inst order) in
  Alcotest.(check string) "recurrence = greedy" (Q.to_string by_greedy) (Q.to_string by_rec)

(* ---------- properties ---------- *)

let gen_deltas =
  QCheck2.Gen.map
    (fun (seed, n) -> qdeltas_of_spec (G.homogeneous_deltas (Rng.create seed) ~n ~den:64 ()))
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 9))

let prop_conjecture13_exact =
  QCheck2.Test.make ~name:"Conjecture 13: total(order) = total(reversed) exactly" ~count:150
    gen_deltas
    (fun deltas ->
      let n = Array.length deltas in
      let order = EQ.Orderings.random (Rng.create (n * 7919)) n in
      Q.sign (EQ.Homogeneous.reversal_gap deltas order) = 0)

(* Conjecture 13 pairs every optimal order with its reversal, and the
   condition is reversal-symmetric. A generic draw has exactly one
   optimal pair, and then every optimal order satisfies the condition.
   A degenerate draw has several optimal pairs; the condition only
   needs one of them (see the pinned draw below). *)
let condition_holds deltas =
  let _, orders = EQ.Homogeneous.optimal_orders deltas in
  let ok = EQ.Homogeneous.five_task_condition deltas in
  if List.length orders = 2 then List.for_all ok orders else List.exists ok orders

let prop_five_task_condition =
  QCheck2.Test.make ~name:"n=5 optimal orders satisfy the paper's necessary condition" ~count:25
    (QCheck2.Gen.map
       (fun seed -> qdeltas_of_spec (G.homogeneous_deltas (Rng.create seed) ~n:5 ~den:4096 ()))
       (QCheck2.Gen.int_bound 1_000_000))
    (fun deltas ->
      (* The condition is stated for generic instances; skip draws with
         tied deltas (ties admit degenerate optimal orders). *)
      let sorted = Array.copy deltas in
      Array.sort Q.compare sorted;
      let has_tie = ref false in
      for i = 0 to 3 do
        if Q.equal sorted.(i) sorted.(i + 1) then has_tie := true
      done;
      !has_tie || condition_holds deltas)

(* Seed 63's draw: no tied deltas, but one delta sits exactly on the
   class boundary P/2 = 1/2. It has four optimal orders (two reversal
   pairs) and only one pair violates (δl−δj)(δi−δm) <= 0, so a property
   requiring every optimal order to satisfy the condition failed on it
   (about 3.7% of 25-draw runs did). *)
let test_five_task_degenerate_draw () =
  let deltas = [| Q.of_q 3653 4096; Q.of_q 511 512; Q.of_q 1 2; Q.of_q 2229 4096; Q.of_q 3951 4096 |] in
  let _, orders = EQ.Homogeneous.optimal_orders deltas in
  Alcotest.(check int) "four optimal orders" 4 (List.length orders);
  let violating = List.filter (fun o -> not (EQ.Homogeneous.five_task_condition deltas o)) orders in
  Alcotest.(check int) "one reversal pair violates" 2 (List.length violating);
  (match violating with
  | [ a; b ] -> Alcotest.(check (array int)) "the violators are a reversal pair" a (EQ.Orderings.reverse b)
  | _ -> ());
  Alcotest.(check bool) "the other pair satisfies the condition" true (condition_holds deltas)

let prop_best_order_vs_lp =
  (* On this class the best greedy order is the true optimum
     (Theorem 11 since delta >= P/2 = 1/2... strictly wide when > 1/2).
     Compare against the float LP for small n. *)
  QCheck2.Test.make ~name:"best greedy order matches LP optimum on the class" ~count:12
    (QCheck2.Gen.map
       (fun seed -> G.homogeneous_deltas (Rng.create seed) ~n:4 ~den:64 ())
       (QCheck2.Gen.int_bound 1_000_000))
    (fun deltas_spec ->
      let qdeltas = qdeltas_of_spec deltas_spec in
      let best, _ = EQ.Homogeneous.best_order qdeltas in
      (* Same instance through the float LP. *)
      let fdeltas = Array.map (fun (r : Mwct_core.Spec.rat) -> float_of_int r.num /. float_of_int r.den) deltas_spec in
      let inst = EF.Homogeneous.to_instance fdeltas in
      let opt, _ = EF.Lp_schedule.optimal inst in
      Float.abs (Q.to_float best -. opt) < 1e-6)

let test_organ_pipe_patterns () =
  (* Ranks over sorted-descending deltas: the known patterns. *)
  let deltas n = Array.init n (fun i -> Q.of_q (1024 - (i * 64)) 1024) in
  Alcotest.(check (array int)) "n=2" [| 0; 1 |] (EQ.Homogeneous.organ_pipe (deltas 2));
  Alcotest.(check (array int)) "n=3" [| 0; 2; 1 |] (EQ.Homogeneous.organ_pipe (deltas 3));
  Alcotest.(check (array int)) "n=4" [| 0; 2; 3; 1 |] (EQ.Homogeneous.organ_pipe (deltas 4));
  Alcotest.(check (array int)) "n=5" [| 0; 2; 4; 3; 1 |] (EQ.Homogeneous.organ_pipe (deltas 5));
  Alcotest.(check (array int)) "n=7" [| 0; 2; 4; 6; 5; 3; 1 |] (EQ.Homogeneous.organ_pipe (deltas 7));
  (* Unsorted input: the order is over ranks, returned as task indices. *)
  let unsorted = [| Q.of_q 3 4; Q.of_q 63 64; Q.of_q 1 2 |] in
  (* ranks: task 1 (63/64), task 0 (3/4), task 2 (1/2) -> organ-pipe 1, 2, 0 *)
  Alcotest.(check (array int)) "unsorted" [| 1; 2; 0 |] (EQ.Homogeneous.organ_pipe unsorted)

let prop_organ_pipe_optimal_small =
  (* Exactly optimal for n <= 4 (exact arithmetic). *)
  QCheck2.Test.make ~name:"organ-pipe is optimal for n <= 4 (exact)" ~count:40
    (QCheck2.Gen.map
       (fun (seed, n) -> qdeltas_of_spec (G.homogeneous_deltas (Rng.create seed) ~n ~den:256 ()))
       QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 4)))
    (fun deltas ->
      let best, _ = EQ.Homogeneous.best_order deltas in
      let pipe = EQ.Homogeneous.total deltas (EQ.Homogeneous.organ_pipe deltas) in
      Q.equal best pipe)

let prop_completion_monotone =
  (* Non-strict: with δ = 1/2 a follower can finish simultaneously with
     its predecessor (leftover volume exactly zero). *)
  QCheck2.Test.make ~name:"completion times are non-decreasing along the order" ~count:100 gen_deltas
    (fun deltas ->
      let n = Array.length deltas in
      let order = EQ.Orderings.identity n in
      let c = EQ.Homogeneous.completion_times deltas order in
      let ok = ref true in
      for i = 0 to n - 2 do
        if Q.compare c.(i) c.(i + 1) > 0 then ok := false
      done;
      !ok)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "homogeneous"
    [
      ( "unit",
        [
          Alcotest.test_case "recurrence hand" `Quick test_recurrence_hand;
          Alcotest.test_case "valid deltas" `Quick test_valid_deltas;
          Alcotest.test_case "3-task pattern" `Quick test_three_task_pattern;
          Alcotest.test_case "4-task pattern" `Quick test_four_task_pattern;
          Alcotest.test_case "2-task symmetry" `Quick test_two_task_both_orders_optimal;
          Alcotest.test_case "recurrence = greedy" `Quick test_to_instance_cross_check;
          Alcotest.test_case "organ-pipe patterns" `Quick test_organ_pipe_patterns;
          Alcotest.test_case "n=5 degenerate draw" `Quick test_five_task_degenerate_draw;
        ] );
      ( "properties",
        q
          [
            prop_conjecture13_exact;
            prop_five_task_condition;
            prop_best_order_vs_lp;
            prop_organ_pipe_optimal_small;
            prop_completion_monotone;
          ] );
    ]
