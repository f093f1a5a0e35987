(* Tests for the remaining support modules: Spec_io (parsing/printing),
   Orderings (permutation machinery, priority rules), Preemption
   counting on hand-built schedules, and a smoke test of the experiment
   battery. *)

open Test_support
module EF = Support.EF
module Spec = Mwct_core.Spec
module Spec_io = Mwct_core.Spec_io
module Rng = Mwct_util.Rng

(* ---------- Spec_io ---------- *)

let test_spec_io_roundtrip () =
  let spec = Support.spec ~procs:3 [ ((1, 2), (3, 4), 2); ((5, 1), (1, 1), 3) ] in
  match Spec_io.of_string (Spec_io.to_string spec) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok spec' -> Alcotest.(check string) "round trip" (Spec.to_string spec) (Spec.to_string spec')

let test_spec_io_comments_and_blanks () =
  let text = "# header comment\n\nprocs 2   # trailing\n\ntask 1/2 1 1\ntask 3 2/5 2 # wide\n" in
  match Spec_io.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok spec ->
    Alcotest.(check int) "procs" 2 spec.Spec.procs;
    Alcotest.(check int) "tasks" 2 (Spec.num_tasks spec);
    Alcotest.(check int) "task 1 delta" 2 spec.Spec.tasks.(1).Spec.delta

let expect_parse_error text =
  match Spec_io.of_string text with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "expected parse error for %S" text

let test_spec_io_errors () =
  expect_parse_error "";
  (* missing procs *)
  expect_parse_error "task 1 1 1\n";
  expect_parse_error "procs 0\n";
  expect_parse_error "procs 2\ntask 1 1 0\n";
  (* delta 0 *)
  expect_parse_error "procs 2\ntask abc 1 1\n";
  expect_parse_error "procs 2\ntask 1/0 1 1\n";
  expect_parse_error "procs 2\nfrobnicate 1\n";
  expect_parse_error "procs 2\ntask 1 1\n" (* arity *)

(* ---------- Orderings ---------- *)

let test_fold_permutations_count () =
  let count n = EF.Orderings.fold_permutations n (fun acc _ -> acc + 1) 0 in
  Alcotest.(check int) "0! = 1" 1 (count 0);
  Alcotest.(check int) "1! = 1" 1 (count 1);
  Alcotest.(check int) "4! = 24" 24 (count 4);
  Alcotest.(check int) "6! = 720" 720 (count 6);
  Alcotest.(check int) "factorial helper" 720 (EF.Orderings.factorial 6)

let test_fold_permutations_distinct () =
  (* All visited permutations are distinct (copy before storing!). *)
  let seen = Hashtbl.create 64 in
  EF.Orderings.fold_permutations 5
    (fun () p ->
      let key = String.concat "," (Array.to_list (Array.map string_of_int p)) in
      if Hashtbl.mem seen key then Alcotest.failf "duplicate permutation %s" key;
      Hashtbl.add seen key ())
    ();
  Alcotest.(check int) "120 distinct" 120 (Hashtbl.length seen)

let test_priority_rules () =
  let spec =
    Support.spec ~procs:4
      [ ((4, 1), (1, 1), 3); ((1, 1), (2, 1), 1); ((2, 1), (4, 1), 4) ]
  in
  let inst = Support.finst spec in
  (* Smith ratios: 4, 1/2, 1/2 -> ties by index: [1; 2; 0]. *)
  Alcotest.(check (array int)) "smith" [| 1; 2; 0 |] (EF.Orderings.smith inst);
  Alcotest.(check (array int)) "spt" [| 1; 2; 0 |] (EF.Orderings.shortest_volume inst);
  Alcotest.(check (array int)) "largest weight" [| 2; 1; 0 |] (EF.Orderings.largest_weight inst);
  Alcotest.(check (array int)) "largest delta" [| 2; 0; 1 |] (EF.Orderings.largest_delta inst);
  Alcotest.(check (array int)) "smallest delta" [| 1; 0; 2 |] (EF.Orderings.smallest_delta inst);
  (* heights: 4/3, 1, 1/2 -> [2; 1; 0] *)
  Alcotest.(check (array int)) "shortest height" [| 2; 1; 0 |] (EF.Orderings.shortest_height inst);
  Alcotest.(check (array int)) "reverse" [| 0; 2; 1 |] (EF.Orderings.reverse [| 1; 2; 0 |])

let test_random_order_is_permutation () =
  let rng = Rng.create 3 in
  for _ = 1 to 20 do
    let p = EF.Orderings.random rng 10 in
    let sorted = Array.copy p in
    Array.sort compare sorted;
    Alcotest.(check (array int)) "permutation" (Array.init 10 (fun i -> i)) sorted
  done

(* ---------- Preemption counting on hand-built schedules ---------- *)

let hand_schedule alloc finish order =
  let n = Array.length finish in
  let inst =
    EF.Instance.make ~procs:10.
      (List.init n (fun i ->
           (* volumes consistent with the allocation *)
           let v = ref 0. in
           for j = 0 to n - 1 do
             let len = finish.(j) -. (if j = 0 then 0. else finish.(j - 1)) in
             v := !v +. (alloc.(i).(j) *. len)
           done;
           EF.Instance.task ~volume:(Float.max !v 0.0001) ~delta:10. ()))
  in
  EF.Schedule.of_dense ~instance:inst ~order ~finish alloc

let test_changes_constant_allocation () =
  (* Constant allocation across three columns: zero changes. *)
  let s = hand_schedule [| [| 2.; 2.; 2. |]; [| 1.; 1.; 0. |]; [| 0.; 0.; 3. |] |] [| 1.; 2.; 3. |] [| 1; 0; 2 |] in
  Alcotest.(check int) "no changes" 0 (EF.Preemption.total_changes s)

let test_changes_growing_allocation () =
  (* Task 0 grows 1 -> 2 -> 3: two changes. *)
  let s = hand_schedule [| [| 1.; 2.; 3. |]; [| 1.; 0.; 0. |]; [| 0.; 1.; 1. |] |] [| 1.; 2.; 3. |] [| 1; 2; 0 |] in
  Alcotest.(check int) "task 0 changes" 2 (EF.Preemption.task_changes s 0);
  Alcotest.(check int) "task 2 constant" 0 (EF.Preemption.task_changes s 2)

let test_changes_gap_counts_twice () =
  (* Task 0 runs, stops, restarts: a gap costs 2. *)
  let s = hand_schedule [| [| 1.; 0.; 1. |]; [| 1.; 1.; 0. |]; [| 0.; 1.; 1. |] |] [| 1.; 2.; 3. |] [| 1; 2; 0 |] in
  Alcotest.(check int) "gap = 2 changes" 2 (EF.Preemption.task_changes s 0)

let test_availability_changes () =
  (* Heights 2, 3, 3: one change. *)
  let s = hand_schedule [| [| 2.; 2.; 2. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] [| 1.; 2.; 3. |] [| 0; 1; 2 |] in
  Alcotest.(check int) "one availability change" 1 (EF.Preemption.availability_changes s)

(* ---------- single-task pipeline (smallest non-trivial n) ---------- *)

let test_single_task_everything () =
  let inst = Support.finst (Support.spec ~procs:3 [ ((6, 1), (2, 1), 2) ]) in
  (* Every algorithm must agree on the only possible answer: the task
     runs at its cap, C = 3, objective = 6. *)
  let expect name v = Alcotest.(check (float 1e-9)) name 6. v in
  expect "wdeq" (EF.Schedule.weighted_completion_time (EF.Wdeq.wdeq inst));
  expect "greedy" (EF.Greedy.objective inst [| 0 |]);
  expect "lp" (fst (EF.Lp_schedule.optimal inst));
  Alcotest.(check (float 1e-9)) "makespan" 3. (EF.Makespan.optimal inst);
  Alcotest.(check (float 1e-9)) "A(I)" 4. (EF.Lower_bounds.squashed_area inst);
  Alcotest.(check (float 1e-9)) "H(I)" 6. (EF.Lower_bounds.height_bound inst);
  (* Normal form and integerization of the trivial schedule. *)
  let s = EF.Makespan.schedule inst in
  Alcotest.(check int) "no changes" 0 (EF.Preemption.total_changes s);
  let is, _ = EF.Integerize.of_columns s in
  Alcotest.(check int) "no preemptions" 0 (EF.Assignment.preemptions (EF.Assignment.assign is))

(* ---------- simplex API surface ---------- *)

let test_simplex_api () =
  let module Sx = Mwct_simplex.Simplex.Make (Mwct_field.Field.Float_field) in
  let p = Sx.create () in
  let x = Sx.add_var ~name:"alpha" p in
  let y = Sx.add_var p in
  Alcotest.(check int) "num_vars" 2 (Sx.num_vars p);
  Alcotest.(check string) "named var" "alpha" (Sx.var_name p x);
  Alcotest.(check string) "default name" "x1" (Sx.var_name p y);
  Sx.add_constraint p [ (x, 1.); (y, 1.) ] Sx.Geq 2.;
  Sx.set_objective p [ (x, 1.); (y, 2.) ];
  let outcome = Sx.solve p in
  Alcotest.(check (float 1e-9)) "value_of x" 2. (Sx.value_of outcome x);
  Alcotest.(check (float 1e-9)) "value_of y" 0. (Sx.value_of outcome y);
  Alcotest.check_raises "value_of on infeasible" (Invalid_argument "Simplex.value_of: not optimal")
    (fun () ->
      let p = Sx.create () in
      let x = Sx.add_var p in
      Sx.add_constraint p [ (x, 1.) ] Sx.Leq (-1.);
      ignore (Sx.value_of (Sx.solve p) x));
  Alcotest.check_raises "unknown var rejected" (Invalid_argument "Simplex.add_constraint: unknown variable")
    (fun () ->
      let p2 = Sx.create () in
      Sx.add_constraint p2 [ (x, 1.) ] Sx.Leq 1.)

(* ---------- CSV rendering ---------- *)

let test_table_csv () =
  let t = Mwct_util.Tablefmt.create [ "a"; "b" ] in
  Mwct_util.Tablefmt.add_row t [ "plain"; "with,comma" ];
  Mwct_util.Tablefmt.add_row t [ "with\"quote"; "x" ];
  let csv = Mwct_util.Tablefmt.to_csv t in
  Alcotest.(check string) "csv escaping" "a,b\nplain,\"with,comma\"\n\"with\"\"quote\",x\n" csv

(* ---------- experiments smoke ---------- *)

let test_experiment_registry () =
  Alcotest.(check bool) "all names resolve" true
    (List.for_all (fun n -> Option.is_some (Mwct_experiments.Experiments.by_name n)) Mwct_experiments.Experiments.names);
  Alcotest.(check bool) "unknown rejected" true
    (Option.is_none (Mwct_experiments.Experiments.by_name "nope"));
  Alcotest.(check int) "seventeen experiments" 17 (List.length Mwct_experiments.Experiments.names)

let test_experiment_tables_render () =
  (* Run the cheapest experiments end to end and render their tables. *)
  List.iter
    (fun name ->
      match Mwct_experiments.Experiments.by_name name with
      | None -> Alcotest.failf "missing experiment %s" name
      | Some f ->
        let table = f Mwct_experiments.Experiments.Quick in
        let out = Mwct_util.Tablefmt.render table in
        Alcotest.(check bool) (name ^ " non-empty") true (String.length out > 80))
    [ "conjecture13"; "preemptions"; "makespan" ]

let () =
  Alcotest.run "misc"
    [
      ( "spec_io",
        [
          Alcotest.test_case "round trip" `Quick test_spec_io_roundtrip;
          Alcotest.test_case "comments" `Quick test_spec_io_comments_and_blanks;
          Alcotest.test_case "errors" `Quick test_spec_io_errors;
        ] );
      ( "orderings",
        [
          Alcotest.test_case "permutation count" `Quick test_fold_permutations_count;
          Alcotest.test_case "permutations distinct" `Quick test_fold_permutations_distinct;
          Alcotest.test_case "priority rules" `Quick test_priority_rules;
          Alcotest.test_case "random order" `Quick test_random_order_is_permutation;
        ] );
      ( "preemption",
        [
          Alcotest.test_case "constant" `Quick test_changes_constant_allocation;
          Alcotest.test_case "growing" `Quick test_changes_growing_allocation;
          Alcotest.test_case "gap" `Quick test_changes_gap_counts_twice;
          Alcotest.test_case "availability" `Quick test_availability_changes;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "single task pipeline" `Quick test_single_task_everything;
          Alcotest.test_case "simplex api" `Quick test_simplex_api;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "tables render" `Slow test_experiment_tables_render;
        ] );
    ]
