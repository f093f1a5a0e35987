(* Cross-engine equivalence for the event-driven kernels (this PR's
   fast paths): the binary-searched WDEQ share computation must agree
   with the seed's List.partition fixpoint — exactly over rationals,
   within float tolerance over floats — and sparse column schedules
   must round-trip through the dense representation unchanged. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module Rng = Mwct_util.Rng
module SimF = Mwct_ncv.Simulator.Float
module PolF = SimF.P

(* Alive triples (index, weight, effective delta) for a random subset
   of the instance's tasks, selected by the bits of [mask]; task 0 is
   always kept so the list is non-empty. *)
let alive_subset_f (inst : EF.Types.instance) mask =
  List.filteri (fun i _ -> i = 0 || (mask lsr (i land 30)) land 1 = 1)
    (List.mapi (fun i (t : EF.Types.task) -> (i, t.EF.Types.weight, EF.Instance.effective_delta inst i))
       (Array.to_list inst.EF.Types.tasks))

let alive_subset_q (inst : EQ.Types.instance) mask =
  List.filteri (fun i _ -> i = 0 || (mask lsr (i land 30)) land 1 = 1)
    (List.mapi (fun i (t : EQ.Types.task) -> (i, t.EQ.Types.weight, EQ.Instance.effective_delta inst i))
       (Array.to_list inst.EQ.Types.tasks))

let sorted_by_id l = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) l

let gen_masked = QCheck2.Gen.pair (Support.gen_spec `Uniform) QCheck2.Gen.(int_bound max_int)

(* ---------- fast shares vs the List.partition reference ---------- *)

let prop_shares_float =
  QCheck2.Test.make ~name:"fast shares = reference shares (float)" ~count:500
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_masked
    (fun (spec, mask) ->
      let inst = Support.finst spec in
      let alive = alive_subset_f inst mask in
      let fast = sorted_by_id (EF.Wdeq.shares ~p:inst.EF.Types.procs alive) in
      let slow = sorted_by_id (EF.Wdeq.shares_reference ~p:inst.EF.Types.procs alive) in
      List.length fast = List.length slow
      && List.for_all2
           (fun (i, a) (i', b) -> i = i' && Float.abs (a -. b) < 1e-9)
           fast slow
      && List.fold_left (fun acc (_, a) -> acc +. a) 0. fast <= inst.EF.Types.procs +. 1e-9)

let prop_shares_exact =
  QCheck2.Test.make ~name:"fast shares = reference shares (exact, bit-for-bit)" ~count:300
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_masked
    (fun (spec, mask) ->
      let inst = Support.qinst spec in
      let alive = alive_subset_q inst mask in
      let fast = sorted_by_id (EQ.Wdeq.shares ~p:inst.EQ.Types.procs alive) in
      let slow = sorted_by_id (EQ.Wdeq.shares_reference ~p:inst.EQ.Types.procs alive) in
      List.length fast = List.length slow
      && List.for_all2 (fun (i, a) (i', b) -> i = i' && Q.equal a b) fast slow
      && Q.compare
           (List.fold_left (fun acc (_, a) -> Q.add acc a) Q.zero fast)
           inst.EQ.Types.procs
         <= 0)

(* The non-clairvoyant policy layer mirrors the same kernel: its WDEQ
   shares must match the core reference given identical views. *)
let prop_policy_shares =
  QCheck2.Test.make ~name:"ncv policy WDEQ shares = core reference" ~count:400
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_masked
    (fun (spec, mask) ->
      let inst = Support.finst spec in
      let alive = alive_subset_f inst mask in
      let views = List.map (fun (i, w, d) -> { PolF.id = i; weight = w; cap = d }) alive in
      let pol =
        sorted_by_id (PolF.shares PolF.Wdeq ~capacity:inst.EF.Types.procs views)
      in
      let slow = sorted_by_id (EF.Wdeq.shares_reference ~p:inst.EF.Types.procs alive) in
      List.length pol = List.length slow
      && List.for_all2 (fun (i, a) (i', b) -> i = i' && Float.abs (a -. b) < 1e-9) pol slow)

(* Every non-empty column of a WDEQ run must be exactly the reference
   fixpoint on the tasks still alive in that column — this checks the
   whole event-driven simulate path, event by event, in exact
   arithmetic. *)
let prop_simulate_columns_are_fixpoints =
  QCheck2.Test.make ~name:"WDEQ simulate columns = reference fixpoints (exact)" ~count:100
    ~print:Support.print_spec
    (Support.gen_spec ~max_procs:5 ~max_n:5 `Uniform)
    (fun spec ->
      let inst = Support.qinst spec in
      let s = EQ.Wdeq.wdeq inst in
      let n = Array.length s.EQ.Types.finish in
      let ok = ref true in
      for j = 0 to n - 1 do
        let col = EQ.Schedule.column_allocs s j in
        if col <> [] then begin
          let alive =
            List.filter_map
              (fun i ->
                if EQ.Schedule.position s i >= j then
                  Some (i, inst.EQ.Types.tasks.(i).EQ.Types.weight, EQ.Instance.effective_delta inst i)
                else None)
              (List.init n (fun i -> i))
          in
          let expected =
            List.filter (fun (_, a) -> Q.sign a > 0)
              (sorted_by_id (EQ.Wdeq.shares_reference ~p:inst.EQ.Types.procs alive))
          in
          if
            not
              (List.length col = List.length expected
              && List.for_all2 (fun (i, a) (i', b) -> i = i' && Q.equal a b) col expected)
          then ok := false
        end
      done;
      !ok)

(* ---------- sparse <-> dense round trips ---------- *)

let prop_dense_round_trip_float =
  QCheck2.Test.make ~name:"of_dense (dense_alloc s) = s (greedy, float)" ~count:300
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let s = EF.Greedy.run inst sigma in
      let s' =
        EF.Schedule.of_dense ~instance:s.EF.Types.instance ~order:s.EF.Types.order
          ~finish:s.EF.Types.finish (EF.Schedule.dense_alloc s)
      in
      s'.EF.Types.columns = s.EF.Types.columns
      && EF.Schedule.is_valid s'
      && EF.Schedule.completion_times s' = EF.Schedule.completion_times s
      && EF.Schedule.weighted_completion_time s' = EF.Schedule.weighted_completion_time s)

let prop_dense_round_trip_exact =
  QCheck2.Test.make ~name:"of_dense (dense_alloc s) = s (WDEQ, exact)" ~count:100
    ~print:Support.print_spec
    (Support.gen_spec ~max_procs:5 ~max_n:5 `Uniform)
    (fun spec ->
      let inst = Support.qinst spec in
      let s = EQ.Wdeq.wdeq inst in
      let s' =
        EQ.Schedule.of_dense ~instance:s.EQ.Types.instance ~order:s.EQ.Types.order
          ~finish:s.EQ.Types.finish (EQ.Schedule.dense_alloc s)
      in
      EQ.Schedule.is_valid ~exact:true s'
      && Array.for_all2
           (fun col col' ->
             List.length col = List.length col'
             && List.for_all2 (fun (i, a) (i', a') -> i = i' && Q.equal a a') col col')
           s.EQ.Types.columns s'.EQ.Types.columns
      && Q.equal (EQ.Schedule.weighted_completion_time s') (EQ.Schedule.weighted_completion_time s))

(* task_rows is the transpose of columns. *)
let prop_task_rows_transpose =
  QCheck2.Test.make ~name:"task_rows transposes columns" ~count:200
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let s = EF.Greedy.run inst sigma in
      let rows = EF.Schedule.task_rows s in
      let ok = ref true in
      for i = 0 to n - 1 do
        List.iter (fun (j, a) -> if EF.Schedule.alloc s i j <> a then ok := false) rows.(i)
      done;
      (* Same total number of entries. *)
      let row_entries = Array.fold_left (fun acc r -> acc + List.length r) 0 rows in
      let col_entries = Array.fold_left (fun acc c -> acc + List.length c) 0 s.EF.Types.columns in
      !ok && row_entries = col_entries)

(* ---------- hand-checkable unit case ---------- *)

let test_shares_hand () =
  (* P=4; (w=1, d=1) is clipped to 1, (w=1, d=4) takes the surplus 3. *)
  let p = 4. in
  let alive = [ (0, 1., 1.); (1, 1., 4.) ] in
  let check l =
    match sorted_by_id l with
    | [ (0, a); (1, b) ] ->
      Alcotest.(check (float 1e-9)) "clipped" 1. a;
      Alcotest.(check (float 1e-9)) "surplus" 3. b
    | _ -> Alcotest.fail "wrong ids"
  in
  check (EF.Wdeq.shares ~p alive);
  check (EF.Wdeq.shares_reference ~p alive)

(* A cascading-saturation instance: the fixpoint clips exactly one
   task per round, five rounds deep. This exercises the ncv policy's
   frontier fallback (its round budget is 2) and the core kernel's
   frontier on a non-trivial clipped prefix. *)
let test_cascade () =
  let p = 8. in
  let ws = [| 16.; 8.; 4.; 2.; 1. |] and caps = [| 0.1; 3.; 2.5; 1.5; 5. |] in
  let expected = [ 0.1; 3.; 2.5; 1.5; 0.9 ] in
  let alive = List.init 5 (fun i -> (i, ws.(i), caps.(i))) in
  let check name l =
    List.iteri
      (fun k e ->
        match List.assoc_opt k (sorted_by_id l) with
        | Some a -> Alcotest.(check (float 1e-9)) (Printf.sprintf "%s task %d" name k) e a
        | None -> Alcotest.failf "%s: missing task %d" name k)
      expected
  in
  check "reference" (EF.Wdeq.shares_reference ~p alive);
  check "fast" (EF.Wdeq.shares ~p alive);
  let views = List.map (fun (i, w, d) -> { PolF.id = i; weight = w; cap = d }) alive in
  check "policy (fallback)" (PolF.shares PolF.Wdeq ~capacity:p views)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "kernels"
    [
      ( "unit",
        [
          Alcotest.test_case "hand shares" `Quick test_shares_hand;
          Alcotest.test_case "cascading saturation" `Quick test_cascade;
        ] );
      ( "shares",
        q
          [
            prop_shares_float;
            prop_shares_exact;
            prop_policy_shares;
            prop_simulate_columns_are_fixpoints;
          ] );
      ( "sparse",
        q [ prop_dense_round_trip_float; prop_dense_round_trip_exact; prop_task_rows_transpose ] );
    ]
