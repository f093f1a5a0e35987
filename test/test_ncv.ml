(* Tests for the non-clairvoyant event simulator (lib/ncv): policy
   share computations, trace validity, agreement with the core WDEQ
   simulator on zero-release instances, and arrival handling. *)

open Test_support
module EF = Support.EF
module Sim = Mwct_ncv.Simulator.Float
module SimQ = Mwct_ncv.Simulator.Exact
module Pol = Sim.P
module Q = Support.Q
module Rng = Mwct_util.Rng
module Instances = Mwct_check.Instances

let f = Alcotest.(check (float 1e-9))

let test_policy_shares_wdeq () =
  (* P=4; ids 0 (w=1, cap=1) and 1 (w=1, cap=4): clipped share 1 and
     surplus 3. *)
  let views = [ { Pol.id = 0; weight = 1.; cap = 1. }; { Pol.id = 1; weight = 1.; cap = 4. } ] in
  let shares = Pol.shares Pol.Wdeq ~capacity:4. views in
  f "task 0 clipped" 1. (List.assoc 0 shares);
  f "task 1 surplus" 3. (List.assoc 1 shares)

let test_policy_shares_equi_wastes () =
  (* EQUI gives min(P/n, cap) and wastes the surplus. *)
  let views = [ { Pol.id = 0; weight = 1.; cap = 1. }; { Pol.id = 1; weight = 1.; cap = 4. } ] in
  let shares = Pol.shares Pol.Equi ~capacity:4. views in
  f "task 0" 1. (List.assoc 0 shares);
  f "task 1 fair only" 2. (List.assoc 1 shares)

let test_policy_priority () =
  let views =
    [
      { Pol.id = 0; weight = 1.; cap = 3. };
      { Pol.id = 1; weight = 5.; cap = 3. };
      { Pol.id = 2; weight = 3.; cap = 3. };
    ]
  in
  let shares = Pol.shares Pol.Priority_weight ~capacity:4. views in
  f "heaviest gets cap" 3. (List.assoc 1 shares);
  f "second gets rest" 1. (List.assoc 2 shares);
  f "lightest starves" 0. (List.assoc 0 shares)

let test_simulator_matches_core_wdeq () =
  let spec = Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4); ((2, 1), (3, 1), 2) ] in
  let inst = Support.finst spec in
  let tr = Sim.run inst Pol.Wdeq in
  Alcotest.(check (result unit string)) "trace valid" (Ok ()) (Sim.check tr);
  let core, _ = EF.Wdeq.wdeq inst in
  f "objective matches core simulator"
    (EF.Schedule.weighted_completion_time core)
    (Sim.weighted_completion_time tr)

let test_arrivals () =
  (* P=1; two unit tasks delta=1; second released at t=5: it runs
     alone after the first finishes at 1... but arrives at 5. *)
  let spec = Support.uspec ~procs:1 [ ((1, 1), 1); ((1, 1), 1) ] in
  let inst = Support.finst spec in
  let tr = Sim.run ~releases:[| 0.; 5. |] inst Pol.Wdeq in
  Alcotest.(check (result unit string)) "trace valid" (Ok ()) (Sim.check tr);
  f "first completes at 1" 1. tr.Sim.records.(0).Sim.completion;
  f "second completes at 6" 6. tr.Sim.records.(1).Sim.completion;
  f "flow time = 1 + 1" 2. (Sim.weighted_flow_time tr);
  (* Events in order: arrival 0, completion 0, arrival 1, completion 1. *)
  let kinds = List.map snd tr.Sim.events in
  Alcotest.(check int) "four events" 4 (List.length kinds);
  (match kinds with
  | [ Sim.Arrival 0; Sim.Completion 0; Sim.Arrival 1; Sim.Completion 1 ] -> ()
  | _ -> Alcotest.fail "unexpected event order")

let test_arrival_preempts_shares () =
  (* P=2, task 0 (V=4, d=2) alone until task 1 (V=1, d=2, w=1) arrives
     at t=1: shares drop from 2 to 1 each. *)
  let spec = Support.uspec ~procs:2 [ ((4, 1), 2); ((1, 1), 2) ] in
  let inst = Support.finst spec in
  let tr = Sim.run ~releases:[| 0.; 1. |] inst Pol.Wdeq in
  (* Task 0: rate 2 on [0,1], then 1 until task 1 finishes at t=2, then
     2 again: remaining at t=1 is 2; at t=2 is 1, finishes 1+? ...
     t=2: task1 done (V=1 at rate 1). task0 has 1 left at rate 2: ends 2.5. *)
  f "task 1 completes at 2" 2. tr.Sim.records.(1).Sim.completion;
  f "task 0 completes at 2.5" 2.5 tr.Sim.records.(0).Sim.completion;
  Alcotest.(check (result unit string)) "trace valid" (Ok ()) (Sim.check tr)

let test_exact_simulator () =
  let spec = Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4) ] in
  let inst = Support.qinst spec in
  let tr = SimQ.run inst SimQ.P.Wdeq in
  Alcotest.(check string) "C1 = 7/4" "7/4" (Q.to_string tr.SimQ.records.(1).SimQ.completion)

(* ---------- properties ---------- *)

let gen_with_releases =
  let open QCheck2.Gen in
  let* spec = Support.gen_spec `Uniform in
  let* seed = int_bound 1_000_000 in
  return (spec, seed)

let releases_of rng n = Array.init n (fun _ -> float_of_int (Rng.dyadic rng ~den:16) /. 8.)

let prop_traces_valid =
  QCheck2.Test.make ~name:"all policies produce valid traces (with arrivals)" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_releases
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let releases = releases_of (Rng.create seed) n in
      List.for_all
        (fun p ->
          let tr = Sim.run ~releases inst p in
          match Sim.check tr with Ok () -> true | Error _ -> false)
        Pol.all)

let prop_zero_release_matches_core =
  QCheck2.Test.make ~name:"zero-release WDEQ trace = core WDEQ schedule" ~count:150
    ~print:Support.print_spec (Support.gen_spec `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let tr = Sim.run inst Pol.Wdeq in
      let s = Sim.to_column_schedule tr in
      let core, _ = EF.Wdeq.wdeq inst in
      EF.Schedule.is_valid s
      && Float.abs (Sim.weighted_completion_time tr -. EF.Schedule.weighted_completion_time core) < 1e-6)

let prop_completions_after_release =
  QCheck2.Test.make ~name:"completions never precede release + height" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    gen_with_releases
    (fun (spec, seed) ->
      let inst = Support.finst spec in
      let n = Array.length inst.EF.Types.tasks in
      let releases = releases_of (Rng.create seed) n in
      let tr = Sim.run ~releases inst Pol.Wdeq in
      Array.for_all
        (fun i ->
          tr.Sim.records.(i).Sim.completion +. 1e-9
          >= releases.(i) +. EF.Instance.height inst i)
        (Array.init n (fun i -> i)))

let prop_deq_beats_equi =
  (* With equal weights, DEQ's share dominates EQUI's pointwise (the
     redistributed surplus is never wasted), so every completion — and
     the makespan — is no later. With unequal weights this fails: WDEQ
     can starve a light straggler that EQUI would treat fairly. *)
  QCheck2.Test.make ~name:"DEQ makespan <= EQUI makespan (unweighted)" ~count:150
    ~print:Support.print_spec (Support.gen_spec `Unweighted)
    (fun spec ->
      let inst = Support.finst spec in
      let m p = Sim.makespan (Sim.run inst p) in
      m Pol.Deq <= m Pol.Equi +. 1e-6)

(* ---------- trace pin ---------- *)

(* Every event, completion and segment of the Simulator's traces over
   a fixed sweep, rendered exactly ([F.repr]) and digested: seeds 0-49
   x every [Instances] family whose sample has no edges x the four
   policies, with releases drawn from the same SplitMix64 stream (all
   zero on a third of the draws), on the float field and, every fifth
   seed, on the exact one. The digests were captured from the engine
   that recorded rate histories itself, before the Simulator took the
   recording over, so they pin the trace bytes, not only validity. *)
module Pin (F : Mwct_field.Field.S) = struct
  module S = Mwct_ncv.Simulator.Make (F)
  module I = Mwct_core.Instance.Make (F)

  let add b spec releases =
    let inst = I.of_spec spec in
    let releases = Array.map (fun (p, q) -> F.of_q p q) releases in
    let r = F.repr in
    List.iter
      (fun p ->
        let tr = S.run ~releases inst p in
        Printf.bprintf b "policy %s\n" (S.P.name p);
        List.iter
          (fun (t, e) ->
            match e with
            | S.Arrival i -> Printf.bprintf b "arrival %d %s\n" i (r t)
            | S.Completion i -> Printf.bprintf b "completion %d %s\n" i (r t))
          tr.S.events;
        Array.iteri
          (fun i (rc : S.record) ->
            Printf.bprintf b "task %d %s %s" i (r rc.S.release) (r rc.S.completion);
            List.iter
              (fun (u, v, s) -> Printf.bprintf b " %s:%s@%s" (r u) (r v) (r s))
              rc.S.segments;
            Buffer.add_char b '\n')
          tr.S.records)
      S.P.all
end

module PinF = Pin (Mwct_field.Field.Float_field)
module PinQ = Pin (Mwct_rational.Rational.Rat_field)

let test_trace_pin () =
  let bf = Buffer.create (1 lsl 20) and bq = Buffer.create (1 lsl 18) in
  let blocks = ref 0 in
  for seed = 0 to 49 do
    let rng = Rng.create seed in
    let draw lo hi = Rng.int_in rng lo hi in
    List.iter
      (fun family ->
        let spec = Instances.sample draw family in
        let n = Array.length spec.Mwct_core.Spec.tasks in
        let releases =
          if Rng.int rng 3 = 0 then Array.make n (0, 1)
          else Array.init n (fun _ -> (Rng.dyadic rng ~den:16, 8))
        in
        if not (Mwct_core.Spec.has_deps spec) then begin
          incr blocks;
          PinF.add bf spec releases;
          if seed mod 5 = 0 then PinQ.add bq spec releases
        end)
      Instances.all_families
  done;
  let digest b = Digest.to_hex (Digest.string (Buffer.contents b)) in
  Alcotest.(check int) "instances swept" 684 !blocks;
  Alcotest.(check string) "float traces" "11f8e4af84ec3bd79a34459dd084ad79" (digest bf);
  Alcotest.(check string) "exact traces" "11cfac115ae8cba3d8c735a5051f0707" (digest bq)

(* ---------- release refusal and the capacity sweep ---------- *)

let test_bad_releases () =
  let inst = Support.finst (Support.uspec ~procs:2 [ ((1, 1), 1); ((1, 1), 1) ]) in
  List.iter
    (fun r ->
      match Sim.run ~releases:[| 0.; r |] inst Pol.Wdeq with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "release %h accepted" r)
    [ Float.infinity; Float.neg_infinity; Float.nan; -1. ]

(* The capacity check as a scan of every segment per pair of
   consecutive boundaries, kept as the reference for the sweep in
   [Simulator.check]: the verdicts must agree exactly. *)
module Scan (F : Mwct_field.Field.S) = struct
  module S = Mwct_ncv.Simulator.Make (F)
  module I = Mwct_core.Instance.Make (F)

  let capacity (tr : S.trace) : (unit, string) result =
    let boundaries =
      List.sort_uniq F.compare
        (List.concat_map
           (fun (r : S.record) -> List.concat_map (fun (a, b, _) -> [ a; b ]) r.S.segments)
           (Array.to_list tr.S.records))
    in
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        let total = ref F.zero in
        Array.iter
          (fun (r : S.record) ->
            List.iter
              (fun (s0, s1, s) ->
                if F.compare s0 a <= 0 && F.compare b s1 <= 0 then total := F.add !total s)
              r.S.segments)
          tr.S.records;
        if F.leq_approx !total tr.S.instance.S.T.procs then pairs rest
        else Error "capacity exceeded between events"
      | _ -> Ok ()
    in
    pairs boundaries

  (* [check] once its per-task and volume checks pass is the capacity
     verdict; compare the two on the trace and on doctored copies: one
     task's segments shifted later by [shift] (overlapping the others),
     and one segment split into two halves of its share over the same
     interval (a task overlapping itself). *)
  (* capacity verdicts that failed, doctored traces included *)
  let exceeded = ref 0

  let agree spec releases p =
    let shift = F.of_q 3 8 in
    let tr = S.run ~releases:(Array.map (fun (a, b) -> F.of_q a b) releases) (I.of_spec spec) p in
    let verdict tr =
      match S.check tr with
      | Error "capacity exceeded between events" | Ok () ->
        let want = capacity tr in
        if want <> Ok () then incr exceeded;
        (S.check tr, want)
      | Error _ as e -> (e, e)
    in
    let doctor i f =
      { tr with S.records = Array.mapi (fun j r -> if i = j then f r else r) tr.S.records }
    in
    let n = Array.length tr.S.records in
    let shifted i =
      doctor i (fun r ->
          {
            r with
            S.segments = List.map (fun (a, b, s) -> (F.add a shift, F.add b shift, s)) r.S.segments;
          })
    in
    let halved i =
      doctor i (fun r ->
          match r.S.segments with
          | (a, b, s) :: rest ->
            let h = F.div s (F.of_int 2) in
            { r with S.segments = (a, b, h) :: (a, b, h) :: rest }
          | [] -> r)
    in
    ( capacity tr = Ok (),
      List.for_all
        (fun tr ->
          let got, want = verdict tr in
          got = want)
        (tr :: List.concat (List.init n (fun i -> [ shifted i; halved i ]))) )
end

module ScanF = Scan (Mwct_field.Field.Float_field)
module ScanQ = Scan (Mwct_rational.Rational.Rat_field)

(* The trace-pin sweep's traces (float, and exact every fifth seed),
   each with its doctored copies. *)
let test_check_sweep_matches_scan () =
  let violations = ref 0 in
  for seed = 0 to 49 do
    let rng = Rng.create seed in
    let draw lo hi = Rng.int_in rng lo hi in
    List.iter
      (fun family ->
        let spec = Instances.sample draw family in
        let n = Array.length spec.Mwct_core.Spec.tasks in
        let releases =
          if Rng.int rng 3 = 0 then Array.make n (0, 1)
          else Array.init n (fun _ -> (Rng.dyadic rng ~den:16, 8))
        in
        if not (Mwct_core.Spec.has_deps spec) then
          List.iter
            (fun p ->
              let where field =
                Printf.sprintf "seed %d, %s, %s: %s verdicts differ" seed
                  (Instances.family_name family) (Pol.name p) field
              in
              let valid, agree = ScanF.agree spec releases p in
              if not agree then Alcotest.fail (where "float");
              if not valid then incr violations;
              if seed mod 5 = 0 then begin
                let p = Option.get (ScanQ.S.P.of_name (Pol.name p)) in
                if not (snd (ScanQ.agree spec releases p)) then Alcotest.fail (where "exact")
              end)
            Pol.all)
      Instances.all_families
  done;
  Alcotest.(check int) "no capacity violation on undoctored traces" 0 !violations;
  Alcotest.(check bool) "some doctored traces exceed capacity" true
    (!ScanF.exceeded > 0 && !ScanQ.exceeded > 0)

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "ncv"
    [
      ( "policies",
        [
          Alcotest.test_case "wdeq shares" `Quick test_policy_shares_wdeq;
          Alcotest.test_case "equi wastes" `Quick test_policy_shares_equi_wastes;
          Alcotest.test_case "priority" `Quick test_policy_priority;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "matches core wdeq" `Quick test_simulator_matches_core_wdeq;
          Alcotest.test_case "arrivals" `Quick test_arrivals;
          Alcotest.test_case "arrival reshare" `Quick test_arrival_preempts_shares;
          Alcotest.test_case "exact engine" `Quick test_exact_simulator;
          Alcotest.test_case "trace pin" `Quick test_trace_pin;
          Alcotest.test_case "bad releases refused" `Quick test_bad_releases;
          Alcotest.test_case "capacity sweep = scan" `Quick test_check_sweep_matches_scan;
        ] );
      ( "properties",
        q
          [
            prop_traces_valid;
            prop_zero_release_matches_core;
            prop_completions_after_release;
            prop_deq_beats_equi;
          ] );
    ]
