(* What-if subsystem tests (DESIGN.md §16): snapshot/fork bit-fidelity
   and isolation, the Whatif_check replay oracles on sampled specs
   (both fields), the branch runner's report on a hand-checkable
   stream, the branch spec grammar, and the load generator's seeded
   determinism. *)

module Rng = Mwct_util.Rng
module Instances = Mwct_check.Instances
module WF = Mwct_check.Whatif_check.Float
module WX = Mwct_check.Whatif_check.Exact

(* ---------- the replay oracles on sampled specs, both fields ---------- *)

let seeds = [ 1; 7; 42; 1234; 20120515 ]

let families =
  [
    Instances.Whatif_branch;
    Instances.Multi_tenant;
    Instances.Capacity_tight;
    Instances.Dag_random;
  ]

let run_oracle name check =
  List.iter
    (fun family ->
      List.iter
        (fun seed ->
          let rng = Rng.create seed in
          let draw lo hi = Rng.int_in rng lo hi in
          let spec = Instances.sample draw family in
          match check spec with
          | Ok () -> ()
          | Error msg ->
            Alcotest.failf "%s (%s, seed %d): %s" name (Instances.family_name family) seed msg)
        seeds)
    families

let test_fork_identity_float () = run_oracle "fork-identity float" WF.check_fork_identity
let test_fork_identity_exact () = run_oracle "fork-identity exact" WX.check_fork_identity
let test_branch_objective_float () = run_oracle "whatif-branch float" WF.check_branch_objective
let test_branch_objective_exact () = run_oracle "whatif-branch exact" WX.check_branch_objective

(* ---------- snapshot / fork direct unit tests (float) ---------- *)

module En = WF.En
module B = Mwct_runtime.Branch.Float
module L = Mwct_runtime.Loadgen.Float
module PF = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)

let ok = function Ok x -> x | Error e -> Alcotest.fail (En.error_to_string e)

let engine () =
  let eng =
    En.create ~capacity:4.0
      ?kinetic:(PF.engine_kinetic PF.Wdeq)
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to 5 do
    ignore
      (ok
         (En.apply eng
            (En.Submit
               {
                 id = i;
                 volume = float_of_int (i + 1);
                 weight = float_of_int (1 + (i mod 3));
                 cap = 2.0;
                 speedup = None;
                 deps = [];
               })))
  done;
  ignore (ok (En.apply eng (En.Advance 0.5)));
  eng

(* A fork is a different engine with the same state: advancing the fork
   must not move the parent or a sibling fork, and the straight-line
   futures agree. *)
let test_fork_isolation () =
  let parent = engine () in
  let snap = En.snapshot parent in
  let f1 = En.fork ?kinetic:(PF.engine_kinetic PF.Wdeq) snap in
  let f2 = En.fork ?kinetic:(PF.engine_kinetic PF.Wdeq) snap in
  Alcotest.(check string) "fork dump = parent dump" (En.dump parent) (En.dump f1);
  let before = En.dump parent in
  ignore (ok (En.apply f1 En.Drain));
  Alcotest.(check string) "draining the fork leaves the parent alone" before (En.dump parent);
  Alcotest.(check string) "and leaves the sibling fork alone" before (En.dump f2);
  ignore (ok (En.apply parent En.Drain));
  Alcotest.(check string) "identical futures" (En.dump f1) (En.dump parent);
  Alcotest.(check (float 0.0)) "identical objectives" (En.weighted_completion f1)
    (En.weighted_completion parent)

(* Forking under a policy override switches the share rule without
   touching the carried state: same alive set, diverging schedule. *)
let test_fork_policy_switch () =
  let parent = engine () in
  let snap = En.snapshot parent in
  let deq = En.fork ~policy:(PF.engine_policy PF.Deq) ?kinetic:(PF.engine_kinetic PF.Deq) snap in
  Alcotest.(check int) "alive set carried over" (En.alive_count parent) (En.alive_count deq);
  ignore (ok (En.apply parent En.Drain));
  ignore (ok (En.apply deq En.Drain));
  (* weights differ across tasks, so WDEQ and DEQ schedules diverge *)
  Alcotest.(check bool) "objectives diverge under the switched rule" true
    (En.weighted_completion parent <> En.weighted_completion deq)

(* ---------- branch runner on a hand-checkable stream ---------- *)

let resolve name =
  if name = "wdeq" then Some (PF.engine_policy PF.Wdeq)
  else if name = "deq" then Some (PF.engine_policy PF.Deq)
  else None

let kinetic_for name =
  if name = "wdeq" then PF.engine_kinetic PF.Wdeq
  else if name = "deq" then PF.engine_kinetic PF.Deq
  else None

let submit id volume weight =
  En.Submit { id; volume; weight; cap = 1.0; speedup = None; deps = [] }

(* Two unit-weight tasks on one processor, forked before a third
   arrives. The straight-line branch reproduces the baseline exactly;
   scaling tenant 1's volumes up makes the branch strictly worse. *)
let test_branch_report () =
  let events =
    [ submit 0 1.0 1.0; submit 1 1.0 1.0; En.Advance 0.5; submit 3 1.0 1.0; En.Drain ]
  in
  let branches =
    [
      { B.label = "idle"; mutations = [] };
      { B.label = "double"; mutations = [ B.Scale_tenant { tenant = 1; num = 2; den = 1 } ] };
    ]
  in
  let report =
    match
      B.run ~resolve ~kinetic_for ~tenants:2 ~capacity:1.0 ~policy:"wdeq" ~events ~fork_at:3
        ~branches ()
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let idle, double =
    match report.B.branches with
    | [ a; b ] -> (a, b)
    | _ -> Alcotest.fail "two branches expected"
  in
  Alcotest.(check (float 0.0)) "straight-line branch: zero delta" 0.0 idle.B.d_wc;
  Alcotest.(check bool) "straight-line branch: no divergence" true (idle.B.first_divergence = None);
  Alcotest.(check int) "straight-line branch: nothing dropped" 0 idle.B.dropped;
  Alcotest.(check bool) "scaling tenant 1 up is strictly worse" true (double.B.d_wc > 0.0);
  Alcotest.(check bool) "divergence time reported" true (double.B.first_divergence <> None);
  (* the per-tenant split must account for the whole delta *)
  Alcotest.(check (float 1e-9)) "tenant deltas sum to the total" double.B.d_wc
    (Array.fold_left ( +. ) 0.0 double.B.tenant_d_wc)

(* Tenants are [id mod tenants], so at two tenants a scale of tenant 2
   matches no task: it is refused, naming the branch, before any
   replay. Tenant 1 is in range and still runs. *)
let test_scale_tenant_range () =
  let events = [ submit 0 1.0 1.0; submit 1 1.0 1.0; En.Advance 0.5; submit 3 1.0 1.0; En.Drain ] in
  let run tenant =
    B.run ~resolve ~kinetic_for ~tenants:2 ~capacity:1.0 ~policy:"wdeq" ~events ~fork_at:3
      ~branches:[ { B.label = "s"; mutations = [ B.Scale_tenant { tenant; num = 2; den = 1 } ] } ]
      ()
  in
  (match run 2 with
  | Ok _ -> Alcotest.fail "scale of tenant 2 at 2 tenants must be refused"
  | Error e ->
    Alcotest.(check string) "error names the branch and the range"
      "branch \"s\": scale tenant 2 out of range (tenants are 0..1)" e);
  match run 1 with
  | Ok { B.branches = [ o ]; _ } ->
    Alcotest.(check bool) "tenant 1 in range: the scale applies" true (o.B.d_wc > 0.0)
  | Ok _ -> Alcotest.fail "one branch expected"
  | Error e -> Alcotest.fail e

(* ---------- branch spec grammar ---------- *)

let test_spec_grammar () =
  (match B.parse_spec "faster:policy=deq,scale=1:3/2,advance=1/4" with
  | Ok
      {
        B.label = "faster";
        mutations =
          [
            B.Set_policy "deq";
            B.Scale_tenant { B.tenant = 1; num = 3; den = 2 };
            B.Inject (En.Advance dt);
          ];
      } ->
    Alcotest.(check (float 0.0)) "advance" 0.25 dt
  | Ok _ -> Alcotest.fail "wrong parse for policy/scale/advance spec"
  | Error e -> Alcotest.fail e);
  (match B.parse_spec "inject:submit=9:1/2:2:1,cancel=4" with
  | Ok
      {
        B.mutations =
          [
            B.Inject (En.Submit { id; volume; weight; cap; speedup = None; deps = [] });
            B.Inject (En.Cancel 4);
          ];
        _;
      } ->
    Alcotest.(check int) "id" 9 id;
    Alcotest.(check (float 0.0)) "volume" 0.5 volume;
    Alcotest.(check (float 0.0)) "weight" 2.0 weight;
    Alcotest.(check (float 0.0)) "cap" 1.0 cap
  | Ok _ -> Alcotest.fail "wrong parse for submit/cancel spec"
  | Error e -> Alcotest.fail e);
  (match B.parse_spec "bare" with
  | Ok { B.label = "bare"; mutations = [] } -> ()
  | _ -> Alcotest.fail "bare label must parse as a straight-line branch");
  let rejected s = match B.parse_spec s with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "empty label rejected" true (rejected ":policy=deq");
  Alcotest.(check bool) "unknown clause rejected" true (rejected "x:warp=9");
  Alcotest.(check bool) "zero scale factor rejected" true (rejected "x:scale=0:0");
  Alcotest.(check bool) "negative advance rejected" true (rejected "x:advance=-1");
  Alcotest.(check bool) "malformed submit rejected" true (rejected "x:submit=1:2")

(* ---------- load generator determinism ---------- *)

let stream_fingerprint events =
  String.concat "\n" (List.mapi (fun i e -> WF.J.to_line ~seq:i (WF.J.Input e)) events)

let test_loadgen_determinism () =
  List.iter
    (fun pattern ->
      let gen () = L.generate ~pattern ~seed:42 ~tenants:4 ~events:96 () in
      Alcotest.(check string)
        (L.pattern_name pattern ^ ": same seed, same bytes")
        (stream_fingerprint (gen ()))
        (stream_fingerprint (gen ()));
      let other = L.generate ~pattern ~seed:43 ~tenants:4 ~events:96 () in
      Alcotest.(check bool)
        (L.pattern_name pattern ^ ": different seed differs")
        true
        (stream_fingerprint (gen ()) <> stream_fingerprint other))
    [ L.Burst; L.Diurnal; L.Adversarial ]

(* Every pattern's stream (with and without deps) applies cleanly to a
   fresh engine and drains it — the generator's contract with
   `mwct whatif`. *)
let test_loadgen_applies () =
  List.iter
    (fun pattern ->
      List.iter
        (fun deps ->
          let eng =
            En.create ~capacity:4.0
              ?kinetic:(PF.engine_kinetic PF.Wdeq)
              ~policy:(PF.engine_policy PF.Wdeq) ()
          in
          List.iteri
            (fun i ev ->
              match En.apply eng ev with
              | Ok _ -> ()
              | Error e ->
                Alcotest.failf "%s (deps %b) event %d: %s" (L.pattern_name pattern) deps i
                  (En.error_to_string e))
            (L.generate ~deps ~pattern ~seed:7 ~tenants:3 ~events:120 ());
          Alcotest.(check int) (L.pattern_name pattern ^ ": drained") 0 (En.alive_count eng))
        [ false; true ])
    [ L.Burst; L.Diurnal; L.Adversarial ]

(* The float and exact generators draw the same rational stream: every
   payload is dyadic, so converting the exact stream to floats must
   reproduce the float stream event by event. *)
let test_loadgen_cross_field () =
  let module LX = Mwct_runtime.Loadgen.Exact in
  let module Q = Mwct_rational.Rational in
  let fl = L.generate ~deps:true ~pattern:L.Diurnal ~seed:5 ~tenants:4 ~events:64 () in
  let ql = LX.generate ~deps:true ~pattern:LX.Diurnal ~seed:5 ~tenants:4 ~events:64 () in
  Alcotest.(check int) "same length" (List.length fl) (List.length ql);
  List.iter2
    (fun fe qe ->
      match (fe, qe) with
      | ( En.Submit { id = fi; volume = fv; weight = fw; cap = fc; deps = fd; _ },
          LX.En.Submit { id = qi; volume = qv; weight = qw; cap = qc; deps = qd; _ } ) ->
        Alcotest.(check int) "id" fi qi;
        Alcotest.(check (float 0.0)) "volume" fv (Q.to_float qv);
        Alcotest.(check (float 0.0)) "weight" fw (Q.to_float qw);
        Alcotest.(check (float 0.0)) "cap" fc (Q.to_float qc);
        Alcotest.(check (list int)) "deps" fd qd
      | En.Cancel a, LX.En.Cancel b -> Alcotest.(check int) "cancel" a b
      | En.Advance a, LX.En.Advance b -> Alcotest.(check (float 0.0)) "dt" a (Q.to_float b)
      | En.Drain, LX.En.Drain -> ()
      | _ -> Alcotest.fail "event shapes differ across fields")
    fl ql

let () =
  Alcotest.run "whatif"
    [
      ( "oracles",
        [
          Alcotest.test_case "fork identity (float)" `Quick test_fork_identity_float;
          Alcotest.test_case "fork identity (exact)" `Quick test_fork_identity_exact;
          Alcotest.test_case "branch objective (float)" `Quick test_branch_objective_float;
          Alcotest.test_case "branch objective (exact)" `Quick test_branch_objective_exact;
        ] );
      ( "fork",
        [
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          Alcotest.test_case "fork policy switch" `Quick test_fork_policy_switch;
        ] );
      ( "branch",
        [
          Alcotest.test_case "branch report" `Quick test_branch_report;
          Alcotest.test_case "scale tenant out of range refused" `Quick test_scale_tenant_range;
          Alcotest.test_case "spec grammar" `Quick test_spec_grammar;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "seeded determinism" `Quick test_loadgen_determinism;
          Alcotest.test_case "streams apply cleanly" `Quick test_loadgen_applies;
          Alcotest.test_case "cross-field agreement" `Quick test_loadgen_cross_field;
        ] );
    ]
