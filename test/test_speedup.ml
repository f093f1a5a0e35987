(* Tests for the generalized rate model: concave piecewise-linear
   speedup curves and per-task machine capacities. Covers the curve
   algebra (rate_at / inverse_rate / curve_rate), capacity folding in
   Instance.of_spec, the linear fast-path seam (an identity curve is
   semantically the linear law), schedule validity of the generic WDEQ
   path on curved instances, the runtime engine against batch WDEQ,
   journal round-trips of curved submissions, and the cross-layer pin
   between the engine's local curve evaluator and the core reference. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Q = Support.Q
module Spec = Mwct_core.Spec

let rat = Spec.rat

(* A 3-piece strictly concave curve saturating at delta = 4:
   slopes 3/4, 1/2, 1/8. *)
let curve3 = [ (rat 1 1, rat 3 4); (rat 2 1, rat 5 4); (rat 4 1, rat 3 2) ]

let curved_spec ?capacity ?(procs = 6) () =
  Spec.make ~procs
    [
      Spec.task ~volume:(rat 7 3) ~weight:(rat 2 1) ~speedup:curve3 ?capacity ~delta:4 ();
      Spec.task ~volume:(rat 1 2) ~delta:3 ();
      Spec.task ~volume:(rat 3 1) ~weight:(rat 1 3) ~speedup:[ (rat 2 1, rat 1 1) ] ~delta:2 ();
    ]

(* ---------- curve algebra ---------- *)

let test_rate_at () =
  let inst = Support.finst (curved_spec ()) in
  let r = EF.Instance.rate_at inst 0 in
  Alcotest.(check (float 0.)) "s(0) = 0" 0.0 (r 0.0);
  (* breakpoints hit exactly *)
  Alcotest.(check (float 1e-12)) "s(1)" 0.75 (r 1.0);
  Alcotest.(check (float 1e-12)) "s(2)" 1.25 (r 2.0);
  Alcotest.(check (float 1e-12)) "s(4)" 1.5 (r 4.0);
  (* interpolation: origin-implicit first piece, then slope 1/2, 1/8 *)
  Alcotest.(check (float 1e-12)) "s(1/2)" 0.375 (r 0.5);
  Alcotest.(check (float 1e-12)) "s(3)" 1.375 (r 3.0);
  (* plateau beyond the saturation point *)
  Alcotest.(check (float 1e-12)) "s(9) plateau" 1.5 (r 9.0);
  (* the linear law is the identity, unclamped (callers clamp shares) *)
  Alcotest.(check (float 0.)) "linear s(a) = a" 2.5 (EF.Instance.rate_at inst 1 2.5)

let test_inverse_rate () =
  let inst = Support.qinst (curved_spec ()) in
  let qq n d = Q.of_q n d in
  let check_rt name i rv =
    let a = EQ.Instance.inverse_rate inst i rv in
    Alcotest.(check bool) name true (Q.equal (EQ.Instance.rate_at inst i a) rv)
  in
  check_rt "inverse on first piece" 0 (qq 3 8);
  check_rt "inverse at breakpoint" 0 (qq 5 4);
  check_rt "inverse on last piece" 0 (qq 11 8);
  (* rates above the plateau clamp to the saturation allocation *)
  Alcotest.(check bool) "unachievable rate clamps" true
    (Q.equal (EQ.Instance.inverse_rate inst 0 (qq 7 1)) (qq 4 1));
  (* linear law: inverse is the identity *)
  Alcotest.(check bool) "linear inverse" true
    (Q.equal (EQ.Instance.inverse_rate inst 1 (qq 5 2)) (qq 5 2))

let test_max_rate_and_height () =
  let inst = Support.finst (curved_spec ()) in
  Alcotest.(check (float 1e-12)) "max_rate curved" 1.5 (EF.Instance.max_rate inst 0);
  Alcotest.(check (float 1e-12)) "height = V / max_rate" ((7. /. 3.) /. 1.5)
    (EF.Instance.height inst 0);
  Alcotest.(check (float 1e-12)) "max_rate linear" 3.0 (EF.Instance.max_rate inst 1)

(* ---------- capacity folding ---------- *)

let test_capacity_folding () =
  (* linear task: delta clamps to the capacity *)
  let spec =
    Spec.make ~procs:8 [ Spec.task ~volume:(rat 1 1) ~capacity:2 ~delta:5 () ]
  in
  let inst = Support.finst spec in
  Alcotest.(check (float 0.)) "linear capacity clamps delta" 2.0
    (EF.Instance.effective_delta inst 0);
  Alcotest.(check bool) "folded linear task has no curve" false (EF.Instance.has_curves inst);
  (* curved task, capacity between breakpoints: curve truncated at the
     capacity with the interpolated rate as new saturation point *)
  let inst3 = Support.finst (curved_spec ~capacity:3 ()) in
  Alcotest.(check (float 1e-12)) "truncated effective delta" 3.0
    (EF.Instance.effective_delta inst3 0);
  Alcotest.(check (float 1e-12)) "truncated max rate" 1.375 (EF.Instance.max_rate inst3 0);
  Alcotest.(check (float 1e-12)) "rates below capacity unchanged" 1.25
    (EF.Instance.rate_at inst3 0 2.0);
  (* capacity at a breakpoint: exact prefix *)
  let inst2 = Support.finst (curved_spec ~capacity:2 ()) in
  Alcotest.(check (float 1e-12)) "breakpoint-aligned capacity" 1.25
    (EF.Instance.max_rate inst2 0)

(* ---------- cross-layer pin: engine curve evaluator = core reference ---------- *)

let test_engine_eval_matches_core () =
  let module EnF = Mwct_runtime.Engine.Make (Mwct_field.Field.Float_field) in
  let inst = Support.finst (curved_spec ()) in
  List.iter
    (fun i ->
      match EF.Instance.speedup_arrays inst i with
      | None -> ()
      | Some (bx, by) ->
        let rec at a =
          if a > 6.0 then ()
          else begin
            Alcotest.(check (float 0.))
              (Printf.sprintf "task %d eval_curve(%g)" i a)
              (EF.Instance.curve_rate (bx, by) a)
              (EnF.eval_curve bx by a);
            at (a +. 0.109375)
          end
        in
        at 0.0)
    [ 0; 1; 2 ]

(* ---------- linear seam: identity curve = linear law ---------- *)

let prop_identity_curve_is_linear =
  QCheck2.Test.make ~count:60 ~name:"identity curve wdeq objective = linear (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Mixed)
    (fun spec ->
      let curved =
        {
          spec with
          Spec.tasks =
            Array.map
              (fun (t : Spec.task) ->
                { t with Spec.speedup = [ (Spec.rat_of_int t.Spec.delta, Spec.rat_of_int t.Spec.delta) ] })
              spec.Spec.tasks;
        }
      in
      let o inst = EQ.Schedule.weighted_completion_time (EQ.Wdeq.wdeq inst) in
      Q.equal (o (Support.qinst spec)) (o (Support.qinst curved)))

(* ---------- generic WDEQ path on curved instances ---------- *)

let valid_wdeq_on ~exact kind count =
  QCheck2.Test.make ~count
    ~name:
      (Printf.sprintf "wdeq valid on %s (%s)"
         (match kind with `Concave_curves -> "concave-curves" | _ -> "capacity-tight")
         (if exact then "exact" else "float"))
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:6 kind)
    (fun spec ->
      if exact then begin
        let sched = EQ.Wdeq.wdeq (Support.qinst spec) in
        match EQ.Schedule.check ~exact:true sched with
        | Ok () -> true
        | Error v -> QCheck2.Test.fail_report (EQ.Schedule.violation_to_string v)
      end
      else begin
        let sched = EF.Wdeq.wdeq (Support.finst spec) in
        match EF.Schedule.check sched with
        | Ok () -> true
        | Error v -> QCheck2.Test.fail_report (EF.Schedule.violation_to_string v)
      end)

let prop_wdeq_curves_float = valid_wdeq_on ~exact:false `Concave_curves 120
let prop_wdeq_curves_exact = valid_wdeq_on ~exact:true `Concave_curves 50
let prop_wdeq_capacity_float = valid_wdeq_on ~exact:false `Capacity_tight 120
let prop_wdeq_capacity_exact = valid_wdeq_on ~exact:true `Capacity_tight 50

(* Lower bounds stay dominated under curves (first slope <= 1 means
   rate <= allocation, so A and H remain lower bounds). *)
let prop_bounds_dominated_curved =
  QCheck2.Test.make ~count:60 ~name:"A,H <= wdeq objective on curved instances (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Concave_curves)
    (fun spec ->
      let inst = Support.qinst spec in
      let obj = EQ.Schedule.weighted_completion_time (EQ.Wdeq.wdeq inst) in
      Q.compare (EQ.Lower_bounds.best inst) obj <= 0)

(* ---------- makespan under curves ---------- *)

let prop_makespan_curved =
  QCheck2.Test.make ~count:60 ~name:"curved makespan schedule achieves T* (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Concave_curves)
    (fun spec ->
      let inst = Support.qinst spec in
      let t = EQ.Makespan.optimal inst in
      let sched = EQ.Makespan.schedule inst in
      EQ.Schedule.is_valid ~exact:true sched
      && Q.equal (EQ.Schedule.makespan sched) t)

(* ---------- runtime engine on curved instances ---------- *)

module HEn (F : Mwct_field.Field.S) = struct
  module En = Mwct_runtime.Engine.Make (F)
  module J = Mwct_runtime.Journal.Make (F)
  module E = Mwct_core.Engine.Make (F)
  module Sim = Mwct_ncv.Simulator.Make (F)

  let drain_all (inst : E.Types.instance) =
    let eng =
      En.create ~capacity:inst.E.Types.procs ~policy:(Sim.P.engine_policy Sim.P.Wdeq) ()
    in
    Array.iteri
      (fun i (t : E.Types.task) ->
        match
          En.submit eng
            ?speedup:(E.Instance.speedup_arrays inst i)
            ~id:i ~volume:t.E.Types.volume ~weight:t.E.Types.weight
            ~cap:(E.Instance.effective_delta inst i) ()
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail (En.error_to_string e))
      inst.E.Types.tasks;
    (match En.apply eng En.Drain with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (En.error_to_string e));
    eng
end

module HF = HEn (Mwct_field.Field.Float_field)
module HQ = HEn (Mwct_rational.Rational.Rat_field)

let prop_engine_matches_wdeq_curved_float =
  QCheck2.Test.make ~count:80 ~name:"engine drain = batch wdeq on curves (float)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:6 `Concave_curves)
    (fun spec ->
      let inst = Support.finst spec in
      let eng = HF.drain_all inst in
      let batch = EF.Wdeq.wdeq inst in
      let expected = EF.Schedule.weighted_completion_time batch in
      abs_float (expected -. HF.En.weighted_completion eng) <= 1e-9 *. (1. +. abs_float expected))

let prop_engine_matches_wdeq_curved_exact =
  QCheck2.Test.make ~count:40 ~name:"engine drain = batch wdeq on curves (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Capacity_tight)
    (fun spec ->
      let inst = Support.qinst spec in
      let eng = HQ.drain_all inst in
      let batch = EQ.Wdeq.wdeq inst in
      Q.equal (EQ.Schedule.weighted_completion_time batch) (HQ.En.weighted_completion eng))

(* ---------- journal round-trip of curved submissions ---------- *)

let test_journal_roundtrip_curved () =
  let inst = Support.finst (curved_spec ()) in
  let entries =
    HF.J.Init { capacity = inst.HF.E.Types.procs; policy = "wdeq" }
    :: List.concat_map
         (fun i ->
           [
             HF.J.Input
               (HF.En.Submit
                  {
                    id = i;
                    volume = inst.HF.E.Types.tasks.(i).HF.E.Types.volume;
                    weight = inst.HF.E.Types.tasks.(i).HF.E.Types.weight;
                    cap = HF.E.Instance.effective_delta inst i;
                    speedup = HF.E.Instance.speedup_arrays inst i;
                    deps = [];
                  });
           ])
         [ 0; 1; 2 ]
  in
  let lines = List.mapi (fun seq e -> HF.J.to_line ~seq e) entries in
  (* curved submissions carry speedup fields; linear ones must not *)
  let contains l sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length l && (String.sub l i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "curved line has speedup" true (contains (List.nth lines 1) "speedup");
  Alcotest.(check bool) "linear line has no speedup" false (contains (List.nth lines 2) "speedup");
  List.iteri
    (fun seq line ->
      match HF.J.of_line line with
      | Error msg -> Alcotest.failf "of_line %S: %s" line msg
      | Ok (_, e) -> Alcotest.(check string) "codec round-trip" line (HF.J.to_line ~seq e))
    lines

let test_engine_rejects_bad_curve () =
  let module En = HF.En in
  let eng =
    En.create ~capacity:4.0 ~policy:(HF.Sim.P.engine_policy HF.Sim.P.Wdeq) ()
  in
  let bad bx by =
    match En.submit eng ~speedup:(bx, by) ~id:9 ~volume:1.0 ~weight:1.0 ~cap:2.0 () with
    | Error (En.Invalid _) -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (En.error_to_string e)
    | Ok () -> Alcotest.fail "invalid curve accepted"
  in
  bad [| 2.0; 1.0 |] [| 1.0; 2.0 |];
  (* non-monotone allocations *)
  bad [| 1.0; 2.0 |] [| 1.0; 0.5 |];
  (* decreasing rate *)
  bad [| 1.0; 2.0 |] [| 0.5; 3.0 |];
  (* non-concave *)
  bad [| 1.0 |] [| 2.0 |];
  (* superlinear *)
  bad [| 0.0; 1.0 |] [| 0.0; 1.0 |]
(* non-positive breakpoint *)

let () =
  let p = QCheck_alcotest.to_alcotest in
  Alcotest.run "speedup"
    [
      ( "curve algebra",
        [
          Alcotest.test_case "rate_at" `Quick test_rate_at;
          Alcotest.test_case "inverse_rate" `Quick test_inverse_rate;
          Alcotest.test_case "max_rate and height" `Quick test_max_rate_and_height;
          Alcotest.test_case "capacity folding" `Quick test_capacity_folding;
          Alcotest.test_case "engine evaluator = core reference" `Quick
            test_engine_eval_matches_core;
        ] );
      ( "solvers",
        [
          p prop_identity_curve_is_linear;
          p prop_wdeq_curves_float;
          p prop_wdeq_curves_exact;
          p prop_wdeq_capacity_float;
          p prop_wdeq_capacity_exact;
          p prop_bounds_dominated_curved;
          p prop_makespan_curved;
        ] );
      ( "runtime",
        [
          p prop_engine_matches_wdeq_curved_float;
          p prop_engine_matches_wdeq_curved_exact;
          Alcotest.test_case "journal round-trip" `Quick test_journal_roundtrip_curved;
          Alcotest.test_case "engine rejects bad curves" `Quick test_engine_rejects_bad_curve;
        ] );
    ]
