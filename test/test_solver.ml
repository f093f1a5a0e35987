(* The solver registry and driver (lib/solver): registry integrity,
   equivalence with the direct engine entry points (the registry must
   be a pure re-packaging, bit-identical on the float engine), WDEQ/DEQ
   against the generic batch loop on every fuzz family, and coherence
   of the uniform driver report. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module Sv = Mwct_solver.Solver
module SF = Sv.Float
module SQ = Sv.Exact
module DF = Mwct_solver.Driver.Float
module DQ = Mwct_solver.Driver.Exact
module Instances = Mwct_check.Instances

(* A small fixed instance exercised by every solver, including the
   enumerative ones (n = 4 is well under the LP guard of 8). *)
let spec =
  Support.spec ~procs:3
    [
      ((3, 1), (2, 1), 2);
      ((1, 2), (1, 1), 1);
      ((5, 4), (1, 3), 3);
      ((2, 1), (3, 2), 2);
    ]

let fi () = Support.finst spec
let qi () = Support.qinst spec

(* ---------- registry integrity ---------- *)

let test_registry_names () =
  let names = Sv.names in
  Alcotest.(check bool) "registry non-empty" true (List.length names >= 9);
  let sorted = List.sort_uniq compare names in
  Alcotest.(check int) "names unique" (List.length names) (List.length sorted);
  List.iter (fun n -> Alcotest.(check bool) ("name non-empty: " ^ n) true (String.length n > 0)) names;
  List.iter
    (fun (i : Sv.info) ->
      Alcotest.(check bool) ("doc non-empty: " ^ i.Sv.name) true (String.length i.Sv.doc > 0))
    Sv.infos;
  (* the field-neutral metadata matches both instantiations *)
  Alcotest.(check (list string)) "float registry names" names SF.names;
  Alcotest.(check (list string)) "exact registry names" names SQ.names

let test_find () =
  List.iter
    (fun name ->
      match SF.find name with
      | Some s -> Alcotest.(check string) "find returns the named solver" name s.SF.info.Sv.name
      | None -> Alcotest.fail ("find lost " ^ name))
    Sv.names;
  Alcotest.(check bool) "find on unknown name" true (SF.find "no-such-solver" = None);
  Alcotest.(check bool) "find_info on unknown name" true (Sv.find_info "no-such-solver" = None);
  Alcotest.check_raises "find_exn raises on unknown name"
    (Invalid_argument
       (Printf.sprintf "Solver.find_exn: unknown solver %S (known: %s)" "no-such-solver"
          (String.concat ", " Sv.names)))
    (fun () -> ignore (SF.find_exn "no-such-solver"))

let test_caps () =
  let caps name = (Option.get (Sv.find_info name)).Sv.caps in
  Alcotest.(check bool) "wdeq is non-clairvoyant" true (List.mem Sv.Non_clairvoyant (caps "wdeq"));
  Alcotest.(check bool) "optimal needs the LP" true (List.mem Sv.Needs_lp (caps "optimal"));
  Alcotest.(check bool) "optimal is enumerative" true (List.mem Sv.Enumerative (caps "optimal"));
  Alcotest.(check bool) "best-greedy is enumerative" true (List.mem Sv.Enumerative (caps "best-greedy"));
  Alcotest.(check bool) "greedy-smith is polynomial" true
    (not (List.mem Sv.Enumerative (caps "greedy-smith")));
  Alcotest.(check string) "caps render" "needs-lp,exact-recommended,enumerative"
    (Sv.caps_to_string (Option.get (Sv.find_info "optimal")))

(* ---------- equivalence with the direct engine calls ---------- *)

(* The registry entries wrap the very same engine functions the callers
   use directly (WDEQ/DEQ: the online engine's zero-release drain), so
   on the float engine the objectives must be *bit-identical*, not
   merely close. *)
let test_equivalence_float () =
  let inst = fi () in
  let obj = EF.Schedule.weighted_completion_time in
  let module Sim = Mwct_ncv.Simulator.Float in
  Alcotest.(check (float 0.)) "wdeq" (obj (Sim.schedule inst Sim.P.Wdeq)) (SF.objective "wdeq" inst);
  Alcotest.(check (float 0.)) "deq" (obj (Sim.schedule inst Sim.P.Deq)) (SF.objective "deq" inst);
  Alcotest.(check (float 0.)) "greedy-smith"
    (obj (EF.Greedy.run inst (EF.Orderings.smith inst)))
    (SF.objective "greedy-smith" inst);
  Alcotest.(check (float 0.)) "greedy"
    (obj (EF.Greedy.run inst (EF.Orderings.identity 4)))
    (SF.objective "greedy" inst);
  Alcotest.(check (float 0.)) "wf-cmax makespan" (EF.Makespan.optimal inst)
    (EF.Schedule.makespan (fst (SF.solve_exn "wf-cmax" inst)));
  let bg, sigma = EF.Lp_schedule.best_greedy inst in
  Alcotest.(check (float 0.)) "best-greedy" bg (SF.objective "best-greedy" inst);
  let s, meta = SF.solve_exn "best-greedy" inst in
  ignore s;
  Alcotest.(check bool) "best-greedy meta carries the order" true (meta.SF.order = Some sigma);
  let lp, _ = EF.Lp_schedule.optimal inst in
  Alcotest.(check (float 0.)) "optimal" lp (SF.objective "optimal" inst)

let test_equivalence_exact () =
  let inst = qi () in
  let module Q = Support.Q in
  let lp, _ = EQ.Lp_schedule.optimal inst in
  Alcotest.(check string) "exact optimal" (Q.to_string lp)
    (Q.to_string (SQ.objective "optimal" inst));
  Alcotest.(check string) "exact wdeq"
    (Q.to_string (EQ.Schedule.weighted_completion_time (EQ.Wdeq.wdeq inst)))
    (Q.to_string (SQ.objective "wdeq" inst))

(* The Lemma 2 split read off the registry's WDEQ schedule partitions
   each volume, and on the exact field equals the split of the generic
   loop's schedule. *)
let test_wdeq_split () =
  let inst = fi () in
  let d = EF.Wdeq.split (fst (SF.solve_exn "wdeq" inst)) in
  Array.iteri
    (fun i (t : EF.Types.task) ->
      Support.check_close "full + limited = volume" t.EF.Types.volume
        (d.EF.Wdeq.full_volume.(i) +. d.EF.Wdeq.limited_volume.(i)))
    inst.EF.Types.tasks;
  let qi = qi () in
  let q = EQ.Wdeq.split (fst (SQ.solve_exn "wdeq" qi)) and r = EQ.Wdeq.split (EQ.Wdeq.wdeq qi) in
  Alcotest.(check bool) "exact split = generic loop's" true
    (Array.for_all2 Support.Q.equal q.EQ.Wdeq.full_volume r.EQ.Wdeq.full_volume
    && Array.for_all2 Support.Q.equal q.EQ.Wdeq.limited_volume r.EQ.Wdeq.limited_volume)

(* The four WDEQ/DEQ registry entries (an engine drain on curve-free
   instances) against [Wdeq.simulate_reference] on every fuzz family,
   seeds 0-29, 1 to 12 tasks: the exact schedules must be structurally
   equal, the float objectives within 1e-12 relative. *)
let test_equipartition_families () =
  let entries = [ ("wdeq", true); ("deq", false); ("wdeq-dag", true); ("deq-dag", false) ] in
  let runs = ref 0 in
  for seed = 0 to 29 do
    let rng = Mwct_util.Rng.create seed in
    let draw lo hi = Mwct_util.Rng.int_in rng lo hi in
    List.iter
      (fun family ->
        let spec = Instances.sample draw ~max_n:12 family in
        let fi = EF.Instance.of_spec spec and qi = EQ.Instance.of_spec spec in
        List.iter
          (fun (name, use_weights) ->
            if DF.supports (SF.find_exn name) fi then begin
              incr runs;
              let where field =
                Printf.sprintf "seed %d, %s, %s: %s" seed (Instances.family_name family) name field
              in
              let got = fst (SF.solve_exn name fi) in
              let want = EF.Wdeq.simulate_reference ~use_weights fi in
              let g = EF.Schedule.weighted_completion_time got
              and w = EF.Schedule.weighted_completion_time want in
              if Float.abs (g -. w) > 1e-12 *. Float.abs w then
                Alcotest.failf "%s (%h against %h)" (where "float objective") g w;
              let got = fst (SQ.solve_exn name qi) in
              let want = EQ.Wdeq.simulate_reference ~use_weights qi in
              if
                not
                  (got.EQ.Types.order = want.EQ.Types.order
                  && Array.for_all2 Support.Q.equal got.EQ.Types.finish want.EQ.Types.finish
                  && Array.for_all2
                       (List.equal (fun (i, a) (j, b) -> i = j && Support.Q.equal a b))
                       got.EQ.Types.columns want.EQ.Types.columns)
              then Alcotest.fail (where "exact schedules differ")
            end)
          entries)
      Instances.all_families
  done;
  Alcotest.(check bool) "every family ran" true (!runs > 30 * List.length Instances.all_families)

(* ---------- driver report coherence ---------- *)

let test_driver_reports () =
  let inst = fi () in
  List.iter
    (fun (s : SF.t) ->
      let name = s.SF.info.Sv.name in
      let r = DF.run s inst in
      Alcotest.(check bool) (name ^ ": schedule valid") true (DF.valid r);
      Alcotest.(check (float 0.)) (name ^ ": objective matches schedule")
        (EF.Schedule.weighted_completion_time r.DF.schedule)
        r.DF.objective;
      Alcotest.(check (float 0.)) (name ^ ": makespan matches schedule")
        (EF.Schedule.makespan r.DF.schedule) r.DF.makespan;
      Alcotest.(check (float 0.)) (name ^ ": lower bound is max(A,H)")
        (Float.max r.DF.squashed_area r.DF.height_bound)
        r.DF.lower_bound;
      (match r.DF.ratio_to_bound with
      | Some ratio ->
        Alcotest.(check bool) (name ^ ": objective at least the lower bound") true (ratio >= 1. -. 1e-9)
      | None -> Alcotest.fail (name ^ ": lower bound unexpectedly zero"));
      Alcotest.(check bool) (name ^ ": elapsed non-negative") true (r.DF.elapsed_s >= 0.))
    SF.all

let test_driver_exact () =
  let inst = qi () in
  let r = DQ.run ~exact:true (SQ.find_exn "wdeq") inst in
  Alcotest.(check bool) "exact strict check passes" true (DQ.valid r);
  let module Q = Support.Q in
  Alcotest.(check string) "exact objective matches schedule"
    (Q.to_string (EQ.Schedule.weighted_completion_time r.DQ.schedule))
    (Q.to_string r.DQ.objective)

let test_json () =
  let inst = fi () in
  let r = DF.run (SF.find_exn "greedy-smith") inst in
  let json = DF.to_json ~engine:"float" r in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("json contains " ^ needle) true (contains needle))
    [
      "\"algo\": \"greedy-smith\"";
      "\"engine\": \"float\"";
      "\"tasks\": 4";
      "\"valid\": true";
      "\"violation\": null";
      "\"objective\":";
      "\"ratio_to_bound\":";
      "\"completions\": [";
      "\"completions_repr\": [";
    ]

(* The completions array is in task-index order and consistent with the
   schedule's (order, finish) pairing — on both engines. *)
let test_json_completions () =
  let inst = fi () in
  let r = DF.run (SF.find_exn "wdeq") inst in
  let json = DF.to_json ~engine:"float" r in
  let expected =
    let n = Array.length r.DF.schedule.EF.Types.instance.EF.Types.tasks in
    let c = Array.make n 0. in
    Array.iteri (fun j ti -> c.(ti) <- r.DF.schedule.EF.Types.finish.(j)) r.DF.schedule.EF.Types.order;
    Printf.sprintf "\"completions\": [%s]"
      (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.12g") c)))
  in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("json contains " ^ expected) true (contains expected);
  (* Exact engine: the _repr completions are exact rationals. *)
  let inst = qi () in
  let r = DQ.run ~exact:true (SQ.find_exn "wdeq") inst in
  let json = DQ.to_json ~engine:"exact" r in
  let expected_repr =
    let module Q = Support.Q in
    let n = Array.length r.DQ.schedule.EQ.Types.instance.EQ.Types.tasks in
    let c = Array.make n Q.zero in
    Array.iteri (fun j ti -> c.(ti) <- r.DQ.schedule.EQ.Types.finish.(j)) r.DQ.schedule.EQ.Types.order;
    Printf.sprintf "\"completions_repr\": [%s]"
      (String.concat ", "
         (Array.to_list (Array.map (fun q -> Printf.sprintf "\"%s\"" (Q.to_string q)) c)))
  in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("json contains " ^ expected_repr) true (contains expected_repr)

(* The report is strict JSON: strings go through the runtime's escape
   (control bytes included), and a number that is not finite is
   written [null]. *)
let test_json_strict () =
  let inst = fi () in
  let r = DF.run (SF.find_exn "wdeq") inst in
  let json =
    DF.to_json ~engine:"tab\there\001"
      { r with DF.objective = Float.infinity; ratio_to_bound = Some Float.nan }
  in
  let contains needle =
    let nl = String.length needle and hl = String.length json in
    let rec go i = i + nl <= hl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> Alcotest.(check bool) ("json contains " ^ needle) true (contains needle))
    [ {|"engine": "tab\there\u0001"|}; {|"objective": null|}; {|"ratio_to_bound": null|} ];
  Alcotest.(check bool) "no raw control byte but the layout's newlines" true
    (String.for_all (fun c -> c = '\n' || Char.code c >= 0x20) json)

let () =
  Alcotest.run "solver"
    [
      ( "registry",
        [
          Alcotest.test_case "names and docs" `Quick test_registry_names;
          Alcotest.test_case "find / find_exn / find_info" `Quick test_find;
          Alcotest.test_case "capability flags" `Quick test_caps;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "float engine bit-identical" `Quick test_equivalence_float;
          Alcotest.test_case "exact engine identical" `Quick test_equivalence_exact;
          Alcotest.test_case "wdeq split of the registry run" `Quick test_wdeq_split;
          Alcotest.test_case "wdeq/deq = generic loop, every family" `Quick
            test_equipartition_families;
        ] );
      ( "driver",
        [
          Alcotest.test_case "report coherence, every solver" `Quick test_driver_reports;
          Alcotest.test_case "exact strict report" `Quick test_driver_exact;
          Alcotest.test_case "json report" `Quick test_json;
          Alcotest.test_case "json completions array" `Quick test_json_completions;
          Alcotest.test_case "json report is strict" `Quick test_json_strict;
        ] );
    ]
