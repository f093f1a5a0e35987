(* Systematic float-vs-exact cross-checks: the generators emit dyadic
   instances that both engines represent identically, so every
   algorithm must produce the same numbers up to float tolerance — and
   the same *integers* (counts) exactly. The exact engine serves as its
   own proof; this suite transfers that confidence to the float engine
   used in the large experiments. *)

open Test_support
module EF = Support.EF
module EQ = Support.EQ
module SF = Mwct_solver.Solver.Float
module SQ = Mwct_solver.Solver.Exact
module Q = Support.Q
module Rng = Mwct_util.Rng

let gen = QCheck2.Gen.pair (Support.gen_spec ~max_procs:6 ~max_n:5 ~den:32 `Uniform) (QCheck2.Gen.int_bound 1_000_000)

let close a qb = Float.abs (a -. Q.to_float qb) < 1e-6

let prop_bounds =
  QCheck2.Test.make ~name:"lower bounds agree" ~count:200 ~print:(fun (s, _) -> Support.print_spec s) gen
    (fun (spec, _) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      close (EF.Lower_bounds.squashed_area fi) (EQ.Lower_bounds.squashed_area qi)
      && close (EF.Lower_bounds.height_bound fi) (EQ.Lower_bounds.height_bound qi))

let prop_wdeq =
  QCheck2.Test.make ~name:"WDEQ objective and diagnostics agree" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    gen
    (fun (spec, _) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let sf = EF.Wdeq.wdeq fi and sq = EQ.Wdeq.wdeq qi in
      let df = EF.Wdeq.split sf and dq = EQ.Wdeq.split sq in
      close (EF.Schedule.weighted_completion_time sf) (EQ.Schedule.weighted_completion_time sq)
      && Array.for_all2 close df.EF.Wdeq.full_volume dq.EQ.Wdeq.full_volume
      && Array.for_all2 close df.EF.Wdeq.limited_volume dq.EQ.Wdeq.limited_volume)

let prop_wf_counts =
  QCheck2.Test.make ~name:"WF allocation-change counts agree exactly" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    gen
    (fun (spec, seed) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let n = Array.length fi.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let sf = EF.Water_filling.normalize (EF.Greedy.run fi sigma) in
      let sq = EQ.Water_filling.normalize (EQ.Greedy.run qi sigma) in
      EF.Preemption.total_changes sf = EQ.Preemption.total_changes sq
      && EF.Preemption.availability_changes sf = EQ.Preemption.availability_changes sq)

let prop_preemptions =
  (* Preemption counts need not agree exactly: two wrap boundaries that
     coincide in exact arithmetic can be an epsilon apart in floats,
     splitting one assignment event into two and shifting the count.
     The drift is real — the check-layer generators produce instances
     where the exact wrap has 0 preemptions and the float wrap n + 1
     (each ulp-broken completion tie costs O(1)) — so the closeness
     tolerance is 2n + 2, measured generously above the worst drift
     seen in a 200k-instance sweep (n + 4). Theorem 10's 3n bound must
     still hold on both engines for these offline (greedy) schedules. *)
  QCheck2.Test.make ~name:"integerized preemption counts close, both within 3n" ~count:80
    ~print:(fun (s, _) -> Support.print_spec s)
    gen
    (fun (spec, seed) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let n = Array.length fi.EF.Types.tasks in
      let sigma = EF.Orderings.random (Rng.create seed) n in
      let sf = EF.Water_filling.normalize (EF.Greedy.run fi sigma) in
      let sq = EQ.Water_filling.normalize (EQ.Greedy.run qi sigma) in
      let isf, _ = EF.Integerize.of_columns sf in
      let isq, _ = EQ.Integerize.of_columns sq in
      let pf = EF.Assignment.preemptions (EF.Assignment.assign isf) in
      let pq = EQ.Assignment.preemptions (EQ.Assignment.assign isq) in
      pf <= 3 * n && pq <= 3 * n && abs (pf - pq) <= (2 * n) + 2)

let prop_makespan_and_lateness =
  QCheck2.Test.make ~name:"makespan and lateness feasibility agree" ~count:150
    ~print:(fun (s, _) -> Support.print_spec s)
    gen
    (fun (spec, seed) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let n = Array.length fi.EF.Types.tasks in
      let rng = Rng.create seed in
      let due_i = Array.init n (fun _ -> Rng.dyadic rng ~den:16) in
      let due_f = Array.map (fun k -> float_of_int k /. 16.) due_i in
      let due_q = Array.map (fun k -> Q.of_q k 16) due_i in
      close (EF.Makespan.optimal fi) (EQ.Makespan.optimal qi)
      && (* same feasibility verdict at a dyadic lateness probe *)
      EF.Lateness.feasible fi due_f 0.5 = EQ.Lateness.feasible qi due_q (Q.of_q 1 2))

let prop_release_dates =
  QCheck2.Test.make ~name:"release-dates makespan agrees" ~count:60
    ~print:(fun (s, _) -> Support.print_spec s)
    QCheck2.Gen.(pair (Support.gen_spec ~max_procs:4 ~max_n:4 ~den:16 `Uniform) (int_bound 1_000_000))
    (fun (spec, seed) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let n = Array.length fi.EF.Types.tasks in
      let rng = Rng.create seed in
      let rel_i = Array.init n (fun _ -> Rng.dyadic rng ~den:8) in
      let rel_f = Array.map (fun k -> float_of_int k /. 8.) rel_i in
      let rel_q = Array.map (fun k -> Q.of_q k 8) rel_i in
      close (EF.Release_dates.optimal_makespan fi rel_f) (EQ.Release_dates.optimal_makespan qi rel_q))

let prop_moldable =
  QCheck2.Test.make ~name:"moldable schedules agree" ~count:80
    ~print:(fun (s, _) -> Support.print_spec s)
    gen
    (fun (spec, seed) ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      let n = Array.length fi.EF.Types.tasks in
      let rng = Rng.create seed in
      let widths =
        Array.init n (fun i -> 1 + Rng.int rng (int_of_float (EF.Instance.effective_delta fi i)))
      in
      let order = EF.Orderings.random rng n in
      let pf = EF.Moldable.schedule fi ~widths ~order in
      let pq = EQ.Moldable.schedule qi ~widths ~order in
      close (EF.Moldable.objective fi pf) (EQ.Moldable.objective qi pq))

let prop_registry =
  (* Quantified over the *registry*, not a hand-kept list: any solver
     registered in lib/solver is automatically cross-checked between
     engines. Small instances because the registry includes the
     enumerative solvers (optimal, best-greedy). *)
  QCheck2.Test.make ~name:"every registered solver agrees across engines" ~count:30
    ~print:Support.print_spec
    (Support.gen_spec ~max_procs:4 ~max_n:4 ~den:16 `Uniform)
    (fun spec ->
      let fi = Support.finst spec and qi = Support.qinst spec in
      List.for_all2
        (fun (sf : SF.t) (sq : SQ.t) ->
          let name_ok = sf.SF.info.Mwct_solver.Solver.name = sq.SQ.info.Mwct_solver.Solver.name in
          let f, _ = sf.SF.solve fi in
          let q, _ = sq.SQ.solve qi in
          name_ok
          && EF.Schedule.is_valid f
          && EQ.Schedule.is_valid ~exact:true q
          && close (EF.Schedule.weighted_completion_time f) (EQ.Schedule.weighted_completion_time q)
          && close (EF.Schedule.makespan f) (EQ.Schedule.makespan q))
        SF.all SQ.all)

(* Three instances the registry property once failed on: orders whose
   objectives tie exactly, of which float rounding made a later one an
   ulp smaller, so best-greedy (first two) and optimal (third) kept
   different orders, and makespans, on the two fields. *)
let test_registry_ties () =
  List.iter
    (fun (procs, tasks) ->
      let spec = Support.spec ~procs (List.map (fun (v, w, d) -> ((v, 16), (w, 16), d)) tasks) in
      let fi = Support.finst spec and qi = Support.qinst spec in
      List.iter2
        (fun (sf : SF.t) (sq : SQ.t) ->
          let f, _ = sf.SF.solve fi and q, _ = sq.SQ.solve qi in
          let name = sf.SF.info.Mwct_solver.Solver.name in
          Alcotest.(check bool) (name ^ " objective") true
            (close (EF.Schedule.weighted_completion_time f) (EQ.Schedule.weighted_completion_time q));
          Alcotest.(check bool) (name ^ " makespan") true
            (close (EF.Schedule.makespan f) (EQ.Schedule.makespan q)))
        SF.all SQ.all)
    [
      (4, [ (7, 6, 2); (16, 7, 2); (11, 16, 3); (16, 1, 1) ]);
      (4, [ (11, 4, 2); (4, 4, 3) ]);
      (3, [ (15, 11, 2); (15, 8, 2); (13, 9, 2) ]);
    ]

let () =
  let q tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests in
  Alcotest.run "cross_engine"
    [
      ( "float = exact",
        q
          [
            prop_bounds;
            prop_wdeq;
            prop_wf_counts;
            prop_preemptions;
            prop_makespan_and_lateness;
            prop_release_dates;
            prop_moldable;
          ] );
      ( "solver registry",
        Alcotest.test_case "order ties agree across engines" `Quick test_registry_ties
        :: q [ prop_registry ] );
    ]
