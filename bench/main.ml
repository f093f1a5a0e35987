(* Benchmark harness.

   Part 1 regenerates every table/experiment of the paper (E1-E10, see
   DESIGN.md §5 and EXPERIMENTS.md) at Quick scale — run
   `mwct experiment all --full` for paper-scale sample sizes.

   Part 2 runs bechamel micro-benchmarks (B1-B8) over the computational
   kernels: Water-Filling normalization, Greedy, WDEQ simulation, the
   Corollary-1 LP, integerization + assignment, the homogeneous
   recurrence, and the exact-arithmetic substrate.

   Part 3 measures the online runtime: sustained input-event throughput
   of the incremental engine on a churning 1000-alive-task stream
   (BENCH_3.json).

   Part 4 tracks the engine data plane (DESIGN.md §12): before/after
   rows for the three targets of the allocation-free hot path —
   simulate wall time at n=5000, serve event throughput, and minor
   words allocated per steady-state Advance (BENCH_4.json).

   Part 5 prices the generalized rate model: the registry's batch WDEQ
   on the same linear workload through the engine drain (linear law)
   and through the generic batch loop (identity speedup curves),
   BENCH_5.json.

   `--quick` is the CI smoke mode: experiments are skipped, the
   bechamel quota is cut, and the throughput run is shortened — every
   BENCH_*.json is still produced. `--min-events-per-sec F` turns the
   part-3 throughput row into a hard floor (non-zero exit below it), so
   CI can fail on engine regressions against the checked-in baseline. *)

open Bechamel
open Toolkit
module EF = Mwct_core.Engine.Float
module EQ = Mwct_core.Engine.Exact
module SF = Mwct_solver.Solver.Float
module G = Mwct_workload.Generator
module Rng = Mwct_util.Rng
module Q = Mwct_rational.Rational
module Nat = Mwct_bigint.Nat

(* ---------- part 1: experiment tables ---------- *)

let run_experiments () =
  print_endline "================================================================";
  print_endline " Paper experiment regeneration (Quick scale; --full via the CLI)";
  print_endline "================================================================";
  print_newline ();
  Mwct_experiments.Experiments.run_all Mwct_experiments.Experiments.Quick

(* ---------- part 2: micro-benchmarks ---------- *)

let instance_of_size n =
  EF.Instance.of_spec (G.uniform (Rng.create (n * 31 + 7)) ~procs:16 ~n ())

let exact_instance_of_size n =
  EQ.Instance.of_spec (G.uniform (Rng.create (n * 31 + 7)) ~procs:16 ~n ())

(* B1: WF normalization, n = 100. *)
let bench_wf =
  let inst = instance_of_size 100 in
  let sigma = EF.Orderings.smith inst in
  let times = EF.Schedule.completion_times (EF.Greedy.run inst sigma) in
  Test.make ~name:"B1 water_filling.build n=100" (Staged.stage (fun () ->
      match EF.Water_filling.build inst times with Ok _ -> () | Error _ -> assert false))

(* B2: Greedy, n = 100. *)
let bench_greedy =
  let inst = instance_of_size 100 in
  let sigma = EF.Orderings.smith inst in
  Test.make ~name:"B2 greedy.run n=100" (Staged.stage (fun () -> ignore (EF.Greedy.run inst sigma)))

(* B3: WDEQ simulation, n = 100 — resolved once through the registry,
   timing the same kernel as before. *)
let wdeq_solve = (SF.find_exn "wdeq").SF.solve

let bench_wdeq =
  let inst = instance_of_size 100 in
  Test.make ~name:"B3 wdeq.simulate n=100" (Staged.stage (fun () -> ignore (wdeq_solve inst)))

(* B4: one Corollary-1 LP, n = 6 (float). *)
let bench_lp =
  let inst = instance_of_size 6 in
  let pi = EF.Orderings.identity 6 in
  Test.make ~name:"B4 lp.optimal_for_order n=6" (Staged.stage (fun () ->
      ignore (EF.Lp_schedule.optimal_for_order inst pi)))

(* B5: integerize + assignment, n = 50. *)
let bench_integerize =
  let inst = instance_of_size 50 in
  let sigma = EF.Orderings.smith inst in
  let s = EF.Water_filling.normalize (EF.Greedy.run inst sigma) in
  Test.make ~name:"B5 integerize+assign n=50" (Staged.stage (fun () ->
      let is, _ = EF.Integerize.of_columns s in
      ignore (EF.Assignment.assign is)))

(* B6: homogeneous recurrence, n = 1000, exact rationals. *)
let bench_homogeneous =
  let deltas =
    Array.map
      (fun (r : Mwct_core.Spec.rat) -> Q.of_q r.Mwct_core.Spec.num r.Mwct_core.Spec.den)
      (G.homogeneous_deltas (Rng.create 99) ~n:150 ~den:1024 ())
  in
  let order = EQ.Orderings.identity 150 in
  Test.make ~name:"B6 homogeneous.total n=150 exact" (Staged.stage (fun () ->
      ignore (EQ.Homogeneous.total deltas order)))

(* B7: exact WDEQ (rational arithmetic end-to-end), n = 20. *)
let bench_exact_wdeq =
  let inst = exact_instance_of_size 20 in
  let solve = (Mwct_solver.Solver.Exact.find_exn "wdeq").Mwct_solver.Solver.Exact.solve in
  Test.make ~name:"B7 wdeq.simulate n=20 exact" (Staged.stage (fun () -> ignore (solve inst)))

(* B8: bignum substrate: 300-digit multiply + divide. *)
let bench_bigint =
  let a = Nat.of_string (String.concat "" (List.init 30 (fun i -> string_of_int (1000000000 + (i * 7))))) in
  let b = Nat.of_string (String.concat "" (List.init 15 (fun i -> string_of_int (2000000000 - (i * 13))))) in
  Test.make ~name:"B8 nat.mul+divmod 300 digits" (Staged.stage (fun () ->
      let p = Nat.mul a b in
      ignore (Nat.divmod p b)))

(* B9: Karatsuba vs schoolbook at ~4500 digits. *)
let big_a = Nat.pow (Nat.of_string "123456789123456789") 1000
let big_b = Nat.pow (Nat.of_string "987654321987654321") 1000

let bench_karatsuba =
  Test.make ~name:"B9a nat.mul karatsuba 17k digits" (Staged.stage (fun () -> ignore (Nat.mul big_a big_b)))

let bench_schoolbook =
  Test.make ~name:"B9b nat.mul schoolbook 17k digits"
    (Staged.stage (fun () -> ignore (Nat.mul_schoolbook big_a big_b)))

(* B10: release-dates LP, n = 12. *)
let bench_release_dates =
  let inst = instance_of_size 12 in
  let releases = Array.init 12 (fun i -> float_of_int (i mod 4) /. 8.) in
  Test.make ~name:"B10 release_dates.optimal_makespan n=12" (Staged.stage (fun () ->
      ignore (EF.Release_dates.optimal_makespan inst releases)))

(* B11: moldable heuristic, n = 12. *)
let bench_moldable =
  let inst = instance_of_size 12 in
  Test.make ~name:"B11 moldable.best_heuristic n=12" (Staged.stage (fun () ->
      ignore (EF.Moldable.best_heuristic inst)))

(* B12: ncv simulator with arrivals, n = 100. *)
let bench_ncv =
  let inst = instance_of_size 100 in
  let module Sim = Mwct_ncv.Simulator.Float in
  let releases = Array.init 100 (fun i -> float_of_int (i mod 10) /. 16.) in
  Test.make ~name:"B12 ncv.run wdeq+arrivals n=100" (Staged.stage (fun () ->
      ignore (Sim.run ~releases inst Sim.P.Wdeq)))

(* B13: simplex pivot-rule ablation on a dense random LP. *)
module SxF = Mwct_simplex.Simplex.Make (Mwct_field.Field.Float_field)

let build_pivot_lp () =
  let rng = Rng.create 1313 in
  let p = SxF.create () in
  let vars = Array.init 20 (fun _ -> SxF.add_var p) in
  for _ = 1 to 30 do
    let terms = Array.to_list (Array.map (fun v -> (v, float_of_int (Rng.int_in rng (-4) 5))) vars) in
    SxF.add_constraint p terms SxF.Geq (float_of_int (Rng.int_in rng 0 10))
  done;
  Array.iter (fun v -> SxF.add_constraint p [ (v, 1.) ] SxF.Leq 50.) vars;
  SxF.set_objective p (Array.to_list (Array.map (fun v -> (v, 1.)) vars));
  p

let bench_bland =
  Test.make ~name:"B13a simplex bland 20v/50c" (Staged.stage (fun () ->
      ignore (SxF.solve ~rule:SxF.Bland (build_pivot_lp ()))))

let bench_dantzig =
  Test.make ~name:"B13b simplex dantzig 20v/50c" (Staged.stage (fun () ->
      ignore (SxF.solve ~rule:SxF.Dantzig (build_pivot_lp ()))))

(* B14: the event-driven WDEQ simulation at scale. The O(n log n)
   share kernel plus sparse columns keep a full n=1000 run in the
   milliseconds and make n=5000 feasible at all (the seed's dense
   O(n^3) path allocated n^2 floats per schedule and re-ran the
   List.partition fixpoint per event). *)
let bench_wdeq_1000 =
  let inst = instance_of_size 1000 in
  Test.make ~name:"B14a wdeq.simulate n=1000" (Staged.stage (fun () -> ignore (wdeq_solve inst)))

let bench_wdeq_5000 =
  let inst = instance_of_size 5000 in
  Test.make ~name:"B14b wdeq.simulate n=5000" (Staged.stage (fun () -> ignore (wdeq_solve inst)))

(* Seed baseline for B14: the pre-sparse simulate, verbatim from the
   growth seed — List.partition share fixpoint re-run per event and a
   dense n x n allocation matrix. Kept here (not in lib/) purely to
   measure the speedup of the event-driven kernels. *)
module Seed_wdeq = struct
  module F = Mwct_field.Field.Float_field

  let shares ~p alive : (int * F.t) list =
    let rec go unsat saturated r w =
      let violating, rest =
        List.partition (fun (_, wi, di) -> F.compare (F.mul di w) (F.mul wi r) < 0) unsat
      in
      match violating with
      | [] ->
        let give =
          List.map (fun (i, wi, _) -> (i, if F.sign w > 0 then F.div (F.mul wi r) w else F.zero)) rest
        in
        saturated @ give
      | _ ->
        let r' = List.fold_left (fun acc (_, _, di) -> F.sub acc di) r violating in
        let w' = List.fold_left (fun acc (_, wi, _) -> F.sub acc wi) w violating in
        go rest (List.map (fun (i, _, di) -> (i, di)) violating @ saturated) r' w'
    in
    let w0 = List.fold_left (fun acc (_, wi, _) -> F.add acc wi) F.zero alive in
    go alive [] p w0

  let simulate (inst : EF.Types.instance) =
    let n = Array.length inst.EF.Types.tasks in
    let remaining = Array.map (fun (t : EF.Types.task) -> t.EF.Types.volume) inst.EF.Types.tasks in
    let alive = Array.make n true in
    let finish = Array.make n F.zero in
    let alloc = Array.make_matrix n n F.zero in
    let t_now = ref F.zero in
    let col = ref 0 in
    while !col < n do
      let alive_list =
        List.filter_map
          (fun i ->
            if alive.(i) then
              Some (i, inst.EF.Types.tasks.(i).EF.Types.weight, EF.Instance.effective_delta inst i)
            else None)
          (List.init n (fun i -> i))
      in
      let share_list = shares ~p:inst.EF.Types.procs alive_list in
      let dt =
        List.fold_left
          (fun acc (i, s) ->
            if F.sign s > 0 then begin
              let ti = F.div remaining.(i) s in
              match acc with None -> Some ti | Some a -> Some (F.min a ti)
            end
            else acc)
          None share_list
      in
      let dt = match dt with Some d -> d | None -> assert false in
      let t_end = F.add !t_now dt in
      let deltas = Array.make n F.zero in
      List.iter (fun (i, s) -> deltas.(i) <- s) share_list;
      let finished = ref [] in
      List.iter
        (fun (i, s) ->
          remaining.(i) <- F.sub remaining.(i) (F.mul s dt);
          if F.leq_approx remaining.(i) F.zero then finished := i :: !finished)
        share_list;
      let finished = List.sort Stdlib.compare !finished in
      List.iteri
        (fun k i ->
          let j = !col + k in
          finish.(j) <- t_end;
          alive.(i) <- false;
          if k = 0 then Array.iteri (fun i' s -> alloc.(i').(j) <- s) deltas)
        finished;
      col := !col + List.length finished;
      t_now := t_end
    done;
    (finish, alloc)
end

let bench_wdeq_seed_100 =
  let inst = instance_of_size 100 in
  Test.make ~name:"B14c wdeq.simulate seed-baseline n=100" (Staged.stage (fun () ->
      ignore (Seed_wdeq.simulate inst)))

let bench_wdeq_seed_1000 =
  let inst = instance_of_size 1000 in
  Test.make ~name:"B14d wdeq.simulate seed-baseline n=1000" (Staged.stage (fun () ->
      ignore (Seed_wdeq.simulate inst)))

(* B15: one share computation, fast kernel vs the seed's List.partition
   fixpoint, at n=100 and n=1000 — the per-event cost behind B14. On
   benign uniform instances the reference converges in a couple of
   rounds, so a standalone fast call (which pays a fresh sort) can
   lose; simulate wins because the ratio sort is hoisted out of the
   event loop and the worst case drops from O(n^2) to O(log n). *)
let alive_of_size n =
  let inst = instance_of_size n in
  ( inst.EF.Types.procs,
    List.init n (fun i ->
        (i, inst.EF.Types.tasks.(i).EF.Types.weight, EF.Instance.effective_delta inst i)) )

let bench_shares_fast_100 =
  let p, alive = alive_of_size 100 in
  Test.make ~name:"B15a wdeq.shares fast n=100" (Staged.stage (fun () ->
      ignore (EF.Wdeq.shares ~p alive)))

let bench_shares_ref_100 =
  let p, alive = alive_of_size 100 in
  Test.make ~name:"B15b wdeq.shares reference n=100" (Staged.stage (fun () ->
      ignore (EF.Wdeq.shares_reference ~p alive)))

let bench_shares_fast_1000 =
  let p, alive = alive_of_size 1000 in
  Test.make ~name:"B15c wdeq.shares fast n=1000" (Staged.stage (fun () ->
      ignore (EF.Wdeq.shares ~p alive)))

let bench_shares_ref_1000 =
  let p, alive = alive_of_size 1000 in
  Test.make ~name:"B15d wdeq.shares reference n=1000" (Staged.stage (fun () ->
      ignore (EF.Wdeq.shares_reference ~p alive)))

(* Registry-driven solver benchmarks: every solver in the registry is
   timed automatically — registering a new algorithm adds its row here
   (and to BENCH_2.json) with no bench edit. Enumerative solvers get a
   small instance (the LP guard is n = 8); the rest run at n = 50. *)
let registry_tests =
  let inst_small = instance_of_size 6 in
  let inst_big = instance_of_size 50 in
  List.map
    (fun (s : SF.t) ->
      let enumerative = SF.has_cap Mwct_solver.Solver.Enumerative s in
      let inst = if enumerative then inst_small else inst_big in
      let n = if enumerative then 6 else 50 in
      Test.make
        ~name:(Printf.sprintf "REG %s n=%d" s.SF.info.Mwct_solver.Solver.name n)
        (Staged.stage (fun () -> ignore (s.SF.solve inst))))
    SF.all

let benchmark ~quota =
  let tests =
    [
      bench_wf; bench_greedy; bench_wdeq; bench_lp; bench_integerize; bench_homogeneous;
      bench_exact_wdeq; bench_bigint; bench_karatsuba; bench_schoolbook; bench_release_dates;
      bench_moldable; bench_ncv; bench_bland; bench_dantzig; bench_wdeq_1000; bench_wdeq_5000;
      bench_wdeq_seed_100; bench_wdeq_seed_1000; bench_shares_fast_100; bench_shares_ref_100;
      bench_shares_fast_1000; bench_shares_ref_1000;
    ]
    @ registry_tests
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:true () in
  let raw_results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"mwct" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  print_endline "================================================================";
  print_endline " Micro-benchmarks (ns per run, OLS on monotonic clock)";
  print_endline "================================================================";
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> Printf.printf "  %-40s %12.0f ns/run\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    rows;
  rows

(* Machine-readable results: kernel name -> ns/run, for regression
   tracking across PRs. *)
let emit_json path rows =
  let oc = open_out path in
  let escape s =
    String.concat "" (List.map (function '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
        (List.init (String.length s) (String.get s)))
  in
  output_string oc "{\n";
  let entries =
    List.filter_map
      (fun (name, v) ->
        match Analyze.OLS.estimates v with
        | Some [ est ] -> Some (Printf.sprintf "  \"%s\": %.1f" (escape name) est)
        | _ -> None)
      rows
  in
  output_string oc (String.concat ",\n" entries);
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "\nWrote %d benchmark rows to %s\n" (List.length entries) path

(* "mwct REG <solver> n=..." rows come from the registry loop; they go
   to BENCH_2.json so the hand-written kernel rows of BENCH_1.json stay
   comparable across PRs. *)
let is_registry_row (name, _) =
  String.length name >= 9 && String.sub name 0 9 = "mwct REG "

(* ---------- part 3: online engine event throughput ---------- *)

module EnF = Mwct_runtime.Engine.Float
module PF = Mwct_ncv.Simulator.Float.P

(* Sustained input-event throughput of the incremental engine on a
   churning stream that holds the alive set at [alive_target]: each
   round refills the alive set, cancels the oldest task every few
   rounds, and advances virtual time far enough that a batch of tasks
   completes inside the window. The warm-up fill and initial reshare
   happen before the clock starts. *)
let engine_throughput ~rounds ~alive_target =
  let policy = PF.engine_policy PF.Wdeq in
  let eng =
    EnF.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.0 ~policy ()
  in
  let rng = Rng.create 20120515 in
  let next_id = ref 0 in
  let events = ref 0 in
  let completions = ref 0 in
  let apply ev =
    match EnF.apply eng ev with
    | Ok notes ->
      incr events;
      completions := !completions + List.length notes
    | Error e -> failwith ("engine_throughput: " ^ EnF.error_to_string e)
  in
  let submit_one () =
    let id = !next_id in
    incr next_id;
    apply
      (EnF.Submit
         {
           id;
           volume = 0.5 +. (float_of_int (Rng.int_in rng 0 64) /. 16.);
           weight = float_of_int (1 + Rng.int_in rng 0 10);
           cap = float_of_int (1 + Rng.int_in rng 0 4);
           speedup = None;
           deps = [];
         })
  in
  while EnF.alive_count eng < alive_target do
    submit_one ()
  done;
  apply (EnF.Advance 0.0);
  let t0 = Unix.gettimeofday () in
  let e0 = !events and c0 = !completions in
  for _ = 1 to rounds do
    (* Withdraw the four oldest tasks (clients killing jobs), refill the
       slots they and the previous window's completions freed, then let
       time pass. *)
    (match EnF.alive_ids eng with
    | a :: b :: c :: d :: _ -> List.iter (fun id -> apply (EnF.Cancel id)) [ a; b; c; d ]
    | _ -> ());
    while EnF.alive_count eng < alive_target do
      submit_one ()
    done;
    apply (EnF.Advance 0.25)
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (!events - e0, !completions - c0, elapsed_s)

let run_throughput ~quick =
  let alive_target = 1000 in
  let rounds = if quick then 300 else 2000 in
  let input_events, completions, elapsed_s = engine_throughput ~rounds ~alive_target in
  let events_per_sec = float_of_int input_events /. elapsed_s in
  print_endline "================================================================";
  print_endline " Online engine event throughput (BENCH_3.json)";
  print_endline "================================================================";
  Printf.printf
    "  alive=%d rounds=%d input_events=%d completions=%d elapsed=%.3fs -> %.0f events/s\n"
    alive_target rounds input_events completions elapsed_s events_per_sec;
  let oc = open_out "BENCH_3.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"engine event throughput (wdeq policy, churning alive set)\",\n\
    \  \"alive_target\": %d,\n\
    \  \"rounds\": %d,\n\
    \  \"input_events\": %d,\n\
    \  \"completions\": %d,\n\
    \  \"elapsed_s\": %.6f,\n\
    \  \"events_per_sec\": %.1f,\n\
    \  \"target_events_per_sec\": 10000.0,\n\
    \  \"sustained_10k\": %b\n\
     }\n"
    alive_target rounds input_events completions elapsed_s events_per_sec
    (events_per_sec >= 10000.0);
  close_out oc;
  Printf.printf "\nWrote throughput results to BENCH_3.json\n";
  events_per_sec

(* ---------- part 4: engine data plane (DESIGN.md §12) ---------- *)

(* One event-driven WDEQ simulate at n=5000 under a tuned GC (64 Mw
   minor heap, space_overhead 800 — the n=5000 trace materializes a
   ~100 Mw column structure, so a roomy young generation and a lazy
   major collector avoid copying the output repeatedly), one warm-up
   run to fault in the enlarged heap, then best of three. Returns
   [(wall_s, cpu_s)]: on shared single-vCPU containers the wall clock
   includes paging and scheduling noise, so the process CPU time is
   the stable number and the one the target is checked against. The
   tuning is scoped to this row and restored after. *)
let simulate_5000_time () =
  let inst = instance_of_size 5000 in
  let ctrl = Gc.get () in
  Gc.set { ctrl with Gc.minor_heap_size = 64 * 1024 * 1024; space_overhead = 800 };
  Gc.compact ();
  ignore (wdeq_solve inst);
  let best_wall = ref infinity and best_cpu = ref infinity in
  for _ = 1 to 3 do
    let c0 = (Unix.times ()).Unix.tms_utime in
    let t0 = Unix.gettimeofday () in
    ignore (wdeq_solve inst);
    let wall = Unix.gettimeofday () -. t0 in
    let cpu = (Unix.times ()).Unix.tms_utime -. c0 in
    if wall < !best_wall then best_wall := wall;
    if cpu < !best_cpu then best_cpu := cpu
  done;
  Gc.set ctrl;
  Gc.compact ();
  (!best_wall, !best_cpu)

(* Minor words allocated per steady-state [Advance] on the float engine
   (kinetic WDEQ, no completions inside the window), measured against
   an identically-shaped empty window so the boxes allocated by
   [Gc.minor_words] itself cancel out. The
   struct-of-arrays hot path makes this exactly zero. *)
let advance_minor_words () =
  let eng =
    EnF.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.0
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to 49 do
    match EnF.submit eng ~id:i ~volume:1e9 ~weight:(float_of_int (1 + (i mod 7))) ~cap:2. () with
    | Ok () -> ()
    | Error e -> failwith (EnF.error_to_string e)
  done;
  let ev = EnF.Advance 0.25 in
  let apply () = match EnF.apply eng ev with Ok _ -> () | Error e -> failwith (EnF.error_to_string e) in
  for _ = 1 to 8 do apply () done;
  let iters = 10_000 in
  let b0 = Gc.minor_words () in
  for _ = 1 to iters do () done;
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do apply () done;
  let w1 = Gc.minor_words () in
  (w1 -. w0 -. (b1 -. b0)) /. float_of_int iters

let run_data_plane ~events_per_sec ~nshards ~sharded_eps ~scaling ~lat =
  (* The "before" column is the pre-data-plane baseline: B14b from the
     PR-3 CI run of BENCH_1.json (4.66 s), the PR-4 CI run of
     BENCH_3.json (12.7k events/s), and minor words per input event
     measured on the list-policy record-store engine (23,159). *)
  let sim_before = 4.66 and serve_before = 12700.0 and words_before = 23159.0 in
  let sim_wall, sim_cpu = simulate_5000_time () in
  let words = advance_minor_words () in
  print_endline "================================================================";
  print_endline " Engine data plane (BENCH_4.json)";
  print_endline "================================================================";
  Printf.printf "  wdeq.simulate n=5000 (tuned GC, warm) %.3fs wall / %.3fs cpu (before %.2fs)\n"
    sim_wall sim_cpu sim_before;
  Printf.printf "  serve throughput                      %.0f events/s (before %.0f)\n"
    events_per_sec serve_before;
  Printf.printf "  minor words / steady-state Advance    %.2f (before %.0f)\n" words words_before;
  let scaling_json =
    String.concat ",\n"
      (List.map
         (fun (s, eps) ->
           Printf.sprintf "    { \"shards\": %d, \"events_per_sec\": %.1f }" s eps)
         scaling)
  in
  let p50, p90, p99, p999 = lat in
  let oc = open_out "BENCH_4.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"engine data plane: SoA task store + kinetic share frontier + sharded serve\",\n\
    \  \"gc_tuning\": \"simulate row only: minor_heap_size=64M words, space_overhead=800, compact + one warm-up run, best of 3; pass is checked on process CPU time (wall on shared 1-vCPU containers includes paging/scheduling noise)\",\n\
    \  \"wdeq_simulate_n5000\": { \"before_s\": %.2f, \"after_wall_s\": %.6f, \"after_cpu_s\": %.6f,\n\
    \                           \"target_s\": 1.0, \"pass\": %b },\n\
    \  \"serve_throughput\": { \"before_events_per_sec\": %.1f, \"after_events_per_sec\": %.1f,\n\
    \                        \"target_events_per_sec\": 38100.0, \"pass\": %b },\n\
    \  \"advance_minor_words\": { \"before_words_per_event\": %.1f, \"after_words_per_advance\": %.2f,\n\
    \                           \"target_words\": 0.0, \"pass\": %b },\n\
    \  \"sharded_serve\": { \"shards\": %d, \"events_per_sec\": %.1f,\n\
    \                     \"target_events_per_sec\": 100000.0, \"pass\": %b },\n\
    \  \"shard_scaling\": [\n%s\n  ],\n\
    \  \"event_latency_us\": { \"shards\": %d, \"p50\": %.1f, \"p90\": %.1f, \"p99\": %.1f, \"p999\": %.1f }\n\
     }\n"
    sim_before sim_wall sim_cpu
    (sim_cpu < 1.0)
    serve_before events_per_sec
    (events_per_sec >= 38100.0)
    words_before words (words < 1.0)
    nshards sharded_eps
    (sharded_eps >= 100000.0)
    scaling_json nshards p50 p90 p99 p999;
  close_out oc;
  Printf.printf "\nWrote data-plane results to BENCH_4.json\n"

(* ---------- part 6: sharded serve (rows into BENCH_4.json) ---------- *)

module StF = Mwct_runtime.Shard.Float

(* The part-3 churn stream through the sharded store: same seed, same
   submit distribution, same cancel-4-oldest/refill/advance round, so
   the events/s numbers are directly comparable to [engine_throughput].
   Ids route with [Mod] (ids are dense, so tenants spread evenly). The
   store has no [alive_ids]; the bench keeps its own submission queue
   and skips ids that completed before their cancel came up. With
   [latency:true] every event is timed into the store's histogram —
   that run prices the gettimeofday pair per event, so the throughput
   row is measured with it off. *)
let sharded_throughput ?(latency = false) ~rounds ~alive_target ~nshards () =
  let st =
    StF.create ~nshards ~route:StF.Mod ~capacity:64.0
      ~allocator:(PF.engine_policy PF.Wdeq)
      ~policy:(PF.engine_policy PF.Wdeq)
      ~kinetic:(fun () -> PF.engine_kinetic PF.Wdeq)
      ~policy_label:"wdeq" ()
  in
  let rng = Rng.create 20120515 in
  let next_id = ref 0 in
  let events = ref 0 in
  let completions = ref 0 in
  let apply ev =
    let t0 = if latency then Unix.gettimeofday () else 0. in
    (match StF.apply st ev with
    | Ok notes ->
      incr events;
      completions := !completions + List.length notes
    | Error e -> failwith ("sharded_throughput: " ^ StF.En.error_to_string e));
    if latency then StF.observe_latency st (Unix.gettimeofday () -. t0)
  in
  let oldest = Queue.create () in
  let submit_one () =
    let id = !next_id in
    incr next_id;
    Queue.push id oldest;
    apply
      (StF.En.Submit
         {
           id;
           volume = 0.5 +. (float_of_int (Rng.int_in rng 0 64) /. 16.);
           weight = float_of_int (1 + Rng.int_in rng 0 10);
           cap = float_of_int (1 + Rng.int_in rng 0 4);
           speedup = None;
           deps = [];
         })
  in
  while StF.alive_count st < alive_target do
    submit_one ()
  done;
  apply (StF.En.Advance 0.0);
  let t0 = Unix.gettimeofday () in
  let e0 = !events and c0 = !completions in
  for _ = 1 to rounds do
    let cancelled = ref 0 in
    while !cancelled < 4 && not (Queue.is_empty oldest) do
      let id = Queue.pop oldest in
      if StF.remaining st id <> None then begin
        apply (StF.En.Cancel id);
        incr cancelled
      end
    done;
    while StF.alive_count st < alive_target do
      submit_one ()
    done;
    apply (StF.En.Advance 0.25)
  done;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let out = (!events - e0, !completions - c0, elapsed_s, st) in
  out

let run_sharded ~quick ~nshards =
  let alive_target = 1000 in
  let rounds = if quick then 300 else 2000 in
  print_endline "================================================================";
  print_endline " Sharded serve throughput (rows into BENCH_4.json)";
  print_endline "================================================================";
  (* Scaling sweep: the single-engine row (shards=1 goes through the
     store's transparent shim) up to the requested width. On one core
     the win is algorithmic — per-tick budgets confine each
     completion's reshare to its own shard, O(alive/S) instead of
     O(alive) — so events/s climbs with S on one domain. *)
  let widths =
    let base = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
    if List.mem nshards base then base else base @ [ nshards ]
  in
  let scaling =
    List.map
      (fun s ->
        let input_events, completions, elapsed_s, _ =
          sharded_throughput ~rounds ~alive_target ~nshards:s ()
        in
        let eps = float_of_int input_events /. elapsed_s in
        Printf.printf
          "  shards=%d input_events=%d completions=%d elapsed=%.3fs -> %.0f events/s\n" s
          input_events completions elapsed_s eps;
        (s, eps))
      widths
  in
  let sharded_eps = List.assoc nshards scaling in
  (* Tail-latency histogram: a shorter timed run (the gettimeofday pair
     is part of the measured cost, so it stays out of the throughput
     rows). Quantiles are log-bucket upper edges in microseconds. *)
  let _, _, _, st =
    sharded_throughput ~latency:true ~rounds:(max 50 (rounds / 4)) ~alive_target ~nshards ()
  in
  let q p = match StF.M.latency_quantile (StF.metrics st) p with Some us -> us | None -> nan in
  let lat = (q 0.50, q 0.90, q 0.99, q 0.999) in
  let p50, p90, p99, p999 = lat in
  Printf.printf "  event latency (shards=%d): p50=%.1fus p90=%.1fus p99=%.1fus p999=%.1fus\n"
    nshards p50 p90 p99 p999;
  (sharded_eps, scaling, lat)

(* ---------- part 5: generalized rate model (BENCH_5.json) ---------- *)

(* The same linear workload twice through the registry's batch WDEQ:
   once as plain linear tasks (the online engine's float drain) and
   once with every task wearing the identity speedup curve s(a) = a as
   a single breakpoint (delta, delta) — the same rate law semantically,
   but [has_curves] routes it through the generic batch loop. The
   ratio prices the generality seam, and the fast-path row doubles as
   a regression guard on the production linear path. *)
let identity_curved (inst : EF.Types.instance) : EF.Types.instance =
  {
    inst with
    EF.Types.tasks =
      Array.map
        (fun (t : EF.Types.task) ->
          {
            t with
            EF.Types.speedup =
              EF.Types.Curve { bx = [| t.EF.Types.delta |]; by = [| t.EF.Types.delta |] };
          })
        inst.EF.Types.tasks;
  }

let run_speedup_bench ~quick =
  let n = if quick then 500 else 2000 in
  let inst = instance_of_size n in
  let curved = identity_curved inst in
  let time f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let fast_s = time (fun () -> SF.solve_exn "wdeq" inst) in
  let generic_s = time (fun () -> SF.solve_exn "wdeq" curved) in
  let ratio = if fast_s > 0. then generic_s /. fast_s else nan in
  print_endline "================================================================";
  print_endline " Generalized rate model: generic concave path vs fast path (BENCH_5.json)";
  print_endline "================================================================";
  Printf.printf
    "  wdeq n=%d linear law: fast path %.4fs, identity-curve generic path %.4fs (x%.2f)\n" n
    fast_s generic_s ratio;
  let oc = open_out "BENCH_5.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"generalized rate model: WDEQ on the linear law, float fast path vs identity-curve generic path\",\n\
    \  \"tasks\": %d,\n\
    \  \"fast_path_s\": %.6f,\n\
    \  \"generic_path_s\": %.6f,\n\
    \  \"generic_over_fast\": %.3f\n\
     }\n"
    n fast_s generic_s ratio;
  close_out oc;
  Printf.printf "\nWrote rate-model results to BENCH_5.json\n"

(* ---------- part 7: precedence subsystem (BENCH_6.json) ---------- *)

(* [dag_serve]: a layered DAG churn stream through the online engine —
   every round submits a wave of tasks, each dormant on one task of the
   previous wave, then advances; activations ride the completion sweep.
   The events/s is directly comparable to BENCH_3's independent churn:
   the gap prices the dormant bookkeeping. [dag_simulate] times the
   batch frontier policy on a layered instance against plain WDEQ on
   the same tasks with the edges erased. *)
let dag_serve_throughput ~rounds ~wave =
  let eng =
    EnF.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.0
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  let rng = Rng.create 20120515 in
  let next_id = ref 0 in
  let events = ref 0 in
  let completions = ref 0 in
  let apply ev =
    match EnF.apply eng ev with
    | Ok notes ->
      incr events;
      completions := !completions + List.length notes
    | Error e -> failwith ("dag_serve: " ^ EnF.error_to_string e)
  in
  let submit_wave prev =
    List.init wave (fun j ->
        let id = !next_id in
        incr next_id;
        let deps = match prev with [] -> [] | l -> [ List.nth l (j mod List.length l) ] in
        apply
          (EnF.Submit
             {
               id;
               volume = 0.5 +. (float_of_int (Rng.int_in rng 0 16) /. 16.);
               weight = float_of_int (1 + Rng.int_in rng 0 7);
               cap = float_of_int (1 + Rng.int_in rng 0 3);
               speedup = None;
               deps;
             });
        id)
  in
  let prev = ref (submit_wave []) in
  apply (EnF.Advance 0.0);
  let t0 = Unix.gettimeofday () in
  let e0 = !events in
  for _ = 1 to rounds do
    prev := submit_wave !prev;
    apply (EnF.Advance 0.5)
  done;
  apply EnF.Drain;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (!events - e0, !completions, elapsed_s)

let layered_dag (inst : EF.Types.instance) ~width : EF.Types.instance =
  {
    inst with
    EF.Types.tasks =
      Array.mapi
        (fun i (t : EF.Types.task) ->
          let deps =
            if i < width then [||]
            else begin
              let layer0 = i - width - (i mod width) in
              let p = layer0 + (i mod width) in
              if (i + i / width) mod 2 = 0 || layer0 + width >= i then [| p |]
              else [| p; layer0 + ((i + 1) mod width) |]
            end
          in
          { t with EF.Types.deps })
        inst.EF.Types.tasks;
  }

let run_dag_bench ~quick =
  let rounds = if quick then 300 else 2000 in
  let wave = 8 in
  let input_events, completions, elapsed_s = dag_serve_throughput ~rounds ~wave in
  let events_per_sec = float_of_int input_events /. elapsed_s in
  let n = if quick then 500 else 2000 in
  let bag = instance_of_size n in
  let dag = layered_dag bag ~width:16 in
  let time f =
    ignore (f ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let bag_s = time (fun () -> SF.solve_exn "wdeq" bag) in
  let dag_s = time (fun () -> SF.solve_exn "wdeq-dag" dag) in
  let ratio = if bag_s > 0. then dag_s /. bag_s else nan in
  print_endline "================================================================";
  print_endline " Precedence subsystem: layered DAG churn and frontier policy (BENCH_6.json)";
  print_endline "================================================================";
  Printf.printf
    "  dag_serve: wave=%d rounds=%d input_events=%d completions=%d elapsed=%.3fs -> %.0f events/s\n"
    wave rounds input_events completions elapsed_s events_per_sec;
  Printf.printf "  dag_simulate n=%d: bag wdeq %.4fs, layered wdeq-dag %.4fs (x%.2f)\n" n bag_s
    dag_s ratio;
  let oc = open_out "BENCH_6.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"precedence subsystem: layered DAG churn through the online engine, batch frontier policy vs independent bag\",\n\
    \  \"dag_serve\": {\n\
    \    \"wave\": %d,\n\
    \    \"rounds\": %d,\n\
    \    \"input_events\": %d,\n\
    \    \"completions\": %d,\n\
    \    \"elapsed_s\": %.6f,\n\
    \    \"events_per_sec\": %.1f\n\
    \  },\n\
    \  \"dag_simulate\": {\n\
    \    \"tasks\": %d,\n\
    \    \"bag_wdeq_s\": %.6f,\n\
    \    \"dag_wdeq_s\": %.6f,\n\
    \    \"dag_over_bag\": %.3f\n\
    \  }\n\
     }\n"
    wave rounds input_events completions elapsed_s events_per_sec n bag_s dag_s ratio;
  close_out oc;
  Printf.printf "\nWrote precedence results to BENCH_6.json\n"

(* ---------- part 8: what-if subsystem (BENCH_7.json) ---------- *)

module BrF = Mwct_runtime.Branch.Float
module LF = Mwct_runtime.Loadgen.Float

(* [fork_cost]: price one snapshot+fork of a steady engine with
   [alive] tasks — wall µs (best of three batches) and minor words
   (Gc differential over the middle batch). The what-if service forks
   once per branch, so this is its setup cost; the ceiling flag
   [--max-fork-micros] lets CI fail on copy-path regressions.
   [branch_replay]: drive a full B.run (diurnal load, four branches:
   straight line, policy switch, tenant scaling, injection) and report
   replayed events/s across all branches — directly comparable to
   BENCH_3's single-engine throughput; the gap prices journaling and
   divergence tracking. *)
let run_whatif_bench ~quick =
  let alive = if quick then 250 else 1000 in
  let eng =
    EnF.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.0
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to alive - 1 do
    match
      EnF.submit eng ~id:i ~volume:1e9 ~weight:(float_of_int (1 + (i mod 7))) ~cap:2.0 ()
    with
    | Ok () -> ()
    | Error e -> failwith ("whatif bench: " ^ EnF.error_to_string e)
  done;
  (match EnF.apply eng (EnF.Advance 0.25) with
  | Ok _ -> ()
  | Error e -> failwith ("whatif bench: " ^ EnF.error_to_string e));
  let forks = if quick then 50 else 200 in
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to forks do
      ignore (Sys.opaque_identity (EnF.fork ?kinetic:(PF.engine_kinetic PF.Wdeq) (EnF.snapshot eng)))
    done;
    (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int forks
  in
  ignore (batch ());
  let w0 = Gc.minor_words () in
  let micros_b = batch () in
  let words_per_fork = (Gc.minor_words () -. w0) /. float_of_int forks in
  let fork_micros = Stdlib.min micros_b (Stdlib.min (batch ()) (batch ())) in
  let nevents = if quick then 2_000 else 20_000 in
  let events = LF.generate ~pattern:LF.Diurnal ~seed:11 ~tenants:4 ~events:nevents () in
  let resolve name =
    Option.map (fun p -> PF.engine_policy p) (PF.of_name name)
  in
  let kinetic_for name =
    Option.bind (PF.of_name name) (fun p -> PF.engine_kinetic p)
  in
  let branches =
    List.map
      (fun s -> match BrF.parse_spec s with Ok b -> b | Error m -> failwith m)
      [ "idle"; "deq:policy=deq"; "scale:scale=1:2"; "inject:submit=999983:8:4:2,advance=1/2" ]
  in
  let t0 = Unix.gettimeofday () in
  let report =
    match
      BrF.run ~resolve ~kinetic_for ~tenants:4 ~capacity:64.0 ~policy:"wdeq" ~events
        ~fork_at:(nevents / 2) ~branches ()
    with
    | Ok r -> r
    | Error m -> failwith ("whatif bench: " ^ m)
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let applied = List.fold_left (fun a (o : BrF.outcome) -> a + o.BrF.applied) 0 report.BrF.branches in
  (* the baseline replay processes the whole stream once, too *)
  let replayed = applied + List.length events in
  let replay_eps = float_of_int replayed /. elapsed_s in
  print_endline "================================================================";
  print_endline " What-if subsystem: fork cost and branch replay (BENCH_7.json)";
  print_endline "================================================================";
  Printf.printf "  fork: alive=%d -> %.1f us/fork, %.0f minor words/fork\n" alive fork_micros
    words_per_fork;
  Printf.printf
    "  branch replay: %d events, fork at %d, %d branches -> %d replayed events in %.3fs (%.0f \
     events/s)\n"
    (List.length events) (nevents / 2) (List.length branches) replayed elapsed_s replay_eps;
  let oc = open_out "BENCH_7.json" in
  Printf.fprintf oc
    "{\n\
    \  \"benchmark\": \"what-if subsystem: snapshot/fork cost on a steady engine, branch replay throughput over a diurnal load\",\n\
    \  \"fork\": {\n\
    \    \"alive_tasks\": %d,\n\
    \    \"micros_per_fork\": %.3f,\n\
    \    \"minor_words_per_fork\": %.1f\n\
    \  },\n\
    \  \"branch_replay\": {\n\
    \    \"events\": %d,\n\
    \    \"fork_at\": %d,\n\
    \    \"branches\": %d,\n\
    \    \"replayed_events\": %d,\n\
    \    \"elapsed_s\": %.6f,\n\
    \    \"events_per_sec\": %.1f\n\
    \  }\n\
     }\n"
    alive fork_micros words_per_fork (List.length events) (nevents / 2) (List.length branches)
    replayed elapsed_s replay_eps;
  close_out oc;
  Printf.printf "\nWrote what-if results to BENCH_7.json\n";
  fork_micros

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let opt_arg name =
    let rec go = function
      | key :: v :: _ when key = name -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let floor = Option.map float_of_string (opt_arg "--min-events-per-sec") in
  let sharded_floor = Option.map float_of_string (opt_arg "--min-sharded-events-per-sec") in
  let nshards =
    match Option.map int_of_string (opt_arg "--shards") with
    | Some s when s >= 1 -> s
    | Some _ | None -> 4
  in
  if (not quick) && not (List.mem "--no-experiments" argv) then run_experiments ();
  let rows = benchmark ~quota:(if quick then 0.05 else 0.5) in
  let registry_rows, kernel_rows = List.partition is_registry_row rows in
  emit_json "BENCH_1.json" kernel_rows;
  emit_json "BENCH_2.json" registry_rows;
  let events_per_sec = run_throughput ~quick in
  let sharded_eps, scaling, lat = run_sharded ~quick ~nshards in
  run_data_plane ~events_per_sec ~nshards ~sharded_eps ~scaling ~lat;
  run_speedup_bench ~quick;
  run_dag_bench ~quick;
  let fork_micros = run_whatif_bench ~quick in
  let max_fork_micros = Option.map float_of_string (opt_arg "--max-fork-micros") in
  let check what floor measured =
    match floor with
    | Some f when measured < f ->
      Printf.eprintf "FAIL: %s %.0f events/s is below the floor %.0f events/s\n" what measured f;
      exit 1
    | Some f -> Printf.printf "%s floor satisfied: %.0f >= %.0f events/s\n" what measured f
    | None -> ()
  in
  check "engine throughput" floor events_per_sec;
  check "sharded throughput" sharded_floor sharded_eps;
  match max_fork_micros with
  | Some ceiling when fork_micros > ceiling ->
    Printf.eprintf "FAIL: fork cost %.1f us is above the ceiling %.1f us\n" fork_micros ceiling;
    exit 1
  | Some ceiling -> Printf.printf "fork-cost ceiling satisfied: %.1f <= %.1f us\n" fork_micros ceiling
  | None -> ()
