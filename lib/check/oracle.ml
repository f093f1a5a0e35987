(** Invariant oracles — one named, machine-checkable predicate per
    paper theorem (DESIGN.md §11).

    An oracle inspects one {e solved} instance (a registry solver's
    schedule plus its metadata) and returns a structured {!status}:
    [Pass], [Skip] (with the reason the oracle does not apply), or
    [Fail] carrying a witness (the offending task/column/bound) and the
    slack by which the theorem's inequality is violated. A bare [bool]
    would make shrinking useless — the fuzz driver minimizes while
    preserving the {e specific} (oracle, solver, engine) failure.

    [Make] is functorized over the field like the rest of the library;
    the differential driver instantiates it over both engines. The
    float instantiation compares with a relative slack of [1e-6]
    (matching the historical test tolerances); the exact instantiation
    compares strictly. *)

module Slv = Mwct_solver.Solver

(** Outcome of one oracle on one solved instance. *)
type status =
  | Pass
  | Skip of string  (** oracle does not apply; the reason why *)
  | Fail of { witness : string; slack : string }

(** Field-neutral oracle identity. *)
type info = { id : string; theorem : string; doc : string }

(** One oracle run, fully labelled. [engine] is ["float"], ["exact"],
    or ["both"] for the cross-field oracle. *)
type verdict = { oracle : string; theorem : string; algo : string; engine : string; status : status }

let passed (v : verdict) = match v.status with Fail _ -> false | Pass | Skip _ -> true

let status_to_string = function
  | Pass -> "pass"
  | Skip reason -> "skip (" ^ reason ^ ")"
  | Fail { witness; slack } -> Printf.sprintf "FAIL witness=[%s] slack=[%s]" witness slack

let verdict_to_string (v : verdict) =
  Printf.sprintf "%s (%s) algo=%s engine=%s: %s" v.oracle v.theorem v.algo v.engine
    (status_to_string v.status)

(* The catalogue is the single source of truth for oracle names: the
   functor below attaches a check to each entry except [cross-field],
   which needs both engines at once and lives in Differential. *)
let coherence_info = { id = "coherence"; theorem = "Definition 2"; doc = "schedule satisfies every MWCT-CB-F validity condition" }
let bounds_info = { id = "bounds"; theorem = "Definitions 5-6"; doc = "objective dominates the A(I) and H(I) lower bounds" }
let thm3_info = { id = "thm3"; theorem = "Theorem 3"; doc = "fractional->integer wrap uses floor/ceil processors, books exact volumes, and never delays a completion" }
let lemma3_info = { id = "lemma3"; theorem = "Lemma 3"; doc = "WF normal form has non-increasing column heights" }
let thm9_info = { id = "thm9"; theorem = "Theorem 9"; doc = "WF normal form of an offline completion-time vector has at most n allocation changes" }
let thm10_info = { id = "thm10"; theorem = "Theorem 10"; doc = "integerized WF normal form has at most 3n preemptions" }
let thm4_info = { id = "thm4"; theorem = "Theorem 4 / Lemma 2"; doc = "WDEQ objective <= 2(A(I[VFbar]) + H(I[VF])) on its own volume split" }
let thm11_info = { id = "thm11"; theorem = "Theorem 11"; doc = "best greedy is optimal on wide instances with homogeneous weights" }
let cross_field_info = { id = "cross-field"; theorem = "DESIGN \xc2\xa79"; doc = "float and exact objectives agree within tolerance" }
let dag_precedence_info = { id = "dag-precedence"; theorem = "DESIGN \xc2\xa715"; doc = "no task receives a share before all its parents complete" }
let dag_closure_info = { id = "dag-closure"; theorem = "DESIGN \xc2\xa715"; doc = "completion order is a linear extension of the dependency DAG" }
let dag_zero_edge_info = { id = "dag-zero-edge"; theorem = "DESIGN \xc2\xa715"; doc = "frontier policies on edge-free instances are bit-identical to the independent-bag path" }
let fork_identity_info = { id = "fork-identity"; theorem = "DESIGN \xc2\xa716"; doc = "forking at any event index and replaying the unmodified suffix reproduces the straight-line journal bytes and dump" }
let whatif_branch_info = { id = "whatif-branch"; theorem = "DESIGN \xc2\xa716"; doc = "every branch report figure is reproduced by replaying the branch's own journal" }

let catalogue =
  [
    coherence_info; bounds_info; thm3_info; lemma3_info; thm9_info; thm10_info; thm4_info;
    thm11_info; cross_field_info; dag_precedence_info; dag_closure_info; dag_zero_edge_info;
    fork_identity_info; whatif_branch_info;
  ]

let ids = List.map (fun i -> i.id) catalogue
let find_info id = List.find_opt (fun i -> i.id = id) catalogue

module Make (C : sig
  module F : Mwct_field.Field.S

  val exact : bool
  val engine : string
end) =
struct
  module F = C.F
  module S = Slv.Make (F)
  module E = S.E

  type solved = {
    solver : S.t;
    inst : E.Types.instance;
    schedule : E.Types.column_schedule;
    meta : S.meta;
  }

  let solve (s : S.t) inst =
    let schedule, meta = s.S.solve inst in
    { solver = s; inst; schedule; meta }

  let name_of sv = sv.solver.S.info.Slv.name
  let num_tasks sv = Array.length sv.inst.E.Types.tasks

  (* The normalize/integerize pipeline amplifies small errors in the
     completion-time vector into structural faults (an extra column, a
     transient P+1 demand). On the float engine that makes
     [Exact_recommended] solvers (the simplex-based ones) unreliable
     inputs — which is precisely what the capability flag documents —
     so pipeline oracles skip them there; the exact engine covers them
     in the same differential run. *)
  let fragile_float sv =
    (not C.exact) && List.mem Slv.Exact_recommended sv.solver.S.info.Slv.caps

  let fragile_skip = Skip "exact-recommended solver on the float engine: pipeline oracles run exact"

  (* Theorems 9 and 10 bound *discrete* counts (allocation changes,
     preemptions). Float drift turns exact completion-time ties into
     epsilon-width columns, legitimately shifting those counts by O(1)
     — the cross-engine suite documents the same effect — so the sharp
     bounds are verified on the exact engine only, which sees every
     fuzzed spec in the same differential run. *)
  let counting_skip = Skip "sharp counting bound checked on the exact engine (float ties drift)"

  (* Theorems 3/4/9/10/11 and Lemma 3 are stated for the paper's linear
     rate law; their pipelines (normalize, integerize, the Lemma-2
     volume split, the LP) assume rate = allocation. Model-independent
     oracles (coherence, bounds) run on curved instances unchanged —
     the generalized validity checker and the A(I)/H(I) bounds hold for
     any concave speedup with first slope <= 1. *)
  let curved sv = E.Instance.has_curves sv.inst

  let curved_skip = Skip "linear-rate-model theorem (instance has speedup curves)"

  (* The same theorems are also stated for *independent* bags: the WF
     normal form and the Lemma-2 split freely reorder completions, which
     a precedence DAG forbids, so the pipeline oracles skip dependency
     instances. Coherence and bounds still apply — Definition 2 and the
     A(I)/H(I) bounds hold for any valid schedule, and edges only
     constrain the schedule further. *)
  let dag sv = E.Instance.has_deps sv.inst

  let dag_skip = Skip "independent-bag theorem (instance has dependency edges)"

  (* Comparisons with a relative slack on the float engine, strict on
     the exact one — the same convention as the historical suites. *)
  let tol = if C.exact then F.zero else F.of_q 1 1_000_000

  let leq a b =
    let scale = F.max F.one (F.max (F.abs a) (F.abs b)) in
    F.compare a (F.add b (F.mul tol scale)) <= 0

  let eq a b = leq a b && leq b a
  let fmt = F.to_string
  let diff a b = fmt (F.sub a b)

  type t = { info : info; check : solved -> status }

  let ok_or first = match first with None -> Pass | Some f -> f

  (* Definition 2: the full validity checker, strict on rationals. *)
  let coherence =
    { info = coherence_info;
      check =
        (fun sv ->
          match E.Schedule.check ~exact:C.exact sv.schedule with
          | Ok () -> Pass
          | Error v -> Fail { witness = E.Schedule.violation_to_string v; slack = "-" });
    }

  (* Definitions 5-6: any valid schedule's objective is at or above
     both lower bounds. *)
  let bounds =
    { info = bounds_info;
      check =
        (fun sv ->
          let obj = E.Schedule.weighted_completion_time sv.schedule in
          let a = E.Lower_bounds.squashed_area sv.inst in
          let h = E.Lower_bounds.height_bound sv.inst in
          if not (leq a obj) then
            Fail { witness = "objective below squashed area A(I)"; slack = diff a obj }
          else if not (leq h obj) then
            Fail { witness = "objective below height bound H(I)"; slack = diff h obj }
          else Pass);
    }

  (* Theorem 3: the per-column McNaughton wrap books floor/ceil
     processors without overlap, preserves every task's volume, and the
     averaging direction never pushes a completion later. (Strict
     equality does not hold in general: when tied tasks time-share a
     column, the wrap can finish one of them strictly earlier — the
     theorem's inequality direction.) *)
  let thm3 =
    { info = thm3_info;
      check =
        (fun sv ->
          if curved sv then curved_skip
          else if dag sv then dag_skip
          else if fragile_float sv then fragile_skip
          else begin
          let is, wrap = E.Integerize.of_columns sv.schedule in
          match E.Integerize.check_floor_ceil sv.schedule is with
          | Some i -> Fail { witness = Printf.sprintf "task %d outside floor/ceil band" i; slack = "-" }
          | None ->
            if not (E.Assignment.no_overlap wrap) then
              Fail { witness = "wrap books one processor twice"; slack = "-" }
            else begin
              let s' = E.Integerize.to_columns is in
              let c = E.Schedule.completion_times sv.schedule in
              let c' = E.Schedule.completion_times s' in
              let booked = E.Assignment.booked_volume wrap in
              let bad = ref None in
              Array.iteri
                (fun i (t : E.Types.task) ->
                  if !bad = None && not (eq booked.(i) t.E.Types.volume) then
                    bad :=
                      Some
                        (Fail
                           { witness = Printf.sprintf "task %d volume not preserved by wrap" i;
                             slack = diff booked.(i) t.E.Types.volume;
                           })
                  else if !bad = None && not (leq c'.(i) c.(i)) then
                    bad :=
                      Some
                        (Fail
                           { witness = Printf.sprintf "task %d completes later after integerization" i;
                             slack = diff c'.(i) c.(i);
                           }))
                sv.inst.E.Types.tasks;
              ok_or !bad
            end
          end);
    }

  let normal_form sv = E.Water_filling.normalize sv.schedule

  (* Lemma 3: occupied processors never increase across the
     positive-length columns of a WF normal form. *)
  let lemma3 =
    { info = lemma3_info;
      check =
        (fun sv ->
          if curved sv then curved_skip
          else if dag sv then dag_skip
          else if fragile_float sv then fragile_skip
          else begin
          let s = normal_form sv in
          let heights = E.Water_filling.column_heights s in
          let prev = ref None in
          let bad = ref None in
          Array.iteri
            (fun j h ->
              if F.sign (E.Schedule.column_length s j) > 0 then begin
                (match !prev with
                | Some (j0, h0) when !bad = None && not (leq h h0) ->
                  bad :=
                    Some
                      (Fail
                         { witness = Printf.sprintf "column %d -> %d height increases" j0 j;
                           slack = diff h h0;
                         })
                | _ -> ());
                prev := Some (j, h)
              end)
            heights;
          ok_or !bad
          end);
    }

  (* Theorem 9: at most n allocation changes in the normal form. The
     bound is for the paper's offline pipeline, where the completion
     times come from Greedy or the LP; WDEQ's event-driven completion
     vectors can leave delta-saturated steps in the availability
     profile that genuinely cost n+1 changes (fuzzer-found boundary,
     pinned in test/corpus/wdeq-thm9-boundary.spec), so non-clairvoyant
     solvers are out of scope. *)
  let thm9 =
    { info = thm9_info;
      check =
        (fun sv ->
          if curved sv then curved_skip
          else if dag sv then dag_skip
          else if not C.exact then counting_skip
          else if List.mem Slv.Non_clairvoyant sv.solver.S.info.Slv.caps then
            Skip "n-change bound applies to offline completion-time vectors"
          else begin
            let s = normal_form sv in
            let n = num_tasks sv in
            let changes = E.Preemption.total_changes s in
            if changes <= n then Pass
            else
              Fail
                { witness = Printf.sprintf "%d allocation changes for %d tasks" changes n;
                  slack = string_of_int (changes - n);
                }
          end);
    }

  (* Theorem 10: integerize + assignment of the normal form costs at
     most 3n preemptions. The proof piggybacks on Theorem 9 (n
     completions plus a constant number of preemptions per allocation
     change), so the oracle inherits Theorem 9's scope: offline
     completion-time vectors only. WDEQ/DEQ-derived normal forms
     genuinely exceed both bounds on tie-heavy instances (pinned in
     test/corpus/wdeq-thm9-boundary.spec). *)
  let thm10 =
    { info = thm10_info;
      check =
        (fun sv ->
          if curved sv then curved_skip
          else if dag sv then dag_skip
          else if not C.exact then counting_skip
          else if List.mem Slv.Non_clairvoyant sv.solver.S.info.Slv.caps then
            Skip "3n bound applies to offline completion-time vectors"
          else begin
          let s = normal_form sv in
          let n = num_tasks sv in
          let is, _ = E.Integerize.of_columns s in
          let g = E.Assignment.assign is in
          if not (E.Assignment.no_overlap g) then
            Fail { witness = "assignment books one processor twice"; slack = "-" }
          else begin
            let p = E.Assignment.preemptions g in
            if p <= 3 * n then Pass
            else
              Fail
                { witness = Printf.sprintf "%d preemptions for %d tasks" p n;
                  slack = string_of_int (p - (3 * n));
                }
          end
          end);
    }

  (* Theorem 4 via Lemma 2: the volume split of WDEQ's schedule
     certifies the 2-approximation — TC <= 2(A(I[VFbar]) + H(I[VF])),
     and the split partitions each volume. *)
  let thm4 =
    { info = thm4_info;
      check =
        (fun sv ->
          if name_of sv <> "wdeq" then Skip "WDEQ-only oracle"
          else if curved sv then curved_skip
          else begin
            let d = E.Wdeq.split sv.schedule in
            let bad = ref None in
            Array.iteri
              (fun i (t : E.Types.task) ->
                let s = F.add d.E.Wdeq.full_volume.(i) d.E.Wdeq.limited_volume.(i) in
                if !bad = None && not (eq s t.E.Types.volume) then
                  bad :=
                    Some
                      (Fail
                         { witness = Printf.sprintf "task %d: VF + VFbar <> V" i;
                           slack = diff s t.E.Types.volume;
                         }))
              sv.inst.E.Types.tasks;
            match !bad with
            | Some f -> f
            | None ->
              let obj = E.Schedule.weighted_completion_time sv.schedule in
              let a =
                E.Lower_bounds.squashed_area
                  (E.Instance.sub_instance sv.inst d.E.Wdeq.limited_volume)
              in
              let h =
                E.Lower_bounds.height_bound (E.Instance.sub_instance sv.inst d.E.Wdeq.full_volume)
              in
              let bound = F.mul (F.of_int 2) (F.add a h) in
              if leq obj bound then Pass
              else Fail { witness = "objective above the Lemma 2 bound"; slack = diff obj bound }
          end);
    }

  (* Theorem 11: on wide instances (effective delta > P/2) with
     homogeneous weights, the best greedy order is optimal. Applies to
     the enumerative best-greedy solver only, so the differential
     driver's size gate keeps the LP enumeration small. *)
  let thm11 =
    { info = thm11_info;
      check =
        (fun sv ->
          if name_of sv <> "best-greedy" then Skip "best-greedy-only oracle"
          else if curved sv then curved_skip
          else begin
            let tasks = sv.inst.E.Types.tasks in
            let homogeneous =
              Array.for_all (fun (t : E.Types.task) -> F.equal t.E.Types.weight tasks.(0).E.Types.weight) tasks
            in
            let wide =
              Array.for_all
                (fun i ->
                  F.compare
                    (F.mul (F.of_int 2) (E.Instance.effective_delta sv.inst i))
                    sv.inst.E.Types.procs
                  > 0)
                (Array.init (Array.length tasks) (fun i -> i))
            in
            if not homogeneous then Skip "weights not homogeneous"
            else if not wide then Skip "not a wide instance (some delta <= P/2)"
            else begin
              let best = E.Schedule.weighted_completion_time sv.schedule in
              let opt, _ = E.Lp_schedule.optimal sv.inst in
              if eq best opt then Pass
              else Fail { witness = "best greedy differs from the LP optimum"; slack = diff best opt }
            end
          end);
    }

  (* DESIGN §15: no task may receive a positive share in a
     positive-length column that starts before every parent has
     completed. Structural — applies to any solver's schedule on a
     dependency instance. *)
  let dag_precedence =
    { info = dag_precedence_info;
      check =
        (fun sv ->
          if not (dag sv) then Skip "instance has no dependency edges"
          else begin
            let c = E.Schedule.completion_times sv.schedule in
            let bad = ref None in
            Array.iteri
              (fun j allocs ->
                if !bad = None && F.sign (E.Schedule.column_length sv.schedule j) > 0 then begin
                  let start = E.Schedule.column_start sv.schedule j in
                  List.iter
                    (fun (i, r) ->
                      if !bad = None && F.sign r > 0 then
                        Array.iter
                          (fun p ->
                            if !bad = None && not (leq c.(p) start) then
                              bad :=
                                Some
                                  (Fail
                                     { witness =
                                         Printf.sprintf
                                           "task %d runs in column %d before parent %d completes" i j p;
                                       slack = diff c.(p) start;
                                     }))
                          sv.inst.E.Types.tasks.(i).E.Types.deps)
                    allocs
                end)
              sv.schedule.E.Types.columns;
            ok_or !bad
          end);
    }

  (* DESIGN §15: the completion order is a linear extension of the DAG —
     every parent completes no later than its child. Implied by
     [dag-precedence] for tasks with positive volume; kept separate so a
     violation on zero-work tasks (which never hold a share) is still
     caught. *)
  let dag_closure =
    { info = dag_closure_info;
      check =
        (fun sv ->
          if not (dag sv) then Skip "instance has no dependency edges"
          else begin
            let c = E.Schedule.completion_times sv.schedule in
            let bad = ref None in
            Array.iteri
              (fun i (t : E.Types.task) ->
                Array.iter
                  (fun p ->
                    if !bad = None && not (leq c.(p) c.(i)) then
                      bad :=
                        Some
                          (Fail
                             { witness =
                                 Printf.sprintf "parent %d completes after its child %d" p i;
                               slack = diff c.(p) c.(i);
                             }))
                  t.E.Types.deps)
              sv.inst.E.Types.tasks;
            ok_or !bad
          end);
    }

  (* DESIGN §15: on an edge-free instance the frontier policies must be
     bit-identical to the registry's independent-bag WDEQ/DEQ (the same
     engine drain, with no task ever dormant, so equality is exact — no
     tolerance). *)
  let dag_zero_edge =
    { info = dag_zero_edge_info;
      check =
        (fun sv ->
          let reference =
            match name_of sv with
            | "wdeq-dag" -> Some "wdeq"
            | "deq-dag" -> Some "deq"
            | _ -> None
          in
          match reference with
          | None -> Skip "frontier-policy-only oracle"
          | Some _ when dag sv -> Skip "edge-free comparison (instance has dependency edges)"
          | Some reference ->
            let want, _ = S.solve_exn reference sv.inst in
            let got = sv.schedule in
            if got.E.Types.order <> want.E.Types.order then
              Fail { witness = "completion order differs from the independent-bag path"; slack = "-" }
            else if not (Array.for_all2 F.equal got.E.Types.finish want.E.Types.finish) then
              Fail { witness = "column finish times differ from the independent-bag path"; slack = "-" }
            else begin
              let allocs_eq a b =
                List.length a = List.length b
                && List.for_all2 (fun (i, r) (i', r') -> i = i' && F.equal r r') a b
              in
              if not (Array.for_all2 allocs_eq got.E.Types.columns want.E.Types.columns) then
                Fail { witness = "column allocations differ from the independent-bag path"; slack = "-" }
              else Pass
            end);
    }

  let all =
    [ coherence; bounds; thm3; lemma3; thm9; thm10; thm4; thm11; dag_precedence; dag_closure;
      dag_zero_edge ]
  let find id = List.find_opt (fun o -> o.info.id = id) all

  (** Run one oracle, converting any exception into a [Fail] verdict —
      a crash on a generated instance is a finding, not a fuzzer
      error. *)
  let run (o : t) (sv : solved) : verdict =
    let status =
      try o.check sv
      with e -> Fail { witness = "exception: " ^ Printexc.to_string e; slack = "-" }
    in
    { oracle = o.info.id; theorem = o.info.theorem; algo = name_of sv; engine = C.engine; status }
end
