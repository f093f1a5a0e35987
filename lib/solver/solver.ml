(** Field-polymorphic solver registry: the single dispatch path shared
    by the CLI, the experiment battery, the benchmark harness and the
    property tests.

    A {e solver} is a packed value [{ info; solve }] — a name, a doc
    line, capability flags, and a function from an instance to a column
    schedule plus per-run metadata. [Make (F)] instantiates the whole
    registry over a field, so every registered algorithm is available
    on both engines with the types lined up (functors are applicative,
    exactly as in {!Mwct_core.Engine}).

    Adding an algorithm is {e one} registration here; the CLI enum,
    the bench loop, the cross-engine property tests and the experiment
    lookups all pick it up automatically. Capability flags let
    consumers filter: the bench loop shrinks instances for
    {!Enumerative} solvers, the CLI documents {!Needs_lp}, experiments
    select {!Non_clairvoyant} policies.

    Field-neutral metadata ([infos], [names], [find_info]) is exposed
    at the top level for consumers that only need names and flags
    (argument parsers, documentation generators). *)

(** Capability flags — coarse facts consumers dispatch on.

    - [Needs_lp]: runs the Corollary-1 LP (simplex) internally.
    - [Exact_recommended]: float results can be off by more than test
      tolerance on adversarial inputs; prefer the exact engine for
      ground truth.
    - [Non_clairvoyant]: never reads volumes except to locate the next
      completion event — an online policy in the paper's sense.
    - [Enumerative]: exponential in [n] (order enumeration); callers
      must keep [n] small (the LP enumeration guard is 8).
    - [General_speedup]: handles the generalized rate model (per-task
      concave speedup curves); solvers without it are restricted to
      the paper's linear law and {!Driver.Make.run} refuses curved
      instances for them.
    - [Dag]: handles precedence-constrained instances (dependency
      edges); {!Driver.Make.run} refuses instances with edges for
      solvers without it. *)
type cap = Needs_lp | Exact_recommended | Non_clairvoyant | Enumerative | General_speedup | Dag

let cap_to_string = function
  | Needs_lp -> "needs-lp"
  | Exact_recommended -> "exact-recommended"
  | Non_clairvoyant -> "non-clairvoyant"
  | Enumerative -> "enumerative"
  | General_speedup -> "general-speedup"
  | Dag -> "dag"

(** Field-neutral identity of a registered solver. *)
type info = { name : string; doc : string; caps : cap list }

let caps_to_string (i : info) = String.concat "," (List.map cap_to_string i.caps)

module Make (F : Mwct_field.Field.S) = struct
  module E = Mwct_core.Engine.Make (F)

  (** Per-run metadata beyond the schedule: the completion/insertion
      order for order-based solvers, [None] when the solver has nothing
      to report. (WDEQ's Lemma 2 split is read off the schedule by
      {!Mwct_core.Wdeq.Make.split}.) *)
  type meta = { order : int array option }

  let no_meta = { order = None }

  type t = {
    info : info;
    solve : E.Types.instance -> E.Types.column_schedule * meta;
  }

  let make ~name ~doc ?(caps = []) solve = { info = { name; doc; caps }; solve }

  let of_greedy_order ~name ~doc ?caps order_of =
    make ~name ~doc ?caps (fun inst ->
        let sigma = order_of inst in
        (E.Greedy.run inst sigma, { order = Some sigma }))

  (* Algorithm 1 (DEQ with [~use_weights:false]) over the ready
     frontier: a zero-release drain of the online engine on the linear
     law, the generic batch loop with speedup curves (DESIGN.md §6.1).
     The simulator is applied per call, not per [Make]: every
     application of [Make] would otherwise re-apply the runtime
     functors at start-up. *)
  let equipartition ~use_weights inst =
    if E.Instance.has_curves inst then (E.Wdeq.simulate_reference ~use_weights inst, no_meta)
    else begin
      let module Sim = Mwct_ncv.Simulator.Make (F) in
      (Sim.schedule inst (if use_weights then Sim.P.Wdeq else Sim.P.Deq), no_meta)
    end

  let wdeq =
    make ~name:"wdeq" ~doc:"Weighted Dynamic EQuipartition (Algorithm 1), the 2-approximation"
      ~caps:[ Non_clairvoyant; General_speedup ] (equipartition ~use_weights:true)

  let deq =
    make ~name:"deq" ~doc:"unweighted Dynamic EQuipartition (Deng et al.)"
      ~caps:[ Non_clairvoyant; General_speedup ] (equipartition ~use_weights:false)

  let greedy_smith =
    of_greedy_order ~name:"greedy-smith" ~doc:"Greedy (Algorithm 3) in Smith/LRF order (largest w/V first)"
      ~caps:[ General_speedup ] E.Orderings.smith

  let greedy_identity =
    of_greedy_order ~name:"greedy" ~doc:"Greedy (Algorithm 3) in input order" ~caps:[ General_speedup ]
      (fun inst -> E.Orderings.identity (Array.length inst.E.Types.tasks))

  let greedy_height =
    of_greedy_order ~name:"greedy-height" ~doc:"Greedy in non-decreasing height V/min(delta,P) order"
      ~caps:[ General_speedup ] E.Orderings.shortest_height

  let greedy_ldf =
    of_greedy_order ~name:"greedy-ldf" ~doc:"Greedy in largest-delta-first order"
      ~caps:[ General_speedup ] E.Orderings.largest_delta

  let wf_cmax =
    make ~name:"wf-cmax"
      ~doc:"Water-Filling schedule at the optimal makespan T* (minimizes Cmax, not sum w.C)"
      ~caps:[ General_speedup ] (fun inst -> (E.Makespan.schedule inst, no_meta))

  let best_greedy =
    make ~name:"best-greedy" ~doc:"best Greedy over all n! insertion orders (Section V-A quantity)"
      ~caps:[ Enumerative ] (fun inst ->
        let _, sigma = E.Lp_schedule.best_greedy inst in
        (E.Greedy.run inst sigma, { order = Some sigma }))

  let wdeq_dag =
    make ~name:"wdeq-dag"
      ~doc:"frontier-WDEQ over the precedence DAG (weights shared over ready tasks; GGKS)"
      ~caps:[ Non_clairvoyant; General_speedup; Dag ] wdeq.solve

  let deq_dag =
    make ~name:"deq-dag" ~doc:"unweighted frontier equipartition over the precedence DAG"
      ~caps:[ Non_clairvoyant; General_speedup; Dag ] deq.solve

  let optimal =
    make ~name:"optimal" ~doc:"exact optimum: Corollary-1 LP over all n! completion orders (n <= 8)"
      ~caps:[ Needs_lp; Exact_recommended; Enumerative ] (fun inst ->
        let _, s = E.Lp_schedule.optimal inst in
        (s, { order = Some s.E.Types.order }))

  (** The registry. Order is the presentation order everywhere
      ([--list-algos], bench, README). *)
  let all =
    [
      wdeq; deq; greedy_smith; greedy_identity; greedy_height; greedy_ldf; wf_cmax; best_greedy;
      optimal; wdeq_dag; deq_dag;
    ]

  let infos = List.map (fun s -> s.info) all
  let names = List.map (fun s -> s.info.name) all
  let find name = List.find_opt (fun s -> s.info.name = name) all

  (** [find_exn name] raises [Invalid_argument] on unknown names —
      for callers that already validated the name (CLI enums,
      experiment code naming registered solvers). *)
  let find_exn name =
    match find name with
    | Some s -> s
    | None ->
      invalid_arg
        (Printf.sprintf "Solver.find_exn: unknown solver %S (known: %s)" name (String.concat ", " names))

  let has_cap c (s : t) = List.mem c s.info.caps

  (** [solve_exn name inst] — registry lookup + run in one call. *)
  let solve_exn name inst = (find_exn name).solve inst

  (** Objective [Σ w_i C_i] of the named solver's schedule. *)
  let objective name inst = E.Schedule.weighted_completion_time (fst (solve_exn name inst))
end

(** Pre-applied registries, mirroring {!Mwct_core.Engine}. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)

(** Field-neutral registry metadata (identical on every field — the
    registrations are shared code). *)
let infos = Float.infos

let names = Float.names
let find_info name = List.find_opt (fun i -> i.name = name) infos

(** Field-neutral capability test on registry metadata — what the
    online runtime uses to decide whether a named algorithm may drive
    the event engine. *)
let info_has_cap c (i : info) = List.mem c i.caps
