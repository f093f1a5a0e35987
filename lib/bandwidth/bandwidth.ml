(** The Figure-1 application: bandwidth sharing in a master–worker
    platform.

    A server with outgoing capacity [P] distributes code of size [V_i]
    to workers [P_1..P_n]; worker [i] has incoming bandwidth [δ_i] and,
    once its code is fully received (at time [C_i]), processes tasks at
    rate [w_i] until the horizon [T]. The number of tasks processed is
    [Σ_i w_i·(T − C_i)⁺] — maximizing it is exactly minimizing
    [Σ w_i C_i] when every transfer ends before the horizon, which is
    the paper's motivation for the weighted objective.

    The module maps scenarios onto scheduling instances (transfers are
    work-preserving malleable tasks: TCP-style bandwidth shares may
    change at any time) and evaluates distribution policies. *)

module Make (F : Mwct_field.Field.S) = struct
  module E = Mwct_core.Engine.Make (F)

  (** One worker: code to receive, link capacity, processing rate. *)
  type worker = { code_size : F.t; bandwidth : F.t; rate : F.t }

  type scenario = { server_capacity : F.t; horizon : F.t; workers : worker array }

  (** The scheduling instance of a scenario: transfers are tasks with
      [V = code_size], [δ = bandwidth], [w = rate]. *)
  let to_instance (sc : scenario) : E.Types.instance =
    {
      E.Types.procs = sc.server_capacity;
      E.Types.tasks =
        Array.map
          (fun wk ->
            {
              E.Types.volume = wk.code_size;
              E.Types.weight = wk.rate;
              E.Types.delta = wk.bandwidth;
              E.Types.speedup = E.Types.Linear_delta;
              E.Types.deps = [||];
            })
          sc.workers;
    }

  (** Tasks processed by the horizon for given completion times:
      [Σ w_i·(T − C_i)⁺]. *)
  let tasks_processed (sc : scenario) (completions : F.t array) : F.t =
    let acc = ref F.zero in
    Array.iteri
      (fun i wk ->
        let slack = F.sub sc.horizon completions.(i) in
        if F.sign slack > 0 then acc := F.add !acc (F.mul wk.rate slack))
      sc.workers;
    !acc

  (** The identity behind the reduction: when every completion is
      before the horizon, [Σ w_i (T − C_i) = (Σ w_i)·T − Σ w_i C_i]. *)
  let equivalence_gap (sc : scenario) (completions : F.t array) : F.t =
    let all_before = Array.for_all (fun c -> F.compare c sc.horizon <= 0) completions in
    if not all_before then invalid_arg "Bandwidth.equivalence_gap: some completion after horizon";
    let w_total = Array.fold_left (fun acc wk -> F.add acc wk.rate) F.zero sc.workers in
    let weighted_completion =
      let acc = ref F.zero in
      Array.iteri (fun i wk -> acc := F.add !acc (F.mul wk.rate completions.(i))) sc.workers;
      !acc
    in
    F.sub (tasks_processed sc completions) (F.sub (F.mul w_total sc.horizon) weighted_completion)

  (** Distribution policies. [Fifo] sends one code at a time at the
      worker's full link speed (the naive baseline); [Equal_split]
      statically divides the server capacity; [Smith_greedy] runs
      Algorithm Greedy on Smith's order; [Wdeq] is the paper's
      non-clairvoyant policy. *)
  type policy = Fifo | Equal_split | Smith_greedy | Wdeq

  let policy_name = function
    | Fifo -> "fifo"
    | Equal_split -> "equal-split"
    | Smith_greedy -> "smith-greedy"
    | Wdeq -> "wdeq"

  (** Completion times of all transfers under a policy. *)
  let completions (sc : scenario) (policy : policy) : F.t array =
    let inst = to_instance sc in
    let n = Array.length sc.workers in
    match policy with
    | Fifo ->
      (* Workers in index order, one at a time, each at min(δ, P). *)
      let c = Array.make n F.zero in
      let t = ref F.zero in
      for i = 0 to n - 1 do
        let speed = F.min sc.workers.(i).bandwidth sc.server_capacity in
        t := F.add !t (F.div sc.workers.(i).code_size speed);
        c.(i) <- !t
      done;
      c
    | Equal_split ->
      (* Static share min(δ_i, P/n), never recomputed. *)
      let fair = F.div sc.server_capacity (F.of_int n) in
      Array.mapi
        (fun i wk -> F.div sc.workers.(i).code_size (F.min wk.bandwidth fair))
        sc.workers
    | Smith_greedy ->
      let sigma = E.Orderings.smith inst in
      E.Schedule.completion_times (E.Greedy.run inst sigma)
    | Wdeq ->
      let s = E.Wdeq.wdeq inst in
      E.Schedule.completion_times s

  (** Throughput of a policy on a scenario. *)
  let throughput (sc : scenario) (policy : policy) : F.t = tasks_processed sc (completions sc policy)
end

(** Float instantiation (the usual one for simulations). *)
module Float = Make (Mwct_field.Field.Float_field)

(** Exact instantiation. *)
module Exact = Make (Mwct_rational.Rational.Rat_field)
