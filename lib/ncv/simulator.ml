(** Event-driven non-clairvoyant simulator with task arrivals.

    Generalizes {!Mwct_core.Engine.Make.Wdeq} (which assumes all tasks
    present at time 0): tasks arrive at release dates; whenever a task
    arrives or completes, the policy's shares are recomputed from the
    alive set. Volumes are used only to detect completions — the policy
    never sees them, preserving non-clairvoyance. Tasks are independent:
    an instance with precedence edges is refused (frontier WDEQ models
    those, through [solve --algo wdeq-dag] and [serve]).

    [run] drives the incremental {!Mwct_runtime.Engine} from event to
    event: to the next completion estimate, or to the next release if
    that comes first. Before each step it reads the running shares
    ({!Mwct_runtime.Engine.Make.running}) and files them as the
    step's rate segments; the engine itself keeps no history. The
    engine reproduces this module's historical event-loop arithmetic
    exactly (absolute completion estimates, first-min selection,
    [leq_approx] completion detection, views in increasing id order),
    so the traces are bit-identical to the pre-runtime batch loop — one
    scheduling loop, not two.

    The output is an event trace plus per-task records; helpers compute
    the paper's objective and convert the trace to segment form for
    validity checking.

    [schedule] is the batch form: every task submitted at time 0 with
    its precedence edges as engine deps (dormant until its last parent
    completes), drained one completion instant at a time
    ({!Mwct_runtime.Engine.Make.step}) into a column schedule. The
    solver registry's WDEQ/DEQ entries run curve-free instances
    through it. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Mwct_core.Types.Make (F)
  module I = Mwct_core.Instance.Make (F)
  module P = Policy.Make (F)
  module En = Mwct_runtime.Engine.Make (F)

  type event = Arrival of int | Completion of int

  type record = {
    release : F.t;
    completion : F.t;
    (* Piecewise-constant rates: (from, to, share), chronological. *)
    segments : (F.t * F.t * F.t) list;
  }

  type trace = {
    instance : T.instance;
    policy : P.t;
    events : (F.t * event) list;  (** chronological *)
    records : record array;
  }

  (** Simulate [policy] on [inst] with [releases] (defaults to all
      zeros). Raises [Invalid_argument] on an instance with precedence
      edges, on a negative or non-finite release, or if a task can
      never progress (impossible for the
      provided policies: every alive task has a positive weight and
      cap... except [Priority_weight], which can starve tasks while
      heavier ones run — starvation resolves when the heavy tasks
      finish, so progress is still guaranteed). *)
  let run ?releases (inst : T.instance) (policy : P.t) : trace =
    let n = I.num_tasks inst in
    let releases = match releases with Some r -> r | None -> Array.make n F.zero in
    if Array.length releases <> n then invalid_arg "Simulator.run: releases length mismatch";
    Array.iteri
      (fun i r ->
        if F.sign r < 0 || not (Mwct_field.Field.is_finite F.witness r) then
          invalid_arg
            (Printf.sprintf "Simulator.run: release %d is %s (need finite and >= 0)" i
               (F.to_string r)))
      releases;
    if I.has_deps inst then
      invalid_arg "Simulator.run: precedence edges are not modelled (independent tasks only)";
    let eng =
      En.create ?kinetic:(P.engine_kinetic policy) ~capacity:inst.T.procs
        ~policy:(P.engine_policy policy) ()
    in
    let fail msg = invalid_arg ("Simulator.run: " ^ msg) in
    let events = ref [] in
    let completion = Array.make n F.zero in
    (* Rate histories, reverse chronological. Adjacent segments with the
       same share coalesce, so a task resharing to an identical rate
       keeps one segment — the piecewise-constant function is
       unchanged, only its representation is minimal. *)
    let segments = Array.make n [] in
    let push_segment i t0 t1 s =
      match segments.(i) with
      | (u0, u1, s') :: rest when F.equal u1 t0 && F.equal s' s ->
        segments.(i) <- (u0, t1, s) :: rest
      | l -> segments.(i) <- (t0, t1, s) :: l
    in
    (* Pending arrivals sorted by release (stable, so ties keep id
       order — as the historical batch loop did). *)
    let pending =
      List.sort
        (fun a b -> F.compare releases.(a) releases.(b))
        (List.init n (fun i -> i))
      |> ref
    in
    (* Submit arrivals due at or before the engine clock. *)
    let admit_due () =
      let rec go () =
        match !pending with
        | i :: rest when F.compare releases.(i) (En.now eng) <= 0 ->
          pending := rest;
          (match
             En.submit eng
               ?speedup:(I.speedup_arrays inst i)
               ~id:i ~volume:inst.T.tasks.(i).T.volume ~weight:inst.T.tasks.(i).T.weight
               ~cap:(I.effective_delta inst i) ()
           with
          | Ok () -> ()
          | Error e -> fail (En.error_to_string e));
          events := (releases.(i), Arrival i) :: !events;
          go ()
        | _ -> ()
      in
      go ()
    in
    admit_due ();
    (* One step per iteration. The target is the first completion
       estimate or release, so [advance_to] moves time once and lands
       exactly on it (any further rounds inside are zero-length): the
       shares read just before the call are the rates over the whole
       interval. *)
    let stall = ref 0 in
    while En.completed_count eng < n do
      let eta = En.next_eta eng in
      let target, at_release =
        match (eta, !pending) with
        | Some e, i :: _ when F.compare releases.(i) e < 0 -> (releases.(i), true)
        | Some e, _ -> (e, false)
        | None, i :: _ -> (releases.(i), true)
        | None, [] -> fail "deadlock: alive tasks but no positive share"
      in
      let t0 = En.now eng in
      if F.compare t0 target < 0 then
        List.iter (fun (i, s) -> push_segment i t0 target s) (En.running eng);
      let notes =
        match En.advance_to eng target with Ok l -> l | Error e -> fail (En.error_to_string e)
      in
      List.iter
        (fun (nt : En.notification) ->
          completion.(nt.En.id) <- nt.En.at;
          events := (nt.En.at, Completion nt.En.id) :: !events)
        notes;
      if notes = [] && not at_release then begin
        incr stall;
        if !stall > En.no_progress_budget then
          fail "no progress: completion estimate does not converge"
      end
      else stall := 0;
      admit_due ()
    done;
    let records =
      Array.init n (fun i ->
          { release = releases.(i); completion = completion.(i); segments = List.rev segments.(i) })
    in
    { instance = inst; policy; events = List.rev !events; records }

  (** Zero-release column run of [policy] on [inst], precedence edges
      included: one column per completion instant, holding the running
      shares ({!Mwct_runtime.Engine.Make.running}) over the interval
      that ends there, by ascending id. Simultaneous completions are
      ordered by index; the first carries the column and the others get
      empty zero-length ones, as in
      {!Mwct_core.Wdeq.Make.simulate_reference}. Raises
      [Invalid_argument] on a refused submit, a deadlock or a stall. *)
  let schedule (inst : T.instance) (policy : P.t) : T.column_schedule =
    let n = I.num_tasks inst in
    let fail msg = invalid_arg ("Simulator.schedule: " ^ msg) in
    let ok = function Ok x -> x | Error e -> fail (En.error_to_string e) in
    let eng =
      En.create ?kinetic:(P.engine_kinetic policy) ~capacity:inst.T.procs
        ~policy:(P.engine_policy policy) ()
    in
    Array.iteri
      (fun i (t : T.task) ->
        ok
          (En.submit eng
             ?speedup:(I.speedup_arrays inst i)
             ~deps:(Array.to_list t.T.deps) ~id:i ~volume:t.T.volume ~weight:t.T.weight
             ~cap:(I.effective_delta inst i) ()))
      inst.T.tasks;
    let order = Array.make n 0 and finish = Array.make n F.zero and columns = Array.make n [] in
    let j = ref 0 in
    while !j < n do
      let column = En.running eng in
      match ok (En.step eng) with
      | [] -> fail "deadlock: tasks left but none alive"
      | notes ->
        columns.(!j) <- column;
        List.iter
          (fun i ->
            order.(!j) <- i;
            finish.(!j) <- En.now eng;
            incr j)
          (List.sort Int.compare (List.map (fun (nt : En.notification) -> nt.En.id) notes))
    done;
    { T.instance = inst; order; finish; columns }

  (** The paper's objective on a trace. *)
  let weighted_completion_time (tr : trace) : F.t =
    let acc = ref F.zero in
    Array.iteri
      (fun i r -> acc := F.add !acc (F.mul tr.instance.T.tasks.(i).T.weight r.completion))
      tr.records;
    !acc

  (** Weighted flow time [Σ w_i (C_i − r_i)] — the objective the
      related-work row [14] targets. *)
  let weighted_flow_time (tr : trace) : F.t =
    let acc = ref F.zero in
    Array.iteri
      (fun i r ->
        acc := F.add !acc (F.mul tr.instance.T.tasks.(i).T.weight (F.sub r.completion r.release)))
      tr.records;
    !acc

  let makespan (tr : trace) : F.t =
    Array.fold_left (fun acc r -> F.max acc r.completion) F.zero tr.records

  (** Processed volume per task (should equal the instance volumes).
      Segments record allocations; the volume drained is the task's
      {e rate} at that allocation times the duration — the allocation
      itself under the linear law. *)
  let processed_volume (tr : trace) : F.t array =
    Array.mapi
      (fun i r ->
        List.fold_left
          (fun acc (a, b, s) -> F.add acc (F.mul (I.rate_at tr.instance i s) (F.sub b a)))
          F.zero r.segments)
      tr.records

  (** Validity of a trace: shares within caps, capacity respected at
      every instant, no work before release, volumes conserved. *)
  let check (tr : trace) : (unit, string) result =
    let exception Bad of string in
    try
      (* Per-task checks. *)
      Array.iteri
        (fun i r ->
          List.iter
            (fun (a, b, s) ->
              if F.compare a b >= 0 then raise (Bad (Printf.sprintf "task %d: empty segment" i));
              if F.compare a r.release < 0 then raise (Bad (Printf.sprintf "task %d: runs before release" i));
              if not (F.leq_approx s (I.effective_delta tr.instance i)) then
                raise (Bad (Printf.sprintf "task %d: share above cap" i));
              if F.sign s < 0 then raise (Bad (Printf.sprintf "task %d: negative share" i)))
            r.segments)
        tr.records;
      (* Volumes. *)
      let pv = processed_volume tr in
      Array.iteri
        (fun i v ->
          if not (F.equal_approx v tr.instance.T.tasks.(i).T.volume) then
            raise (Bad (Printf.sprintf "task %d: volume mismatch" i)))
        pv;
      (* Capacity between consecutive segment boundaries, where shares
         are constant: a sweep keeps the segments covering the current
         interval (start <= a < end; none is empty by now) and sums each
         interval afresh in task, then segment order, so every verdict
         is bit-identical to a scan of all segments per interval. A
         running total would drift by about the [leq_approx] tolerance. *)
      let segs =
        Array.of_list (List.concat_map (fun (r : record) -> r.segments) (Array.to_list tr.records))
      in
      let m = Array.length segs in
      let lo = Array.map (fun (a, _, _) -> a) segs and hi = Array.map (fun (_, b, _) -> b) segs in
      let sorted_by key =
        let idx = Array.init m Fun.id in
        Array.stable_sort (fun x y -> F.compare key.(x) key.(y)) idx;
        idx
      in
      let starts = sorted_by lo and ends = sorted_by hi in
      let boundaries =
        Array.of_list (List.sort_uniq F.compare (Array.to_list lo @ Array.to_list hi))
      in
      let module Iset = Set.Make (Int) in
      let active = ref Iset.empty and si = ref 0 and ei = ref 0 in
      for k = 0 to Array.length boundaries - 2 do
        let a = boundaries.(k) in
        while !si < m && F.compare lo.(starts.(!si)) a <= 0 do
          active := Iset.add starts.(!si) !active;
          incr si
        done;
        while !ei < m && F.compare hi.(ends.(!ei)) a <= 0 do
          active := Iset.remove ends.(!ei) !active;
          incr ei
        done;
        let total =
          Iset.fold (fun g acc -> match segs.(g) with _, _, s -> F.add acc s) !active F.zero
        in
        if not (F.leq_approx total tr.instance.T.procs) then
          raise (Bad "capacity exceeded between events")
      done;
      Ok ()
    with Bad msg -> Error msg

  (** Collapse a zero-release trace to a column schedule so the core
      checkers/objective agree with the simulator's. *)
  let to_column_schedule (tr : trace) : T.column_schedule =
    let module S = Mwct_core.Schedule.Make (F) in
    let completion = Array.map (fun r -> r.completion) tr.records in
    let order = S.sorted_order completion in
    let finish = Array.map (fun i -> completion.(i)) order in
    let columns = S.columns_of_segments ~finish (Array.map (fun r -> r.segments) tr.records) in
    { T.instance = tr.instance; order; finish; columns }
end

(** Pre-applied engines. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
