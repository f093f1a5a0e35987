(** Sharded multi-tenant store: engine shards under a cross-shard WDEQ
    capacity allocator (DESIGN.md §14).

    Tasks are partitioned across [nshards] inner engines by a routing
    function of the task id ({!route}); each shard is a complete PR 6
    engine (SoA columns, kinetic frontier, zero-alloc advance) and never
    sees the other shards' tasks. Once per input tick — [Advance],
    [Advance_to], or each round of [Drain] — the {e allocator} (any
    {!Engine.Make.policy}, canonically the WDEQ kernel itself) splits
    the total capacity across the {e shards}, viewing shard [k] as a
    pseudo-task with weight [Σ weight] and cap [min (Σ cap) shard_cap]
    over its alive set. The budgets are applied through
    {!Engine.Make.set_capacity} and stay {e fixed for the whole tick}:
    shards advance to the same absolute target time independently, one
    after another in ascending shard order on the calling domain, so a
    completion's reshare and sweep cost O(n/S) inside its own shard
    instead of O(n) globally.

    Budgets are per-tick, not per-completion, so the share profile is
    {e not} the flat single-engine WDEQ profile (hierarchical max-min
    differs from flat max-min whenever a shard's internal caps bind).
    Determinism is what the store promises instead, and the journals
    carry it:

    - the {e merged} journal tags every line with its owning shard
      ([init] and input-tick lines are untagged/global) and orders a
      tick as input line, changed budgets in ascending shard order,
      completions merged by (time, shard); re-running the input stream
      reproduces it byte for byte;
    - each {e per-shard} journal is a plain single-engine journal —
      init, [budget] re-assignments, absolute [advance_to] ticks, its
      own submits/cancels and [out] lines — and replays on an ordinary
      engine via {!Journal.replay} with no allocator logic at all.
      That replay is the sharding oracle: the replayed engine must
      reproduce the live shard's dump and objective exactly.

    With [nshards = 1] the store degenerates to a thin recording shim
    over a single engine: no allocator, no budget lines, no shard tags
    — journal bytes and dump fingerprints are bit-identical to driving
    the PR 6 engine directly.

    Absolute targets are assigned, not accumulated ({!Engine.Make}'s
    [Advance_to]), so every shard's clock holds the {e same float bits}
    as a single engine fed the same stream. {e Empty} shards (zero
    alive, zero dormant tasks) are left out of a tick entirely — no
    [Advance_to] dispatch, no per-shard journal line — and their clock
    lags; the store catches a lagging shard up with one absolute
    [advance_to] immediately before the next submit routed to it that
    the engine accepts, so [submitted_at] still holds the lockstep bits
    and a refused submit leaves no trace. A tick that fails
    (engine error in any shard) records nothing and leaves the store
    poisoned, matching the engine's own error contract.

    {b Precedence.} A submit with [deps] routes to the shard of its {e
    first} parent, and the diverted id is remembered so cancels,
    lookups and duplicate checks follow it. All parents must live in
    one shard: a parent known on another shard is refused by name
    ("dependencies 1 and 2 are on shards 1 and 0"), and one no shard
    knows gets the engine's "unknown dependency".
    Dormant tasks are excluded from the allocator summaries until the
    engine activates them (detected after each tick's completions);
    cancel cascades ({!Engine.Make.cancel}) evict every closed id from
    the summaries at once. Steady ticks where no summary changed skip
    the allocator call altogether — budgets could not change, so the
    journals keep the exact bytes of the always-reallocate store. *)

module Make (F : Mwct_field.Field.S) = struct
  module En = Engine.Make (F)
  module J = Journal.Make (F)
  module M = Metrics.Make (F)

  (** How a task id picks its shard. [Hash] runs the id through a
      splitmix64 finalizer (good spread for clustered tenant ids);
      [Mod] is plain [id mod nshards] (deterministic round-robin when
      ids are dense — the bench and the tests use it for legibility).
      Cancels route identically to submits: same id, same shard. *)
  type route = Hash | Mod

  (* splitmix64 finalizer — full-avalanche bijection on 64 bits. *)
  let mix64 (z : int64) : int64 =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let route_shard (r : route) (nshards : int) (id : int) : int =
    match r with
    | Mod -> (id mod nshards + nshards) mod nshards
    | Hash -> Int64.to_int (mix64 (Int64.of_int id)) land max_int mod nshards

  type t = {
    nshards : int;
    route : route;
    capacity : F.t;  (* total, what the allocator splits *)
    shard_cap : F.t;  (* per-shard budget ceiling *)
    allocator : En.policy;
    policy_label : string;  (* init-line policy name *)
    engines : En.t array;
    (* per-shard alive membership (id -> weight, cap): the allocator's
       summary sums are maintained incrementally from it, and it is the
       re-sum source when float cancellation trips the drift guard *)
    tasks : (int, F.t * F.t) Hashtbl.t array;
    (* dormant (precedence-blocked) tasks per shard: id -> (weight,
       cap), parked until the engine activates them — only then do they
       join [tasks] and the allocator sums *)
    dormant_meta : (int, F.t * F.t) Hashtbl.t array;
    (* ids routed away from their natural shard (dependents follow
       their first parent); absent means [route_shard] *)
    home : (int, int) Hashtbl.t;
    w_sum : F.t array;
    d_sum : F.t array;
    (* the largest value of each sum since its last re-sum: the drift
       guard's reference *)
    w_peak : F.t array;
    d_peak : F.t array;
    (* summaries changed since the last allocator run; a clean tick
       reuses the standing budgets without calling the allocator *)
    mutable alloc_dirty : bool;
    mutable now : F.t;
    mutable merged_seq : int;
    shard_seq : int array;
    merged_sink : (string -> unit) option;
    decision_sink : (string -> unit) option;
    shard_sink : (int -> string -> unit) option;
    agg : M.t;  (* aggregated metrics + the serve latency histogram *)
    mutable events : int;  (* store-level input events *)
    single : bool;  (* nshards = 1: plain-engine delegation mode *)
  }

  (* ---------- journal emission ---------- *)

  (* Sequence counters always advance, sinks or not: the numbering is
     part of the deterministic output, so attaching a journal to a
     fresh run of the same stream reproduces the same bytes.

     An entry's payload is rendered at most once, on first use: the
     merged line, the per-shard line and the decision line of one entry
     (and one tick's [advance_to] in every active shard) frame the same
     payload, and an entry no sink takes is never rendered. *)
  type line = { entry : J.entry; payload : string Lazy.t }

  let line e = { entry = e; payload = lazy (J.payload e) }

  let memit t ?shard (l : line) : unit =
    let seq = t.merged_seq in
    t.merged_seq <- seq + 1;
    let decision = match l.entry with J.Output _ -> t.decision_sink | _ -> None in
    if t.merged_sink <> None || decision <> None then begin
      let s = J.frame ?shard ~seq (Lazy.force l.payload) in
      (match t.merged_sink with Some f -> f s | None -> ());
      match decision with Some f -> f s | None -> ()
    end

  let semit t k (l : line) : unit =
    let seq = t.shard_seq.(k) in
    t.shard_seq.(k) <- seq + 1;
    match t.shard_sink with Some f -> f k (J.frame ~seq (Lazy.force l.payload)) | None -> ()

  (* One entry on the merged journal (tagged with shard [k]) and on
     shard [k]'s own journal. *)
  let emit_both t k e =
    let l = line e in
    memit t ~shard:k l;
    semit t k l

  (* A tick's lines are buffered and flushed only on success: a failed
     tick records nothing (the engine error already left the store
     inconsistent; the journals at least stay replayable up to it). *)
  type pend = {
    mutable pm : (int option * line) list;  (* merged, reverse *)
    ps : line list array;  (* per shard, reverse *)
  }

  let pend_create nshards = { pm = []; ps = Array.make nshards [] }
  let push_m p shard l = p.pm <- (shard, l) :: p.pm
  let push_s p k l = p.ps.(k) <- l :: p.ps.(k)

  (* One entry on both journals: the merged line tagged with shard [k]
     and shard [k]'s own line. *)
  let push_both p k e =
    let l = line e in
    push_m p (Some k) l;
    push_s p k l

  let flush t p =
    List.iter (fun (shard, l) -> memit t ?shard l) (List.rev p.pm);
    for k = 0 to t.nshards - 1 do
      List.iter (fun l -> semit t k l) (List.rev p.ps.(k))
    done

  (* ---------- construction ---------- *)

  (** [create ~nshards ~route ~capacity ~allocator ~policy ~kinetic
      ~policy_label ()].

      [allocator] splits the total capacity across shard views each
      tick; [policy] (plus a fresh [kinetic ()] per shard — the
      incremental rule is stateful, so it is a factory) runs inside
      each engine. [shard_cap] (default: the total capacity) caps any
      single shard's budget. [merged_sink] receives every merged
      journal line; [decision_sink] only the [out] lines (same bytes
      and sequence numbers — serve points it at stdout); [shard_sink k]
      the per-shard journal lines. [record_segments] is accepted and
      ignored, like {!Engine.Make.create}'s. *)
  let create ?record_segments:(_ : bool option) ?shard_cap ?merged_sink ?decision_sink ?shard_sink
      ~nshards ~route ~capacity ~allocator ~policy ~kinetic ~policy_label () : t =
    if nshards < 1 then invalid_arg "Shard.create: nshards must be >= 1";
    if F.sign capacity <= 0 then invalid_arg "Shard.create: capacity must be positive";
    let shard_cap = match shard_cap with Some c -> c | None -> capacity in
    if F.sign shard_cap <= 0 then invalid_arg "Shard.create: shard_cap must be positive";
    let engines =
      Array.init nshards (fun _ ->
          En.create ?kinetic:(kinetic ()) ~capacity ~policy ())
    in
    let t =
      {
        nshards;
        route;
        capacity;
        shard_cap;
        allocator;
        policy_label;
        engines;
        tasks = Array.init nshards (fun _ -> Hashtbl.create 64);
        dormant_meta = Array.init nshards (fun _ -> Hashtbl.create 16);
        home = Hashtbl.create 64;
        w_sum = Array.make nshards F.zero;
        d_sum = Array.make nshards F.zero;
        w_peak = Array.make nshards F.zero;
        d_peak = Array.make nshards F.zero;
        alloc_dirty = true;
        now = F.zero;
        merged_seq = 0;
        shard_seq = Array.make nshards 0;
        merged_sink;
        decision_sink;
        shard_sink;
        agg = M.create ();
        events = 0;
        single = nshards = 1;
      }
    in
    (* Every journal opens with the same init line: total capacity and
       the policy label (shard budgets are re-assigned before any work
       runs, so the initial capacity only needs to be replayable). *)
    let init = line (J.Init { capacity; policy = policy_label }) in
    memit t init;
    for k = 0 to nshards - 1 do
      semit t k init
    done;
    t

  (* ---------- accessors ---------- *)

  let nshards t = t.nshards
  let now t = if t.single then En.now t.engines.(0) else t.now
  let capacity t = t.capacity
  let engines t = t.engines
  let shard_of t id =
    if t.single then 0
    else
      match Hashtbl.find_opt t.home id with
      | Some k -> k
      | None -> route_shard t.route t.nshards id

  let alive_count t =
    let n = ref 0 in
    for k = 0 to t.nshards - 1 do
      n := !n + En.alive_count t.engines.(k)
    done;
    !n

  let dormant_count t =
    let n = ref 0 in
    for k = 0 to t.nshards - 1 do
      n := !n + En.dormant_count t.engines.(k)
    done;
    !n

  (* A shard participates in a tick iff it holds any task at all; a
     dormant task implies an alive one in the same shard (its minimal
     unmet parent), so alive alone would do — the dormant check is
     belt and braces. *)
  let shard_active t k =
    En.alive_count t.engines.(k) > 0 || En.dormant_count t.engines.(k) > 0

  let remaining t id = En.remaining t.engines.(shard_of t id) id
  let find_closed t id = En.find_closed t.engines.(shard_of t id) id

  (** The store's metrics record: in sharded mode the persistent
      aggregate (refreshed by {!metrics_json}), holding the serve
      latency histogram; with one shard, the engine's own record. *)
  let metrics t = if t.single then En.metrics t.engines.(0) else t.agg

  (** Record one observed per-event service latency (seconds) into the
      store's histogram ({!Metrics.Make.observe_latency}). *)
  let observe_latency t secs = M.observe_latency (metrics t) secs

  let refresh_agg t =
    let m = t.agg in
    let sub = ref 0 and comp = ref 0 and canc = ref 0 in
    let resh = ref 0 and ac = ref 0 in
    let wc = ref F.zero and wf = ref F.zero in
    for k = 0 to t.nshards - 1 do
      let em = En.metrics t.engines.(k) in
      sub := !sub + em.M.submitted;
      comp := !comp + em.M.completed;
      canc := !canc + em.M.cancelled;
      resh := !resh + em.M.reshares;
      ac := !ac + em.M.alloc_changes;
      wc := F.add !wc em.M.weighted_completion;
      wf := F.add !wf em.M.weighted_flow
    done;
    m.M.events <- t.events;
    m.M.submitted <- !sub;
    m.M.completed <- !comp;
    m.M.cancelled <- !canc;
    m.M.reshares <- !resh;
    m.M.alloc_changes <- !ac;
    m.M.weighted_completion <- !wc;
    m.M.weighted_flow <- !wf

  let weighted_completion t =
    if t.single then En.weighted_completion t.engines.(0)
    else begin
      refresh_agg t;
      t.agg.M.weighted_completion
    end

  let completed_count t =
    let n = ref 0 in
    for k = 0 to t.nshards - 1 do
      n := !n + En.completed_count t.engines.(k)
    done;
    !n

  let metrics_json ?events_per_sec t =
    if t.single then En.metrics_json ?events_per_sec t.engines.(0)
    else begin
      refresh_agg t;
      M.to_json ?events_per_sec ~alive:(alive_count t) ~now:t.now t.agg
    end

  (** Deterministic fingerprint: with one shard, exactly the engine's
      {!Engine.Make.dump}; otherwise the per-shard dumps under
      [-- shard k --] headers. *)
  let dump t =
    if t.single then En.dump t.engines.(0)
    else begin
      let b = Buffer.create 256 in
      for k = 0 to t.nshards - 1 do
        Buffer.add_string b (Printf.sprintf "-- shard %d --\n" k);
        Buffer.add_string b (En.dump t.engines.(k))
      done;
      Buffer.contents b
    end

  (** A no-op: the store holds nothing beyond its heap, since every
      shard advances on the calling domain. Callers may still end a
      store's life with it. *)
  let shutdown (_ : t) = ()

  (* ---------- summaries & allocation ---------- *)

  (* An alive task joins shard [k]'s allocator summary. *)
  let add_task t k id w c =
    Hashtbl.replace t.tasks.(k) id (w, c);
    t.w_sum.(k) <- F.add t.w_sum.(k) w;
    t.d_sum.(k) <- F.add t.d_sum.(k) c;
    if F.compare t.w_sum.(k) t.w_peak.(k) > 0 then t.w_peak.(k) <- t.w_sum.(k);
    if F.compare t.d_sum.(k) t.d_peak.(k) > 0 then t.d_peak.(k) <- t.d_sum.(k)

  (* A closed (completed or cancelled) task leaves the allocator's
     summary sums. Exact on the rational field; on float each update
     rounds, so an emptied shard snaps back to exact zero and
     [reallocate]'s drift guard re-sums from the membership table. *)
  let forget_task t k id =
    (match Hashtbl.find_opt t.tasks.(k) id with
    | Some (w, c) ->
      Hashtbl.remove t.tasks.(k) id;
      t.w_sum.(k) <- F.sub t.w_sum.(k) w;
      t.d_sum.(k) <- F.sub t.d_sum.(k) c;
      t.alloc_dirty <- true
    | None -> ());
    Hashtbl.remove t.dormant_meta.(k) id;
    if En.alive_count t.engines.(k) = 0 then begin
      t.w_sum.(k) <- F.zero;
      t.d_sum.(k) <- F.zero;
      t.w_peak.(k) <- F.zero;
      t.d_peak.(k) <- F.zero
    end

  (* After a shard completed tasks, any of its parked dormant tasks may
     have been activated (or cascade-cancelled) by the engine; fold the
     activated ones into the allocator summary. *)
  let promote_activated t k =
    if Hashtbl.length t.dormant_meta.(k) > 0 then begin
      let moved = ref [] in
      Hashtbl.iter
        (fun id wc ->
          if En.waiting_on t.engines.(k) id = None then moved := (id, wc) :: !moved)
        t.dormant_meta.(k);
      List.iter
        (fun (id, (w, c)) ->
          Hashtbl.remove t.dormant_meta.(k) id;
          t.alloc_dirty <- true;
          (* still present in the engine => activated; gone => it was
             closed (cascade cancel) and has nothing to contribute *)
          if En.remaining t.engines.(k) id <> None then add_task t k id w c)
        !moved
    end

  (* Drift guard. Every float update of a sum rounds by at most 2^-53
     of the sum's peak since the last re-sum, so after m updates the
     error is at most m * 2^-53 * peak. A sum that is non-positive, or
     has fallen below peak * 2^-20 (cancellation: a large task left),
     is re-summed from the membership table; any other sum is within
     m * 2^-33 of its true value, relatively. On the rational field the
     re-sum reproduces the sum exactly. *)
  let drift_scale = F.of_int (1 lsl 20)

  let drifted sum peak = F.sign sum <= 0 || F.compare (F.mul sum drift_scale) peak < 0

  (* Split the total capacity across the nonempty shards and apply the
     budgets. Only an actual change dirties a shard (set_capacity is a
     no-op on equal budgets), so a quiet stretch of ticks keeps every
     shard on its allocation-free advance path. Changed budgets are
     recorded in ascending shard order.

     Steady-state short-circuit: the allocator is a pure function of
     the summaries (and alive-ness, which only changes with them), so
     when no summary moved since the last run the budgets it would
     compute are the standing ones — skip the call entirely. The
     journals cannot tell: equal budgets emit no lines either way. *)
  let reallocate t p =
    if not t.alloc_dirty then ()
    else begin
    t.alloc_dirty <- false;
    for k = 0 to t.nshards - 1 do
      if
        En.alive_count t.engines.(k) > 0
        && (drifted t.w_sum.(k) t.w_peak.(k) || drifted t.d_sum.(k) t.d_peak.(k))
      then begin
        let w = ref F.zero and d = ref F.zero in
        Hashtbl.iter
          (fun _ (wt, cp) ->
            w := F.add !w wt;
            d := F.add !d cp)
          t.tasks.(k);
        t.w_sum.(k) <- !w;
        t.d_sum.(k) <- !d;
        t.w_peak.(k) <- !w;
        t.d_peak.(k) <- !d
      end
    done;
    let views = ref [] in
    for k = t.nshards - 1 downto 0 do
      if En.alive_count t.engines.(k) > 0 then begin
        let cap =
          if F.compare t.d_sum.(k) t.shard_cap <= 0 then t.d_sum.(k) else t.shard_cap
        in
        views := { En.id = k; weight = t.w_sum.(k); cap } :: !views
      end
    done;
    if !views <> [] then begin
      let out = t.allocator ~capacity:t.capacity !views in
      let desired = Array.make t.nshards None in
      List.iter
        (fun (k, b) -> if k >= 0 && k < t.nshards && F.sign b >= 0 then desired.(k) <- Some b)
        out;
      for k = 0 to t.nshards - 1 do
        match desired.(k) with
        | Some b when En.set_capacity t.engines.(k) b -> push_both p k (J.Budget b)
        | _ -> ()
      done
    end
    end

  (* ---------- tick machinery ---------- *)

  (* Advance the active shards to [target] in ascending shard order;
     empty shards are skipped (lazy clock sync — they catch up before
     their next submit). Every active shard advances even after a lower
     one errs, and the lowest-index error wins. On success the shards'
     completions come back merged into one stream ordered by (time,
     shard): within a shard the list is already chronological, and the
     sort is stable, so simultaneous completions keep shard order and
     same-shard order. *)
  let advance_all t target : ((int * En.notification) list, En.error) result =
    let err = ref None in
    let all = ref [] in
    for k = 0 to t.nshards - 1 do
      if shard_active t k then
        match En.apply t.engines.(k) (En.Advance_to target) with
        | Ok notes -> all := List.rev_append (List.map (fun n -> (k, n)) notes) !all
        | Error e -> if !err = None then err := Some e
    done;
    match !err with
    | Some e -> Error e
    | None ->
      Ok
        (List.stable_sort
           (fun (k1, (n1 : En.notification)) (k2, n2) ->
             let c = F.compare n1.En.at n2.En.at in
             if c <> 0 then c else Stdlib.compare k1 k2)
           (List.rev !all))

  (* One input tick: re-budget, drive every active shard to the same
     absolute target, merge. *)
  let tick t (input_ev : En.event) (target : F.t) : (En.notification list, En.error) result =
    let p = pend_create t.nshards in
    push_m p None (line (J.Input input_ev));
    reallocate t p;
    let adv = line (J.Input (En.Advance_to target)) in
    for k = 0 to t.nshards - 1 do
      if shard_active t k then push_s p k adv
    done;
    match advance_all t target with
    | Error e -> Error e
    | Ok notes ->
      List.iter
        (fun (k, (n : En.notification)) ->
          forget_task t k n.En.id;
          push_both p k (J.Output { id = n.En.id; at = n.En.at }))
        notes;
      List.iter (fun (k, _) -> promote_activated t k) notes;
      t.now <- target;
      flush t p;
      t.events <- t.events + 1;
      Ok (List.map snd notes)

  (* Drain: repeatedly re-budget, peek every shard's next completion
     estimate ({!Engine.Make.next_eta} — the advance loop's own
     arithmetic, so the global minimum is exactly where the owning
     shard's next step lands), and advance everyone there. Zero-budget
     (starved) shards peek [None] and simply ride along; if every
     nonempty shard is starved the drain deadlocks, same as the
     engine. The engine's own stall budget absorbs float-residue rounds
     where the minimum shard's completion needs an extra nudge. *)
  let drain t : (En.notification list, En.error) result =
    let p = pend_create t.nshards in
    push_m p None (line (J.Input En.Drain));
    let all = ref [] in
    let stall = ref 0 in
    let err = ref None in
    while alive_count t > 0 && !err = None do
      reallocate t p;
      let best = ref None in
      for k = 0 to t.nshards - 1 do
        if En.alive_count t.engines.(k) > 0 then
          match En.next_eta t.engines.(k) with
          | Some eta -> (
            match !best with
            | Some b when F.compare b eta <= 0 -> ()
            | _ -> best := Some eta)
          | None -> ()
      done;
      match !best with
      | None -> err := Some (En.Invalid "deadlock: alive tasks but no positive share")
      | Some eta -> (
        let adv = line (J.Input (En.Advance_to eta)) in
        for k = 0 to t.nshards - 1 do
          if shard_active t k then push_s p k adv
        done;
        match advance_all t eta with
        | Error e -> err := Some e
        | Ok notes ->
          t.now <- eta;
          if notes = [] then begin
            incr stall;
            if !stall > En.no_progress_budget then
              err := Some (En.Invalid "no progress: completion estimate does not converge")
          end
          else begin
            stall := 0;
            List.iter
              (fun (k, (n : En.notification)) ->
                forget_task t k n.En.id;
                push_both p k (J.Output { id = n.En.id; at = n.En.at }))
              notes;
            List.iter (fun (k, _) -> promote_activated t k) notes;
            all := List.rev_append notes !all
          end)
    done;
    match !err with
    | Some e -> Error e
    | None ->
      flush t p;
      t.events <- t.events + 1;
      Ok (List.rev_map snd !all)

  (* ---------- input events ---------- *)

  (* Whether shard [k]'s engine knows [id]: alive, dormant or closed. *)
  let known t k id = En.remaining t.engines.(k) id <> None || En.find_closed t.engines.(k) id <> None

  (* A task's parents must share a shard: the dependent lands on its
     first parent's shard [k], whose engine cannot see the others. A
     later parent known on another shard is refused here, naming both;
     an id no shard knows is left to the engine's "unknown dependency". *)
  let split_parents t id k deps : En.error option =
    match deps with
    | [] | [ _ ] -> None
    | p :: rest when known t k p ->
      List.find_map
        (fun d ->
          let kd = shard_of t d in
          if kd <> k && known t kd d then
            Some
              (En.Invalid
                 (Printf.sprintf
                    "task %d: dependencies %d and %d are on shards %d and %d; a task's parents \
                     must share a shard"
                    id p d k kd))
          else None)
        rest
    | _ -> None

  (** Apply one input event; notifications are the completions it
      triggered, merged across shards in chronological order. Failures
      record nothing. With one shard this delegates straight to
      {!Engine.Make.apply} (identical results, journal bytes and error
      strings); submit/cancel failures are per-event and leave the
      store untouched, while a failed advance/drain tick poisons it,
      matching the engine's own contract. *)
  let apply t (e : En.event) : (En.notification list, En.error) result =
    if t.single then begin
      match En.apply t.engines.(0) e with
      | Error _ as err -> err
      | Ok notes ->
        memit t (line (J.Input e));
        List.iter
          (fun (n : En.notification) -> memit t (line (J.Output { id = n.En.id; at = n.En.at })))
          notes;
        Ok notes
    end
    else
      match e with
      | En.Submit { id; volume; weight; cap; speedup; deps } -> (
        (* A dependent task must see its parents: route it to the first
           parent's shard (the engine rejects parents it cannot see).
           The diverted id is remembered in [home] for later lookups, so
           a known id is always on [shard_of]: a duplicate is refused
           there, whatever shard its deps point at. *)
        let natural = route_shard t.route t.nshards id in
        let own = shard_of t id in
        let k = match deps with [] -> own | p :: _ -> shard_of t p in
        (* Lazy clock sync: an empty shard skipped recent ticks; bring
           its clock to store time so [submitted_at] gets the same bits
           as the always-advance store. Only a submit the engine accepts
           may move the clock, so a lagging shard checks it first: a
           refusal leaves every shard and every journal untouched. *)
        let lagging = F.compare (En.now t.engines.(k)) t.now < 0 in
        let refusal =
          if k <> own && known t own id then Some (En.Duplicate_task id)
          else
            match split_parents t id k deps with
            | None when lagging ->
              Result.fold ~ok:(fun _ -> None) ~error:Option.some
                (En.check_submit t.engines.(k) ~speedup ~deps ~id ~volume ~weight ~cap)
            | r -> r
        in
        match refusal with
        | Some e -> Error e
        | None ->
          if lagging then begin
            (match En.apply t.engines.(k) (En.Advance_to t.now) with
            | Ok _ -> ()
            | Error e ->
              invalid_arg ("Shard.apply: clock catch-up failed: " ^ En.error_to_string e));
            semit t k (line (J.Input (En.Advance_to t.now)))
          end;
          match En.apply t.engines.(k) e with
          | Error _ as err -> err
          | Ok _ ->
            if k <> natural then Hashtbl.replace t.home id k;
            (match En.waiting_on t.engines.(k) id with
            | Some _ ->
              (* dormant: parked out of the allocator summaries until the
                 engine activates it *)
              Hashtbl.replace t.dormant_meta.(k) id (weight, cap)
            | None -> add_task t k id weight cap);
            t.alloc_dirty <- true;
            emit_both t k (J.Input e);
            t.events <- t.events + 1;
            Ok [])
      | En.Cancel id -> (
        let k = shard_of t id in
        match En.cancel t.engines.(k) id with
        | Error e -> Error e
        | Ok cascaded ->
          (* [En.cancel] bypasses [En.apply]'s event count; bump it so
             the shard dump still fingerprints like a replayed one *)
          let m = En.metrics t.engines.(k) in
          m.M.events <- m.M.events + 1;
          List.iter (fun cid -> forget_task t k cid) cascaded;
          emit_both t k (J.Input e);
          t.events <- t.events + 1;
          Ok [])
      | En.Advance dt ->
        let target = F.add t.now dt in
        if F.sign dt < 0 then Error (En.Invalid "advance: negative dt")
        else if not (Mwct_field.Field.is_finite F.witness target) then En.non_finite target
        else tick t e target
      | En.Advance_to target ->
        if not (Mwct_field.Field.is_finite F.witness target) then En.non_finite target
        else if F.compare target t.now < 0 then
          Error
            (En.Invalid
               (Printf.sprintf "advance into the past (target %s < now %s)" (F.to_string target)
                  (F.to_string t.now)))
        else tick t e target
      | En.Drain -> drain t
end

(** Pre-applied stores, mirroring the rest of the library. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
