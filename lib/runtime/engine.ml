(** Incremental online scheduler.

    The engine holds the alive-task set and advances virtual time event
    by event: [Submit] adds a task (volume, weight, parallelism cap),
    [Cancel] withdraws one, [Advance dt] moves time forward processing
    any completions that fall inside the window, [Drain] runs the
    remaining work to completion. Shares are recomputed {e only} on
    state changes (submit / cancel / completion) through a pluggable
    policy — any non-clairvoyant share rule, e.g. WDEQ's O(n log n)
    kernel via {!Mwct_ncv.Policy} — and cached between events, so a
    long [Advance] over a stable alive set costs one pass.

    The per-step arithmetic is {e exactly} the batch simulator's
    (absolute completion estimates [eta = now + remaining/share],
    first-min selection, [remaining -= share·dt], [leq_approx]
    completion detection), which is what lets
    {!Mwct_ncv.Simulator.run} step this engine from event to event with
    bit-identical output. The engine keeps no rate histories: the
    Simulator, their one reader, records them itself through
    {!iter_running}. All state transitions are deterministic
    functions of the event sequence — the replay invariant
    {!Journal.replay} relies on (no wall clock, no hash-order
    iteration: views are built in increasing task-id order from a
    sorted alive list).

    Data plane (DESIGN.md §12): task state lives in parallel struct-of-
    arrays columns indexed by a dense slot number with free-list reuse.
    The alive set is the [by_id] slot array (ascending external id, the
    view-building order) and the share cache is the [order] slot array
    (policy output order, the advance/sweep order). On the float field
    every engine whose open tasks all follow the linear law dispatches
    its advance loop to a monomorphic kernel over the flat float
    columns — zero minor-heap allocation per steady-state [Advance] —
    selected through {!Mwct_field.Field.witness}, and so does the
    commit sweep that installs a reshare's shares. *)

module Make (F : Mwct_field.Field.S) = struct
  module M = Metrics.Make (F)

  (** What the policy observes about one alive task — never the
      remaining volume (non-clairvoyance). *)
  type view = { id : int; weight : F.t; cap : F.t }

  (** A share rule: non-negative shares, one per view, within caps,
      summing to at most [capacity]. *)
  type policy = capacity:F.t -> view list -> (int * F.t) list

  (** Incremental (kinetic) share rule: a stateful peer of {!policy}
      that tracks the alive set through [k_add]/[k_remove] callbacks
      keyed by the engine's slot numbers, and on each reshare fills the
      slot-indexed [share] column and the [order] array (its output
      order, the analogue of the {!policy} result-list order) for the
      [n] alive slots listed in [by_id] (ascending external id). The
      contract is bit-identity with the wrapped list policy: same
      shares, same output order. *)
  type kinetic = {
    k_add : slot:int -> id:int -> weight:F.t -> cap:F.t -> unit;
    k_remove : slot:int -> unit;
    k_shares : capacity:F.t -> n:int -> by_id:int array -> share:F.t array -> order:int array -> unit;
  }

  (** Input events, the journal's vocabulary. [speedup], when present,
      is the task's concave piecewise-linear rate law as parallel
      breakpoint arrays [(bx, by)] (allocations / rates, strictly
      increasing [bx], non-decreasing concave [by] through the origin);
      [None] is the linear law (rate = share), the paper's model.
      Breakpoints may extend beyond [cap]: shares never exceed the cap,
      so the tail is simply unused.

      [deps] lists precedence parents by task id. Every parent must
      already be known to the engine — alive, dormant, or completed
      (edges always point at earlier submissions, so the dependency
      graph is acyclic by construction). A submission with an unmet
      parent enters the {e dormant} state: it holds no share and does
      not advance; it becomes alive exactly when its last parent
      completes, with its release time re-stamped at that activation.
      A parent that was cancelled (or cancelling a parent later)
      cascades: the dependent is cancelled too. [[]] is the
      independent-task submission, byte-identical to the pre-DAG
      engine. *)
  type event =
    | Submit of {
        id : int;
        volume : F.t;
        weight : F.t;
        cap : F.t;
        speedup : (F.t array * F.t array) option;
        deps : int list;
      }
    | Cancel of int
    | Advance of F.t  (** relative: advance virtual time by [dt >= 0] *)
    | Advance_to of F.t
        (** absolute: advance to a target time [>= now]. The engine
            lands exactly on the target (assigned, not accumulated) —
            the sharded store drives every shard with the same absolute
            targets so their clocks stay bit-identical. *)
    | Drain  (** run the alive set to completion *)

  type error =
    | Unknown_task of int  (** cancel of an id never submitted or already closed *)
    | Duplicate_task of int  (** submit of an id that is alive or closed *)
    | Invalid of string  (** bad payload (negative dt, non-positive volume), deadlock, no progress *)

  let error_to_string = function
    | Unknown_task id -> Printf.sprintf "unknown task %d" id
    | Duplicate_task id -> Printf.sprintf "duplicate task %d" id
    | Invalid msg -> msg

  (** Why a task left the alive set. *)
  type outcome = Completed | Cancelled

  (** Closed-task record: what later events and reports read about a
      task that left the engine. *)
  type closed = {
    weight : F.t;
    submitted_at : F.t;
    closed_at : F.t;
    outcome : outcome;
    share_changes : int;  (** times this task's allocation changed while alive *)
  }

  (** An emitted decision: the engine completed task [id] at virtual
      time [at]. Returned (in order) by the event-applying calls so
      front-ends can stream them out. *)
  type notification = { id : int; at : F.t }

  (* Struct-of-arrays task store. A task occupies one slot across all
     [c_*] columns; slots are recycled through the [free] stack, so the
     columns stay dense and bounded by the alive high-water mark. [now]
     lives in a one-element column of its own: on the float field that
     makes every read/write in the monomorphic kernel an unboxed array
     access instead of a boxed record field. *)
  type t = {
    mutable capacity : F.t;  (* mutable: the sharded store re-budgets it each tick *)
    policy : policy;
    kinetic : kinetic option;
    now_cell : F.t array;  (* 1 element: current virtual time *)
    (* slot-indexed columns (parallel arrays, grown together) *)
    mutable c_weight : F.t array;
    mutable c_cap : F.t array;
    mutable c_submitted : F.t array;
    mutable c_remaining : F.t array;
    mutable c_share : F.t array;  (* persists across reshares, like the old ts_share *)
    mutable c_new_share : F.t array;  (* reshare staging, compared against c_share *)
    mutable c_changes : int array;
    mutable c_curve : (F.t array * F.t array) option array;  (* speedup breakpoints; None = linear *)
    mutable ncurved : int;  (* open tasks with a curve; 0 keeps the float fast path *)
    (* precedence lifecycle: [c_waiting] is the number of not-yet-
       completed parents — 0 means alive, > 0 dormant (holds a slot and
       an id but is absent from [by_id]/[order] and the kinetic state).
       [c_dependents] lists the ids (not slots: slots are recycled, ids
       never are) of dormant tasks waiting on this slot's completion;
       [c_deps] keeps the submission's parent list for dumps. *)
    mutable c_waiting : int array;
    mutable c_dependents : int list array;
    mutable c_deps : int list array;
    mutable ndormant : int;
    mutable cascade : int list;  (* ids closed by the current cancel, cascade order *)
    mutable c_id : int array;  (* external id of the slot's task *)
    mutable used : int;  (* slots ever handed out (high-water mark) *)
    mutable free : int array;  (* recycled-slot stack *)
    mutable nfree : int;
    (* alive index: slots sorted by ascending external id *)
    mutable by_id : int array;
    mutable nalive : int;
    (* share cache: slots in policy output order (only these advance) *)
    mutable order : int array;
    mutable norder : int;
    mutable scratch_done : int array;  (* completion-sweep staging *)
    fscratch : F.t array;  (* float-kernel registers: [0] target, [1] best eta *)
    iscratch : int array;  (* float-kernel registers: [0] seen-flag, [1] done-count *)
    slot_of_id : (int, int) Hashtbl.t;
    closed_tbl : (int, closed) Hashtbl.t;
    mutable dirty : bool;
    metrics : M.t;
  }

  let initial_slots = 64

  (** [create ~capacity ~policy ()]. [kinetic], when given, replaces
      the list-policy call on each reshare with the incremental rule —
      it must be bit-identical to [policy], which remains the
      replay/documentation source of truth. [record_segments] is
      accepted and ignored: the engine keeps no rate histories. *)
  let create ?record_segments:(_ : bool option) ?kinetic ~capacity ~policy () =
    if F.sign capacity <= 0 then invalid_arg "Engine.create: capacity must be positive";
    let n = initial_slots in
    {
      capacity;
      policy;
      kinetic;
      now_cell = Array.make 1 F.zero;
      c_weight = Array.make n F.zero;
      c_cap = Array.make n F.zero;
      c_submitted = Array.make n F.zero;
      c_remaining = Array.make n F.zero;
      c_share = Array.make n F.zero;
      c_new_share = Array.make n F.zero;
      c_changes = Array.make n 0;
      c_curve = Array.make n None;
      ncurved = 0;
      c_waiting = Array.make n 0;
      c_dependents = Array.make n [];
      c_deps = Array.make n [];
      ndormant = 0;
      cascade = [];
      c_id = Array.make n 0;
      used = 0;
      free = Array.make n 0;
      nfree = 0;
      by_id = Array.make n 0;
      nalive = 0;
      order = Array.make n 0;
      norder = 0;
      scratch_done = Array.make n 0;
      fscratch = Array.make 2 F.zero;
      iscratch = Array.make 2 0;
      slot_of_id = Hashtbl.create 64;
      closed_tbl = Hashtbl.create 64;
      dirty = false;
      metrics = M.create ();
    }

  (* ---------- store plumbing ---------- *)

  let grow_columns t =
    let old = Array.length t.c_weight in
    let n = 2 * old in
    let g z a = let b = Array.make n z in Array.blit a 0 b 0 old; b in
    t.c_weight <- g F.zero t.c_weight;
    t.c_cap <- g F.zero t.c_cap;
    t.c_submitted <- g F.zero t.c_submitted;
    t.c_remaining <- g F.zero t.c_remaining;
    t.c_share <- g F.zero t.c_share;
    t.c_new_share <- g F.zero t.c_new_share;
    t.c_changes <- g 0 t.c_changes;
    t.c_curve <- g None t.c_curve;
    t.c_waiting <- g 0 t.c_waiting;
    t.c_dependents <- g [] t.c_dependents;
    t.c_deps <- g [] t.c_deps;
    t.c_id <- g 0 t.c_id;
    t.free <- g 0 t.free;
    t.by_id <- g 0 t.by_id;
    if Array.length t.order < n then begin
      t.order <- g 0 t.order;
      t.scratch_done <- g 0 t.scratch_done
    end

  let alloc_slot t =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else begin
      if t.used = Array.length t.c_weight then grow_columns t;
      let s = t.used in
      t.used <- t.used + 1;
      s
    end

  (* A pathological list policy may emit more entries than there are
     alive tasks (duplicate ids); the order/scratch arrays track that
     length, not the slot count. *)
  let ensure_order_capacity t n =
    if Array.length t.order < n then begin
      let m = Stdlib.max n (2 * Array.length t.order) in
      t.order <- Array.make m 0;
      t.scratch_done <- Array.make m 0
    end

  (* by_id is sorted by external id (ids are unique while alive), so
     membership maintenance is binary search + blit. *)
  let insert_by_id t slot id =
    let lo = ref 0 and hi = ref t.nalive in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.c_id.(t.by_id.(mid)) < id then lo := mid + 1 else hi := mid
    done;
    let pos = !lo in
    Array.blit t.by_id pos t.by_id (pos + 1) (t.nalive - pos);
    t.by_id.(pos) <- slot;
    t.nalive <- t.nalive + 1

  let remove_by_id t id =
    let lo = ref 0 and hi = ref (t.nalive - 1) in
    let pos = ref (-1) in
    while !pos < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = t.c_id.(t.by_id.(mid)) in
      if v = id then pos := mid else if v < id then lo := mid + 1 else hi := mid - 1
    done;
    let pos = !pos in
    Array.blit t.by_id (pos + 1) t.by_id pos (t.nalive - 1 - pos);
    t.nalive <- t.nalive - 1

  (* ---------- speedup curves ---------- *)

  (* lib/runtime deliberately does not depend on mwct_core (the engine
     is the lower layer), so the concave curve evaluator is duplicated
     here. [Mwct_core.Instance.Make.eval_curve] is the reference copy;
     the cross-layer test pins the two to identical results. *)
  let eval_curve (bx : F.t array) (by : F.t array) (a : F.t) : F.t =
    let last = Array.length bx - 1 in
    if F.sign a <= 0 then F.zero
    else if F.compare a bx.(last) >= 0 then by.(last)
    else begin
      let j = ref 0 in
      while F.compare a bx.(!j) > 0 do
        incr j
      done;
      let j = !j in
      let px = if j = 0 then F.zero else bx.(j - 1) in
      let py = if j = 0 then F.zero else by.(j - 1) in
      if F.compare a px = 0 then py
      else F.add py (F.div (F.mul (F.sub a px) (F.sub by.(j) py)) (F.sub bx.(j) px))
    end

  (* Progress rate of the task in [slot] at share [s]: the share itself
     under the linear law — the match keeps the linear arithmetic
     byte-identical to the pre-curve engine. *)
  let slot_rate t slot s =
    match t.c_curve.(slot) with None -> s | Some (bx, by) -> eval_curve bx by s

  (* Structural validation of a submitted curve, mirroring
     [Mwct_core.Instance.Make.validate] (same error strings, prefixed
     with the task id). *)
  let check_curve id (bx : F.t array) (by : F.t array) : string option =
    let n = Array.length bx in
    let fail msg = Some (Printf.sprintf "task %d: %s" id msg) in
    if n = 0 || Array.length by <> n then fail "speedup breakpoint arrays must match and be non-empty"
    else begin
      let bad = ref None in
      let px = ref F.zero and py = ref F.zero in
      let pslope = ref None in
      (try
         for j = 0 to n - 1 do
           if F.sign bx.(j) <= 0 || F.sign by.(j) <= 0 then begin
             bad := fail "speedup breakpoints must be positive";
             raise Exit
           end;
           if F.compare !px bx.(j) >= 0 then begin
             bad := fail "speedup allocations must be strictly increasing";
             raise Exit
           end;
           if F.compare !py by.(j) > 0 then begin
             bad := fail "speedup rate must be non-decreasing";
             raise Exit
           end;
           let dx = F.sub bx.(j) !px and dy = F.sub by.(j) !py in
           (match !pslope with
           | None ->
             if F.compare by.(j) bx.(j) > 0 then begin
               bad := fail "speedup rate cannot exceed allocation";
               raise Exit
             end
           | Some (pdx, pdy) ->
             if F.compare (F.mul dy pdx) (F.mul pdy dx) > 0 then begin
               bad := fail "speedup must be concave";
               raise Exit
             end);
           pslope := Some (dx, dy);
           px := bx.(j);
           py := by.(j)
         done
       with Exit -> ());
      !bad
    end

  (* ---------- accessors ---------- *)

  let now t = t.now_cell.(0)
  let capacity t = t.capacity

  (** [set_capacity t c] — re-budget the engine to capacity [c >= 0]
      (zero is legal here, unlike [create]: a sharded store may starve
      a shard for a tick). Returns whether the capacity actually
      changed; only a change invalidates the share cache, so re-setting
      the same budget keeps steady-state [Advance] allocation-free. *)
  let set_capacity t c : bool =
    if F.sign c < 0 then invalid_arg "Engine.set_capacity: capacity must be non-negative";
    if F.equal t.capacity c then false
    else begin
      t.capacity <- c;
      t.dirty <- true;
      true
    end

  let alive_count t = t.nalive
  let dormant_count t = t.ndormant
  let completed_count t = t.metrics.M.completed
  let cancelled_count t = t.metrics.M.cancelled

  let alive_ids t =
    let rec go i acc = if i < 0 then acc else go (i - 1) (t.c_id.(t.by_id.(i)) :: acc) in
    go (t.nalive - 1) []

  (* Dormant slots in ascending id order (the hashtable's iteration
     order is not deterministic, so collect and sort). *)
  let dormant_slots t =
    if t.ndormant = 0 then []
    else
      Hashtbl.fold (fun _ s acc -> if t.c_waiting.(s) > 0 then s :: acc else acc) t.slot_of_id []
      |> List.sort (fun a b -> Stdlib.compare t.c_id.(a) t.c_id.(b))

  let dormant_ids t = List.map (fun s -> t.c_id.(s)) (dormant_slots t)

  (** [Some n] when [id] is dormant with [n] unmet parents. *)
  let waiting_on t id =
    match Hashtbl.find_opt t.slot_of_id id with
    | Some s when t.c_waiting.(s) > 0 -> Some t.c_waiting.(s)
    | _ -> None

  let metrics t = t.metrics
  let weighted_completion t = t.metrics.M.weighted_completion
  let weighted_flow t = t.metrics.M.weighted_flow

  let remaining t id =
    match Hashtbl.find_opt t.slot_of_id id with
    | Some s -> Some t.c_remaining.(s)
    | None -> None

  let find_closed t id = Hashtbl.find_opt t.closed_tbl id

  (** Closed tasks sorted by id. *)
  let closed t =
    Hashtbl.fold (fun id c acc -> (id, c) :: acc) t.closed_tbl []
    |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

  (** Completion times sorted by id (completed tasks only). *)
  let completions t =
    List.filter_map
      (fun (id, c) -> if c.outcome = Completed then Some (id, c.closed_at) else None)
      (closed t)

  let metrics_json ?events_per_sec t =
    M.to_json ?events_per_sec ~alive:(alive_count t) ~now:(now t) t.metrics

  (** Deterministic textual fingerprint of the whole state (exact
      [repr] renderings): equal strings iff equal states. Shares are
      excluded — they are a cache, recomputed lazily. *)
  let dump t =
    let b = Buffer.create 256 in
    Buffer.add_string b (Printf.sprintf "now=%s capacity=%s\n" (F.repr (now t)) (F.repr t.capacity));
    for i = 0 to t.nalive - 1 do
      let s = t.by_id.(i) in
      (* curved tasks carry their breakpoints; linear lines are
         byte-identical to the pre-curve engine *)
      let curve =
        match t.c_curve.(s) with
        | None -> ""
        | Some (bx, by) ->
          " s="
          ^ String.concat ","
              (List.map2
                 (fun x y -> F.repr x ^ ":" ^ F.repr y)
                 (Array.to_list bx) (Array.to_list by))
      in
      Buffer.add_string b
        (Printf.sprintf "alive id=%d rem=%s w=%s cap=%s submitted=%s changes=%d%s\n" t.c_id.(s)
           (F.repr t.c_remaining.(s)) (F.repr t.c_weight.(s)) (F.repr t.c_cap.(s))
           (F.repr t.c_submitted.(s)) t.c_changes.(s) curve)
    done;
    (* dormant tasks fingerprint their unmet-parent count and edge
       list; the block is absent entirely on dep-free runs, keeping
       those dumps byte-identical to the pre-DAG engine *)
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "dormant id=%d rem=%s w=%s cap=%s submitted=%s waiting=%d deps=%s\n"
             t.c_id.(s) (F.repr t.c_remaining.(s)) (F.repr t.c_weight.(s)) (F.repr t.c_cap.(s))
             (F.repr t.c_submitted.(s)) t.c_waiting.(s)
             (String.concat "," (List.map string_of_int t.c_deps.(s)))))
      (dormant_slots t);
    List.iter
      (fun (id, c) ->
        Buffer.add_string b
          (Printf.sprintf "closed id=%d at=%s outcome=%s changes=%d\n" id
             (F.repr c.closed_at)
             (match c.outcome with Completed -> "completed" | Cancelled -> "cancelled")
             c.share_changes))
      (closed t);
    let m = t.metrics in
    Buffer.add_string b
      (Printf.sprintf
         "metrics events=%d submitted=%d completed=%d cancelled=%d reshares=%d alloc_changes=%d \
          wc=%s wflow=%s\n"
         m.M.events m.M.submitted m.M.completed m.M.cancelled m.M.reshares m.M.alloc_changes
         (F.repr m.M.weighted_completion) (F.repr m.M.weighted_flow));
    Buffer.contents b

  (* ---------- snapshot / fork (DESIGN.md §16) ---------- *)

  (* Deep structural copy of the whole store. Every mutable array is
     duplicated; element values (field scalars, immutable dependency
     lists, breakpoint array pairs) are shared — the engine never
     mutates them in place, it only replaces whole cells. Both
     hashtables are copied, and the metrics record is deep-copied
     including the latency histogram (observations on a fork must not
     bleed into the parent). The share cache ([c_share], [order],
     [norder]) and the [dirty] flag are carried over exactly as they
     stand: forcing a reshare on the copy would bump
     [metrics.reshares] and diverge its dump fingerprint from the
     straight-line engine's. *)
  let copy_state (t : t) ~policy ~kinetic : t =
    let m = t.metrics in
    let metrics = { m with M.lat = Array.copy m.M.lat } in
    {
      capacity = t.capacity;
      policy;
      kinetic;
      now_cell = Array.copy t.now_cell;
      c_weight = Array.copy t.c_weight;
      c_cap = Array.copy t.c_cap;
      c_submitted = Array.copy t.c_submitted;
      c_remaining = Array.copy t.c_remaining;
      c_share = Array.copy t.c_share;
      c_new_share = Array.copy t.c_new_share;
      c_changes = Array.copy t.c_changes;
      c_curve = Array.copy t.c_curve;
      ncurved = t.ncurved;
      c_waiting = Array.copy t.c_waiting;
      c_dependents = Array.copy t.c_dependents;
      c_deps = Array.copy t.c_deps;
      ndormant = t.ndormant;
      cascade = t.cascade;
      c_id = Array.copy t.c_id;
      used = t.used;
      free = Array.copy t.free;
      nfree = t.nfree;
      by_id = Array.copy t.by_id;
      nalive = t.nalive;
      order = Array.copy t.order;
      norder = t.norder;
      scratch_done = Array.copy t.scratch_done;
      fscratch = Array.copy t.fscratch;
      iscratch = Array.copy t.iscratch;
      slot_of_id = Hashtbl.copy t.slot_of_id;
      closed_tbl = Hashtbl.copy t.closed_tbl;
      dirty = t.dirty;
      metrics;
    }

  (** A frozen, self-contained copy of an engine's entire state. Taking
      one never disturbs the parent; [fork] copies {e again}, so one
      snapshot can seed any number of branches. *)
  type snapshot = { frozen : t }

  let snapshot (t : t) : snapshot = { frozen = copy_state t ~policy:t.policy ~kinetic:None }

  (** Number of alive tasks in the frozen state (cheap introspection
      for branch reports). *)
  let snapshot_alive (s : snapshot) = s.frozen.nalive

  (** Virtual time of the frozen state. *)
  let snapshot_now (s : snapshot) = s.frozen.now_cell.(0)

  (** [fork snap] — a live engine whose straight-line future is
      byte-identical to the parent's: same journal output lines, same
      dump fingerprint, same metrics counters, event for event.

      [?kinetic] re-attaches an incremental share rule: its membership
      is rebuilt by re-adding the alive slots in [by_id] order, which
      reproduces the parent's kinetic answers bit for bit (the
      incremental rule is a pure function of the alive membership; its
      internal order is insertion-independent). [?policy] switches the
      share rule for the branch — a genuine state change, so it marks
      the share cache dirty; without it the cache is inherited clean
      and the next [Advance] costs exactly what the parent's would. *)
  let fork ?policy ?kinetic (s : snapshot) : t =
    let src = s.frozen in
    let t =
      copy_state src ~policy:(match policy with Some p -> p | None -> src.policy) ~kinetic
    in
    (match kinetic with
    | Some k ->
      for i = 0 to t.nalive - 1 do
        let slot = t.by_id.(i) in
        k.k_add ~slot ~id:t.c_id.(slot) ~weight:t.c_weight.(slot) ~cap:t.c_cap.(slot)
      done
    | None -> ());
    (match policy with Some _ -> t.dirty <- true | None -> ());
    t

  (* ---------- share cache ---------- *)

  (* Commit the staged shares in output order: count and install every
     share that changed. *)
  let commit_generic t =
    for i = 0 to t.norder - 1 do
      let s = t.order.(i) in
      let ns = t.c_new_share.(s) in
      if not (F.equal t.c_share.(s) ns) then begin
        t.c_share.(s) <- ns;
        t.c_changes.(s) <- t.c_changes.(s) + 1;
        t.metrics.M.alloc_changes <- t.metrics.M.alloc_changes + 1
      end
    done

  (* The same sweep on the float field, selected through the witness
     like [float_ops] below: the generic body boxes both column reads
     per task. [F.equal] is [Float.equal]; the change total lands in
     [alloc_changes] once, after the sweep, as the same integer. *)
  let commit : t -> unit =
    match F.witness with
    | Mwct_field.Field.Any -> commit_generic
    | Mwct_field.Field.Float ->
      fun t ->
        let order = t.order and cur = t.c_share and next = t.c_new_share in
        let changed = ref 0 in
        for i = 0 to t.norder - 1 do
          let s = order.(i) in
          let ns = next.(s) in
          if not (Float.equal cur.(s) ns) then begin
            cur.(s) <- ns;
            t.c_changes.(s) <- t.c_changes.(s) + 1;
            incr changed
          end
        done;
        t.metrics.M.alloc_changes <- t.metrics.M.alloc_changes + !changed

  (* Views in increasing id order — the same order the batch simulator
     fed its policy, and deterministic across runs. The kinetic rule
     fills the staging column directly; the list policy goes through
     the id indirection once per reshare. Either way [commit] is the
     single place share changes are counted. *)
  let recompute_if_dirty t =
    if t.dirty then begin
      (match t.kinetic with
      | Some k ->
        k.k_shares ~capacity:t.capacity ~n:t.nalive ~by_id:t.by_id ~share:t.c_new_share
          ~order:t.order;
        t.norder <- t.nalive
      | None ->
        let views = ref [] in
        for i = t.nalive - 1 downto 0 do
          let s = t.by_id.(i) in
          views := { id = t.c_id.(s); weight = t.c_weight.(s); cap = t.c_cap.(s) } :: !views
        done;
        let raw = t.policy ~capacity:t.capacity !views in
        ensure_order_capacity t (List.length raw);
        let n = ref 0 in
        List.iter
          (fun (id, s) ->
            match Hashtbl.find_opt t.slot_of_id id with
            | None -> () (* policy named a dead task; drop it *)
            | Some slot ->
              t.c_new_share.(slot) <- s;
              t.order.(!n) <- slot;
              incr n)
          raw;
        t.norder <- !n);
      commit t;
      t.metrics.M.reshares <- t.metrics.M.reshares + 1;
      t.dirty <- false
    end

  (* ---------- closing tasks ---------- *)

  (* Closing an alive task leaves the share structures; closing a
     dormant one (cancel cascade only — dormant tasks never complete)
     touches neither [by_id] nor the kinetic state nor the dirty flag,
     since a dormant task holds no share. Either way the slot is freed
     and the lifecycle hooks run: a completion releases this task's
     dormant dependents (the last release activates them, stamping
     their release time to [now]); a cancellation cascades to them. *)
  let rec close t slot outcome =
    let id = t.c_id.(slot) in
    let nowv = t.now_cell.(0) in
    let w = t.c_weight.(slot) in
    let was_alive = t.c_waiting.(slot) = 0 in
    Hashtbl.replace t.closed_tbl id
      {
        weight = w;
        submitted_at = t.c_submitted.(slot);
        closed_at = nowv;
        outcome;
        share_changes = t.c_changes.(slot);
      };
    if was_alive then begin
      remove_by_id t id;
      match t.kinetic with Some k -> k.k_remove ~slot | None -> ()
    end
    else begin
      t.ndormant <- t.ndormant - 1;
      t.c_waiting.(slot) <- 0
    end;
    Hashtbl.remove t.slot_of_id id;
    (match t.c_curve.(slot) with
    | Some _ ->
      t.c_curve.(slot) <- None;
      t.ncurved <- t.ncurved - 1
    | None -> ());
    let dependents = t.c_dependents.(slot) in
    t.c_dependents.(slot) <- [];
    t.c_deps.(slot) <- [];
    t.free.(t.nfree) <- slot;
    t.nfree <- t.nfree + 1;
    if was_alive then t.dirty <- true;
    (match outcome with
    | Completed ->
      t.metrics.M.completed <- t.metrics.M.completed + 1;
      t.metrics.M.weighted_completion <- F.add t.metrics.M.weighted_completion (F.mul w nowv);
      t.metrics.M.weighted_flow <-
        F.add t.metrics.M.weighted_flow (F.mul w (F.sub nowv t.c_submitted.(slot)))
    | Cancelled ->
      t.metrics.M.cancelled <- t.metrics.M.cancelled + 1;
      t.cascade <- id :: t.cascade);
    (* Dependents are dormant by invariant; a stale id (already
       cascade-cancelled through another parent) misses the table and
       is skipped. *)
    match dependents with
    | [] -> ()
    | deps -> (
      match outcome with
      | Completed ->
        List.iter
          (fun did ->
            match Hashtbl.find_opt t.slot_of_id did with
            | Some dslot when t.c_waiting.(dslot) > 0 ->
              t.c_waiting.(dslot) <- t.c_waiting.(dslot) - 1;
              if t.c_waiting.(dslot) = 0 then activate t dslot
            | _ -> ())
          deps
      | Cancelled ->
        List.iter
          (fun did ->
            match Hashtbl.find_opt t.slot_of_id did with
            | Some dslot when t.c_waiting.(dslot) > 0 -> close t dslot Cancelled
            | _ -> ())
          deps)

  (* The last parent completed: the task joins the alive set. Its
     release time is re-stamped to the activation instant, so weighted
     flow measures time-in-system from readiness (the precedence
     model's release date). *)
  and activate t slot =
    let id = t.c_id.(slot) in
    t.ndormant <- t.ndormant - 1;
    t.c_submitted.(slot) <- t.now_cell.(0);
    insert_by_id t slot id;
    (match t.kinetic with
    | Some k -> k.k_add ~slot ~id ~weight:t.c_weight.(slot) ~cap:t.c_cap.(slot)
    | None -> ());
    t.dirty <- true

  (* ---------- the time-stepping core ---------- *)

  (* Earliest absolute completion estimate over the cached shares —
     first-min over the policy's output order, exactly like the batch
     loop (the min value is order-independent; fold order only matters
     for which task the estimate belongs to, which we never use).
     Estimates divide by the task's {e rate} at its share — the share
     itself under the linear law, so linear instances compute the
     pre-curve values bit for bit. *)
  let next_completion t =
    let nowv = t.now_cell.(0) in
    let best = ref None in
    for i = 0 to t.norder - 1 do
      let slot = t.order.(i) in
      let s = t.c_share.(slot) in
      if F.sign s > 0 then begin
        let r = slot_rate t slot s in
        if F.sign r > 0 then begin
          let eta = F.add_div nowv t.c_remaining.(slot) r in
          match !best with
          | Some b when F.compare b eta <= 0 -> ()
          | _ -> best := Some eta
        end
      end
    done;
    !best

  (** Earliest absolute completion estimate under the current shares
      (recomputing them if stale), [None] when nothing is running. The
      sharded store peeks every shard to find the global next event;
      the arithmetic is the advance loop's own ([add_div] first-min),
      so the peeked time is exactly where the next step will land. *)
  let next_eta t : F.t option =
    recompute_if_dirty t;
    next_completion t

  (** [iter_running t f] brings the shares up to date (as {!next_eta}
      does), then calls [f id share] for every task holding a positive
      share, in step order: exactly the tasks the next advance step
      moves, at these shares. *)
  let iter_running t f =
    recompute_if_dirty t;
    for i = 0 to t.norder - 1 do
      let slot = t.order.(i) in
      let s = t.c_share.(slot) in
      if F.sign s > 0 then f t.c_id.(slot) s
    done

  (* Close the [ndone] slots listed in [scratch_done] at the current
     clock; their notifications, in list order. *)
  let close_done t ndone =
    let completed = ref [] in
    let at = t.now_cell.(0) in
    for k = 0 to ndone - 1 do
      let slot = t.scratch_done.(k) in
      let id = t.c_id.(slot) in
      if Hashtbl.mem t.slot_of_id id then begin
        close t slot Completed;
        completed := { id; at } :: !completed
      end
    done;
    List.rev !completed

  (* Advance every positively-shared task to absolute time [t_next]
     (volume drains at the task's rate — the share itself under the
     linear law), then sweep the share list for completions
     ([leq_approx], matching the batch simulator's tolerance). Returns
     the completions in share-list order. *)
  let advance_and_sweep t t_next =
    let nowv = t.now_cell.(0) in
    let dt = F.sub t_next nowv in
    if F.sign dt > 0 then
      for i = 0 to t.norder - 1 do
        let slot = t.order.(i) in
        let s = t.c_share.(slot) in
        if F.sign s > 0 then
          t.c_remaining.(slot) <- F.sub_mul t.c_remaining.(slot) (slot_rate t slot s) dt
      done;
    t.now_cell.(0) <- t_next;
    let ndone = ref 0 in
    for i = 0 to t.norder - 1 do
      let slot = t.order.(i) in
      if F.sign t.c_share.(slot) > 0 && F.leq_approx t.c_remaining.(slot) F.zero then begin
        t.scratch_done.(!ndone) <- slot;
        incr ndone
      end
    done;
    close_done t !ndone

  (* After a step to the earliest estimate that completed nothing: every
     task whose estimate [now + remaining/rate] equals [now] completes
     now. On float the clock's resolution there is coarser than the
     remaining duration, so the completion time rounds to [now], and no
     later step could move it (the loop would otherwise stall into its
     no-progress error). Exact fields never meet the case. *)
  let complete_pinned t =
    let nowv = t.now_cell.(0) in
    let ndone = ref 0 in
    for i = 0 to t.norder - 1 do
      let slot = t.order.(i) in
      let s = t.c_share.(slot) in
      if F.sign s > 0 then begin
        let r = slot_rate t slot s in
        if F.sign r > 0 && F.compare (F.add_div nowv t.c_remaining.(slot) r) nowv <= 0 then begin
          t.scratch_done.(!ndone) <- slot;
          incr ndone
        end
      end
    done;
    close_done t !ndone

  (* Floating-point residue can leave [remaining] a few ulps above zero
     after advancing to a task's own estimate; the estimate then shrinks
     geometrically, so a handful of extra iterations settles it. The
     budget bounds pathological non-convergence. *)
  let no_progress_budget = 64

  (* Virtual time stays finite: an advance whose target overflows
     ([now + dt] past the largest float) or is inf/nan is refused before
     any state changes, like an advance into the past. *)
  let non_finite target =
    Error (Invalid (Printf.sprintf "advance: target %s is not finite" (F.to_string target)))

  let advance_to_generic t target : (notification list, error) result =
    if not (Mwct_field.Field.is_finite F.witness target) then non_finite target
    else if F.compare target (now t) < 0 then
      Error
        (Invalid
           (Printf.sprintf "advance into the past (target %s < now %s)" (F.to_string target)
              (F.to_string (now t))))
    else begin
      let notes = ref [] in
      let stall = ref 0 in
      let err = ref None in
      let continue = ref true in
      while !continue && !err = None do
        recompute_if_dirty t;
        match next_completion t with
        | Some eta when F.compare eta target <= 0 ->
          let completed =
            match advance_and_sweep t eta with [] -> complete_pinned t | l -> l
          in
          notes := List.rev_append completed !notes;
          if completed = [] then begin
            incr stall;
            if !stall > no_progress_budget then
              err := Some (Invalid "no progress: completion estimate does not converge")
          end
          else stall := 0
        | _ ->
          (* No completion inside the window: land on the target. *)
          let completed = advance_and_sweep t target in
          notes := List.rev_append completed !notes;
          continue := false
      done;
      match !err with Some e -> Error e | None -> Ok (List.rev !notes)
    end

  let drain_generic t : (notification list, error) result =
    let notes = ref [] in
    let stall = ref 0 in
    let err = ref None in
    while t.nalive > 0 && !err = None do
      recompute_if_dirty t;
      match next_completion t with
      | None -> err := Some (Invalid "deadlock: alive tasks but no positive share")
      | Some eta ->
        let completed = match advance_and_sweep t eta with [] -> complete_pinned t | l -> l in
        notes := List.rev_append completed !notes;
        if completed = [] then begin
          incr stall;
          if !stall > no_progress_budget then
            err := Some (Invalid "no progress: completion estimate does not converge")
        end
        else stall := 0
    done;
    match !err with Some e -> Error e | None -> Ok (List.rev !notes)

  (* ---------- float fast path ---------- *)

  (* Monomorphic advance loop for [F.t = float], recovered through the
     field witness. Selected whenever every open task follows the
     linear law (a curve needs the generic rate evaluation): one step
     is two branch-light sweeps over flat float columns with all
     intermediates unboxed — registers live in [fscratch]/[iscratch] cells rather
     than local refs so no boxing survives even without flambda — and a
     steady-state [Advance] (no completions, clean cache) allocates
     nothing on the minor heap.

     Arithmetic is kept literally the generic loop's: [Float.compare]
     first-min, [eta = now +. rem /. s] ([add_div]), [rem -. s *. dt]
     ([sub_mul]; OCaml never contracts to an FMA), completion when
     [rem <= 0. +. epsilon] ([leq_approx] against zero) — so the two
     paths are bit-identical, which the cross-engine journal tests pin.
     The tolerance is {!Mwct_field.Field.Float_field.epsilon}: the
     float witness has a single inhabitant in this library. *)

  type fops = {
    f_advance_rel : t -> F.t -> (notification list, error) result;
    f_advance_abs : t -> F.t -> (notification list, error) result;
    f_drain : t -> (notification list, error) result;
  }

  let float_ops : fops option =
    match F.witness with
    | Mwct_field.Field.Any -> None
    | Mwct_field.Field.Float ->
      (* In this branch [F.t = float]: every column is a flat float
         array and the code below compiles monomorphically. *)
      let eps_zero = 0. +. Mwct_field.Field.Float_field.epsilon in
      (* One step: first-min eta scan, then either land on the target
         (code 1) or advance to the eta; volume sweep; completion scan
         into [scratch_done]. Returns [(ndone lsl 2) lor code] with
         code 0 = stepped, 1 = landed, 2 = deadlock (drain only). *)
      let f_step (t : t) (has_target : bool) : int =
        let order = t.order and share = t.c_share and remaining = t.c_remaining in
        let n = t.norder in
        let nowv = t.now_cell.(0) in
        t.iscratch.(0) <- 0;
        t.fscratch.(1) <- 0.;
        for i = 0 to n - 1 do
          let slot = Array.unsafe_get order i in
          let s = Array.unsafe_get share slot in
          if s > 0. then begin
            let eta = nowv +. (Array.unsafe_get remaining slot /. s) in
            if t.iscratch.(0) = 0 || Float.compare t.fscratch.(1) eta > 0 then begin
              t.fscratch.(1) <- eta;
              t.iscratch.(0) <- 1
            end
          end
        done;
        let seen = t.iscratch.(0) = 1 in
        if (not has_target) && not seen then 2
        else begin
          let best = t.fscratch.(1) in
          let landed =
            has_target && not (seen && Float.compare best t.fscratch.(0) <= 0)
          in
          let step_to = if landed then t.fscratch.(0) else best in
          let dt = step_to -. nowv in
          if dt > 0. then
            for i = 0 to n - 1 do
              let slot = Array.unsafe_get order i in
              let s = Array.unsafe_get share slot in
              if s > 0. then
                Array.unsafe_set remaining slot (Array.unsafe_get remaining slot -. (s *. dt))
            done;
          t.now_cell.(0) <- step_to;
          t.iscratch.(1) <- 0;
          for i = 0 to n - 1 do
            let slot = Array.unsafe_get order i in
            if
              Array.unsafe_get share slot > 0.
              && Array.unsafe_get remaining slot <= eps_zero
            then begin
              t.scratch_done.(t.iscratch.(1)) <- slot;
              t.iscratch.(1) <- t.iscratch.(1) + 1
            end
          done;
          (t.iscratch.(1) lsl 2) lor (if landed then 1 else 0)
        end
      in
      (* [complete_pinned]'s scan: the slots whose estimate equals the
         clock, into [scratch_done]; returns their number. *)
      let f_pinned (t : t) : int =
        let order = t.order and share = t.c_share and remaining = t.c_remaining in
        let nowv = t.now_cell.(0) in
        t.iscratch.(1) <- 0;
        for i = 0 to t.norder - 1 do
          let slot = Array.unsafe_get order i in
          let s = Array.unsafe_get share slot in
          if s > 0. && nowv +. (Array.unsafe_get remaining slot /. s) <= nowv then begin
            t.scratch_done.(t.iscratch.(1)) <- slot;
            t.iscratch.(1) <- t.iscratch.(1) + 1
          end
        done;
        t.iscratch.(1)
      in
      let finish acc : (notification list, error) result =
        match acc with [] -> Ok [] | l -> Ok (List.rev l)
      in
      let rec run (t : t) (has_target : bool) acc stall =
        if (not has_target) && t.nalive = 0 then finish acc
        else begin
          recompute_if_dirty t;
          let r = f_step t has_target in
          let code = r land 3 and ndone = r lsr 2 in
          if code = 2 then Error (Invalid "deadlock: alive tasks but no positive share")
          else begin
            let ndone = if code = 0 && ndone = 0 then f_pinned t else ndone in
            let acc =
              if ndone = 0 then acc
              else begin
                let at = t.now_cell.(0) in
                let acc = ref acc in
                for k = 0 to ndone - 1 do
                  let slot = t.scratch_done.(k) in
                  let id = t.c_id.(slot) in
                  if Hashtbl.mem t.slot_of_id id then begin
                    close t slot Completed;
                    acc := { id; at } :: !acc
                  end
                done;
                !acc
              end
            in
            if code = 1 then finish acc
            else begin
              let stall = if ndone = 0 then stall + 1 else 0 in
              if stall > no_progress_budget then
                Error (Invalid "no progress: completion estimate does not converge")
              else run t has_target acc stall
            end
          end
        end
      in
      (* [start] reads the absolute target from [t.fscratch.(0)] rather
         than taking it as an argument: without flambda a float argument
         to a non-inlined call is boxed, and this is the per-event hot
         path that must not allocate. *)
      let start (t : t) =
        let nowv = t.now_cell.(0) in
        if not (Float.is_finite t.fscratch.(0)) then non_finite t.fscratch.(0)
        else if Float.compare t.fscratch.(0) nowv < 0 then
          Error
            (Invalid
               (Printf.sprintf "advance into the past (target %s < now %s)"
                  (F.to_string t.fscratch.(0)) (F.to_string nowv)))
        else run t true [] 0
      in
      Some
        {
          f_advance_rel =
            (fun t dt ->
              t.fscratch.(0) <- t.now_cell.(0) +. dt;
              start t);
          f_advance_abs =
            (fun t target ->
              t.fscratch.(0) <- target;
              start t);
          f_drain = (fun t -> run t false [] 0);
        }

  (** Advance to absolute time [target], processing every completion on
      the way. The engine lands exactly at [target] (absolute times are
      assigned, not accumulated, so [advance_to] after [advance_to]
      reproduces the batch simulator's arithmetic bit for bit). *)
  let advance_to t target : (notification list, error) result =
    match float_ops with
    | Some ops when t.ncurved = 0 -> ops.f_advance_abs t target
    | _ -> advance_to_generic t target

  (** Run the alive set to completion. Fails with [Invalid "deadlock"]
      when alive tasks remain but none has a positive share (a policy
      that starves everything). *)
  let drain t : (notification list, error) result =
    match float_ops with
    | Some ops when t.ncurved = 0 -> ops.f_drain t
    | _ -> drain_generic t

  (* ---------- input events ---------- *)

  (* Dependency edges reference task ids the engine already knows —
     alive, dormant or completed. Returns the unmet (not-yet-completed)
     parents, deduplicated, or a diagnostic. A parent that was
     cancelled is an error: its subtree was cascade-cancelled when it
     closed, so a new dependent on it can never run. *)
  let check_deps t id deps : (int list, string) result =
    let fail msg = Error (Printf.sprintf "task %d: %s" id msg) in
    let rec go unmet = function
      | [] -> Ok (List.rev unmet)
      | d :: rest ->
        if d = id then fail "task cannot depend on itself"
        else if Hashtbl.mem t.slot_of_id d then go (d :: unmet) rest
        else begin
          match Hashtbl.find_opt t.closed_tbl d with
          | Some { outcome = Completed; _ } -> go unmet rest
          | Some { outcome = Cancelled; _ } ->
            fail (Printf.sprintf "dependency %d was cancelled" d)
          | None -> fail (Printf.sprintf "unknown dependency %d" d)
        end
    in
    go [] (List.sort_uniq Stdlib.compare deps)

  (** Every check [submit] makes, with nothing changed: the error
      [submit] would return, or the unmet parents it would wait on. *)
  let check_submit t ~speedup ~deps ~id ~volume ~weight ~cap : (int list, error) result =
    if Hashtbl.mem t.slot_of_id id || Hashtbl.mem t.closed_tbl id then Error (Duplicate_task id)
    else if F.sign volume <= 0 then
      Error (Invalid (Printf.sprintf "task %d: volume must be positive" id))
    else if F.sign weight <= 0 then
      Error (Invalid (Printf.sprintf "task %d: weight must be positive" id))
    else if F.sign cap <= 0 then Error (Invalid (Printf.sprintf "task %d: cap must be positive" id))
    else
      match
        match speedup with None -> None | Some (bx, by) -> check_curve id bx by
      with
      | Some msg -> Error (Invalid msg)
      | None -> Result.map_error (fun msg -> Invalid msg) (check_deps t id deps)

  let submit t ?speedup ?(deps = []) ~id ~volume ~weight ~cap () : (unit, error) result =
    match check_submit t ~speedup ~deps ~id ~volume ~weight ~cap with
    | Error e -> Error e
    | Ok unmet -> begin
      let slot = alloc_slot t in
      t.c_weight.(slot) <- weight;
      t.c_cap.(slot) <- cap;
      t.c_submitted.(slot) <- t.now_cell.(0);
      t.c_remaining.(slot) <- volume;
      t.c_share.(slot) <- F.zero;
      t.c_new_share.(slot) <- F.zero;
      t.c_changes.(slot) <- 0;
      t.c_curve.(slot) <- speedup;
      (match speedup with Some _ -> t.ncurved <- t.ncurved + 1 | None -> ());
      t.c_deps.(slot) <- deps;
      t.c_id.(slot) <- id;
      Hashtbl.replace t.slot_of_id id slot;
      (match unmet with
      | [] ->
        (* every parent already completed (or there are none): alive
           immediately — the pre-DAG submission path, bit for bit *)
        insert_by_id t slot id;
        (match t.kinetic with Some k -> k.k_add ~slot ~id ~weight ~cap | None -> ());
        t.dirty <- true
      | parents ->
        (* dormant: no share, no reshare — register with each unmet
           parent and wait for the last completion *)
        t.c_waiting.(slot) <- List.length parents;
        t.ndormant <- t.ndormant + 1;
        List.iter
          (fun p ->
            let ps = Hashtbl.find t.slot_of_id p in
            t.c_dependents.(ps) <- id :: t.c_dependents.(ps))
          parents);
      t.metrics.M.submitted <- t.metrics.M.submitted + 1;
      Ok ()
    end

  (** Cancel a task (alive or dormant). Cancellation {e cascades}: every
      dormant task waiting (transitively) on the cancelled one is
      cancelled with it — a task whose parent can never complete can
      never run. Returns the closed ids in cascade order, the requested
      id first. *)
  let cancel t id : (int list, error) result =
    match Hashtbl.find_opt t.slot_of_id id with
    | None -> Error (Unknown_task id)
    | Some slot ->
      t.cascade <- [];
      close t slot Cancelled;
      let ids = List.rev t.cascade in
      t.cascade <- [];
      Ok ids

  (** Apply one input event; the returned notifications are the
      completions it triggered, in chronological order. Every success
      bumps [metrics.events]; failures leave the state untouched. *)
  let apply t (e : event) : (notification list, error) result =
    let r =
      match e with
      | Submit { id; volume; weight; cap; speedup; deps } ->
        Result.map (fun () -> []) (submit t ?speedup ~deps ~id ~volume ~weight ~cap ())
      | Cancel id -> Result.map (fun _ -> []) (cancel t id)
      | Advance dt ->
        if F.sign dt < 0 then Error (Invalid "advance: negative dt")
        else begin
          match float_ops with
          | Some ops when t.ncurved = 0 -> ops.f_advance_rel t dt
          | _ -> advance_to_generic t (F.add (now t) dt)
        end
      | Advance_to target -> advance_to t target
      | Drain -> drain t
    in
    (match r with Ok _ -> t.metrics.M.events <- t.metrics.M.events + 1 | Error _ -> ());
    r
end

(** Pre-applied engines, mirroring the rest of the library. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
