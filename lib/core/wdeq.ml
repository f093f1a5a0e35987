(** WDEQ — Weighted Dynamic EQuipartition (Algorithm 1, Section III).

    The non-clairvoyant policy: at every instant the platform is shared
    between alive tasks in proportion to their weights; a task whose
    proportional share exceeds its cap [δ_i] is clipped to [δ_i] and
    the surplus redistributed among the others, repeatedly, until a
    fixpoint. Shares are recomputed whenever a task completes.

    {b Share computation.} The fixpoint of Algorithm 1 is a monotone
    threshold in the saturation ratio [ρ_i = δ_i / w_i]: a task is
    clipped at its cap iff [ρ_i < r/w] where [r]/[w] are the residual
    processors/weight of the unclipped pool. Over a pool sorted by [ρ]
    the clipped set is a prefix, found by binary search over prefix
    sums of caps and weights ({!frontier}, the one generic copy of
    this search in the library; DESIGN.md §6.1) instead of the seed's
    repeated [List.partition] fixpoint ([O(n²)] per event).

    The module {e simulates} the policy on a clairvoyant instance
    (volumes are used only to find the next completion event, exactly
    as a real execution would reveal it); {!split} reads the volume
    split that checks Lemma 2's bound
    [TC_WD(I) <= 2·(A(I[VF̄]) + H(I[VF]))] off the resulting schedule.
    With plain weights [ρ] never changes during a run, so
    {!simulate_reference} sorts once and replays the frontier search
    per completion event: a full run is [O(n²)], dominated by emitting
    the (sparse) per-column shares. On a precedence DAG the pool is the
    ready frontier (DESIGN.md §15). The solver registry runs curve-free
    instances on the online engine instead (DESIGN.md §6.1); this loop
    is their oracle. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  open T

  (** Lemma 2's volume split: for each task, the volume it processed
      while running at its full allocation [δ_i] ([full_volume], the
      paper's [VF_i]) and while limited by equipartition
      ([limited_volume], the paper's [VF̄_i]). The two sum to [V_i]. *)
  type diagnostics = { full_volume : F.t array; limited_volume : F.t array }

  (** Reference implementation of one round of Algorithm 1, kept
      verbatim from the iterative [List.partition] fixpoint: saturate
      every currently-violating task, redistribute, repeat. [O(n²)]
      worst case. Used as ground truth by the cross-engine equivalence
      tests; production code goes through {!shares}. *)
  let shares_reference ~p alive : (int * F.t) list =
    let rec go unsat saturated r w =
      (* r = remaining processors, w = remaining weight. *)
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

  (** The clipping frontier over one pool listed in [δ/w] order — the
      library's one generic share kernel (see the interface). *)
  let frontier ~r ~w ~m ~(idx : int array) ~(weight : F.t array) ~(cap : F.t array) ~pd ~pw
      ~(share : F.t array) =
    pd.(0) <- F.zero;
    pw.(0) <- F.zero;
    for k = 0 to m - 1 do
      let i = idx.(k) in
      pd.(k + 1) <- F.add pd.(k) cap.(i);
      pw.(k + 1) <- F.add pw.(k) weight.(i)
    done;
    (* P(k): with the first k tasks clipped at their caps, the next
       task (if any) is unclipped — equivalently the fixpoint's clipped
       set has size <= k. P is monotone in k, so binary search finds
       the fixpoint (the smallest k with P(k)). *)
    let sat_ok k =
      k = m
      ||
      let i = idx.(k) in
      let r' = F.sub r pd.(k) and w' = F.sub w pw.(k) in
      F.sign w' <= 0 || F.compare (F.mul cap.(i) w') (F.mul weight.(i) r') >= 0
    in
    let lo = ref 0 and hi = ref m in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sat_ok mid then hi := mid else lo := mid + 1
    done;
    let ksat = !lo in
    let r' = F.sub r pd.(ksat) and w' = F.sub w pw.(ksat) in
    let positive_w = F.sign w' > 0 in
    for k = 0 to m - 1 do
      let i = idx.(k) in
      share.(i) <-
        (if k < ksat then cap.(i)
         else if positive_w then F.div (F.mul weight.(i) r') w'
         else F.zero)
    done

  (* Total weight of a pool, summed in its listed order — the order the
     kernel's prefix sums use, so [w] is their last entry bit for bit. *)
  let pool_weight ~m ~(idx : int array) ~(weight : F.t array) =
    let w = ref F.zero in
    for k = 0 to m - 1 do
      w := F.add !w weight.(idx.(k))
    done;
    !w

  (** One round of Algorithm 1: shares for the alive tasks.
      [alive] gives (index, weight, delta); the result maps each alive
      index to its share, in saturation-ratio order. Total shares never
      exceed [p]. [O(n log n)] — sort by saturation ratio, then one
      binary-searched threshold. Agrees with {!shares_reference}
      (exactly over exact fields). *)
  let shares ~p alive : (int * F.t) list =
    let arr = Array.of_list alive in
    let m = Array.length arr in
    let id = Array.map (fun (i, _, _) -> i) arr in
    let weight = Array.map (fun (_, w, _) -> w) arr in
    let cap = Array.map (fun (_, _, d) -> d) arr in
    let idx = Array.init m Fun.id in
    Array.sort
      (fun a b ->
        let c = F.compare (F.mul cap.(a) weight.(b)) (F.mul cap.(b) weight.(a)) in
        if c <> 0 then c else Stdlib.compare id.(a) id.(b))
      idx;
    let share = Array.make m F.zero in
    frontier ~r:p ~w:(pool_weight ~m ~idx ~weight) ~m ~idx ~weight ~cap
      ~pd:(Array.make (m + 1) F.zero) ~pw:(Array.make (m + 1) F.zero) ~share;
    List.init m (fun k -> (id.(idx.(k)), share.(idx.(k))))

  (** Field-generic simulation loop — the batch oracle, and the path
      speedup curves take. The pool at each event is the ready
      frontier: alive tasks whose parents have all completed (every
      alive task, on a bag), so a completion may release children into
      it — the frontier equipartition of Garg–Gupta–Kumar–Singla
      (arXiv:1905.02133). Edges point at earlier tasks of a validated
      instance, so the frontier is nonempty until everything has
      completed. *)
  let simulate_reference ?(use_weights = true) (inst : instance) : column_schedule =
    let n = I.num_tasks inst in
    let deps = I.has_deps inst in
    let weight = Array.init n (fun i -> if use_weights then inst.tasks.(i).weight else F.one) in
    let delta = Array.init n (fun i -> I.effective_delta inst i) in
    let remaining = Array.map (fun t -> t.volume) inst.tasks in
    let alive = Array.make n true in
    (* Parents not yet completed; a task is ready once this hits 0. *)
    let unmet = Array.init n (fun i -> Array.length inst.tasks.(i).deps) in
    let children = I.dep_children inst in
    let order = Array.make n 0 in
    let finish = Array.make n F.zero in
    let columns = Array.make n [] in
    (* Plain weights make the saturation ratio δ_i/w_i static, so one
       sort serves every completion event. [by_ratio] and [by_index]
       hold the alive tasks (ρ-ascending and index-ascending
       respectively); completed tasks are compacted out after each
       event, so every per-event loop is O(alive), not O(n). *)
    let by_ratio = Array.init n (fun i -> i) in
    Array.sort
      (fun a b ->
        let c = F.compare (F.mul delta.(a) weight.(b)) (F.mul delta.(b) weight.(a)) in
        if c <> 0 then c else Stdlib.compare a b)
      by_ratio;
    let by_index = Array.init n (fun i -> i) in
    (* The ready frontier in ratio order; on a bag, [by_ratio] itself. *)
    let ready = if deps then Array.make n 0 else by_ratio in
    let pd = Array.make (n + 1) F.zero and pw = Array.make (n + 1) F.zero in
    (* Dormant tasks keep a zero share until they become ready. *)
    let share = Array.make n F.zero in
    (* Progress rate of each ready task at its current share; equals
       the share itself under the linear law. *)
    let rate = Array.make n F.zero in
    let t_now = ref F.zero in
    let col = ref 0 in
    let m = ref n in
    while !col < n do
      let m0 = !m in
      let mr =
        if not deps then m0
        else begin
          let k = ref 0 in
          for j = 0 to m0 - 1 do
            let i = by_ratio.(j) in
            if unmet.(i) = 0 then begin
              ready.(!k) <- i;
              incr k
            end
          done;
          !k
        end
      in
      frontier ~r:inst.procs ~w:(pool_weight ~m:mr ~idx:ready ~weight) ~m:mr ~idx:ready ~weight
        ~cap:delta ~pd ~pw ~share;
      (* Time to the next completion. *)
      let t_best = ref F.zero in
      let seen = ref false in
      for k = 0 to mr - 1 do
        let i = ready.(k) in
        rate.(i) <- I.rate_at inst i share.(i);
        if F.sign rate.(i) > 0 then begin
          let ti = F.div remaining.(i) rate.(i) in
          if (not !seen) || F.compare ti !t_best < 0 then begin
            t_best := ti;
            seen := true
          end
        end
      done;
      if not !seen then invalid_arg "Wdeq.simulate_reference: no task can progress";
      let dt = !t_best in
      let t_end = F.add !t_now dt in
      (* Advance volumes; collect completions. *)
      let finished = ref [] in
      for k = 0 to mr - 1 do
        let i = ready.(k) in
        remaining.(i) <- F.sub remaining.(i) (F.mul rate.(i) dt);
        if F.leq_approx remaining.(i) F.zero then finished := i :: !finished
      done;
      let finished = List.sort Stdlib.compare !finished in
      (match finished with
      | [] -> invalid_arg "Wdeq.simulate_reference: no completion at event (numeric drift)"
      | _ -> ());
      (* The sparse column: alive tasks with positive shares, by
         ascending task index. *)
      let column = ref [] in
      for k = m0 - 1 downto 0 do
        let i = by_index.(k) in
        if F.sign share.(i) > 0 then column := (i, share.(i)) :: !column
      done;
      (* One column per completed task: the first carries the duration,
         simultaneous completions give zero-length columns. A
         completion releases the children whose last parent it was. *)
      List.iteri
        (fun k i ->
          let j = !col + k in
          order.(j) <- i;
          finish.(j) <- t_end;
          alive.(i) <- false;
          List.iter (fun c -> unmet.(c) <- unmet.(c) - 1) children.(i);
          if k = 0 then columns.(j) <- !column)
        finished;
      col := !col + List.length finished;
      t_now := t_end;
      (* Compact the completed tasks out of both alive orders. *)
      let keep = ref 0 in
      for k = 0 to m0 - 1 do
        let i = by_ratio.(k) in
        if alive.(i) then begin
          by_ratio.(!keep) <- i;
          incr keep
        end
      done;
      let keep2 = ref 0 in
      for k = 0 to m0 - 1 do
        let i = by_index.(k) in
        if alive.(i) then begin
          by_index.(!keep2) <- i;
          incr keep2
        end
      done;
      m := !keep
    done;
    { instance = inst; order; finish; columns }

  (** Lemma 2's split of a column schedule: each column entry
      contributes its rate times the column length, to [full_volume]
      when the share equals the task's effective cap (up to the field's
      tolerance) and to [limited_volume] otherwise. *)
  let split (s : column_schedule) : diagnostics =
    let inst = s.instance in
    let n = I.num_tasks inst in
    let full_volume = Array.make n F.zero and limited_volume = Array.make n F.zero in
    Array.iteri
      (fun j column ->
        let len = S.column_length s j in
        List.iter
          (fun (i, share) ->
            let v = F.mul (I.rate_at inst i share) len in
            if F.equal_approx share (I.effective_delta inst i) then
              full_volume.(i) <- F.add full_volume.(i) v
            else limited_volume.(i) <- F.add limited_volume.(i) v)
          column)
      s.columns;
    { full_volume; limited_volume }

  (** WDEQ schedule of an instance. *)
  let wdeq inst = simulate_reference ~use_weights:true inst

  (** DEQ (unweighted dynamic equipartition) on the same instance; the
      schedule ignores weights but the objective can still be evaluated
      with them. *)
  let deq inst = simulate_reference ~use_weights:false inst
end
