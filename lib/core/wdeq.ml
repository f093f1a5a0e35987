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
    as a real execution would reveal it) and records the diagnostics
    needed to check Lemma 2's bound
    [TC_WD(I) <= 2·(A(I[VF̄]) + H(I[VF]))]. With plain weights [ρ] never
    changes during a run, so {!simulate} sorts once and replays the
    frontier search per completion event: a full run is [O(n²)],
    dominated by emitting the (sparse) per-column shares. On a
    precedence DAG the pool is the ready frontier (DESIGN.md §15). *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  open T

  (** Per-run diagnostics: for each task, the volume it processed while
      running at its full allocation [δ_i] ([full_volume], the paper's
      [VF_i]) and while limited by equipartition ([limited_volume], the
      paper's [VF̄_i]). The two sum to [V_i]. *)
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

  (** Field-generic simulation loop — the semantic source of truth for
      {!simulate}, which dispatches linear bags to a monomorphic float
      kernel when the field witness allows it. The pool at each event
      is the ready frontier: alive tasks whose parents have all
      completed (every alive task, on a bag), so a completion may
      release children into it — the frontier equipartition of
      Garg–Gupta–Kumar–Singla (arXiv:1905.02133). Edges point at
      earlier tasks of a validated instance, so the frontier is
      nonempty until everything has completed. *)
  let simulate_reference ?(use_weights = true) ?(transitive = false) (inst : instance) :
      column_schedule * diagnostics =
    let n = I.num_tasks inst in
    let deps = I.has_deps inst in
    let transitive = transitive && deps in
    let own i = if use_weights then inst.tasks.(i).weight else F.one in
    let weight = Array.init n own in
    let gated = if transitive then I.gated_work ~use_weights inst else [||] in
    let delta = Array.init n (fun i -> I.effective_delta inst i) in
    let remaining = Array.map (fun t -> t.volume) inst.tasks in
    let alive = Array.make n true in
    (* Parents not yet completed; a task is ready once this hits 0. *)
    let unmet = Array.init n (fun i -> Array.length inst.tasks.(i).deps) in
    let children = I.dep_children inst in
    let full_volume = Array.make n F.zero in
    let limited_volume = Array.make n F.zero in
    let order = Array.make n 0 in
    let finish = Array.make n F.zero in
    let columns = Array.make n [] in
    let by_ratio_cmp a b =
      let c = F.compare (F.mul delta.(a) weight.(b)) (F.mul delta.(b) weight.(a)) in
      if c <> 0 then c else Stdlib.compare a b
    in
    (* Plain weights make the saturation ratio δ_i/w_i static, so one
       sort serves every completion event. [by_ratio] and [by_index]
       hold the alive tasks (ρ-ascending and index-ascending
       respectively); completed tasks are compacted out after each
       event, so every per-event loop is O(alive), not O(n). *)
    let by_ratio = Array.init n (fun i -> i) in
    Array.sort by_ratio_cmp by_ratio;
    let by_index = Array.init n (fun i -> i) in
    (* The ready frontier in ratio order; on a bag, [by_ratio] itself. *)
    let ready = if deps then Array.make n 0 else by_ratio in
    let pd = Array.make (n + 1) F.zero and pw = Array.make (n + 1) F.zero in
    (* Dormant tasks keep a zero share until they become ready. *)
    let share = Array.make n F.zero in
    (* Progress rate of each ready task at its current share; equals
       the share itself under the linear law, so every linear-instance
       value below is the historical one bit-for-bit. *)
    let rate = Array.make n F.zero in
    let t_now = ref F.zero in
    let col = ref 0 in
    let m = ref n in
    while !col < n do
      let m0 = !m in
      let mr =
        if not deps then m0
        else begin
          (* Filtered from the static ratio order — or, with transitive
             weights, which move, from the index order, then re-priced
             and sorted afresh. *)
          let src = if transitive then by_index else by_ratio in
          let k = ref 0 in
          for j = 0 to m0 - 1 do
            let i = src.(j) in
            if unmet.(i) = 0 then begin
              ready.(!k) <- i;
              incr k
            end
          done;
          !k
        end
      in
      if transitive then begin
        for k = 0 to mr - 1 do
          let i = ready.(k) in
          weight.(i) <- F.add (F.mul (own i) (F.div remaining.(i) (I.max_rate inst i))) gated.(i)
        done;
        let sorted = Array.sub ready 0 mr in
        Array.sort by_ratio_cmp sorted;
        Array.blit sorted 0 ready 0 mr
      end;
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
      if not !seen then invalid_arg "Wdeq.simulate: no task can progress";
      let dt = !t_best in
      let t_end = F.add !t_now dt in
      (* Advance volumes; split them into full-allocation vs limited
         volume for the Lemma 2 diagnostics; collect completions. *)
      let finished = ref [] in
      for k = 0 to mr - 1 do
        let i = ready.(k) in
        let processed = F.mul rate.(i) dt in
        remaining.(i) <- F.sub remaining.(i) processed;
        let saturated = F.equal_approx share.(i) delta.(i) in
        if saturated then full_volume.(i) <- F.add full_volume.(i) processed
        else limited_volume.(i) <- F.add limited_volume.(i) processed;
        if F.leq_approx remaining.(i) F.zero then finished := i :: !finished
      done;
      let finished = List.sort Stdlib.compare !finished in
      (match finished with
      | [] -> invalid_arg "Wdeq.simulate: no completion at event (numeric drift)"
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
    ({ instance = inst; order; finish; columns }, { full_volume; limited_volume })

  (* Monomorphic replica of {!simulate_reference} for [F.t = float],
     recovered through the field witness: flat float arrays, unboxed
     arithmetic, no per-event closure or option traffic. The arithmetic
     is kept literally the generic loop's — [Float.compare] selections,
     [remaining /. s] event horizons, [rem <= eps] completion and
     [abs (s -. delta) <= eps] saturation tolerances (the [leq_approx]
     / [equal_approx] of {!Mwct_field.Field.Float_field}, the witness's
     single float inhabitant), no FMA contraction — so the schedules
     are bit-identical, which the kernel equivalence tests pin. *)
  let simulate_float_opt :
      (use_weights:bool -> instance -> column_schedule * diagnostics) option =
    match F.witness with
    | Mwct_field.Field.Any -> None
    | Mwct_field.Field.Float ->
      let eps = Mwct_field.Field.Float_field.epsilon in
      Some
        (fun ~use_weights (inst : instance) ->
          let n = I.num_tasks inst in
          let p = inst.procs in
          let weight =
            Array.init n (fun i -> if use_weights then inst.tasks.(i).weight else 1.)
          in
          let delta = Array.init n (fun i -> I.effective_delta inst i) in
          let remaining = Array.map (fun t -> t.volume) inst.tasks in
          let alive = Array.make n true in
          let full_volume = Array.make n 0. in
          let limited_volume = Array.make n 0. in
          let order = Array.make n 0 in
          let finish = Array.make n 0. in
          let columns : (int * float) list array = Array.make n [] in
          let by_ratio = Array.init n (fun i -> i) in
          Array.sort
            (fun a b ->
              let c = Float.compare (delta.(a) *. weight.(b)) (delta.(b) *. weight.(a)) in
              if c <> 0 then c else Stdlib.compare a b)
            by_ratio;
          let by_index = Array.init n (fun i -> i) in
          let ws = Array.make n 0. and ds = Array.make n 0. in
          let pd = Array.make (n + 1) 0. and pw = Array.make (n + 1) 0. in
          let out = Array.make n 0. in
          let share = Array.make n 0. in
          let finished_buf = Array.make n 0 in
          let t_now = ref 0. in
          let col = ref 0 in
          let m = ref n in
          while !col < n do
            let m0 = !m in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              Array.unsafe_set ws k (Array.unsafe_get weight i);
              Array.unsafe_set ds k (Array.unsafe_get delta i)
            done;
            (* frontier_shares, monomorphic *)
            pd.(0) <- 0.;
            pw.(0) <- 0.;
            for k = 0 to m0 - 1 do
              Array.unsafe_set pd (k + 1) (Array.unsafe_get pd k +. Array.unsafe_get ds k);
              Array.unsafe_set pw (k + 1) (Array.unsafe_get pw k +. Array.unsafe_get ws k)
            done;
            let total_w = pw.(m0) in
            let sat_ok k =
              k = m0
              ||
              let r = p -. pd.(k) and w = total_w -. pw.(k) in
              w <= 0. || Float.compare (ds.(k) *. w) (ws.(k) *. r) >= 0
            in
            let lo = ref 0 and hi = ref m0 in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if sat_ok mid then hi := mid else lo := mid + 1
            done;
            let ksat = !lo in
            let r = p -. pd.(ksat) and w = total_w -. pw.(ksat) in
            let positive_w = w > 0. in
            for k = 0 to m0 - 1 do
              Array.unsafe_set out k
                (if k < ksat then Array.unsafe_get ds k
                 else if positive_w then Array.unsafe_get ws k *. r /. w
                 else 0.)
            done;
            (* time to the next completion *)
            let t_best = ref 0. in
            let seen = ref false in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              let s = Array.unsafe_get out k in
              Array.unsafe_set share i s;
              if s > 0. then begin
                let ti = Array.unsafe_get remaining i /. s in
                if (not !seen) || Float.compare ti !t_best < 0 then begin
                  t_best := ti;
                  seen := true
                end
              end
            done;
            if not !seen then invalid_arg "Wdeq.simulate: no task can progress";
            let dt = !t_best in
            let t_end = !t_now +. dt in
            let nfin = ref 0 in
            for k = 0 to m0 - 1 do
              let i = Array.unsafe_get by_ratio k in
              let s = Array.unsafe_get out k in
              let processed = s *. dt in
              let rem = Array.unsafe_get remaining i -. processed in
              Array.unsafe_set remaining i rem;
              let saturated = Float.abs (s -. Array.unsafe_get delta i) <= eps in
              if saturated then
                Array.unsafe_set full_volume i (Array.unsafe_get full_volume i +. processed)
              else Array.unsafe_set limited_volume i (Array.unsafe_get limited_volume i +. processed);
              if rem <= eps then begin
                finished_buf.(!nfin) <- i;
                incr nfin
              end
            done;
            if !nfin = 0 then invalid_arg "Wdeq.simulate: no completion at event (numeric drift)";
            (* finished tasks ascending, like the reference's List.sort *)
            let fin = Array.sub finished_buf 0 !nfin in
            Array.sort Stdlib.compare fin;
            let column = ref [] in
            for k = m0 - 1 downto 0 do
              let i = by_index.(k) in
              if share.(i) > 0. then column := (i, share.(i)) :: !column
            done;
            Array.iteri
              (fun k i ->
                let j = !col + k in
                order.(j) <- i;
                finish.(j) <- t_end;
                alive.(i) <- false;
                if k = 0 then columns.(j) <- !column)
              fin;
            col := !col + !nfin;
            t_now := t_end;
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
          ({ instance = inst; order; finish; columns }, { full_volume; limited_volume }))

  (** Simulate a dynamic-equipartition run. [use_weights = false] gives
      plain DEQ (Deng et al.), the unweighted special case; on an
      instance with dependency edges the run is the frontier policy
      of {!simulate_reference}, with [~transitive] selecting its
      weighting. On the float field a linear bag runs the monomorphic
      kernel (bit-identical to {!simulate_reference}, several times
      faster at scale); speedup curves and edges take the generic
      loop. *)
  let simulate ?(use_weights = true) ?transitive (inst : instance) :
      column_schedule * diagnostics =
    match simulate_float_opt with
    | Some f when not (I.has_curves inst || I.has_deps inst) -> f ~use_weights inst
    | _ -> simulate_reference ~use_weights ?transitive inst

  (** WDEQ schedule of an instance. *)
  let wdeq inst = simulate ~use_weights:true inst

  (** DEQ (unweighted dynamic equipartition) on the same instance; the
      schedule ignores weights but the objective can still be evaluated
      with them. *)
  let deq inst = simulate ~use_weights:false inst
end
