(** Instance construction and elementary quantities. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module O = Mwct_field.Field.Ops (F)
  open T

  let of_rat (r : Spec.rat) = F.of_q r.Spec.num r.Spec.den

  (* Evaluate a raw breakpoint curve (through the origin, constant
     beyond the last breakpoint) at allocation [a]. Linear scan:
     curves have a handful of pieces. *)
  let eval_curve (bx : num array) (by : num array) (a : num) : num =
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

  (* Minimal allocation achieving rate [r] on the curve ([r] clamped to
     the achievable range). Flat segments invert to their left
     endpoint. *)
  let invert_curve (bx : num array) (by : num array) (r : num) : num =
    let last = Array.length bx - 1 in
    if F.sign r <= 0 then F.zero
    else if F.compare r by.(last) >= 0 then
      (* minimal allocation for the saturated rate: scan back over any
         flat tail *)
      begin
        let j = ref last in
        while !j > 0 && F.compare by.(!j - 1) by.(last) >= 0 do
          decr j
        done;
        bx.(!j)
      end
    else begin
      let j = ref 0 in
      while F.compare r by.(!j) > 0 do
        incr j
      done;
      let j = !j in
      let px = if j = 0 then F.zero else bx.(j - 1) in
      let py = if j = 0 then F.zero else by.(j - 1) in
      if F.compare r py <= 0 then px
      else F.add px (F.div (F.mul (F.sub r py) (F.sub bx.(j) px)) (F.sub by.(j) py))
    end

  (** Convert a field-neutral spec into a field instance. Per-task
      [capacity] clauses are folded into the rate model here: a linear
      task's delta is clamped to the capacity; a curve is truncated at
      the capacity (the new saturation allocation is the capacity, at
      the curve's rate there). *)
  let of_spec (s : Spec.t) : instance =
    (match Spec.validate s with Ok () -> () | Error msg -> invalid_arg ("Instance.of_spec: " ^ msg));
    {
      procs = F.of_int s.Spec.procs;
      tasks =
        Array.map
          (fun (tk : Spec.task) ->
            let delta = F.of_int tk.Spec.delta in
            let capped =
              match tk.Spec.capacity with Some c -> F.min delta (F.of_int c) | None -> delta
            in
            let speedup =
              match tk.Spec.speedup with
              | [] -> Linear_delta
              | pairs ->
                let bx = Array.of_list (List.map (fun (x, _) -> of_rat x) pairs) in
                let by = Array.of_list (List.map (fun (_, y) -> of_rat y) pairs) in
                if F.compare capped bx.(Array.length bx - 1) >= 0 then Curve { bx; by }
                else begin
                  (* truncate at the capacity *)
                  let keep = ref 0 in
                  while F.compare bx.(!keep) capped < 0 do
                    incr keep
                  done;
                  let k = !keep in
                  let bx' = Array.append (Array.sub bx 0 k) [| capped |] in
                  let by' = Array.append (Array.sub by 0 k) [| eval_curve bx by capped |] in
                  Curve { bx = bx'; by = by' }
                end
            in
            {
              volume = of_rat tk.Spec.volume;
              weight = of_rat tk.Spec.weight;
              delta = capped;
              speedup;
              deps = Array.of_list tk.Spec.deps;
            })
          s.Spec.tasks;
    }

  (** Build directly from field values (weights default to 1). *)
  let make ~procs tasks : instance = { procs; tasks = Array.of_list tasks }

  let task ?weight ?(speedup = Linear_delta) ?(deps = [||]) ~volume ~delta () =
    let weight = match weight with Some w -> w | None -> F.one in
    { volume; weight; delta; speedup; deps }

  let num_tasks (i : instance) = Array.length i.tasks

  (** True iff any task has a non-linear rate law. *)
  let has_curves (i : instance) =
    Array.exists (fun t -> match t.speedup with Linear_delta -> false | Curve _ -> true) i.tasks

  (** True iff any task has a precedence parent. *)
  let has_deps (i : instance) = Array.exists (fun t -> t.deps <> [||]) i.tasks

  (** Structural validity over the field: everything strictly positive,
      [δ_i >= 1]. Deltas above [P] are allowed (they behave as [P]).
      Speedup curves must satisfy the {!Types.Make.speedup} invariants
      (including the last breakpoint sitting at [delta]). *)
  let validate (i : instance) =
    if F.sign i.procs <= 0 then Error "procs must be positive"
    else begin
      let bad = ref None in
      let fail k msg = bad := Some (Printf.sprintf "task %d: %s" k msg) in
      let check_curve k bx by delta =
        let n = Array.length bx in
        if n = 0 || Array.length by <> n then fail k "speedup breakpoint arrays must match and be non-empty"
        else if F.compare bx.(n - 1) delta <> 0 then fail k "last speedup breakpoint must equal delta"
        else begin
          let px = ref F.zero and py = ref F.zero in
          let pslope = ref None in
          (try
             for j = 0 to n - 1 do
               if F.sign bx.(j) <= 0 || F.sign by.(j) <= 0 then begin
                 fail k "speedup breakpoints must be positive";
                 raise Exit
               end;
               if F.compare !px bx.(j) >= 0 then begin
                 fail k "speedup allocations must be strictly increasing";
                 raise Exit
               end;
               if F.compare !py by.(j) > 0 then begin
                 fail k "speedup rate must be non-decreasing";
                 raise Exit
               end;
               let dx = F.sub bx.(j) !px and dy = F.sub by.(j) !py in
               (match !pslope with
               | None ->
                 if F.compare by.(j) bx.(j) > 0 then begin
                   fail k "speedup rate cannot exceed allocation";
                   raise Exit
                 end
               | Some (pdx, pdy) ->
                 if F.compare (F.mul dy pdx) (F.mul pdy dx) > 0 then begin
                   fail k "speedup must be concave";
                   raise Exit
                 end);
               pslope := Some (dx, dy);
               px := bx.(j);
               py := by.(j)
             done
           with Exit -> ())
        end
      in
      let n = Array.length i.tasks in
      let check_deps k (deps : int array) =
        let seen = Hashtbl.create (Array.length deps) in
        Array.iter
          (fun j ->
            if Option.is_none !bad then
              if j < 0 || j >= n then
                fail k (Printf.sprintf "unknown dependency %d (tasks are 0..%d)" j (n - 1))
              else if j = k then fail k "task cannot depend on itself"
              else if Hashtbl.mem seen j then fail k (Printf.sprintf "duplicate dependency %d" j)
              else Hashtbl.add seen j ())
          deps
      in
      Array.iteri
        (fun k t ->
          if Option.is_none !bad then begin
            if F.sign t.volume <= 0 then fail k "volume must be positive"
            else if F.sign t.weight <= 0 then fail k "weight must be positive"
            else if F.compare t.delta F.one < 0 then fail k "delta must be >= 1"
            else begin
              match t.speedup with
              | Linear_delta -> ()
              | Curve { bx; by } -> check_curve k bx by t.delta
            end;
            if Option.is_none !bad then check_deps k t.deps
          end)
        i.tasks;
      (* Kahn topological sort over the edge set rejects cycles (specs
         built through [of_spec] already passed this in Spec.validate;
         directly-built instances get the same diagnostic here). *)
      if Option.is_none !bad then begin
        let indeg = Array.make n 0 in
        let children = Array.make n [] in
        Array.iteri
          (fun k t ->
            Array.iter
              (fun j ->
                indeg.(k) <- indeg.(k) + 1;
                children.(j) <- k :: children.(j))
              t.deps)
          i.tasks;
        let queue = Queue.create () in
        Array.iteri (fun k d -> if d = 0 then Queue.add k queue) indeg;
        let seen = ref 0 in
        while not (Queue.is_empty queue) do
          let k = Queue.pop queue in
          incr seen;
          List.iter
            (fun c ->
              indeg.(c) <- indeg.(c) - 1;
              if indeg.(c) = 0 then Queue.add c queue)
            children.(k)
        done;
        if !seen <> n then begin
          let rec first k = if indeg.(k) > 0 then k else first (k + 1) in
          let k = first 0 in
          fail k "dependency cycle through this task"
        end
      end;
      match !bad with None -> Ok () | Some m -> Error m
    end

  (** Total work [Σ V_i]. *)
  let total_volume (i : instance) = O.sum_array (Array.map (fun t -> t.volume) i.tasks)

  (** Total weight [Σ w_i]. *)
  let total_weight (i : instance) = O.sum_array (Array.map (fun t -> t.weight) i.tasks)

  (** Effective parallelism cap: [min δ_i P]; a task can never use more
      than all processors. *)
  let effective_delta (i : instance) k = F.min i.tasks.(k).delta i.procs

  (** Progress rate of task [k] at allocation [a]. The linear law
      returns [a] itself (allocations are clamped to
      [effective_delta] by the schedulers); curves evaluate the
      piecewise-linear speedup. *)
  let rate_at (i : instance) k (a : num) : num =
    match i.tasks.(k).speedup with Linear_delta -> a | Curve { bx; by } -> eval_curve bx by a

  (** Minimal allocation giving task [k] rate [r] (clamped to the
      achievable range). Inverse of {!rate_at}. *)
  let inverse_rate (i : instance) k (r : num) : num =
    match i.tasks.(k).speedup with Linear_delta -> r | Curve { bx; by } -> invert_curve bx by r

  (** Highest rate task [k] can reach on this machine:
      [rate_at (effective_delta k)]. Equals [effective_delta] under the
      linear law. *)
  let max_rate (i : instance) k = rate_at i k (effective_delta i k)

  (** The speedup breakpoints of task [k] as arrays, or [None] for the
      linear law — the runtime engine's submission format. *)
  let speedup_arrays (i : instance) k : (num array * num array) option =
    match i.tasks.(k).speedup with Linear_delta -> None | Curve { bx; by } -> Some (bx, by)

  (** Evaluate a raw breakpoint curve (as returned by
      {!speedup_arrays}) at allocation [a] — for code that carries the
      arrays without the instance. *)
  let curve_rate ((bx, by) : num array * num array) (a : num) : num = eval_curve bx by a

  (* ---------- precedence topology ---------- *)

  (** Child adjacency of the dependency DAG: [dep_children i].(j) lists
      the tasks that name [j] as a parent, in index order. *)
  let dep_children (i : instance) : int list array =
    let n = num_tasks i in
    let ch = Array.make n [] in
    for k = n - 1 downto 0 do
      Array.iter (fun p -> ch.(p) <- k :: ch.(p)) i.tasks.(k).deps
    done;
    ch

  (** A topological order of the tasks (parents before children),
      lowest-index-first among ready tasks so the order is canonical.
      Raises [Invalid_argument] on a cyclic edge set — [validate] /
      [of_spec] reject those up front. *)
  let topo_order (i : instance) : int array =
    let n = num_tasks i in
    let indeg = Array.map (fun t -> Array.length t.deps) i.tasks in
    let children = dep_children i in
    let module IS = Set.Make (Int) in
    let ready = ref (IS.of_list (List.filter (fun k -> indeg.(k) = 0) (List.init n Fun.id))) in
    let order = Array.make n 0 in
    for pos = 0 to n - 1 do
      match IS.min_elt_opt !ready with
      | None -> invalid_arg "Instance.topo_order: dependency cycle"
      | Some k ->
        ready := IS.remove k !ready;
        order.(pos) <- k;
        List.iter
          (fun c ->
            indeg.(c) <- indeg.(c) - 1;
            if indeg.(c) = 0 then ready := IS.add c !ready)
          children.(k)
    done;
    order

  (** DAG level of every task: [0] for tasks with no parents, else
      [1 + max (level parent)]. *)
  let levels (i : instance) : int array =
    let lvl = Array.make (num_tasks i) 0 in
    Array.iter
      (fun k ->
        Array.iter (fun p -> if lvl.(p) + 1 > lvl.(k) then lvl.(k) <- lvl.(p) + 1) i.tasks.(k).deps)
      (topo_order i);
    lvl

  (** The height [h_i = V_i / s_i(min(δ_i, P))] of task [i]
      (Definition 6; [V_i / min(δ_i, P)] under the linear law). *)
  let height (i : instance) k = F.div i.tasks.(k).volume (max_rate i k)

  (** Smith ratio [V_i / w_i]; the squashed-area bound sorts by it. *)
  let smith_ratio (i : instance) k = F.div i.tasks.(k).volume i.tasks.(k).weight

  (** [sub_instance i volumes] is the paper's subinstance [I[V'_i]]:
      same tasks with modified volumes. Tasks whose new volume is zero
      are kept (with zero volume) so indices are stable; quantities like
      the squashed-area bound ignore them naturally. *)
  let sub_instance (i : instance) (volumes : num array) : instance =
    if Array.length volumes <> num_tasks i then invalid_arg "Instance.sub_instance: length mismatch";
    { i with tasks = Array.mapi (fun k t -> { t with volume = volumes.(k) }) i.tasks }

  (** Render for logs. *)
  let to_string (i : instance) =
    let t_to_string t =
      let s =
        match t.speedup with
        | Linear_delta -> ""
        | Curve { bx; by } ->
          " s="
          ^ String.concat ","
              (List.map2
                 (fun x y -> F.to_string x ^ ":" ^ F.to_string y)
                 (Array.to_list bx) (Array.to_list by))
      in
      let d =
        match t.deps with
        | [||] -> ""
        | ds ->
          " deps="
          ^ String.concat "," (List.map string_of_int (Array.to_list ds))
      in
      Printf.sprintf "(V=%s w=%s d=%s%s%s)" (F.to_string t.volume) (F.to_string t.weight)
        (F.to_string t.delta) s d
    in
    Printf.sprintf "P=%s %s" (F.to_string i.procs)
      (String.concat " " (Array.to_list (Array.map t_to_string i.tasks)))
end
