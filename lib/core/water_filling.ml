(** Algorithm WF — the paper's normal form (Section IV, Algorithm 2).

    Given an instance and a target completion time for every task, WF
    rebuilds a valid column schedule if one exists (Theorem 8): tasks
    are processed by non-decreasing completion time, and each is poured
    like water over the columns it may use, subject to its cap [δ_i]
    and to the current column heights. The resulting occupation is a
    non-increasing function of time (Lemma 3), which tests verify.

    The water level [h*] for a task solves
    [Σ_k l_k · clamp(h* − h_k, 0, δ_i) = V_i]; we find it by an event
    sweep over the sorted breakpoints [{h_k, h_k + δ_i}], so scheduling
    each task costs [O(n log n)] and the whole normal form
    [O(n² log n)] — the complexity improvement over Chen et al. that
    Section IV discusses. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  open T

  (** Water level for one task: minimal [h <= cap] such that
      [Σ l_k · s(clamp(h − h_k, 0, delta)) >= v], or [None] when even
      [h = cap] is not enough (up to the field's tolerance, in which
      case [cap] is returned). [s] is the task's rate law:
      [?speedup:None] is the linear law [s(a) = a] (the historical
      event construction, byte-for-byte); [Some (bx, by)] a concave
      breakpoint curve, which only adds slope-change events at the
      curve's breakpoints — the sweep itself is model-independent.
      Only the first [ncols] columns are considered; zero-length
      columns are ignored. *)
  let water_level ?speedup ~heights ~lengths ~ncols ~delta ~cap v =
    if F.sign v <= 0 then Some F.zero
    else begin
      (* Events: at level h_k the column k starts filling at the
         curve's first slope; the slope changes at [h_k + x_j] for each
         curve breakpoint and drops to zero at [h_k + delta]
         (saturation). Under the linear law that is (+l_k) at [h_k] and
         (-l_k) at [h_k + delta]. Levels beyond [cap] are cut. *)
      let events = ref [] in
      (* Slopes (m_1 .. m_J) of the curve's segments, with the implicit
         origin; [None] for the linear law (single slope 1). *)
      let curve_slopes =
        match speedup with
        | None -> None
        | Some (bx, by) ->
          let nj = Array.length bx in
          Some
            ( bx,
              Array.init nj (fun j ->
                  let px = if j = 0 then F.zero else bx.(j - 1) in
                  let py = if j = 0 then F.zero else by.(j - 1) in
                  F.div (F.sub by.(j) py) (F.sub bx.(j) px)) )
      in
      for k = 0 to ncols - 1 do
        if F.sign lengths.(k) > 0 then begin
          let h = heights.(k) in
          if F.compare h cap < 0 then begin
            match curve_slopes with
            | None ->
              events := (h, lengths.(k)) :: !events;
              let top = F.add h delta in
              if F.compare top cap < 0 then events := (top, F.neg lengths.(k)) :: !events
            | Some (bx, slopes) ->
              let nj = Array.length bx in
              events := (h, F.mul slopes.(0) lengths.(k)) :: !events;
              for j = 1 to nj - 1 do
                let at = F.add h bx.(j - 1) in
                if F.compare at cap < 0 then
                  events := (at, F.mul (F.sub slopes.(j) slopes.(j - 1)) lengths.(k)) :: !events
              done;
              let top = F.add h bx.(nj - 1) in
              if F.compare top cap < 0 then
                events := (top, F.neg (F.mul slopes.(nj - 1) lengths.(k))) :: !events
          end
        end
      done;
      let events = List.sort (fun (a, _) (b, _) -> F.compare a b) !events in
      (* Sweep. [level]/[filled] track the current point of the
         piecewise-linear function; [slope] its right derivative. *)
      let rec sweep level filled slope = function
        | [] ->
          (* Last stretch reaches up to [cap]. Past every closing
             event a float slope can be rounding residue, and dividing
             by it overshoots: the level is clamped to [cap], which
             an exact field never exceeds here. *)
          let at_cap = F.add filled (F.mul slope (F.sub cap level)) in
          if F.compare filled v >= 0 then Some level
          else if F.compare at_cap v >= 0 && F.sign slope > 0 then
            Some (F.min cap (F.add level (F.div (F.sub v filled) slope)))
          else if F.leq_approx v at_cap then Some cap
          else None
        | (lv, dslope) :: rest ->
          if F.compare filled v >= 0 then Some level
          else begin
            let gained = F.mul slope (F.sub lv level) in
            let filled' = F.add filled gained in
            if F.compare filled' v >= 0 && F.sign slope > 0 then
              Some (F.add level (F.div (F.sub v filled) slope))
            else sweep lv filled' (F.add slope dslope) rest
          end
      in
      match events with
      | [] -> if F.leq_approx v F.zero then Some F.zero else None
      | (lv0, _) :: _ -> sweep lv0 F.zero F.zero events
    end

  (** [build inst times] runs Algorithm WF with target completion times
      [times] (indexed by task). Returns the normal-form schedule, or
      [Error k] where [k] is the first task (by completion order) that
      cannot be allocated — the certificate of Theorem 8 that {e no}
      valid schedule has these completion times. *)
  let build (inst : instance) (times : num array) : (column_schedule, int) result =
    let n = I.num_tasks inst in
    if Array.length times <> n then invalid_arg "Water_filling.build: times length mismatch";
    let order = S.sorted_order times in
    let finish = Array.map (fun i -> times.(i)) order in
    let lengths =
      Array.init n (fun j -> if j = 0 then finish.(0) else F.sub finish.(j) (finish.(j - 1)))
    in
    (* Sparse columns, accumulated as cons lists (tasks arrive in
       completion order) and sorted by task index on assembly. *)
    let columns = Array.make n [] in
    let heights = Array.make n F.zero in
    let exception Fail of int in
    try
      for j = 0 to n - 1 do
        let task_idx = order.(j) in
        let delta = I.effective_delta inst task_idx in
        let v = inst.tasks.(task_idx).volume in
        match
          water_level
            ?speedup:(I.speedup_arrays inst task_idx)
            ~heights ~lengths ~ncols:(j + 1) ~delta ~cap:inst.procs v
        with
        | None -> raise (Fail task_idx)
        | Some level ->
          for k = 0 to j do
            if F.sign lengths.(k) > 0 then begin
              let room = F.sub level heights.(k) in
              let a = F.max F.zero (F.min room delta) in
              (* Drop negligible slivers (float level an epsilon above a
                 column): they would register as spurious allocation
                 changes. Exact fields are unaffected. *)
              if F.sign a > 0 && not (F.equal_approx a F.zero) then begin
                columns.(k) <- (task_idx, a) :: columns.(k);
                (* Unsaturated columns are leveled to exactly [level]:
                   assigning it directly (rather than adding [a]) keeps
                   merged columns bit-identical under floats, which
                   later change-counting relies on. *)
                if F.compare room delta <= 0 then heights.(k) <- level
                else heights.(k) <- F.add heights.(k) a
              end
            end
          done
      done;
      let columns =
        Array.map (List.sort (fun (i, _) (i', _) -> Stdlib.compare i i')) columns
      in
      Ok { instance = inst; order; finish; columns }
    with Fail k -> Error k

  (** Theorem 8 feasibility test: do the given completion times admit a
      valid schedule? *)
  let feasible inst times = match build inst times with Ok _ -> true | Error _ -> false

  (** Normalization: rebuild any valid schedule in normal form from its
      completion times alone (the paper's central construction). The
      completion times — hence the objective — are preserved exactly. *)
  let normalize (s : column_schedule) : column_schedule =
    match build s.instance (S.completion_times s) with
    | Ok s' -> s'
    | Error k ->
      (* Theorem 8: impossible for a valid input schedule. *)
      invalid_arg (Printf.sprintf "Water_filling.normalize: input schedule invalid (task %d)" k)

  (** Column heights of a schedule (occupied processors per column),
      used to check Lemma 3 (non-increasing occupation). *)
  let column_heights (s : column_schedule) : num array =
    Array.map (List.fold_left (fun acc (_, a) -> F.add acc a) F.zero) s.columns
end
