(** Optimal schedules through linear programming (Corollary 1).

    Once the completion {e order} is fixed, the best schedule with that
    order is a linear program over the column structure; the global
    optimum of MWCT-CB-F is the minimum over all [n!] orders. The paper
    uses this as the ground truth of its Section V-A experiments; so do
    we — exactly, when instantiated with rationals. *)

module Make (F : Mwct_field.Field.S) = struct
  module T = Types.Make (F)
  module I = Instance.Make (F)
  module S = Schedule.Make (F)
  module Sx = Mwct_simplex.Simplex.Make (F)
  module Ord = Orderings.Make (F)
  open T

  (** [optimal_for_order inst pi] solves the Corollary-1 LP for the
      completion order [pi] ([pi.(j)] completes [j]-th) and returns the
      objective and the reconstructed column schedule. [None] when the
      LP is infeasible (cannot happen for valid instances: stretching
      columns always yields a feasible point). *)
  let optimal_for_order (inst : instance) (pi : int array) : (F.t * column_schedule) option =
    let n = I.num_tasks inst in
    if Array.length pi <> n then invalid_arg "Lp_schedule.optimal_for_order: order length mismatch";
    let p = Sx.create () in
    (* Column end variables C_0 <= ... <= C_{n-1}. *)
    let c = Array.init n (fun j -> Sx.add_var ~name:(Printf.sprintf "C%d" j) p) in
    (* x.(i).(j): volume of task pi.(i) processed in column j <= i's
       position. Only j <= pos(i) exist. *)
    let pos = Array.make n 0 in
    Array.iteri (fun j i -> pos.(i) <- j) pi;
    let x = Array.make_matrix n n None in
    for i = 0 to n - 1 do
      for j = 0 to pos.(i) do
        x.(i).(j) <- Some (Sx.add_var ~name:(Printf.sprintf "x_%d_%d" i j) p)
      done
    done;
    (* Ordering: C_j - C_{j-1} >= 0 (C_0 >= 0 is implicit: vars are
       non-negative). *)
    for j = 1 to n - 1 do
      Sx.add_constraint p [ (c.(j), F.one); (c.(j - 1), F.neg F.one) ] Sx.Geq F.zero
    done;
    for j = 0 to n - 1 do
      (* Capacity: Σ_i x_{i,j} <= P·(C_j - C_{j-1}). *)
      let terms = ref [ (c.(j), F.neg inst.procs) ] in
      if j > 0 then terms := (c.(j - 1), inst.procs) :: !terms;
      for i = 0 to n - 1 do
        match x.(i).(j) with Some v -> terms := (v, F.one) :: !terms | None -> ()
      done;
      Sx.add_constraint p !terms Sx.Leq F.zero;
      (* Caps: x_{i,j} <= δ_i·(C_j - C_{j-1}). *)
      for i = 0 to n - 1 do
        match x.(i).(j) with
        | Some v ->
          let d = I.effective_delta inst i in
          let terms = ref [ (v, F.one); (c.(j), F.neg d) ] in
          if j > 0 then terms := (c.(j - 1), d) :: !terms;
          Sx.add_constraint p !terms Sx.Leq F.zero
        | None -> ()
      done
    done;
    (* Volumes: Σ_j x_{i,j} = V_i. *)
    for i = 0 to n - 1 do
      let terms = ref [] in
      for j = 0 to pos.(i) do
        match x.(i).(j) with Some v -> terms := (v, F.one) :: !terms | None -> ()
      done;
      Sx.add_constraint p !terms Sx.Eq inst.tasks.(i).volume
    done;
    (* Objective: Σ_i w_i·C_{pos(i)}. Accumulate per column. *)
    let obj = Array.make n F.zero in
    for i = 0 to n - 1 do
      obj.(pos.(i)) <- F.add obj.(pos.(i)) inst.tasks.(i).weight
    done;
    Sx.set_objective p (List.init n (fun j -> (c.(j), obj.(j))));
    match Sx.solve p with
    | Sx.Infeasible | Sx.Unbounded -> None
    | Sx.Optimal { objective; values; _ } ->
      let finish = Array.map (fun (v : Sx.var) -> values.((v :> int))) c in
      let columns =
        Array.init n (fun j ->
            let len = F.sub finish.(j) (if j = 0 then F.zero else finish.(j - 1)) in
            if F.sign len > 0 && not (F.equal_approx len F.zero) then begin
              let col = ref [] in
              for i = n - 1 downto 0 do
                match x.(i).(j) with
                | Some v ->
                  let a = F.div values.((v :> int)) len in
                  if F.sign a <> 0 then col := (i, a) :: !col
                | None -> ()
              done;
              !col
            end
            else [])
      in
      Some (objective, { instance = inst; order = Array.copy pi; finish; columns })

  (** Exact global optimum by enumerating all completion orders.
      Exponential: guarded to [n <= max_tasks] (default 8). The first
      order in enumeration order wins unless a later one is smaller
      beyond the field's tolerance ([leq_approx]; [<=] on exact
      fields): when two orders tie exactly, float rounding below that
      absolute tolerance keeps the order the exact field keeps. *)
  let optimal ?(max_tasks = 8) (inst : instance) : F.t * column_schedule =
    let n = I.num_tasks inst in
    if n = 0 then invalid_arg "Lp_schedule.optimal: empty instance";
    if n > max_tasks then
      invalid_arg (Printf.sprintf "Lp_schedule.optimal: %d tasks exceed the enumeration guard %d" n max_tasks);
    let best =
      Ord.fold_permutations n
        (fun best pi ->
          match optimal_for_order inst pi with
          | None -> best
          | Some (obj, sched) -> (
            match best with
            | Some (b, _) when F.leq_approx b obj -> best
            | _ -> Some (obj, sched)))
        None
    in
    match best with
    | Some r -> r
    | None -> invalid_arg "Lp_schedule.optimal: no feasible order (invalid instance?)"

  (** Best greedy schedule over all insertion orders (the quantity the
      Section V-A experiment compares against the optimum); ties are
      kept as in {!optimal}. *)
  let best_greedy ?(max_tasks = 8) (inst : instance) : F.t * int array =
    let module G = Greedy.Make (F) in
    let n = I.num_tasks inst in
    if n > max_tasks then
      invalid_arg (Printf.sprintf "Lp_schedule.best_greedy: %d tasks exceed the enumeration guard %d" n max_tasks);
    let best =
      Ord.fold_permutations n
        (fun best sigma ->
          let obj = G.objective inst sigma in
          match best with
          | Some (b, _) when F.leq_approx b obj -> best
          | _ -> Some (obj, Array.copy sigma))
        None
    in
    match best with Some r -> r | None -> assert false
end
