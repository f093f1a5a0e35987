(** Instance construction and elementary per-task quantities
    (Definition 1 of the paper, generalized with per-task concave
    speedup curves and allocation capacities). *)

module Make (F : Mwct_field.Field.S) : sig
  (** Conversion of a spec rational. *)
  val of_rat : Spec.rat -> F.t

  (** Convert a field-neutral {!Spec.t} (validated) into a field
      instance. Per-task [capacity] clauses are folded into the rate
      model: a linear task's delta is clamped, a curve is truncated at
      the capacity. Raises [Invalid_argument] on invalid specs. *)
  val of_spec : Spec.t -> Types.Make(F).instance

  (** Build directly from field values. *)
  val make : procs:F.t -> Types.Make(F).task list -> Types.Make(F).instance

  (** Task constructor; [weight] defaults to [1], [speedup] to the
      linear law, [deps] to no precedence parents. *)
  val task :
    ?weight:F.t ->
    ?speedup:Types.Make(F).speedup ->
    ?deps:int array ->
    volume:F.t ->
    delta:F.t ->
    unit ->
    Types.Make(F).task

  val num_tasks : Types.Make(F).instance -> int

  (** True iff any task has a non-linear rate law. *)
  val has_curves : Types.Make(F).instance -> bool

  (** True iff any task has a precedence parent. *)
  val has_deps : Types.Make(F).instance -> bool

  (** Structural validity over the field: everything strictly positive,
      [δ_i >= 1], well-formed speedup curves. Deltas above [P] are
      allowed (they act as [P]). *)
  val validate : Types.Make(F).instance -> (unit, string) result

  (** Total work [Σ V_i]. *)
  val total_volume : Types.Make(F).instance -> F.t

  (** Total weight [Σ w_i]. *)
  val total_weight : Types.Make(F).instance -> F.t

  (** Effective parallelism cap [min δ_i P] of task [k] — the
      allocation bound, identical under both rate laws. *)
  val effective_delta : Types.Make(F).instance -> int -> F.t

  (** Progress rate of task [k] at allocation [a]: [a] itself under
      the linear law, the piecewise-linear speedup otherwise. *)
  val rate_at : Types.Make(F).instance -> int -> F.t -> F.t

  (** Minimal allocation giving task [k] rate [r] (clamped to the
      achievable range); inverse of {!rate_at}. *)
  val inverse_rate : Types.Make(F).instance -> int -> F.t -> F.t

  (** Highest rate of task [k] on this machine:
      [rate_at k (effective_delta k)]. *)
  val max_rate : Types.Make(F).instance -> int -> F.t

  (** Speedup breakpoints of task [k], or [None] for the linear law —
      the runtime engine's submission format. *)
  val speedup_arrays : Types.Make(F).instance -> int -> (F.t array * F.t array) option

  (** Evaluate a raw breakpoint curve (as returned by
      {!speedup_arrays}) at an allocation. *)
  val curve_rate : F.t array * F.t array -> F.t -> F.t

  (** Child adjacency of the dependency DAG, in index order. *)
  val dep_children : Types.Make(F).instance -> int list array

  (** A canonical topological order (parents before children,
      lowest index first among ready tasks). Raises
      [Invalid_argument] on a cyclic edge set. *)
  val topo_order : Types.Make(F).instance -> int array

  (** DAG level of every task ([0] = no parents). *)
  val levels : Types.Make(F).instance -> int array

  (** Height [h_k = V_k / max_rate k] (Definition 6;
      [V_k / min(δ_k, P)] under the linear law). *)
  val height : Types.Make(F).instance -> int -> F.t

  (** Smith ratio [V_k / w_k]. *)
  val smith_ratio : Types.Make(F).instance -> int -> F.t

  (** [sub_instance i volumes] is the paper's subinstance [I[V'_i]]:
      same tasks, modified volumes (zero volumes allowed). *)
  val sub_instance : Types.Make(F).instance -> F.t array -> Types.Make(F).instance

  (** One-line rendering for logs. *)
  val to_string : Types.Make(F).instance -> string
end
