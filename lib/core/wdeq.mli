(** WDEQ — Weighted Dynamic EQuipartition (Algorithm 1, Section III),
    the paper's non-clairvoyant 2-approximation (Theorem 4), simulated
    on clairvoyant instances (volumes are used only to locate the next
    completion event). On precedence-constrained instances the same
    loop shares the platform over the ready frontier (after
    Garg–Gupta–Kumar–Singla, arXiv:1905.02133).

    {!frontier} is the library's one generic clipping-frontier kernel:
    {!shares}, the simulation loop and the non-clairvoyant policies of
    [Mwct_ncv.Policy] all call it. *)

module Make (F : Mwct_field.Field.S) : sig
  (** The Lemma 2 volume split: volume processed at full allocation
      ([full_volume], the paper's [VF]) and volume processed while
      limited by equipartition ([limited_volume], [VF̄]); the two sum
      to [V_i]. Read off a schedule by {!split}. *)
  type diagnostics = { full_volume : F.t array; limited_volume : F.t array }

  (** The clipping frontier of Algorithm 1 over one pool.
      [idx.(0..m-1)] lists the pool in ascending saturation ratio
      [cap/weight] with ties broken by id; [r] and [w] are the pool's
      residual capacity and weight; [weight] and [cap] are indexed by
      the entries of [idx]; [pd] and [pw] are scratch of length
      [>= m+1]. Writes [share.(idx.(k))] for every [k < m]: the first
      tasks of the order clipped at their caps, the rest sharing the
      residual in proportion to weight. *)
  val frontier :
    r:F.t ->
    w:F.t ->
    m:int ->
    idx:int array ->
    weight:F.t array ->
    cap:F.t array ->
    pd:F.t array ->
    pw:F.t array ->
    share:F.t array ->
    unit

  (** One round of Algorithm 1: shares for the alive tasks, given
      [(index, weight, delta)] triples. Total shares never exceed [p].
      [O(n log n)]: sort by the saturation ratio [δ/w], then binary
      search the clipping frontier over prefix sums. *)
  val shares : p:F.t -> (int * F.t * F.t) list -> (int * F.t) list

  (** The seed's iterative [List.partition] fixpoint ([O(n²)] worst
      case), kept as ground truth for equivalence tests. Computes the
      same shares as {!shares} (identical over exact fields; the list
      order may differ). *)
  val shares_reference : p:F.t -> (int * F.t * F.t) list -> (int * F.t) list

  (** Simulate a dynamic-equipartition run to completion with the
      field-generic loop. [~use_weights:false] gives DEQ (the
      unweighted policy of Deng et al.). With dependency edges the pool
      at each event is the ready frontier (alive tasks whose parents
      have all completed). The solver registry runs curve-free
      instances on the online engine; this loop runs curved ones and
      is the oracle the engine drain is tested against. *)
  val simulate_reference : ?use_weights:bool -> Types.Make(F).instance -> Types.Make(F).column_schedule

  (** Lemma 2's split of a schedule of the instance it carries: a
      column entry whose share equals the task's effective cap (up to
      the field's tolerance) is full volume, any other is limited; its
      volume is the task's rate at the share times the column length. *)
  val split : Types.Make(F).column_schedule -> diagnostics

  (** WDEQ (weighted shares); frontier-WDEQ on a DAG. *)
  val wdeq : Types.Make(F).instance -> Types.Make(F).column_schedule

  (** DEQ: unweighted shares (frontier-DEQ on a DAG); the objective can
      still be evaluated with the instance's weights. *)
  val deq : Types.Make(F).instance -> Types.Make(F).column_schedule
end
