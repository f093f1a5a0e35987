(** Non-clairvoyant allocation policies: what a runtime that cannot see
    remaining volumes can decide at each instant. *)

module Make (F : Mwct_field.Field.S) : sig
  (** What a policy observes about one alive task: the engine's view
      record, so the engine hands its views to {!shares} as they are. *)
  type view = Mwct_runtime.Engine.Make(F).view = { id : int; weight : F.t; cap : F.t }

  (** [Wdeq] — Algorithm 1 of the paper (weighted equipartition with
      cap clipping and surplus redistribution); [Deq] — its unweighted
      special case; [Equi] — plain [P/n] clipped to the cap, surplus
      wasted; [Priority_weight] — heaviest tasks first up to their
      caps. *)
  type t = Wdeq | Deq | Equi | Priority_weight

  val name : t -> string

  (** All policies, for sweeps. *)
  val all : t list

  (** Lookup by {!name}; [None] for unknown names. *)
  val of_name : string -> t option

  (** [shares policy ~capacity views]: one share per alive id;
      non-negative, within caps, summing to at most [capacity]. *)
  val shares : t -> capacity:F.t -> view list -> (int * F.t) list

  (** The policy as the online runtime's share function (the engine's
      pluggable policy slot): {!shares} itself. *)
  val engine_policy : t -> capacity:F.t -> view list -> (int * F.t) list

  (** The incremental (kinetic) WDEQ/DEQ rule for the engine's
      [?kinetic] slot, with a fresh state per call (states are
      per-engine): the saturation-ratio order kept sorted across task
      arrivals and departures, so each reshare is a set of linear
      sweeps over flat float columns. Bit-identical to {!shares} by
      contract; the list rule stays the oracle in the differential
      tests. [None] for Equi and Priority_weight, and on every field
      but float: exact engines reshare through {!shares}. *)
  val engine_kinetic : t -> Mwct_runtime.Engine.Make(F).kinetic option
end
