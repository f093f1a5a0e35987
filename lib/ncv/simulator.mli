(** Event-driven non-clairvoyant simulator with task arrivals.

    Generalizes the core WDEQ simulation: tasks arrive at release
    dates; shares are recomputed at every arrival and completion.
    Policies never see volumes (the simulator uses them only to locate
    completion events), preserving non-clairvoyance. *)

module Make (F : Mwct_field.Field.S) : sig
  module T : module type of Mwct_core.Types.Make (F)
  module P : module type of Policy.Make (F)

  type event = Arrival of int | Completion of int

  type record = {
    release : F.t;
    completion : F.t;
    segments : (F.t * F.t * F.t) list;
        (** chronological piecewise-constant rates [(from, to, share)] *)
  }

  type trace = {
    instance : T.instance;
    policy : P.t;
    events : (F.t * event) list;  (** chronological *)
    records : record array;
  }

  (** Simulate to completion. [releases] defaults to all zeros. *)
  val run : ?releases:F.t array -> T.instance -> P.t -> trace

  (** Zero-release column run of a policy, precedence edges included:
      every task submitted at time 0 (its edges as engine deps), one
      column per completion instant with the running shares by
      ascending id, simultaneous completions ordered by index (the
      first carries the column). Raises [Invalid_argument] on a refused
      submit, a deadlock or a stall. *)
  val schedule : T.instance -> P.t -> T.column_schedule

  (** [Σ w_i C_i]. *)
  val weighted_completion_time : trace -> F.t

  (** [Σ w_i (C_i − r_i)]. *)
  val weighted_flow_time : trace -> F.t

  val makespan : trace -> F.t

  (** Integrated rate per task (equals the volumes). *)
  val processed_volume : trace -> F.t array

  (** Validity: caps, capacity at every instant, no work before
      release, volume conservation. *)
  val check : trace -> (unit, string) result

  (** Collapse a zero-release trace to a column schedule for the core
      checkers. *)
  val to_column_schedule : trace -> T.column_schedule
end

(** Pre-applied engines. *)
module Float : module type of Make (Mwct_field.Field.Float_field)

module Exact : module type of Make (Mwct_rational.Rational.Rat_field)
