(** One-stop instantiation of the whole scheduling core over a field.

    [Engine.Make (F)] assembles every module of the library applied to
    the same field, so all types line up (functor applications are
    applicative). Two engines are pre-applied:

    - {!Float} — IEEE doubles, for large experiment batches;
    - {!Exact} — arbitrary-precision rationals, for exact verification
      (the analogue of the paper's Sage checks).

    Typical use:
    {[
      module E = Mwct_core.Engine.Float
      let inst = E.Instance.of_spec spec
      let schedule = E.Wdeq.wdeq inst
      let obj = E.Schedule.weighted_completion_time schedule
    ]} *)

module Make (F : Mwct_field.Field.S) = struct
  module Field = F
  module Types = Types.Make (F)
  module Instance = Instance.Make (F)
  module Schedule = Schedule.Make (F)
  module Water_filling = Water_filling.Make (F)
  module Greedy = Greedy.Make (F)
  module Wdeq = Wdeq.Make (F)
  module Lower_bounds = Lower_bounds.Make (F)
  module Preemption = Preemption.Make (F)
  module Integerize = Integerize.Make (F)
  module Assignment = Assignment.Make (F)
  module Orderings = Orderings.Make (F)
  module Lp_schedule = Lp_schedule.Make (F)
  module Makespan = Makespan.Make (F)
  module Lateness = Lateness.Make (F)
  module Release_dates = Release_dates.Make (F)
  module Single_machine = Single_machine.Make (F)
  module Homogeneous = Homogeneous.Make (F)
  module Render = Render.Make (F)
  module Moldable = Moldable.Make (F)
end

module Float = Make (Mwct_field.Field.Float_field)
module Exact = Make (Mwct_rational.Rational.Rat_field)
