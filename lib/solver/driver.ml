(** Uniform solver execution: run any registered solver and get one
    [report] — schedule, objective, makespan, the [A(I)]/[H(I)] lower
    bounds, ratio-to-bound, the structured {!Mwct_core.Schedule.Make.check}
    verdict and wall-clock timing. Every consumer (CLI, experiments,
    bench, tests) reads the same record instead of re-deriving the
    quantities by hand. *)

module Make (F : Mwct_field.Field.S) = struct
  module S = Solver.Make (F)
  module E = S.E

  type report = {
    solver : Solver.info;
    schedule : E.Types.column_schedule;
    meta : S.meta;
    objective : F.t;  (** [Σ w_i C_i] of the schedule *)
    makespan : F.t;
    squashed_area : F.t;  (** [A(I)] (Definition 5) *)
    height_bound : F.t;  (** [H(I)] (Definition 6) *)
    lower_bound : F.t;  (** [max (A(I)) (H(I))] — a bound on OPT *)
    ratio_to_bound : float option;
        (** [objective / lower_bound] as a float; [None] when the bound
            is zero (empty instances) *)
    check : (unit, E.Schedule.violation) result;
    elapsed_s : float;  (** wall-clock seconds spent in [solve] *)
  }

  (** Raised by {!run} when a solver is asked to schedule an instance
      outside its model — speedup curves without the
      {!Solver.General_speedup} capability, or dependency edges without
      {!Solver.Dag}. The message names both. *)
  exception Unsupported_model of string

  (** [supports solver inst]: can [solver] run on [inst]'s model?
      Linear independent instances run everywhere; curved instances
      need {!Solver.General_speedup}, precedence-constrained ones
      {!Solver.Dag}. *)
  let supports (solver : S.t) (inst : E.Types.instance) =
    ((not (E.Instance.has_curves inst)) || S.has_cap Solver.General_speedup solver)
    && ((not (E.Instance.has_deps inst)) || S.has_cap Solver.Dag solver)

  (** Run [solver] on [inst]. [~exact:true] makes the validity check
      strict (use with the rational engine). Only the [solve] call is
      timed; bounds and the check are recomputed outside the clock.
      Raises {!Unsupported_model} when the instance's model (speedup
      curves, dependency edges) exceeds the solver's capabilities. *)
  let run ?(exact = false) (solver : S.t) (inst : E.Types.instance) : report =
    if not (supports solver inst) then begin
      let caps =
        match Solver.caps_to_string solver.S.info with "" -> "-" | s -> s
      in
      let msg =
        if E.Instance.has_deps inst && not (S.has_cap Solver.Dag solver) then
          Printf.sprintf
            "algorithm %S does not handle precedence (caps: %s); this instance has dependency \
             edges — pick a dag-capable algorithm"
            solver.S.info.Solver.name caps
        else
          Printf.sprintf
            "algorithm %S supports only the linear rate model (caps: %s); this instance has \
             speedup curves — pick a general-speedup algorithm"
            solver.S.info.Solver.name caps
      in
      raise (Unsupported_model msg)
    end;
    let t0 = Unix.gettimeofday () in
    let schedule, meta = solver.S.solve inst in
    let elapsed_s = Unix.gettimeofday () -. t0 in
    let objective = E.Schedule.weighted_completion_time schedule in
    let squashed_area = E.Lower_bounds.squashed_area inst in
    let height_bound = E.Lower_bounds.height_bound inst in
    let lower_bound = F.max squashed_area height_bound in
    let ratio_to_bound =
      if F.sign lower_bound > 0 then Some (F.to_float objective /. F.to_float lower_bound) else None
    in
    {
      solver = solver.S.info;
      schedule;
      meta;
      objective;
      makespan = E.Schedule.makespan schedule;
      squashed_area;
      height_bound;
      lower_bound;
      ratio_to_bound;
      check = E.Schedule.check ~exact schedule;
      elapsed_s;
    }

  let valid (r : report) = match r.check with Ok () -> true | Error _ -> false

  (* ---------- JSON report ---------- *)

  (** Machine-readable report. [~engine] labels the arithmetic
      ("float" / "exact"); numeric fields carry both a decimal [float]
      rendering ([null] when not finite) and the field's own [*_repr]
      string (exact rationals survive the round trip). Strings and
      numbers are rendered by the runtime's JSON encoder
      ({!Mwct_runtime.Json_out}); the layout, one member per line, is
      this report's own. Timing is the only non-deterministic field. *)
  let to_json ~engine (r : report) : string =
    let n = Array.length r.schedule.E.Types.instance.E.Types.tasks in
    (* Per-task completion times in task-index order: task [order.(j)]
       completes at [finish.(j)]. *)
    let completions =
      let c = Array.make n F.zero in
      Array.iteri (fun j ti -> c.(ti) <- r.schedule.E.Types.finish.(j)) r.schedule.E.Types.order;
      Array.to_list c
    in
    let quote s =
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      Mwct_runtime.Json_out.add_escaped b s;
      Buffer.add_char b '"';
      Buffer.contents b
    in
    let num = Mwct_runtime.Json_out.number in
    let array f xs = "[" ^ String.concat ", " (List.map f xs) ^ "]" in
    let fields =
      [
        ("algo", quote r.solver.Solver.name);
        ("caps", array (fun c -> quote (Solver.cap_to_string c)) r.solver.Solver.caps);
        ("engine", quote engine);
        ("tasks", string_of_int n);
        ("procs", num (F.to_float r.schedule.E.Types.instance.E.Types.procs));
        ("objective", num (F.to_float r.objective));
        ("objective_repr", quote (F.to_string r.objective));
        ("makespan", num (F.to_float r.makespan));
        ("makespan_repr", quote (F.to_string r.makespan));
        ("completions", array (fun c -> num (F.to_float c)) completions);
        ("completions_repr", array (fun c -> quote (F.to_string c)) completions);
        ("squashed_area", num (F.to_float r.squashed_area));
        ("height_bound", num (F.to_float r.height_bound));
        ("lower_bound", num (F.to_float r.lower_bound));
        ("ratio_to_bound", match r.ratio_to_bound with Some x -> num x | None -> "null");
        ("valid", string_of_bool (valid r));
        ( "violation",
          match r.check with
          | Ok () -> "null"
          | Error v -> quote (E.Schedule.violation_to_string v) );
        ("elapsed_s", num r.elapsed_s);
      ]
    in
    "{\n"
    ^ String.concat ",\n" (List.map (fun (k, v) -> Printf.sprintf "  \"%s\": %s" k v) fields)
    ^ "\n}\n"
end

(** Pre-applied drivers over the two standard engines. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
