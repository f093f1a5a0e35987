(* Quickstart: build a malleable instance, schedule it with every
   algorithm in the library, and compare objectives against the exact
   optimum and the lower bounds.

   Run with:  dune exec examples/quickstart.exe *)

module E = Mwct_core.Engine.Float
module Spec = Mwct_core.Spec
module Tablefmt = Mwct_util.Tablefmt

let () =
  (* Four processors; a mix of wide and narrow tasks.
     volume, weight, parallelism cap. *)
  let spec =
    Spec.make ~procs:4
      [
        Spec.task ~volume:(Spec.rat 6 1) ~weight:(Spec.rat 3 1) ~delta:4 ();
        Spec.task ~volume:(Spec.rat 2 1) ~weight:(Spec.rat 1 1) ~delta:1 ();
        Spec.task ~volume:(Spec.rat 4 1) ~weight:(Spec.rat 2 1) ~delta:2 ();
        Spec.task ~volume:(Spec.rat 1 1) ~weight:(Spec.rat 4 1) ~delta:2 ();
      ]
  in
  let inst = E.Instance.of_spec spec in
  Printf.printf "Instance: %s\n\n" (Spec.to_string spec);

  let objective = E.Schedule.weighted_completion_time in
  let table = Tablefmt.create ~title:"weighted completion time by algorithm" [ "algorithm"; "objective"; "makespan"; "valid" ] in
  Tablefmt.set_align table [ Tablefmt.Left; Tablefmt.Right; Tablefmt.Right; Tablefmt.Left ];
  let row name s =
    Tablefmt.add_row table
      [
        name;
        Printf.sprintf "%.4f" (objective s);
        Printf.sprintf "%.4f" (E.Schedule.makespan s);
        string_of_bool (E.Schedule.is_valid s);
      ]
  in

  (* Non-clairvoyant: WDEQ (the paper's 2-approximation). *)
  let wdeq = E.Wdeq.wdeq inst in
  row "WDEQ (non-clairvoyant)" wdeq;

  (* DEQ ignores weights. *)
  let deq = E.Wdeq.deq inst in
  row "DEQ (unweighted shares)" deq;

  (* Clairvoyant greedy with Smith's order. *)
  let smith = E.Greedy.run inst (E.Orderings.smith inst) in
  row "Greedy(Smith order)" smith;

  (* Exact optimum: Corollary-1 LP over all completion orders. *)
  let opt_obj, opt = E.Lp_schedule.optimal inst in
  row "Optimal (LP enumeration)" opt;
  Tablefmt.print table;

  Printf.printf "Lower bounds: A(I) = %.4f, H(I) = %.4f\n"
    (E.Lower_bounds.squashed_area inst)
    (E.Lower_bounds.height_bound inst);
  Printf.printf "WDEQ / OPT = %.4f  (Theorem 4 guarantees <= 2)\n\n"
    (objective wdeq /. opt_obj);

  (* Normal form: rebuild the optimal schedule from its completion
     times only (Algorithm WF), then count preemptions after
     integerization (Theorems 9 and 10). *)
  let normal = E.Water_filling.normalize opt in
  Printf.printf "Normal form preserves the objective: %.4f\n" (objective normal);
  Printf.printf "Allocation changes (fractional): %d  (Theorem 9: <= n = %d)\n"
    (E.Preemption.total_changes normal)
    (Array.length inst.E.Types.tasks);
  let integer_schedule, _ = E.Integerize.of_columns normal in
  let gantt = E.Assignment.assign integer_schedule in
  Printf.printf "Preemptions (integer processors): %d  (Theorem 10: <= 3n = %d)\n"
    (E.Assignment.preemptions gantt)
    (3 * Array.length inst.E.Types.tasks)
