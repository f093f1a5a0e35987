(* mwct — command-line front end.

   Subcommands:
     solve       schedule an instance file with a registered algorithm
     experiment  regenerate one of the paper's experiments (or all)
     gen         generate a random instance in the Spec_io format
     bounds      print the lower bounds and the optimal makespan
     render      ASCII/SVG Gantt chart of a schedule
     simulate    non-clairvoyant policies under task arrivals
     serve       long-lived online scheduler driven by an event stream
     whatif      what-if replanning: fork a recorded run and price branches
     fuzz        theorem-backed conformance fuzzing of the solver registry

   Algorithm dispatch goes through the solver registry
   (Mwct_solver.Solver): `solve`, `render` and `--list-algos` all read
   the same list, so a newly registered solver is immediately
   available here with no per-algorithm match arms.

   Exit codes (uniform across subcommands):
     0  success
     1  the computed schedule/trace failed validation
     2  bad input (unreadable/malformed instance file, bad arguments)
   (cmdliner itself exits 124 on command-line parse errors.) *)

open Cmdliner
module Spec = Mwct_core.Spec
module Spec_io = Mwct_core.Spec_io
module Solver = Mwct_solver.Solver
module Driver = Mwct_solver.Driver
module G = Mwct_workload.Generator
module Rng = Mwct_util.Rng

let exit_invalid = 1
let exit_bad_input = 2

(* "error: MSG" on stderr, then exit 2 (bad input). *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "error: %s\n" msg;
      exit exit_bad_input)
    fmt

let load_spec path =
  match Spec_io.load path with Ok spec -> spec | Error msg -> fail "%s: %s" path msg

(* ---------- solve ---------- *)

(* The algorithm argument is the registry's name list — registering a
   solver extends the CLI automatically. *)
let algo_conv = Arg.enum (List.map (fun n -> (n, n)) Solver.names)

let algo_arg ~default =
  Arg.(
    value
    & opt algo_conv default
    & info [ "a"; "algo" ] ~docv:"ALGO"
        ~doc:
          (Printf.sprintf "Algorithm: %s (see --list-algos)."
             (String.concat ", " (List.map (fun n -> "$(b," ^ n ^ ")") Solver.names))))

let list_algos_string () =
  let b = Buffer.create 512 in
  List.iter
    (fun (i : Solver.info) ->
      Buffer.add_string b
        (Printf.sprintf "%-14s %-40s %s\n" i.Solver.name
           (match Solver.caps_to_string i with "" -> "-" | s -> s)
           i.Solver.doc))
    Solver.infos;
  Buffer.contents b

(* The one polymorphic runner that replaced the per-engine
   run_float/run_exact copies: everything algorithm- or
   field-dependent comes from the registry and the field packed in
   [D]; only the number formatting is a parameter (the float engine
   prints fixed-point, the exact engine prints exact rationals). *)
module Solve_runner (D : sig
  module F : Mwct_field.Field.S

  val fmt : F.t -> string
  val engine : string
  val exact_check : bool
end) =
struct
  module Dr = Driver.Make (D.F)
  module E = Dr.E

  let run spec algo ~json =
    let inst = E.Instance.of_spec spec in
    let solver = match Dr.S.find algo with Some s -> s | None -> fail "unknown algorithm %S" algo in
    if not (Dr.supports solver inst) then begin
      let names_with cap =
        String.concat ", "
          (List.filter_map
             (fun (i : Solver.info) ->
               if Solver.info_has_cap cap i then Some i.Solver.name else None)
             Solver.infos)
      in
      if E.Instance.has_deps inst && not (Solver.info_has_cap Solver.Dag solver.Dr.S.info) then
        fail
          "algorithm %S does not handle precedence; this instance has dependency edges (try one \
           of: %s)"
          algo (names_with Solver.Dag)
      else
        fail
          "algorithm %S supports only the linear rate model; this instance has speedup curves \
           (try one of: %s)"
          algo
          (names_with Solver.General_speedup)
    end;
    let r = Dr.run ~exact:D.exact_check solver inst in
    if json then print_string (Dr.to_json ~engine:D.engine r)
    else begin
      print_string (E.Schedule.to_string r.Dr.schedule);
      Printf.printf "objective (sum w.C) = %s\nmakespan = %s\nvalid = %b\n" (D.fmt r.Dr.objective)
        (D.fmt r.Dr.makespan) (Dr.valid r)
    end;
    match r.Dr.check with
    | Ok () -> 0
    | Error v ->
      Printf.eprintf "error: invalid schedule: %s\n" (E.Schedule.violation_to_string v);
      exit_invalid
end

module Run_float = Solve_runner (struct
  module F = Mwct_field.Field.Float_field

  let fmt = Printf.sprintf "%.6f"
  let engine = "float"
  let exact_check = false
end)

module Run_exact = Solve_runner (struct
  module F = Mwct_rational.Rational.Rat_field

  let fmt = Mwct_rational.Rational.to_string
  let engine = "exact"
  let exact_check = true
end)

let solve_cmd =
  let file = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file (Spec_io format).") in
  let algo = algo_arg ~default:"wdeq" in
  let exact = Arg.(value & flag & info [ "exact" ] ~doc:"Use exact rational arithmetic.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the full report as JSON instead of text.") in
  let list_algos = Arg.(value & flag & info [ "list-algos" ] ~doc:"List the registered algorithms and exit.") in
  let run file algo exact json list_algos =
    if list_algos then begin
      print_string (list_algos_string ());
      exit 0
    end;
    let file = match file with Some f -> f | None -> fail "FILE required (or --list-algos)" in
    let spec = load_spec file in
    exit (if exact then Run_exact.run spec algo ~json else Run_float.run spec algo ~json)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Schedule an instance and print the column schedule (exit 0) or report an invalid schedule \
          (exit 1); exit 2 on bad input.")
    Term.(const run $ file $ algo $ exact $ json $ list_algos)

(* ---------- experiment ---------- *)

let experiment_cmd =
  let exp_name =
    Arg.(value & pos 0 string "all" & info [] ~docv:"NAME"
           ~doc:(Printf.sprintf "Experiment id or 'all'. Ids: %s." (String.concat ", " Mwct_experiments.Experiments.names)))
  in
  let full = Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale sample sizes (slow).") in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an aligned table.") in
  let run exp_name full csv =
    let scale = if full then Mwct_experiments.Experiments.Full else Mwct_experiments.Experiments.Quick in
    let emit table =
      if csv then print_string (Mwct_util.Tablefmt.to_csv table) else Mwct_util.Tablefmt.print table
    in
    if exp_name = "all" then
      if csv then
        List.iter
          (fun name ->
            match Mwct_experiments.Experiments.by_name name with
            | Some f ->
              Printf.printf "# %s\n" name;
              emit (f scale)
            | None -> ())
          Mwct_experiments.Experiments.names
      else Mwct_experiments.Experiments.run_all scale
    else begin
      match Mwct_experiments.Experiments.by_name exp_name with
      | Some f -> emit (f scale)
      | None ->
        Printf.eprintf "unknown experiment %S; known: %s\n" exp_name
          (String.concat ", " Mwct_experiments.Experiments.names);
        exit exit_bad_input
    end
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate one of the paper's experiments.")
    Term.(const run $ exp_name $ full $ csv)

(* ---------- gen ---------- *)

let gen_cmd =
  let kind =
    Arg.(value & opt (enum [ ("uniform", `U); ("unweighted", `Uw); ("wide", `W); ("unit", `Unit); ("mixed", `M) ]) `U
         & info [ "kind" ] ~docv:"KIND" ~doc:"Family: uniform, unweighted, wide, unit, mixed.")
  in
  let procs = Arg.(value & opt int 4 & info [ "procs" ] ~docv:"P" ~doc:"Processors.") in
  let tasks = Arg.(value & opt int 5 & info [ "tasks" ] ~docv:"N" ~doc:"Tasks.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let run kind procs tasks seed =
    let rng = Rng.create seed in
    let spec =
      match kind with
      | `U -> G.uniform rng ~procs ~n:tasks ()
      | `Uw -> G.uniform_unweighted rng ~procs ~n:tasks ()
      | `W -> G.wide rng ~procs ~n:tasks ()
      | `Unit -> G.unit_tasks rng ~procs ~n:tasks ()
      | `M -> G.mixed rng ~procs ~n:tasks ()
    in
    print_string (Spec_io.to_string spec)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a random instance.") Term.(const run $ kind $ procs $ tasks $ seed)

(* ---------- bounds ---------- *)

let bounds_cmd =
  let module E = Run_float.E in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let run file =
    let spec = load_spec file in
    let inst = E.Instance.of_spec spec in
    Printf.printf "squashed area A(I) = %.6f\n" (E.Lower_bounds.squashed_area inst);
    Printf.printf "height bound H(I)  = %.6f\n" (E.Lower_bounds.height_bound inst);
    Printf.printf "optimal makespan   = %.6f\n" (E.Makespan.optimal inst);
    let n = Spec.num_tasks spec in
    if E.Instance.has_curves inst then
      print_string "optimal sum w.C    = (skipped: LP enumeration is linear-rate-model only)\n"
    else if E.Instance.has_deps inst then
      print_string "optimal sum w.C    = (skipped: LP enumeration ignores dependency edges)\n"
    else if n <= 7 then begin
      let opt = Solver.Float.objective "optimal" inst in
      Printf.printf "optimal sum w.C    = %.6f\n" opt
    end
    else Printf.printf "optimal sum w.C    = (skipped: %d tasks > enumeration guard)\n" n
  in
  Cmd.v (Cmd.info "bounds" ~doc:"Print lower bounds and the optimal makespan.") Term.(const run $ file)

(* ---------- render ---------- *)

let render_cmd =
  let module E = Run_float.E in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let algo = algo_arg ~default:"optimal" in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"PATH" ~doc:"Also write an SVG Gantt chart (integerized schedule) to PATH.") in
  let run file algo svg =
    let spec = load_spec file in
    let inst = E.Instance.of_spec spec in
    (* normalize/integerize assume rate = allocation; the Gantt wrap
       is meaningless under a speedup curve *)
    if E.Instance.has_curves inst then
      fail
        "render requires the linear rate model (the WF normal form and the McNaughton wrap \
         assume rate = allocation); this instance has speedup curves";
    (if E.Instance.has_deps inst then
       match Solver.find_info algo with
       | Some i when Solver.info_has_cap Solver.Dag i -> ()
       | _ -> fail "this instance has dependency edges; render it with a dag-capable algorithm");
    let schedule = fst (Solver.Float.solve_exn algo inst) in
    (* The WF normal form rebuilds columns from completion times alone,
       which freely reorders work across columns — valid for bags,
       precedence-violating for DAGs. Render dependency instances from
       the solver's own columns (the wrap below is per-column, so it
       respects precedence either way). *)
    let normal =
      if E.Instance.has_deps inst then schedule else E.Water_filling.normalize schedule
    in
    print_string (E.Render.columns_to_ascii normal);
    let integer_schedule, _ = E.Integerize.of_columns normal in
    let gantt = E.Assignment.assign integer_schedule in
    print_newline ();
    print_string (E.Render.gantt_to_ascii gantt);
    Printf.printf "objective = %.6f, preemptions = %d (3n = %d)\n"
      (E.Schedule.weighted_completion_time normal)
      (E.Assignment.preemptions gantt)
      (3 * Array.length inst.E.Types.tasks);
    match svg with
    | None -> ()
    | Some path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (E.Render.gantt_to_svg gantt));
      Printf.printf "SVG written to %s\n" path
  in
  Cmd.v (Cmd.info "render" ~doc:"Schedule an instance and render its Gantt chart (ASCII and optional SVG).")
    Term.(const run $ file $ algo $ svg)

(* ---------- simulate ---------- *)

let simulate_cmd =
  let module E = Run_float.E in
  let module Sim = Mwct_ncv.Simulator.Float in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Instance file.") in
  let policy =
    Arg.(value
         & opt (enum [ ("wdeq", Sim.P.Wdeq); ("deq", Sim.P.Deq); ("equi", Sim.P.Equi); ("priority", Sim.P.Priority_weight) ]) Sim.P.Wdeq
         & info [ "p"; "policy" ] ~docv:"POLICY" ~doc:"Policy: wdeq, deq, equi, priority.")
  in
  let releases =
    Arg.(value & opt (some string) None
         & info [ "releases" ] ~docv:"R1,R2,..." ~doc:"Comma-separated release dates (default: all 0).")
  in
  let run file policy releases =
    let spec = load_spec file in
    let inst = E.Instance.of_spec spec in
    if E.Instance.has_deps inst then
      fail
        "%s: simulate runs independent tasks, and this instance has precedence edges (solve \
         --algo wdeq-dag and serve model them)"
        file;
    let n = Array.length inst.E.Types.tasks in
    let releases =
      match releases with
      | None -> Array.make n 0.
      | Some s -> (
        let parts = List.map float_of_string_opt (String.split_on_char ',' s) in
        if List.exists Option.is_none parts || List.length parts <> n then
          fail "--releases needs %d comma-separated numbers" n;
        let releases = Array.of_list (List.map Option.get parts) in
        match Array.find_opt (fun r -> not (Float.is_finite r && r >= 0.)) releases with
        | Some r -> fail "--releases: %g is not a finite non-negative release date" r
        | None -> releases)
    in
    let tr = Sim.run ~releases inst policy in
    List.iter
      (fun (t, e) ->
        match e with
        | Sim.Arrival i -> Printf.printf "%10.4f  arrival    T%d\n" t i
        | Sim.Completion i -> Printf.printf "%10.4f  completion T%d\n" t i)
      tr.Sim.events;
    Printf.printf "sum w.C      = %.6f\n" (Sim.weighted_completion_time tr);
    Printf.printf "sum w.(C-r)  = %.6f\n" (Sim.weighted_flow_time tr);
    Printf.printf "makespan     = %.6f\n" (Sim.makespan tr);
    match Sim.check tr with
    | Ok () -> print_endline "trace valid  = true"
    | Error e ->
      Printf.printf "trace valid  = FALSE (%s)\n" e;
      exit exit_invalid
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a non-clairvoyant policy with optional task arrivals and print the event trace.")
    Term.(const run $ file $ policy $ releases)

(* ---------- policy gate ---------- *)

(* The registry gate for online policy names, shared by serve and
   whatif: a registry algorithm may drive the engine only if it is
   Non_clairvoyant; policy-only names (equi, priority-weight) pass
   through. [~dag:true] (whatif) also admits the frontier DAG
   policies, which run as their bag kernels: the engine's
   dormant-to-alive lifecycle already restricts the alive set to the
   precedence frontier they compute over. *)
module Gate (F : Mwct_field.Field.S) = struct
  module P = Mwct_ncv.Policy.Make (F)

  let resolve ?(dag = false) name : (P.t, string) result =
    let aliases = if dag then [ ("wdeq-dag", P.Wdeq); ("deq-dag", P.Deq) ] else [] in
    let known = String.concat ", " (List.map P.name P.all @ List.map fst aliases) in
    match Solver.find_info name with
    | Some i when not (Solver.info_has_cap Solver.Non_clairvoyant i) ->
      Error
        (Printf.sprintf
           "algorithm %S is registered but not non-clairvoyant (caps: %s); online policies: %s" name
           (match Solver.caps_to_string i with "" -> "-" | s -> s)
           known)
    | _ -> (
      match List.assoc_opt name aliases with
      | Some p -> Ok p
      | None -> (
        match P.of_name name with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown policy %S; known: %s" name known)))
end

(* ---------- serve ---------- *)

(* Long-lived online front end. The loop (text grammar and journal
   JSONL in; decisions, errors and metrics out) is Mwct_runtime.Serve;
   this runner validates the flags, opens the files and reads the
   lines. Output is deterministic (--latency only feeds the metrics
   histogram), so the golden CLI tests diff it byte for byte. *)
module Serve_runner (F : Mwct_field.Field.S) = struct
  module S = Mwct_runtime.Serve.Make (F)
  module G = Gate (F)

  let resolve name =
    Result.map
      (fun p -> { S.share = G.P.engine_policy p; kinetic = (fun () -> G.P.engine_kinetic p) })
      (G.resolve name)

  let run ~policy_name ~procs_str ~input ~record_path ~nshards ~tenant_key ~shard_cap_str ~latency :
      int =
    if nshards < 1 then fail "bad --shards value %d (need >= 1)" nshards;
    let route =
      match tenant_key with
      | "hash" -> S.St.Hash
      | "mod" -> S.St.Mod
      | other -> fail "bad --tenant-key value %S (hash or mod)" other
    in
    let positive what s =
      match F.of_repr s with Some c when F.sign c > 0 -> c | _ -> fail "bad --%s value %S" what s
    in
    let shard_cap = Option.map (positive "shard-cap") shard_cap_str in
    let policy = match resolve policy_name with Ok p -> p | Error msg -> fail "%s" msg in
    let capacity = positive "procs" procs_str in
    let opening f path = try f path with Sys_error msg -> fail "%s" msg in
    let ic = match input with None -> stdin | Some f -> opening open_in f in
    let record_oc = Option.map (opening open_out) record_path in
    let line_sink oc line =
      output_string oc line;
      output_char oc '\n';
      flush oc
    in
    (* Per-shard journal files (PATH.<k>) only exist for a sharded run
       (with one shard the merged journal IS the engine journal), and
       open with the store, whose init line is their first. *)
    let shard_ocs = ref [||] in
    let shard_sink =
      match record_path with
      | Some p when nshards > 1 ->
        Some
          (fun k line ->
            if Array.length !shard_ocs = 0 then
              shard_ocs :=
                Array.init nshards (fun k -> opening open_out (Printf.sprintf "%s.%d" p k));
            line_sink !shard_ocs.(k) line)
      | _ -> None
    in
    let sv =
      S.create ~resolve
        ~allocator:(G.P.engine_policy G.P.Wdeq)
        ?clock:(if latency then Some Unix.gettimeofday else None)
        ~out:print_endline
        ?merged_sink:(Option.map line_sink record_oc)
        ?shard_sink ?shard_cap ~nshards ~route ~capacity ~policy_label:policy_name ~policy ()
    in
    let rec loop () =
      match In_channel.input_line ic with
      | Some line when S.feed_line sv line = S.Continue -> loop ()
      | _ -> ()
    in
    loop ();
    S.finish sv;
    Option.iter close_out record_oc;
    Array.iter close_out !shard_ocs;
    if ic != stdin then close_in ic;
    0
end

module Serve_float = Serve_runner (Mwct_field.Field.Float_field)
module Serve_exact = Serve_runner (Mwct_rational.Rational.Rat_field)

let serve_cmd =
  let policy =
    Arg.(value & opt string "wdeq"
         & info [ "p"; "policy" ] ~docv:"POLICY"
             ~doc:
               "Online policy. Registry algorithms are admitted only with the non-clairvoyant \
                capability (wdeq, deq); policy-only names: equi, priority-weight.")
  in
  let procs =
    Arg.(value & opt string "4"
         & info [ "procs" ] ~docv:"P" ~doc:"Processor capacity (number, or p/q on the exact engine).")
  in
  let exact = Arg.(value & flag & info [ "exact" ] ~doc:"Use exact rational arithmetic.") in
  let journal =
    Arg.(value & opt (some file) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Read events from FILE (text commands or journal JSONL) instead of stdin.")
  in
  let record =
    Arg.(value & opt (some string) None
         & info [ "record" ] ~docv:"PATH"
             ~doc:"Append the run's journal (JSONL, replayable) to PATH.")
  in
  let no_segments =
    Arg.(value & flag
         & info [ "no-segments" ]
             ~doc:"Accepted and ignored: the engine records no per-task rate histories.")
  in
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:
               "Partition tasks across N engine shards re-budgeted each tick by a cross-shard \
                WDEQ allocator. N=1 is byte-identical to the unsharded engine.")
  in
  let tenant_key =
    Arg.(value & opt string "hash"
         & info [ "tenant-key" ] ~docv:"KEY"
             ~doc:
               "Shard routing: $(b,hash) (splitmix64 of the task id — spreads clustered tenant \
                ids) or $(b,mod) (id mod N).")
  in
  let shard_cap =
    Arg.(value & opt (some string) None
         & info [ "shard-cap" ] ~docv:"C"
             ~doc:"Per-shard budget ceiling (default: the full --procs capacity).")
  in
  let latency =
    Arg.(value & flag
         & info [ "latency" ]
             ~doc:
               "Record per-event service latency into the metrics histogram (lat_p50_us..p999). \
                Only the histogram is affected; decision output stays deterministic.")
  in
  let run policy procs exact journal record (_no_segments : bool) shards tenant_key shard_cap
      latency =
    exit
      (if exact then
         Serve_exact.run ~policy_name:policy ~procs_str:procs ~input:journal ~record_path:record
           ~nshards:shards ~tenant_key ~shard_cap_str:shard_cap ~latency
       else
         Serve_float.run ~policy_name:policy ~procs_str:procs ~input:journal ~record_path:record
           ~nshards:shards ~tenant_key ~shard_cap_str:shard_cap ~latency)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online scheduling engine as a long-lived process: events in (stdin or --journal), \
          decision/metrics JSONL out; --record writes a replayable journal (plus per-shard \
          journals PATH.N when sharded).")
    Term.(
      const run $ policy $ procs $ exact $ journal $ record $ no_segments $ shards $ tenant_key
      $ shard_cap $ latency)

(* ---------- whatif ---------- *)

(* What-if replanning on journals (DESIGN.md §16): replay a recorded
   journal (or a generated load) to a fork point, snapshot/fork the
   engine, run each branch's mutation set — policy switch, tenant load
   scaling, event injection — and price every branch against the
   straight line (ΔΣw·C, ΔΣw·(C−r), first divergence, per-tenant
   deltas). Policy names go through serve's registry gate, with the
   frontier DAG policies admitted. *)
module Whatif_runner (D : sig
  module F : Mwct_field.Field.S

  val fmt : F.t -> string
end) =
struct
  module En = Mwct_runtime.Engine.Make (D.F)
  module J = Mwct_runtime.Journal.Make (D.F)
  module B = Mwct_runtime.Branch.Make (D.F)
  module L = Mwct_runtime.Loadgen.Make (D.F)
  module G = Gate (D.F)

  let resolve_policy = G.resolve ~dag:true
  let resolve name = Result.to_option (Result.map G.P.engine_policy (resolve_policy name))

  let kinetic_for name =
    match resolve_policy name with Ok p -> G.P.engine_kinetic p | Error _ -> None

  let run ~journal ~pattern_str ~seed ~tenants ~nevents ~procs_str ~base_policy ~fork_at
      ~branch_specs ~drain ~emit_stream ~json : int =
    let capacity, policy_name, events =
      match journal with
      | Some path -> (
        match B.load_stream path with Ok stream -> stream | Error msg -> fail "%s: %s" path msg)
      | None ->
        let pattern =
          match L.pattern_of_string pattern_str with
          | Some p -> p
          | None -> fail "bad --loadgen pattern %S (burst, diurnal or adversarial)" pattern_str
        in
        let capacity =
          match D.F.of_repr procs_str with
          | Some p when D.F.sign p > 0 -> p
          | _ -> fail "bad --procs value %S" procs_str
        in
        if tenants <= 0 then fail "bad --tenants value %d" tenants;
        if nevents < 0 then fail "bad --events value %d" nevents;
        (capacity, base_policy, L.generate ~pattern ~seed ~tenants ~events:nevents ())
    in
    if emit_stream then begin
      let seq = ref 0 in
      let emit e =
        print_endline (J.to_line ~seq:!seq e);
        incr seq
      in
      emit (J.Init { capacity; policy = policy_name });
      List.iter (fun ev -> emit (J.Input ev)) events;
      0
    end
    else begin
      let specs =
        List.map (fun s -> match B.parse_spec s with Ok sp -> sp | Error m -> fail "%s" m) branch_specs
      in
      (match resolve_policy policy_name with Ok _ -> () | Error m -> fail "%s" m);
      List.iter
        (fun (sp : B.spec) ->
          List.iter
            (function
              | B.Set_policy p -> (
                match resolve_policy p with
                | Ok _ -> ()
                | Error m -> fail "branch %S: %s" sp.B.label m)
              | _ -> ())
            sp.B.mutations)
        specs;
      let events =
        if drain && (match List.rev events with En.Drain :: _ -> false | [] -> false | _ -> true)
        then events @ [ En.Drain ]
        else events
      in
      match
        B.run ~resolve ~kinetic_for ~tenants ~capacity ~policy:policy_name ~events ~fork_at
          ~branches:specs ()
      with
      | Error msg -> fail "%s" msg
      | Ok report ->
        if json then List.iter print_endline (B.report_jsonl report)
        else begin
          Printf.printf
            "baseline: sum w.C = %s  sum w.(C-r) = %s  (fork at %d of %d events, %d branches)\n"
            (D.fmt report.B.baseline_wc) (D.fmt report.B.baseline_wflow) report.B.fork_at
            (List.length events) (List.length report.B.branches);
          List.iter
            (fun (o : B.outcome) ->
              Printf.printf
                "branch %-16s policy=%-8s d(w.C)=%s d(w.flow)=%s first-divergence=%s applied=%d \
                 dropped=%d\n"
                o.B.label o.B.policy (D.fmt o.B.d_wc) (D.fmt o.B.d_wflow)
                (match o.B.first_divergence with None -> "-" | Some t -> D.fmt t)
                o.B.applied o.B.dropped)
            report.B.branches
        end;
        0
    end
end

module Whatif_float = Whatif_runner (struct
  module F = Mwct_field.Field.Float_field

  let fmt = Printf.sprintf "%.6f"
end)

module Whatif_exact = Whatif_runner (struct
  module F = Mwct_rational.Rational.Rat_field

  let fmt = Mwct_rational.Rational.to_string
end)

let whatif_cmd =
  let journal =
    Arg.(value & opt (some file) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Branch on this recorded journal (JSONL). Without it, a load is generated \
                   ($(b,--loadgen)).")
  in
  let loadgen =
    Arg.(value & opt string "burst"
         & info [ "loadgen" ] ~docv:"PATTERN"
             ~doc:"Generated arrival pattern when no journal is given: $(b,burst), $(b,diurnal) \
                   or $(b,adversarial) (deterministic in --seed).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Load-generator seed (SplitMix64).") in
  let tenants =
    Arg.(value & opt int 4
         & info [ "tenants" ] ~docv:"N"
             ~doc:"Tenant modulus: task id mod N names the tenant (load generation, scaling and \
                   per-tenant deltas).")
  in
  let nevents =
    Arg.(value & opt int 64 & info [ "events" ] ~docv:"N" ~doc:"Generated input events (before the trailing drain).")
  in
  let procs =
    Arg.(value & opt string "4"
         & info [ "procs" ] ~docv:"P" ~doc:"Processor capacity for generated loads (journals carry their own).")
  in
  let base_policy =
    Arg.(value & opt string "wdeq"
         & info [ "base-policy" ] ~docv:"NAME"
             ~doc:"Baseline policy for generated loads (journals carry their own). Gated through \
                   the registry like serve; wdeq-dag/deq-dag are admitted as their frontier \
                   kernels.")
  in
  let fork_at =
    Arg.(value & opt int 0
         & info [ "fork-at" ] ~docv:"N"
             ~doc:"Fork after the first N input events (default 0: branch from the initial state).")
  in
  let branch =
    Arg.(value & opt_all string []
         & info [ "branch" ] ~docv:"SPEC"
             ~doc:"Branch spec: LABEL[$(b,:)CLAUSE,...] with clauses $(b,policy=)NAME, \
                   $(b,scale=)TENANT:FACTOR, $(b,cancel=)ID, $(b,advance=)Q, \
                   $(b,submit=)ID:VOLUME:WEIGHT:CAP; numbers may be rational N/D. A bare LABEL \
                   is a straight-line branch. Repeatable.")
  in
  let switch_policy =
    Arg.(value & opt_all string []
         & info [ "p"; "policy" ] ~docv:"NAME"
             ~doc:"Shorthand for --branch policy-NAME:policy=NAME (switch the share rule at the \
                   fork). Repeatable.")
  in
  let scale_tenant =
    Arg.(value & opt_all string []
         & info [ "scale-tenant" ] ~docv:"T:K"
             ~doc:"Shorthand for --branch scale-T-K:scale=T:K — scale tenant T's post-fork \
                   volumes by K (e.g. 1:2 doubles tenant 1's load). Repeatable.")
  in
  let drain =
    Arg.(value & flag
         & info [ "drain" ]
             ~doc:"Append a drain to journal-loaded streams that do not already end in one \
                   (generated streams always drain).")
  in
  let emit_stream =
    Arg.(value & flag
         & info [ "emit-stream" ]
             ~doc:"Print the input stream as journal JSONL (init + in lines) and exit — the \
                   load generator's determinism surface.")
  in
  let exact = Arg.(value & flag & info [ "exact" ] ~doc:"Use exact rational arithmetic.") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the divergence report as JSONL.") in
  let run journal loadgen seed tenants nevents procs base_policy fork_at branch switch_policy
      scale_tenant drain emit_stream exact json =
    let sanitize = String.map (fun c -> if c = ':' || c = '/' then '-' else c) in
    let branch_specs =
      branch
      @ List.map (fun p -> Printf.sprintf "policy-%s:policy=%s" (sanitize p) p) switch_policy
      @ List.map (fun s -> Printf.sprintf "scale-%s:scale=%s" (sanitize s) s) scale_tenant
    in
    exit
      (if exact then
         Whatif_exact.run ~journal ~pattern_str:loadgen ~seed ~tenants ~nevents ~procs_str:procs
           ~base_policy ~fork_at ~branch_specs ~drain ~emit_stream ~json
       else
         Whatif_float.run ~journal ~pattern_str:loadgen ~seed ~tenants ~nevents ~procs_str:procs
           ~base_policy ~fork_at ~branch_specs ~drain ~emit_stream ~json)
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:
         "Replay a journal (or a generated load) to a fork point, fork the engine and price \
          what-if branches: policy switches, tenant load scaling, injected events — reporting \
          ΔΣw·C, ΔΣw·(C−r), first divergence and per-tenant deltas.")
    Term.(
      const run $ journal $ loadgen $ seed $ tenants $ nevents $ procs $ base_policy $ fork_at
      $ branch $ switch_policy $ scale_tenant $ drain $ emit_stream $ exact $ json)

(* ---------- fuzz ---------- *)

(* Theorem-backed conformance fuzzing (DESIGN.md §11): draw structural
   instances, run every capable registry solver on both engines against
   the oracle catalogue, shrink the first failure and print a one-line
   reproducer. Output is deterministic for a fixed (--seed, --cases)
   pair — the golden CLI tests rely on it — so timing never reaches
   stdout. *)

module Check_oracle = Mwct_check.Oracle
module Check_diff = Mwct_check.Differential
module Check_fuzz = Mwct_check.Fuzz

(* "30" = seconds; "30s" and "2m" also accepted. *)
let parse_budget s =
  let num part = float_of_string_opt part in
  let n = String.length s in
  if n = 0 then None
  else
    match s.[n - 1] with
    | 's' -> num (String.sub s 0 (n - 1))
    | 'm' -> Option.map (fun x -> x *. 60.) (num (String.sub s 0 (n - 1)))
    | _ -> num s

let parse_name_list ~what ~known = function
  | None -> None
  | Some s -> (
    let names = String.split_on_char ',' s |> List.map String.trim |> List.filter (fun n -> n <> "") in
    match List.find_opt (fun n -> not (List.mem n known)) names with
    | Some bad -> fail "unknown %s %S; known: %s" what bad (String.concat ", " known)
    | None -> if names = [] then None else Some names)

let list_oracles_string () =
  let b = Buffer.create 512 in
  List.iter
    (fun (i : Check_oracle.info) ->
      Buffer.add_string b
        (Printf.sprintf "%-12s %-18s %s\n" i.Check_oracle.id i.Check_oracle.theorem i.Check_oracle.doc))
    Check_oracle.catalogue;
  Buffer.contents b

let fuzz_cmd =
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed (SplitMix64).") in
  let budget =
    Arg.(value & opt string "30s"
         & info [ "budget" ] ~docv:"TIME" ~doc:"Wall-clock budget: seconds, or with an $(b,s)/$(b,m) suffix.")
  in
  let cases =
    Arg.(value & opt int 1_000_000
         & info [ "cases" ] ~docv:"N"
             ~doc:"Stop after N instances. Reproducer lines pin this, so replays are budget-independent.")
  in
  let oracle =
    Arg.(value & opt (some string) None
         & info [ "oracle" ] ~docv:"IDS" ~doc:"Comma-separated oracle ids (see --list-oracles). Default: all.")
  in
  let algo =
    Arg.(value & opt (some string) None
         & info [ "algo" ] ~docv:"ALGOS" ~doc:"Comma-separated registry solvers. Default: all.")
  in
  let inject =
    Arg.(value & flag
         & info [ "inject-fault" ]
             ~doc:"Self-test: fabricate a failure on the first multi-task draw to exercise the \
                   shrink/reproduce/corpus pipeline.")
  in
  let corpus =
    Arg.(value & opt string "fuzz-findings"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory for shrunk counterexamples (created on first failure). Confirmed bugs get \
                   promoted to test/corpus/ for permanent replay.")
  in
  let list_oracles =
    Arg.(value & flag & info [ "list-oracles" ] ~doc:"List the oracle catalogue and exit.")
  in
  let run seed budget cases oracle algo inject corpus list_oracles =
    if list_oracles then begin
      print_string (list_oracles_string ());
      exit 0
    end;
    let budget =
      match parse_budget budget with Some b when b > 0. -> b | _ -> fail "bad --budget value %S" budget
    in
    let cfg =
      {
        Check_diff.default_config with
        Check_diff.oracles = parse_name_list ~what:"oracle" ~known:Check_oracle.ids oracle;
        algos = parse_name_list ~what:"algorithm" ~known:Solver.names algo;
        inject_fault = inject;
      }
    in
    let outcome = Check_fuzz.run ~seed ~budget ~max_cases:cases cfg in
    match outcome.Check_fuzz.failures with
    | None ->
      Printf.printf "fuzz ok: %d cases, %d verdicts, 0 failures (seed %d)\n" outcome.Check_fuzz.cases
        outcome.Check_fuzz.verdicts seed;
      exit 0
    | Some cx ->
      Printf.printf "fuzz FAILED at case %d (family %s):\n" cx.Check_fuzz.case_no
        (Mwct_check.Instances.family_name cx.Check_fuzz.family);
      List.iter (fun v -> Printf.printf "  %s\n" (Check_oracle.verdict_to_string v)) cx.Check_fuzz.verdicts;
      Printf.printf "shrunk instance (%d tasks, drawn with %d):\n%s"
        (Spec.num_tasks cx.Check_fuzz.shrunk) (Spec.num_tasks cx.Check_fuzz.spec)
        (Spec_io.to_string cx.Check_fuzz.shrunk);
      let path = Check_fuzz.write_corpus ~dir:corpus ~seed cfg cx in
      Printf.printf "counterexample written to %s\n" path;
      Printf.printf "reproduce: %s\n" (Check_fuzz.reproducer ~seed cfg cx);
      exit exit_invalid
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the solver registry against the paper's theorem oracles on both engines; on failure, \
          shrink the instance, write it to the corpus and print a reproducer (exit 1).")
    Term.(const run $ seed $ budget $ cases $ oracle $ algo $ inject $ corpus $ list_oracles)

let () =
  let doc = "malleable-task scheduling for weighted mean completion time (IPDPS 2012 reproduction)" in
  let info = Cmd.info "mwct" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd;
            experiment_cmd;
            gen_cmd;
            bounds_cmd;
            render_cmd;
            simulate_cmd;
            serve_cmd;
            whatif_cmd;
            fuzz_cmd;
          ]))
