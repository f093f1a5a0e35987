(* The workload registry, the metrics every run reports, and the two
   kinds of run: the end-to-end run of the `mwct` binary with tracing
   off, and the traced in-process run that breaks it down by layer. *)

module JF = Mwct_runtime.Journal.Float
module PF = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)

type size = Full | Quick

type gen = Churn of { rounds : int; alive : int } | Diurnal of { tenants : int; events : int }

type serve = {
  exact : bool;  (** rational field: --exact *)
  nshards : int;  (** --shards, hash-routed *)
  record : bool;  (** --record: merged and per-shard journals *)
  segments : bool;  (** per-task rate histories (default on; off is --no-segments) *)
  gen : gen;
}

type batch = {
  linear_n : int;
  curved_n : int;
  dag_n : int;
  dag_width : int;
  whatif_events : int;
  small_n : int;  (** tasks per latency request *)
  requests : int;  (** latency requests per pass *)
}

type kind = Serve of serve | Batch of batch

type workload = {
  name : string;
  kind : size -> kind;
  pins : float list;
      (** Σw·C of each output at the default seed and full size: serve's
          final objective, or the three solves then the what-if
          baseline. A kernel change may move the last bits, so the gate
          allows 1e-9 relative. *)
}

let default_seed = 1
let probe_every = 20
let tenants = 8

(* Exact arithmetic costs what the stream's numbers make it cost: a
   diurnal chunk of 1000 events takes 2 to 60 ms on the rational engine
   depending on whether its load spills past the task caps into shared
   allocations, whose denominators compound. Seeded exact streams of
   25k events differ by a quarter in replay time, so the exact stream's
   numbers come from this one seed and --seed only relabels its tenants
   and task ids. *)
let exact_numbers_seed = 4

let by_size size ~full ~quick = match size with Full -> full | Quick -> quick

(* Why each workload is here is recorded in BENCHMARK.json and the
   README. The sizes keep one replay pass under a second on a 2-core
   VM, so a run holds several passes, while a pass still answers 1000
   requests or more: its p95 has 50 samples beyond it and its p99 ten. *)
let workloads =
  [
    {
      name = "churn-flat";
      kind =
        (fun size ->
          Serve
            {
              exact = false;
              nshards = 1;
              record = false;
              segments = false;
              gen = Churn { rounds = by_size size ~full:1600 ~quick:60; alive = by_size size ~full:1000 ~quick:200 };
            });
      pins = [ 0x1.a2810bb1fbf98p+23 ];
    };
    {
      name = "tenants-sharded";
      kind =
        (fun size ->
          Serve
            {
              exact = false;
              nshards = 2;
              record = true;
              segments = false;
              gen = Diurnal { tenants; events = by_size size ~full:30_000 ~quick:3000 };
            });
      pins = [ 0x1.57e1c7f4718aap+27 ];
    };
    {
      name = "exact-diurnal";
      kind =
        (fun size ->
          Serve
            {
              exact = true;
              nshards = 1;
              record = false;
              segments = true;
              gen = Diurnal { tenants; events = by_size size ~full:25_000 ~quick:2000 };
            });
      pins = [ 0x1.046df007439e8p+27 ];
    };
    {
      name = "batch-plan";
      kind =
        (fun size ->
          Batch
            {
              linear_n = by_size size ~full:2000 ~quick:200;
              curved_n = by_size size ~full:1500 ~quick:150;
              dag_n = by_size size ~full:4000 ~quick:400;
              dag_width = by_size size ~full:256 ~quick:32;
              whatif_events = by_size size ~full:10_000 ~quick:1000;
              small_n = 64;
              requests = by_size size ~full:1000 ~quick:50;
            });
      pins = [ 0x1.f78b1f7787bacp+14; 0x1.1afe099946ee3p+14; 0x1.db7f0ba1b91d6p+16; 0x1.4a26126b2b1d9p+24 ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* ---------- metrics ---------- *)

type better = Higher | Lower

(* The metrics every run prints, by name, with their units and
   directions. BENCHMARK.json must list exactly these; the runner checks
   it before measuring. *)
let end_to_end =
  [
    ("events_per_s", "1/s", Higher);
    ("lat_p50_ms", "ms", Lower);
    ("lat_p95_ms", "ms", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("setup_s", "s", Lower);
  ]

let solve_layers = [ "spec_io.load"; "instance.of_spec"; "solver.solve"; "lower_bounds"; "schedule.check"; "driver.to_json" ]
let variants = [ "linear"; "curved"; "dag" ]

(* Per-layer busy times are shares (%) of the traced pass's wall time:
   a workload that bypasses a layer reads 0 there, which is a share,
   not a measured time. [trace.wall_s] scales them back to seconds. *)
let per_layer =
  [
    ("trace.wall_s", "s", Lower);
    ("trace.overhead_frac", "frac", Lower);
    ("trace.spans", "count", Lower);
    ("inproc.events_per_s", "1/s", Higher);
    ("ingest.lines", "count", Lower);
    ("ingest.busy_pct", "%", Lower);
    ("journal.decode_lines", "count", Lower);
    ("journal.decode_errors", "count", Lower);
    ("journal.decode_busy_pct", "%", Lower);
    ("journal.encode_lines", "count", Lower);
    ("journal.bytes", "bytes", Lower);
    ("journal.encode_busy_pct", "%", Lower);
    ("output.lines", "count", Lower);
    ("output.bytes", "bytes", Lower);
    ("output.busy_pct", "%", Lower);
    ("shard.apply_calls", "count", Lower);
    ("shard.apply_errors", "count", Lower);
    ("shard.ticks", "count", Lower);
    ("shard.apply_busy_pct", "%", Lower);
    ("shard.alloc_calls", "count", Lower);
    ("shard.alloc_skip_frac", "frac", Higher);
    ("shard.alloc_busy_pct", "%", Lower);
    ("shard.alloc_views_mean", "count", Lower);
    ("shard.single_engine_events_per_s", "1/s", Higher);
    ("policy.shares_calls", "count", Lower);
    ("policy.shares_busy_pct", "%", Lower);
    ("policy.shares_tasks_mean", "count", Lower);
    ("engine.self_pct", "%", Lower);
    ("engine.reshares", "count", Lower);
    ("engine.alloc_changes", "count", Lower);
    ("engine.alloc_changes_per_reshare", "ratio", Lower);
    ("engine.snapshot_pct", "%", Lower);
    ("engine.fork_pct", "%", Lower);
    ("engine.forks", "count", Lower);
    ("gc.minor_words_per_event", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("metrics.calls", "count", Lower);
    ("metrics.busy_pct", "%", Lower);
    ("branch.run_pct", "%", Lower);
    ("branch.report_pct", "%", Lower);
  ]
  @ List.concat_map (fun l -> List.map (fun v -> (Printf.sprintf "%s_pct.%s" l v, "%", Lower)) variants) solve_layers

(* ---------- one run ---------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** exactly the BENCHMARK.json metrics of the run's kind *)
  details : (string * float) list;  (** workload-specific figures for people, not compared *)
  failures : string list;
}

type ctx = {
  mwct : string;  (** path of the built binary *)
  dir : string;  (** this run's inputs and outputs *)
  seed : int;
  size : size;
  seconds : float;
  say : string -> unit;  (** progress lines on stdout, before the result line *)
}

let path ctx f = Filename.concat ctx.dir f
let rel_close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b)

(* Gate bookkeeping: every operation attempted, every failure named. *)
type tally = { mutable ops : int; mutable gates : string list }

let fail t msg = t.gates <- msg :: t.gates

let check_pins t ctx w objectives =
  if ctx.seed = default_seed && ctx.size = Full && w.pins <> [] then
    if List.length w.pins <> List.length objectives then fail t "pinned objectives: count mismatch"
    else
      List.iteri
        (fun i (pin, got) ->
          if not (rel_close got pin) then fail t (Printf.sprintf "objective %d: %.17g, pinned %.17g" i got pin))
        (List.combine w.pins objectives)

(* Inputs are written once per (workload, size, seed); [inputs.done]
   marks a complete set, so an interrupted generation is redone. *)
let ensure_inputs ctx kind =
  let marker = path ctx "inputs.done" in
  if not (Sys.file_exists marker) then begin
    let t0 = Unix.gettimeofday () in
    (match kind with
    | Serve s ->
      let capacity = 64 in
      let write_float = Gen.Float_stream.write ~capacity and write_exact = Gen.Exact_stream.write ~capacity in
      (match (s.gen, s.exact) with
      | Churn { rounds; alive }, false -> write_float (path ctx "stream.jsonl") (Gen.churn ~seed:ctx.seed ~rounds ~alive)
      | Diurnal { tenants; events }, false ->
        write_float (path ctx "stream.jsonl") (Gen.Float_stream.diurnal ~seed:ctx.seed ~tenants ~events)
      | Diurnal { tenants; events }, true ->
        write_exact (path ctx "stream.jsonl")
          (Gen.Exact_stream.relabel ~seed:ctx.seed ~tenants
             (Gen.Exact_stream.diurnal ~seed:exact_numbers_seed ~tenants ~events))
      | Churn _, true -> invalid_arg "churn streams are float-only");
      if s.exact then write_exact (path ctx "init.jsonl") [] else write_float (path ctx "init.jsonl") []
    | Batch b ->
      let seed = ctx.seed in
      Gen.write_spec (path ctx "linear.txt") (Gen.linear ~seed ~n:b.linear_n);
      Gen.write_spec (path ctx "curved.txt") (Gen.curved ~seed ~n:b.curved_n);
      Gen.write_spec (path ctx "dag.txt") (Gen.dag ~seed ~n:b.dag_n ~width:b.dag_width);
      Gen.Float_stream.write ~capacity:64 (path ctx "whatif.jsonl")
        (Gen.Float_stream.diurnal ~seed ~tenants ~events:b.whatif_events);
      Gen.write_spec (path ctx "min-linear.txt") (Gen.linear ~seed ~n:1);
      Gen.write_spec (path ctx "min-curved.txt") (Gen.curved ~seed ~n:1);
      Gen.write_spec (path ctx "min-dag.txt") (Gen.dag ~seed ~n:1 ~width:1);
      Gen.Float_stream.write ~capacity:64 (path ctx "init.jsonl") [];
      for k = 0 to 7 do
        Gen.write_spec (path ctx (Printf.sprintf "small-%d.txt" k)) (Gen.linear ~seed:((seed * 100) + k) ~n:b.small_n)
      done);
    Gen.with_out marker (fun _ -> ());
    ctx.say (Printf.sprintf "inputs     generated in %.2f s" (Unix.gettimeofday () -. t0))
  end

(* ---------- serve workloads ---------- *)

let serve_cfg (s : serve) ~record : Inproc.serve_cfg =
  { Inproc.nshards = s.nshards; segments = s.segments; record; probe_every }

module Serve_float = Inproc.Serve (Mwct_field.Field.Float_field)
module Serve_exact = Inproc.Serve (Mwct_rational.Rational.Rat_field)

let serve_replay ?tr (s : serve) cfg ~dir stream =
  if s.exact then Serve_exact.replay ?tr cfg ~dir stream else Serve_float.replay ?tr cfg ~dir stream

(* The objective is compared through the exact [_repr] rendering. *)
let repr_to_float (s : serve) repr =
  if s.exact then Option.map Mwct_rational.Rational.to_float (Mwct_rational.Rational.Rat_field.of_repr repr)
  else Mwct_field.Field.Float_field.of_repr repr

let serve_argv ctx (s : serve) ~record =
  [ ctx.mwct; "serve"; "--procs"; "64" ]
  @ (if s.exact then [ "--exact" ] else [])
  @ (if s.segments then [] else [ "--no-segments" ])
  @ (if s.nshards > 1 then [ "--shards"; string_of_int s.nshards; "--tenant-key"; "hash" ] else [])
  @ match record with Some r -> [ "--record"; r ] | None -> []

(* The final metrics line of a serve run, checked: no error lines, the
   drain closed every task, and Σw·C matches the in-process replay. *)
let check_serve_output t (s : serve) ~what ~reference final errors =
  if errors > 0 then fail t (Printf.sprintf "%s: %d error lines" what errors);
  match final with
  | None -> fail t (what ^ ": no metrics line")
  | Some line -> (
    let m = try Json.parse line with Json.Error _ -> Json.Null in
    let int k = Option.value ~default:(-1.) (Json.to_num (Json.member k m)) in
    if int "alive" <> 0. then fail t (what ^ ": alive tasks after drain");
    if int "submitted" <> int "completed" +. int "cancelled" then
      fail t (what ^ ": submitted <> completed + cancelled");
    match Option.bind (Json.to_str (Json.member "sum_wc_repr" m)) (repr_to_float s) with
    | None -> fail t (what ^ ": unreadable sum_wc_repr")
    | Some wc -> if not (rel_close wc reference) then fail t (Printf.sprintf "%s: sum_wc %.17g, expected %.17g" what wc reference))

let scan_output file =
  let errors = ref 0 and final = ref None in
  Inproc.iter_file file (fun l -> if Proc.is_error l then incr errors else if Proc.is_metrics l then final := Some l);
  (!errors, !final)

(* Each shard's journal replays on a plain engine, and the shards'
   objectives add up to the merged one: the repo's sharding oracle. *)
let check_shard_journals t (s : serve) ~record ~merged_wc =
  let resolve name = Option.map PF.engine_policy (PF.of_name name) in
  let total =
    List.fold_left
      (fun acc k ->
        let file = Printf.sprintf "%s.%d" record k in
        match Result.bind (JF.load file) (JF.replay ~resolve) with
        | Ok eng -> acc +. JF.En.weighted_completion eng
        | Error m ->
          fail t (Printf.sprintf "%s: %s" (Filename.basename file) m);
          acc)
      0. (List.init s.nshards Fun.id)
  in
  if not (rel_close total merged_wc) then
    fail t (Printf.sprintf "per-shard objectives sum to %.17g, merged %.17g" total merged_wc)

let read_lines file =
  let l = ref [] in
  Inproc.iter_file file (fun x -> l := x :: !l);
  Array.of_list (List.rev !l)

(* The reference objective: the same stream through the library in
   process, cached beside the inputs. *)
let reference ctx compute =
  let file = path ctx "reference" in
  if Sys.file_exists file then List.map float_of_string (Array.to_list (read_lines file))
  else begin
    let r = compute () in
    Gen.with_out file (fun oc -> List.iter (fun x -> Printf.fprintf oc "%h\n" x) r);
    r
  end

(* What one end-to-end run measured, pass by pass. A pass is the timed
   work ([walls], [peaks]) followed by a block of closed-loop requests
   ([lats]); a few set-ups run before each pass, so set-up samples span
   the run like the passes do. *)
type passes = {
  mutable walls : float list;
  mutable peaks : float list;  (** MB *)
  mutable lats : float array list;  (** ms, one array per pass *)
  mutable setups : float list;
}

let setups_per_pass = 3

(* One set-up sample runs every command of the workload once on its
   minimal input. *)
let time_setup ctx t p argvs =
  for _ = 1 to setups_per_pass do
    let wall =
      List.fold_left
        (fun acc argv ->
          let r = Proc.run ~out:(path ctx "setup.out") ~err:(path ctx "setup.err") (Array.of_list argv) in
          t.ops <- t.ops + 1;
          if r.Proc.exit_code <> 0 then fail t (Printf.sprintf "set-up command exited %d" r.Proc.exit_code);
          acc +. r.Proc.wall_s)
        0. argvs
    in
    p.setups <- wall :: p.setups
  done

let finish t ~metrics ~details =
  { correct = t.gates = []; attempted = t.ops; failed = List.length t.gates; metrics; details; failures = List.rev t.gates }

let series xs = String.concat " " (List.map (Printf.sprintf "%.3f") xs)

(* Interference from other work on a shared host only ever slows a pass
   down, and on a 2-core VM it comes in spells of several seconds,
   longer than a pass. A median over one run's passes moves with those
   spells; the fastest pass does not, so each run reports its best pass
   for throughput and latency (medians are kept in the details).
   Set-up time and memory are medians. *)
let best = List.fold_left Float.min infinity

(* The end-to-end metrics of a run that did [work] events per pass.
   Every pass's wall time and latencies also go to passes.tsv. *)
let pass_metrics ctx ~work p =
  let walls = List.rev p.walls and lats = List.rev p.lats in
  Gen.with_out (path ctx "passes.tsv") (fun oc ->
      List.iteri (fun i w -> Printf.fprintf oc "wall\t%d\t%.9f\n" i w) walls;
      List.iteri (fun i a -> Array.iter (Printf.fprintf oc "lat\t%d\t%.6f\n" i) a) lats);
  let per q = List.map (Stats.percentile q) lats in
  let med l = Stats.median (Array.of_list l) in
  ctx.say (Printf.sprintf "setup      %d samples, median %.5f s" (List.length p.setups) (med p.setups));
  ctx.say (Printf.sprintf "passes     %d work items x %d passes, walls %s s" work (List.length walls) (series walls));
  ctx.say (Printf.sprintf "requests   %d per pass, p50 %s ms" (Array.length (List.hd lats)) (series (per 50.)));
  ctx.say (Printf.sprintf "           p95 %s ms" (series (per 95.)));
  let work = float_of_int work in
  ( [
      ("events_per_s", work /. best walls);
      ("lat_p50_ms", best (per 50.));
      ("lat_p95_ms", best (per 95.));
      ("peak_rss_mb", med p.peaks);
      ("setup_s", med p.setups);
    ],
    [
      ("passes", float_of_int (List.length walls));
      ("requests_per_pass", float_of_int (Array.length (List.hd lats)));
      ("events_per_s.median", work /. med walls);
      ("lat_p50_ms.median", med (per 50.));
      ("lat_p95_ms.median", med (per 95.));
      ("lat_p99_ms.best", best (per 99.));
      ("lat_p99_ms.median", med (per 99.));
    ] )

(* A run alternates two passes over the same stream until its time is
   spent: a replay of the stream file ([--journal]), timed from spawn
   to exit with peak RSS polled, and a client feeding the stream over
   stdin in batches of [probe_every] events, each followed by a metrics
   probe it waits for. *)
let run_serve ctx w (s : serve) : result =
  let t = { ops = 0; gates = [] } in
  let stream = path ctx "stream.jsonl" in
  let lines = read_lines stream in
  let nevents = Array.length lines - 1 in
  let reference =
    match
      reference ctx (fun () ->
          let p = serve_replay s (serve_cfg s ~record:false) ~dir:ctx.dir stream in
          List.iter (fail t) p.Inproc.failures;
          p.Inproc.objectives)
    with
    | [ x ] -> x
    | _ ->
      fail t "no reference objective";
      nan
  in
  check_pins t ctx w [ reference ];
  let record = if s.record then Some (path ctx "rec") else None in
  (* set-up: the same command on a journal holding only the init line *)
  let setup_argv = serve_argv ctx s ~record:None @ [ "--journal"; path ctx "init.jsonl" ] in
  let p = { walls = []; peaks = []; lats = []; setups = [] } in
  let final = ref None in
  let t_start = Unix.gettimeofday () in
  while p.walls = [] || Unix.gettimeofday () -. t_start < ctx.seconds do
    time_setup ctx t p [ setup_argv ];
    let out = path ctx "pass.out" in
    let r = Proc.run ~poll_rss:true ~out ~err:(path ctx "pass.err") (Array.of_list (serve_argv ctx s ~record @ [ "--journal"; stream ])) in
    t.ops <- t.ops + nevents;
    if r.Proc.exit_code <> 0 then fail t (Printf.sprintf "serve exited %d" r.Proc.exit_code);
    let errors, last = scan_output out in
    check_serve_output t s ~what:"replay" ~reference last errors;
    if p.walls = [] && s.nshards > 1 && s.record then check_shard_journals t s ~record:(Option.get record) ~merged_wc:reference;
    (match !final with
    | Some f when Some f <> last -> fail t "replay passes disagree on the final metrics line"
    | _ -> final := last);
    let c =
      Proc.closed_loop ~err:(path ctx "client.err") ~batch:probe_every lines
        (Array.of_list (serve_argv ctx s ~record:(Option.map (fun _ -> path ctx "client.rec") record)))
    in
    t.ops <- t.ops + nevents;
    if c.Proc.client_exit <> 0 then fail t (Printf.sprintf "serve (client pass) exited %d" c.Proc.client_exit);
    if c.Proc.errors > 0 then fail t (Printf.sprintf "client pass: %d error lines" c.Proc.errors);
    if c.Proc.final_metrics <> last then fail t "the client pass ends in a different state than the replay";
    p.walls <- r.Proc.wall_s :: p.walls;
    p.peaks <- (float_of_int r.Proc.peak_rss_kb /. 1024.) :: p.peaks;
    p.lats <- c.Proc.latencies_ms :: p.lats
  done;
  let metrics, details = pass_metrics ctx ~work:nevents p in
  finish t ~metrics ~details

(* ---------- batch-plan ---------- *)

let solves ctx : Inproc.Batch.solve list =
  [
    { variant = "linear"; algo = "wdeq"; file = path ctx "linear.txt" };
    { variant = "curved"; algo = "wdeq"; file = path ctx "curved.txt" };
    { variant = "dag"; algo = "wdeq-dag"; file = path ctx "dag.txt" };
  ]

let whatif_branches = [ "idle"; "deq:policy=deq"; "scale:scale=1:2"; "inject:submit=99999989:8:4:2,advance=1/2" ]

let whatif ctx (b : batch) : Inproc.Batch.whatif =
  { stream = path ctx "whatif.jsonl"; tenants; fork_at = b.whatif_events / 2; branches = whatif_branches }

let solve_argv ctx algo file = [ ctx.mwct; "solve"; "--json"; "--algo"; algo; file ]

let whatif_argv ctx (w : Inproc.Batch.whatif) ~stream ~fork_at =
  [ ctx.mwct; "whatif"; "--journal"; stream; "--tenants"; string_of_int w.tenants; "--fork-at"; string_of_int fork_at; "--json" ]
  @ List.concat_map (fun b -> [ "--branch"; b ]) w.branches

(* A solve report: valid, Theorem 4's ratio on the linear instance, and
   the objective. *)
let check_solve t ~what ~linear file =
  match Json.of_file file with
  | exception (Json.Error _ | Sys_error _) ->
    fail t (what ^ ": unreadable report");
    nan
  | r ->
    if Json.member "valid" r <> Json.Bool true then fail t (what ^ ": invalid schedule");
    (match Json.to_num (Json.member "ratio_to_bound" r) with
    | Some x when linear && x > 2. -> fail t (Printf.sprintf "%s: ratio %.4f > 2 (Theorem 4)" what x)
    | _ -> ());
    Option.value ~default:nan (Json.to_num (Json.member "objective" r))

(* A what-if report: the baseline objective, and the straight-line
   branch must not move it. *)
let check_whatif t file =
  let baseline = ref nan and idle = ref false in
  Inproc.iter_file file (fun l ->
      let j = try Json.parse l with Json.Error _ -> Json.Null in
      let num k = Option.bind (Json.to_str (Json.member k j)) Mwct_field.Field.Float_field.of_repr in
      match Json.to_str (Json.member "type" j) with
      | Some "baseline" -> baseline := Option.value ~default:nan (num "sum_wc_repr")
      | Some "branch" when Json.member "label" j = Json.Str "idle" ->
        idle := true;
        if num "d_wc_repr" <> Some 0. then fail t "whatif: straight-line branch has d_wc <> 0"
      | _ -> ());
  if not !idle then fail t "whatif: no straight-line branch in the report";
  !baseline

(* A run alternates a pass of the four planning commands on the big
   inputs with a block of small planning requests from one client that
   waits for each answer, until its time is spent. *)
let run_batch ctx w (b : batch) : result =
  let t = { ops = 0; gates = [] } in
  let wi = whatif ctx b in
  let references =
    reference ctx (fun () ->
        let p = Inproc.Batch.run ~dir:ctx.dir (solves ctx) wi in
        List.iter (fail t) p.Inproc.failures;
        p.Inproc.objectives)
  in
  check_pins t ctx w references;
  let setup_argvs =
    [
      solve_argv ctx "wdeq" (path ctx "min-linear.txt");
      solve_argv ctx "wdeq" (path ctx "min-curved.txt");
      solve_argv ctx "wdeq-dag" (path ctx "min-dag.txt");
      whatif_argv ctx wi ~stream:(path ctx "init.jsonl") ~fork_at:0;
    ]
  in
  (* instance tasks plus what-if stream events, its drain included *)
  let records = b.linear_n + b.curved_n + b.dag_n + b.whatif_events + 1 in
  let p = { walls = []; peaks = []; lats = []; setups = [] } in
  let command_walls = Hashtbl.create 4 in
  let t_start = Unix.gettimeofday () in
  while p.walls = [] || Unix.gettimeofday () -. t_start < ctx.seconds do
    time_setup ctx t p setup_argvs;
    let wall = ref 0. and peak = ref 0 in
    let run what argv =
      let out = path ctx (what ^ ".out") in
      let r = Proc.run ~poll_rss:true ~out ~err:(path ctx (what ^ ".err")) (Array.of_list argv) in
      t.ops <- t.ops + 1;
      if r.Proc.exit_code <> 0 then fail t (Printf.sprintf "%s exited %d" what r.Proc.exit_code);
      wall := !wall +. r.Proc.wall_s;
      peak := max !peak r.Proc.peak_rss_kb;
      Hashtbl.add command_walls what r.Proc.wall_s;
      out
    in
    let objectives =
      List.map
        (fun (sv : Inproc.Batch.solve) ->
          check_solve t ~what:sv.variant ~linear:(sv.variant = "linear") (run sv.variant (solve_argv ctx sv.algo sv.file)))
        (solves ctx)
      @ [ check_whatif t (run "whatif" (whatif_argv ctx wi ~stream:wi.stream ~fork_at:wi.fork_at)) ]
    in
    List.iteri
      (fun i (got, want) ->
        if not (rel_close got want) then fail t (Printf.sprintf "output %d: objective %.17g, expected %.17g" i got want))
      (List.combine objectives references);
    p.walls <- !wall :: p.walls;
    p.peaks <- (float_of_int !peak /. 1024.) :: p.peaks;
    let lat =
      Array.init b.requests (fun k ->
          let out = path ctx "small.out" in
          let r =
            Proc.run ~out ~err:(path ctx "small.err")
              (Array.of_list (solve_argv ctx "wdeq" (path ctx (Printf.sprintf "small-%d.txt" (k mod 8)))))
          in
          t.ops <- t.ops + 1;
          if r.Proc.exit_code <> 0 then fail t (Printf.sprintf "small solve exited %d" r.Proc.exit_code)
          else ignore (check_solve t ~what:"small" ~linear:true out);
          r.Proc.wall_s *. 1e3)
    in
    p.lats <- lat :: p.lats
  done;
  let metrics, details = pass_metrics ctx ~work:records p in
  (* each command's fastest wall time: solve_*_s and whatif_s *)
  let commands =
    List.map
      (fun (n, w) -> (n, best (Hashtbl.find_all command_walls w)))
      [ ("solve_linear_s", "linear"); ("solve_curved_s", "curved"); ("solve_dag_s", "dag"); ("whatif_s", "whatif") ]
  in
  ctx.say (Printf.sprintf "commands  %s s (fastest)" (String.concat "" (List.map (fun (n, x) -> Printf.sprintf " %s %.3f" n x) commands)));
  finish t ~metrics ~details:(details @ commands)

let run_end_to_end ctx w =
  let kind = w.kind ctx.size in
  ensure_inputs ctx kind;
  match kind with Serve s -> run_serve ctx w s | Batch b -> run_batch ctx w b

(* ---------- the traced run ---------- *)

type traced = { pass : Inproc.pass; spans : int; summary : Trace.summary }

let layer_metrics ~tr ~overhead ~single_eps ~(untraced : Inproc.pass) ~untraced_wall (x : traced) =
  let p = x.pass and c = x.pass.Inproc.counts in
  let wall = p.Inproc.wall_s in
  let busy n = Trace.busy tr x.summary n and self n = Trace.self tr x.summary n in
  let pct s = 100. *. s /. wall in
  let fi = float_of_int in
  let ratio a b = if b = 0 then 0. else fi a /. fi b in
  let enc_lines, enc_bytes, enc_s = p.Inproc.encode in
  (* ticks on which the sharded store reused its standing budgets; a
     drain's extra allocation rounds can push calls past ticks *)
  let skip_frac = if c.alloc_calls = 0 then 0. else Float.max 0. (1. -. ratio c.alloc_calls c.ticks) in
  let shares_calls = Atomic.get c.shares_calls and shares_s = float_of_int (Atomic.get c.shares_ns) *. 1e-9 in
  [
    ("trace.wall_s", wall);
    ("trace.overhead_frac", overhead);
    ("trace.spans", fi x.spans);
    ("inproc.events_per_s", fi untraced.Inproc.records /. untraced_wall);
    ("ingest.lines", fi c.ingest_lines);
    ("ingest.busy_pct", pct (busy "ingest.next_line"));
    ("journal.decode_lines", fi c.decode_lines);
    ("journal.decode_errors", fi c.decode_errors);
    ("journal.decode_busy_pct", pct (busy "journal.of_line"));
    ("journal.encode_lines", fi enc_lines);
    ("journal.bytes", fi enc_bytes);
    ("journal.encode_busy_pct", pct enc_s);
    ("output.lines", fi c.out_lines);
    ("output.bytes", fi c.out_bytes);
    ("output.busy_pct", pct (busy "output.sink"));
    ("shard.apply_calls", fi c.apply_calls);
    ("shard.apply_errors", fi c.apply_errors);
    ("shard.ticks", fi c.ticks);
    ("shard.apply_busy_pct", pct (busy "shard.apply"));
    ("shard.alloc_calls", fi c.alloc_calls);
    ("shard.alloc_skip_frac", skip_frac);
    ("shard.alloc_busy_pct", pct (busy "shard.alloc"));
    ("shard.alloc_views_mean", ratio c.alloc_views c.alloc_calls);
    ("shard.single_engine_events_per_s", single_eps);
    ("policy.shares_calls", fi shares_calls);
    ("policy.shares_busy_pct", pct shares_s);
    ("policy.shares_tasks_mean", ratio (Atomic.get c.shares_tasks) shares_calls);
    ("engine.self_pct", pct (Float.max 0. (self "shard.apply" -. shares_s)));
    ("engine.reshares", fi c.reshares);
    ("engine.alloc_changes", fi c.alloc_changes);
    ("engine.alloc_changes_per_reshare", ratio c.alloc_changes c.reshares);
    ("engine.snapshot_pct", pct (busy "engine.snapshot"));
    ("engine.fork_pct", pct (busy "engine.fork"));
    ("engine.forks", fi c.forks);
    ("gc.minor_words_per_event", untraced.Inproc.minor_words /. fi (max 1 untraced.Inproc.records));
    ("gc.major_collections", fi untraced.Inproc.major_collections);
    ("metrics.calls", fi c.metrics_calls);
    ("metrics.busy_pct", pct (busy "metrics.json"));
    ("branch.run_pct", pct (busy "branch.run"));
    ("branch.report_pct", pct (busy "branch.report"));
  ]
  @ List.concat_map
      (fun l -> List.map (fun v -> (Printf.sprintf "%s_pct.%s" l v, pct (busy (l ^ "." ^ v)))) variants)
      solve_layers

(* Untraced and traced in-process passes alternate until the time
   budget is spent; the per-layer numbers come from the traced pass
   with the median wall time, the overhead from the two medians. *)
let run_traced ctx w : result =
  let kind = w.kind ctx.size in
  ensure_inputs ctx kind;
  let t = { ops = 0; gates = [] } in
  let pass ?tr () =
    match kind with
    | Serve s -> serve_replay ?tr s (serve_cfg s ~record:s.record) ~dir:ctx.dir (path ctx "stream.jsonl")
    | Batch b -> Inproc.Batch.run ?tr ~dir:ctx.dir (solves ctx) (whatif ctx b)
  in
  let expected = ref None in
  let check (p : Inproc.pass) =
    t.ops <- t.ops + p.Inproc.records;
    List.iter (fail t) p.Inproc.failures;
    match !expected with
    | None ->
      expected := Some p.Inproc.objectives;
      check_pins t ctx w p.Inproc.objectives
    | Some e ->
      if not (List.length e = List.length p.Inproc.objectives && List.for_all2 rel_close p.Inproc.objectives e)
      then fail t "in-process passes disagree on the objectives"
  in
  let tr = Trace.create Inproc.span_names in
  let untraced = ref [] and traced = ref [] and last = ref tr in
  let t_start = Unix.gettimeofday () in
  while !traced = [] || Unix.gettimeofday () -. t_start < ctx.seconds do
    let u = pass () in
    check u;
    untraced := u :: !untraced;
    let tr' = Trace.create Inproc.span_names in
    let p = pass ~tr:tr' () in
    check p;
    last := tr';
    traced := { pass = p; spans = tr'.Trace.n; summary = Trace.summarise tr' } :: !traced
  done;
  (* the spans of the last traced pass, for reading by hand *)
  Trace.write !last (path ctx "spans.tsv");
  let walls l = Array.of_list (List.map (fun (p : Inproc.pass) -> p.Inproc.wall_s) l) in
  let untraced_wall = Stats.median (walls !untraced) in
  let traced_walls = walls (List.map (fun x -> x.pass) !traced) in
  let med = Stats.median traced_walls in
  let chosen =
    List.fold_left
      (fun best x ->
        if Float.abs (x.pass.Inproc.wall_s -. med) < Float.abs (best.pass.Inproc.wall_s -. med) then x else best)
      (List.hd !traced) !traced
  in
  let single_eps =
    match kind with
    | Serve s when s.nshards > 1 ->
      (* one shard schedules differently (flat rather than per-shard
         budgets), so only its own gates apply *)
      let p = serve_replay s { (serve_cfg s ~record:s.record) with Inproc.nshards = 1 } ~dir:ctx.dir (path ctx "stream.jsonl") in
      List.iter (fail t) p.Inproc.failures;
      float_of_int p.Inproc.records /. p.Inproc.wall_s
    | Serve _ -> float_of_int (List.hd !untraced).Inproc.records /. untraced_wall
    | Batch _ -> 0.
  in
  ctx.say
    (Printf.sprintf "traced     %d untraced + %d traced in-process passes, walls %.3f / %.3f s (medians)"
       (List.length !untraced) (List.length !traced) untraced_wall med);
  finish t
    ~metrics:
      (layer_metrics ~tr ~overhead:((med /. untraced_wall) -. 1.) ~single_eps ~untraced:(List.hd !untraced)
         ~untraced_wall chosen)
    ~details:[ ("passes", float_of_int (List.length !traced)) ]
