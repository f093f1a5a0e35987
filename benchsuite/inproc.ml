(* In-process replays of a workload's input files through the library's
   public functions. Run untraced they give the reference objective the
   binary's output is checked against, the in-process throughput and
   the allocation counts; run traced they give the per-layer breakdown.
   The spans wrap the benchmark's own calls into each layer and the
   closures it hands to the library (shard allocator, output sinks);
   the kinetic share rule is timed into counters (see [shares]).
   Nothing inside the library is instrumented. *)

let span_names =
  let variants l = List.concat_map (fun v -> List.map (fun k -> k ^ "." ^ v) l) [ "linear"; "curved"; "dag" ] in
  Array.of_list
    ([
       "ingest.next_line"; "journal.of_line"; "shard.apply"; "shard.alloc"; "output.sink";
       "metrics.json"; "branch.run"; "branch.report"; "engine.snapshot"; "engine.fork";
     ]
    @ variants [ "spec_io.load"; "instance.of_spec"; "solver.solve"; "lower_bounds"; "schedule.check"; "driver.to_json" ])

(* Counters taken at the same boundaries as the spans. The share-rule
   counters are atomic: see [shares]. *)
type counts = {
  mutable ingest_lines : int;
  mutable decode_lines : int;
  mutable decode_errors : int;
  mutable apply_calls : int;
  mutable apply_errors : int;
  mutable ticks : int;
  mutable alloc_calls : int;
  mutable alloc_views : int;
  shares_calls : int Atomic.t;
  shares_tasks : int Atomic.t;
  shares_ns : int Atomic.t;
  mutable metrics_calls : int;
  mutable out_lines : int;
  mutable out_bytes : int;
  mutable reshares : int;
  mutable alloc_changes : int;
  mutable forks : int;
}

let new_counts () =
  {
    ingest_lines = 0; decode_lines = 0; decode_errors = 0; apply_calls = 0; apply_errors = 0; ticks = 0;
    alloc_calls = 0; alloc_views = 0; shares_calls = Atomic.make 0; shares_tasks = Atomic.make 0;
    shares_ns = Atomic.make 0; metrics_calls = 0; out_lines = 0;
    out_bytes = 0; reshares = 0; alloc_changes = 0; forks = 0;
  }

type pass = {
  wall_s : float;
  records : int;  (** input events (serve) or tasks plus stream events (batch) *)
  objectives : float list;  (** Σw·C per output, in the order the gates expect *)
  failures : string list;  (** failed in-process checks *)
  counts : counts;
  minor_words : float;
  major_collections : int;
  encode : int * int * float;  (** journal lines rendered, their bytes, estimated encode seconds *)
}

let sid tr name = match tr with Some t -> Trace.id t name | None -> 0

(* One call of the kinetic share rule over [n] tasks. The rule runs
   inside each shard engine, and a sharded store advances its engines
   on worker domains, so a traced call adds to atomic counters instead
   of recording a span; on a sharded store its busy time is summed over
   domains. *)
let shares tr c ~n f =
  if tr = None then f ()
  else begin
    let t0 = Unix.gettimeofday () in
    f ();
    let ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
    Atomic.incr c.shares_calls;
    ignore (Atomic.fetch_and_add c.shares_tasks n);
    ignore (Atomic.fetch_and_add c.shares_ns ns)
  end

(* An output sink with serve's semantics: one line, newline, flush. *)
let sink tr c oc =
  let s = sid tr "output.sink" in
  fun line ->
    Trace.span tr s (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc);
    c.out_lines <- c.out_lines + 1;
    c.out_bytes <- c.out_bytes + String.length line + 1

let measured f =
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let g1 = Gc.quick_stat () in
  (r, wall, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)

let iter_file path f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      try
        while true do
          f (input_line ic)
        done
      with End_of_file -> ())

(* Journal lines are rendered inside the store and the branch runner,
   where no span can reach. Their encode cost is estimated afterwards:
   every journal line the run wrote is decoded again and [J.to_line] is
   timed on it. Returns (lines, bytes, seconds). *)
module Reencode (F : Mwct_field.Field.S) = struct
  module J = Mwct_runtime.Journal.Make (F)

  let lines (iter : (string -> unit) -> unit) =
    let n = ref 0 and bytes = ref 0 and secs = ref 0. in
    iter (fun l ->
        match J.of_line_tagged l with
        | Error _ -> () (* metrics and report lines are not journal lines *)
        | Ok (seq, shard, e) ->
          let t0 = Unix.gettimeofday () in
          ignore (Sys.opaque_identity (J.to_line ?shard ~seq e));
          secs := !secs +. (Unix.gettimeofday () -. t0);
          incr n;
          bytes := !bytes + String.length l + 1);
    (!n, !bytes, !secs)
end

(* ---------- serve ---------- *)

type serve_cfg = { nshards : int; segments : bool; record : bool; probe_every : int }

module Serve (F : Mwct_field.Field.S) = struct
  module St = Mwct_runtime.Shard.Make (F)
  module En = St.En
  module J = St.J
  module P = Mwct_ncv.Policy.Make (F)

  module R = Reencode (F)

  (* Replay [stream] like `mwct serve --journal stream` with [cfg]'s
     flags, plus a metrics probe every [cfg.probe_every] events. Sinks
     write under [dir]. *)
  let replay ?tr cfg ~dir stream : pass =
    let c = new_counts () in
    let ic = open_in_bin stream in
    let stdout_oc = open_out_bin (Filename.concat dir "inproc.out") in
    let record_ocs =
      if not cfg.record then []
      else
        open_out_bin (Filename.concat dir "inproc.rec")
        :: (if cfg.nshards > 1 then
              List.init cfg.nshards (fun k -> open_out_bin (Filename.concat dir (Printf.sprintf "inproc.rec.%d" k)))
            else [])
    in
    let s_next = sid tr "ingest.next_line" and s_decode = sid tr "journal.of_line"
    and s_apply = sid tr "shard.apply"
    and s_alloc = sid tr "shard.alloc" and s_metrics = sid tr "metrics.json" in
    let stdout_sink = sink tr c stdout_oc in
    let kinetic policy () =
      Option.map
        (fun (k : En.kinetic) ->
          {
            k with
            En.k_shares =
              (fun ~capacity ~n ~by_id ~share ~order ->
                shares tr c ~n (fun () -> k.En.k_shares ~capacity ~n ~by_id ~share ~order));
          })
        (P.engine_kinetic policy)
    in
    let allocator ~capacity views =
      c.alloc_calls <- c.alloc_calls + 1;
      c.alloc_views <- c.alloc_views + List.length views;
      Trace.span tr s_alloc (fun () -> P.engine_policy P.Wdeq ~capacity views)
    in
    let store = ref None in
    let failures = ref [] in
    let fail msg = failures := msg :: !failures in
    let create ~capacity ~policy_label =
      match P.of_name policy_label with
      | None -> fail ("unknown policy " ^ policy_label)
      | Some policy ->
        let merged_sink, shard_sink =
          match record_ocs with
          | [] -> (None, None)
          | m :: shards ->
            let sinks = Array.of_list (List.map (sink tr c) shards) in
            (Some (sink tr c m), if shards = [] then None else Some (fun k l -> sinks.(k) l))
        in
        store :=
          Some
            (St.create ~record_segments:cfg.segments ?merged_sink ?shard_sink ~decision_sink:stdout_sink
               ~nshards:cfg.nshards ~route:St.Hash ~capacity ~allocator ~policy:(P.engine_policy policy)
               ~kinetic:(kinetic policy) ~policy_label ())
    in
    let apply s ev =
      c.apply_calls <- c.apply_calls + 1;
      (match ev with En.Advance _ | En.Advance_to _ | En.Drain -> c.ticks <- c.ticks + 1 | _ -> ());
      match Trace.span tr s_apply (fun () -> St.apply s ev) with
      | Ok _ -> ()
      | Error e ->
        c.apply_errors <- c.apply_errors + 1;
        fail (En.error_to_string e)
    in
    let probe s =
      c.metrics_calls <- c.metrics_calls + 1;
      stdout_sink (Trace.span tr s_metrics (fun () -> St.metrics_json s))
    in
    let reader = Mwct_runtime.Ingest.create ic in
    let events = ref 0 in
    let run () =
      let rec loop () =
        match Trace.span tr s_next (fun () -> Mwct_runtime.Ingest.next_line reader) with
        | None -> ()
        | Some line ->
          c.ingest_lines <- c.ingest_lines + 1;
          (match tr with Some t -> Trace.set_event t !events | None -> ());
          c.decode_lines <- c.decode_lines + 1;
          (match Trace.span tr s_decode (fun () -> J.of_line line) with
          | Error msg ->
            c.decode_errors <- c.decode_errors + 1;
            fail ("bad journal line: " ^ msg)
          | Ok (_, J.Init { capacity; policy }) -> create ~capacity ~policy_label:policy
          | Ok (_, J.Input ev) -> (
            match !store with
            | None -> fail "event before init"
            | Some s ->
              apply s ev;
              incr events;
              if !events mod cfg.probe_every = 0 then probe s)
          | Ok (_, (J.Output _ | J.Budget _ | J.Policy _)) -> ());
          loop ()
      in
      loop ();
      match !store with
      | None -> fail "no init line"
      | Some s ->
        probe s;
        St.shutdown s
    in
    let (), wall, minor, major = measured run in
    close_in ic;
    List.iter close_out (stdout_oc :: record_ocs);
    let encode =
      if tr = None then (0, 0, 0.)
      else
        R.lines (fun f ->
            List.iter
              (fun name -> if Sys.file_exists name then iter_file name f)
              (List.map (Filename.concat dir)
                 ("inproc.out" :: "inproc.rec" :: List.init cfg.nshards (Printf.sprintf "inproc.rec.%d"))))
    in
    let objectives, state_failures =
      match !store with
      | None -> ([], [])
      | Some s ->
        let m = St.metrics s in
        c.reshares <- m.St.M.reshares;
        c.alloc_changes <- m.St.M.alloc_changes;
        let bad =
          if St.alive_count s <> 0 then [ "alive tasks after drain" ]
          else if m.St.M.submitted <> m.St.M.completed + m.St.M.cancelled then
            [ "submitted <> completed + cancelled" ]
          else []
        in
        ([ F.to_float (St.weighted_completion s) ], bad)
    in
    {
      wall_s = wall;
      records = !events;
      objectives;
      failures = List.rev !failures @ state_failures;
      counts = c;
      minor_words = minor;
      major_collections = major;
      encode;
    }
end

(* ---------- batch ---------- *)

module Batch = struct
  module Dr = Mwct_solver.Driver.Float
  module S = Dr.S
  module E = Dr.E
  module B = Mwct_runtime.Branch.Float
  module J = Mwct_runtime.Journal.Float
  module En = J.En
  module P = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)
  module R = Reencode (Mwct_field.Field.Float_field)

  type solve = { variant : string; algo : string; file : string }

  type whatif = { stream : string; tenants : int; fork_at : int; branches : string list }

  (* [mwct solve --json] step by step: load, build, solve, bound, check,
     render, print. Returns the objective, the ratio to the lower bound
     and the check verdict. *)
  let solve tr c oc { variant; algo; file } =
    let s layer = sid tr (layer ^ "." ^ variant) in
    let spec =
      match Trace.span tr (s "spec_io.load") (fun () -> Mwct_core.Spec_io.load file) with
      | Ok spec -> spec
      | Error m -> failwith (file ^ ": " ^ m)
    in
    let inst = Trace.span tr (s "instance.of_spec") (fun () -> E.Instance.of_spec spec) in
    let solver = S.find_exn algo in
    let schedule, meta = Trace.span tr (s "solver.solve") (fun () -> solver.S.solve inst) in
    let squashed_area, height_bound =
      Trace.span tr (s "lower_bounds") (fun () ->
          (E.Lower_bounds.squashed_area inst, E.Lower_bounds.height_bound inst))
    in
    let check = Trace.span tr (s "schedule.check") (fun () -> E.Schedule.check schedule) in
    let objective = E.Schedule.weighted_completion_time schedule in
    let lower_bound = Float.max squashed_area height_bound in
    let ratio_to_bound = if lower_bound > 0. then Some (objective /. lower_bound) else None in
    let report =
      {
        Dr.solver = solver.S.info;
        schedule;
        meta;
        objective;
        makespan = E.Schedule.makespan schedule;
        squashed_area;
        height_bound;
        lower_bound;
        ratio_to_bound;
        check;
        elapsed_s = 0.;
      }
    in
    sink tr c oc (Trace.span tr (s "driver.to_json") (fun () -> Dr.to_json ~engine:"float" report));
    (Array.length inst.E.Types.tasks, objective, ratio_to_bound, check = Ok ())

  (* [mwct whatif --journal stream --json]: decode, branch, report. The
     last result is the fork probe (see below), run after the pass's
     wall clock has stopped. *)
  let whatif tr c oc w =
    let s_decode = sid tr "journal.of_line" in
    let entries = ref [] in
    iter_file w.stream (fun l ->
        c.decode_lines <- c.decode_lines + 1;
        match Trace.span tr s_decode (fun () -> J.of_line l) with
        | Ok (_, e) -> entries := e :: !entries
        | Error m ->
          c.decode_errors <- c.decode_errors + 1;
          failwith (w.stream ^ ": " ^ m));
    let capacity, policy, events =
      match List.rev !entries with
      | J.Init { capacity; policy } :: rest ->
        (capacity, policy, List.filter_map (function J.Input ev -> Some ev | _ -> None) rest)
      | _ -> failwith (w.stream ^ ": no init line")
    in
    let resolve name = Option.map P.engine_policy (P.of_name name) in
    let kinetic_for name =
      Option.map
        (fun (k : En.kinetic) ->
          {
            k with
            En.k_shares =
              (fun ~capacity ~n ~by_id ~share ~order ->
                shares tr c ~n (fun () -> k.En.k_shares ~capacity ~n ~by_id ~share ~order));
          })
        (Option.bind (P.of_name name) P.engine_kinetic)
    in
    let specs = List.map (fun b -> match B.parse_spec b with Ok sp -> sp | Error m -> failwith m) w.branches in
    let report =
      match
        Trace.span tr (sid tr "branch.run") (fun () ->
            B.run ~resolve ~kinetic_for ~tenants:w.tenants ~capacity ~policy ~events ~fork_at:w.fork_at
              ~branches:specs ())
      with
      | Ok r -> r
      | Error m -> failwith ("whatif: " ^ m)
    in
    List.iter (sink tr c oc) (Trace.span tr (sid tr "branch.report") (fun () -> B.report_jsonl report));
    let straight =
      List.for_all (fun (o : B.outcome) -> o.B.label <> "idle" || o.B.d_wc = 0.) report.B.branches
    in
    (* Branch.run snapshots the fork-point state once and forks it per
       branch, out of the benchmark's reach: the probe times the same
       calls on the same state. *)
    let fork_probe () =
      let kinetic () = Option.bind (P.of_name policy) P.engine_kinetic in
      let eng = En.create ~capacity ~policy:(Option.get (resolve policy)) ?kinetic:(kinetic ()) () in
      List.iteri (fun i ev -> if i < w.fork_at then ignore (En.apply eng ev)) events;
      let snap = Trace.span tr (sid tr "engine.snapshot") (fun () -> En.snapshot eng) in
      List.iter
        (fun _ ->
          ignore (Sys.opaque_identity (Trace.span tr (sid tr "engine.fork") (fun () -> En.fork ?kinetic:(kinetic ()) snap)));
          c.forks <- c.forks + 1)
        specs
    in
    let journal = report.B.baseline_lines :: List.map (fun (o : B.outcome) -> o.B.lines) report.B.branches in
    (List.length events, report.B.baseline_wc, straight, journal, fork_probe)

  let run ?tr ~dir (solves : solve list) (w : whatif) : pass =
    let c = new_counts () in
    let oc = open_out_bin (Filename.concat dir "inproc.out") in
    let body () =
      let solved = List.map (solve tr c oc) solves in
      (solved, whatif tr c oc w)
    in
    let (solved, (nevents, baseline_wc, straight, journal, fork_probe)), wall, minor, major = measured body in
    close_out oc;
    if tr <> None then fork_probe ();
    let encode = if tr = None then (0, 0, 0.) else R.lines (fun f -> List.iter (List.iter f) journal) in
    let failures =
      List.concat_map
        (fun ((sv : solve), (_, _, ratio, valid)) ->
          (if valid then [] else [ sv.variant ^ ": invalid schedule" ])
          @
          match ratio with
          | Some r when sv.variant = "linear" && r > 2. -> [ Printf.sprintf "linear: ratio %.4f > 2" r ]
          | _ -> [])
        (List.combine solves solved)
      @ if straight then [] else [ "whatif: straight-line branch has d_wc <> 0" ]
    in
    {
      wall_s = wall;
      records = List.fold_left (fun a (n, _, _, _) -> a + n) nevents solved;
      objectives = List.map (fun (_, o, _, _) -> o) solved @ [ baseline_wc ];
      failures;
      counts = c;
      minor_words = minor;
      major_collections = major;
      encode;
    }
end
