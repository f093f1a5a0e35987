(* Tests for the sharded store (lib/runtime/shard.ml) and its support
   modules: the replay oracles of Mwct_check.Shard_check on random
   tenant streams (both fields, both routings), the single-shard
   byte-identity shim, engine set_capacity/next_eta/Advance_to, the
   allocator summaries' drift guard, the Ingest line reader, and the
   metrics latency histogram. *)

module Rng = Mwct_util.Rng

let seeds = [ 1; 7; 42; 1234; 20120515 ]

let run_oracle name check =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let draw lo hi = Rng.int_in rng lo hi in
      match check draw with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (Printf.sprintf "%s (seed %d): %s" name seed msg))
    seeds

(* ---------- replay oracles, both fields ---------- *)

module CF = Mwct_check.Shard_check.Float
module CX = Mwct_check.Shard_check.Exact

let test_single_identity_float () =
  run_oracle "single-identity float" (fun draw -> CF.check_single_identity draw ~len:60)

let test_single_identity_exact () =
  run_oracle "single-identity exact" (fun draw -> CX.check_single_identity draw ~len:40)

let test_shard_replay_float_mod () =
  run_oracle "shard-replay float mod" (fun draw ->
      CF.check_shard_replay draw ~nshards:3 ~route:CF.St.Mod ~len:60)

let test_shard_replay_float_hash () =
  run_oracle "shard-replay float hash" (fun draw ->
      CF.check_shard_replay draw ~nshards:4 ~route:CF.St.Hash ~len:60)

let test_shard_replay_exact () =
  run_oracle "shard-replay exact" (fun draw ->
      CX.check_shard_replay draw ~nshards:3 ~route:CX.St.Mod ~len:40)

let test_merged_determinism_float () =
  run_oracle "merged-determinism float" (fun draw ->
      CF.check_merged_determinism draw ~nshards:3 ~route:CF.St.Hash ~len:60)

let test_merged_determinism_exact () =
  run_oracle "merged-determinism exact" (fun draw ->
      CX.check_merged_determinism draw ~nshards:2 ~route:CX.St.Mod ~len:30)

let test_flat_agreement_float () =
  run_oracle "flat-agreement float" (fun draw ->
      CF.check_flat_agreement draw ~nshards:4 ~route:CF.St.Mod ~len:60)

let test_flat_agreement_exact () =
  run_oracle "flat-agreement exact" (fun draw ->
      CX.check_flat_agreement draw ~nshards:3 ~route:CX.St.Hash ~len:30)

(* Same oracles over dependency streams: dormant routing (a dependent
   lands on its first parent's shard), activation on completion
   notifications, and cascade cancels must all keep the journals
   byte-replayable. *)
let test_dag_single_identity_float () =
  run_oracle "dag single-identity float" (fun draw ->
      CF.check_single_identity ~deps:true draw ~len:60)

let test_dag_shard_replay_float () =
  run_oracle "dag shard-replay float" (fun draw ->
      CF.check_shard_replay ~deps:true draw ~nshards:3 ~route:CF.St.Mod ~len:60)

let test_dag_shard_replay_exact () =
  run_oracle "dag shard-replay exact" (fun draw ->
      CX.check_shard_replay ~deps:true draw ~nshards:3 ~route:CX.St.Hash ~len:40)

let test_dag_merged_determinism_float () =
  run_oracle "dag merged-determinism float" (fun draw ->
      CF.check_merged_determinism ~deps:true draw ~nshards:4 ~route:CF.St.Hash ~len:60)

let test_dag_flat_agreement_float () =
  run_oracle "dag flat-agreement float" (fun draw ->
      CF.check_flat_agreement ~deps:true draw ~nshards:4 ~route:CF.St.Mod ~len:60)

(* Refused events (zero volumes, duplicates, unknown or split parents,
   unknown cancels) change no journal byte and no dump, also when they
   are routed to an empty shard whose clock lags. *)
let test_refusals_float ~nshards route () =
  List.iter
    (fun deps ->
      run_oracle "refusals float" (fun draw ->
          CF.check_refusals_leave_no_trace ~deps draw ~nshards ~route ~len:60))
    [ false; true ]

let test_refusals_exact route () =
  List.iter
    (fun deps ->
      run_oracle "refusals exact" (fun draw ->
          CX.check_refusals_leave_no_trace ~deps draw ~nshards:3 ~route ~len:40))
    [ false; true ]

(* The smallest case: task 1's submit is refused (negative volume) on
   shard 1, which has been empty since time 0. *)
let test_refused_submit_on_lagging_shard () =
  let submit id volume =
    CF.En.Submit { id; volume; weight = 1.; cap = 1.; speedup = None; deps = [] }
  in
  let clean = [ submit 0 4.; CF.En.Advance 1.; CF.En.Advance 1.; submit 3 1.; CF.En.Drain ] in
  match
    CF.check_no_trace ~nshards:2 ~route:CF.St.Mod ~clean ~refusals:(fun _ i ->
        if i = 2 then [ submit 1 (-1.) ] else [])
  with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* ---------- engine: set_capacity / next_eta / Advance_to ---------- *)

module En = Mwct_runtime.Engine.Float
module P = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)

let wdeq = P.engine_policy P.Wdeq
let ok = function Ok x -> x | Error e -> Alcotest.fail (En.error_to_string e)

let submit eng ~id ~volume ~weight ~cap =
  ignore
    (ok (En.apply eng (En.Submit { id; volume; weight; cap; speedup = None; deps = [] })))

let test_set_capacity () =
  let eng = En.create ~capacity:4. ~policy:wdeq () in
  Alcotest.(check bool) "same capacity is a no-op" false (En.set_capacity eng 4.);
  Alcotest.(check bool) "change reported" true (En.set_capacity eng 2.5);
  Alcotest.(check (float 0.)) "capacity updated" 2.5 (En.capacity eng);
  Alcotest.(check bool) "zero is legal" true (En.set_capacity eng 0.);
  (match En.set_capacity eng (-1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity accepted");
  (* a starved engine reports no next completion, and drain deadlocks *)
  submit eng ~id:0 ~volume:2. ~weight:1. ~cap:1.;
  Alcotest.(check bool) "starved: no eta" true (En.next_eta eng = None);
  (match En.apply eng En.Drain with
  | Error (En.Invalid _) -> ()
  | _ -> Alcotest.fail "drain under zero capacity should deadlock");
  ignore (En.set_capacity eng 4.);
  Alcotest.(check bool) "re-budgeted: eta back" true (En.next_eta eng <> None)

let test_advance_to () =
  let mk () =
    let eng = En.create ~capacity:4. ~policy:wdeq () in
    submit eng ~id:0 ~volume:2. ~weight:1. ~cap:1.;
    submit eng ~id:1 ~volume:8. ~weight:2. ~cap:4.;
    eng
  in
  let a = mk () and b = mk () in
  let notes_a = ok (En.apply a (En.Advance 1.5)) in
  let notes_b = ok (En.apply b (En.Advance_to 1.5)) in
  Alcotest.(check bool) "same completions" true (notes_a = notes_b);
  Alcotest.(check string) "same state" (En.dump a) (En.dump b);
  (match En.apply a (En.Advance_to 1.0) with
  | Error (En.Invalid _) -> ()
  | _ -> Alcotest.fail "advance_to into the past accepted");
  (* landing exactly on the target, not accumulating *)
  ignore (ok (En.apply a (En.Advance_to 1.5)));
  Alcotest.(check (float 0.)) "idempotent target" 1.5 (En.now a)

(* ---------- Ingest ---------- *)

module Ingest = Mwct_runtime.Ingest

let with_temp_file content f =
  let path = Filename.temp_file "mwct_ingest" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      In_channel.with_open_bin path (fun ic -> f (Ingest.create ic)))

let read_all r =
  let rec go acc = match Ingest.next_line r with None -> List.rev acc | Some l -> go (l :: acc) in
  go []

let test_ingest_lines () =
  with_temp_file "a\nbb\n\nccc\n" (fun r ->
      Alcotest.(check (list string)) "terminated lines" [ "a"; "bb"; ""; "ccc" ] (read_all r));
  with_temp_file "tail without newline" (fun r ->
      Alcotest.(check (list string)) "unterminated tail" [ "tail without newline" ] (read_all r));
  with_temp_file "" (fun r -> Alcotest.(check (list string)) "empty stream" [] (read_all r));
  (* lines crossing the 64KiB chunk boundary *)
  let long = String.make 100_000 'x' in
  let content = long ^ "\nshort\n" ^ long in
  with_temp_file content (fun r ->
      Alcotest.(check (list string)) "chunk-crossing lines" [ long; "short"; long ] (read_all r))

(* ---------- metrics latency histogram ---------- *)

module M = Mwct_runtime.Metrics.Make (Mwct_field.Field.Float_field)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_latency_histogram () =
  let m = M.create () in
  Alcotest.(check bool) "no data: no quantile" true (M.latency_quantile m 0.5 = None);
  let json_no_lat = M.to_json ~alive:0 ~now:0. m in
  Alcotest.(check bool) "no data: no lat fields" false (contains json_no_lat "lat_p50_us");
  (* 100 observations at ~1us, 10 at ~1ms, 1 at ~1s *)
  for _ = 1 to 100 do
    M.observe_latency m 1e-6
  done;
  for _ = 1 to 10 do
    M.observe_latency m 1e-3
  done;
  M.observe_latency m 1.0;
  let q p = match M.latency_quantile m p with Some v -> v | None -> Alcotest.fail "no quantile" in
  Alcotest.(check bool) "p50 ~ 1us" true (q 0.5 >= 1. && q 0.5 <= 4.);
  Alcotest.(check bool) "p99 ~ 1ms" true (q 0.99 >= 500. && q 0.99 <= 4000.);
  Alcotest.(check bool) "p999 ~ 1s" true (q 0.999 >= 500_000.);
  Alcotest.(check bool) "quantiles monotone" true (q 0.5 <= q 0.9 && q 0.9 <= q 0.99);
  let json = M.to_json ~alive:0 ~now:0. m in
  Alcotest.(check bool) "lat fields present" true (contains json "lat_p50_us");
  Alcotest.(check bool) "lat count present" true (contains json "\"lat_events\":111")

(* ---------- store smoke: zero-capacity shard rides along ---------- *)

module St = Mwct_runtime.Shard.Float

let test_starved_shard () =
  (* Two shards, all weight in shard 0: WDEQ may starve shard 1 only if
     its weight is zero, which cannot happen with alive tasks — but a
     shard with no tasks must ride advance ticks and keep its clock. *)
  let st =
    St.create ~nshards:2 ~route:St.Mod ~capacity:4. ~allocator:wdeq ~policy:wdeq
      ~kinetic:(fun () -> P.engine_kinetic P.Wdeq)
      ~policy_label:"wdeq" ()
  in
  ignore
    (match St.apply st (St.En.Submit { id = 0; volume = 4.; weight = 1.; cap = 2.; speedup = None; deps = [] }) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (St.En.error_to_string e));
  (match St.apply st (St.En.Advance 1.0) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (St.En.error_to_string e));
  let engines = St.engines st in
  (* lazy clock sync: an empty shard skips the tick entirely... *)
  Alcotest.(check (float 0.)) "empty shard skipped the tick" 0.0 (St.En.now engines.(1));
  (* ...and is caught up right before its next submit, so the task
     still starts at store time now=1 *)
  ignore
    (match St.apply st (St.En.Submit { id = 1; volume = 2.; weight = 1.; cap = 1.; speedup = None; deps = [] }) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (St.En.error_to_string e));
  Alcotest.(check (float 0.)) "lagging shard caught up on submit" 1.0 (St.En.now engines.(1));
  (match St.apply st St.En.Drain with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (St.En.error_to_string e));
  (match St.find_closed st 1 with
  | Some c ->
    Alcotest.(check (float 0.)) "submitted_at respects store clock" 1.0 c.St.En.submitted_at
  | None -> Alcotest.fail "task 1 not closed");
  Alcotest.(check int) "all completed" 2 (St.completed_count st)

(* Allocator summaries on mixed-magnitude weights: 1e16 + 3 rounds to
   1e16 + 4, so after task 0's cancel an incrementally kept sum reads 4
   for shard 0's lone weight-3 task. The drift guard re-sums it, and
   the two shards, each holding one task of weight 3 and cap 2, get
   one processor each. *)
let test_summary_drift () =
  let st =
    St.create ~nshards:2 ~route:St.Mod ~capacity:2. ~allocator:wdeq ~policy:wdeq
      ~kinetic:(fun () -> P.engine_kinetic P.Wdeq)
      ~policy_label:"wdeq" ()
  in
  let submit id volume weight =
    St.En.Submit { id; volume; weight; cap = 2.; speedup = None; deps = [] }
  in
  List.iter
    (fun ev ->
      match St.apply st ev with Ok _ -> () | Error e -> Alcotest.fail (St.En.error_to_string e))
    [ submit 0 1. 1e16; submit 2 100. 3.; submit 1 100. 3.; St.En.Cancel 0; St.En.Advance 1. ];
  Array.iteri
    (fun k e -> Alcotest.(check (float 0.)) (Printf.sprintf "shard %d budget" k) 1. (St.En.capacity e))
    (St.engines st)

(* Task 3 routes to its first parent's shard (task 1, shard 1 under
   mod-2 routing), which cannot see task 2 on shard 0: the refusal
   names both parents and both shards. An id no shard knows keeps the
   engine's message, and a known id stays a duplicate wherever its deps
   point. *)
let test_split_parents () =
  let st =
    St.create ~nshards:2 ~route:St.Mod ~capacity:4. ~allocator:wdeq ~policy:wdeq
      ~kinetic:(fun () -> P.engine_kinetic P.Wdeq)
      ~policy_label:"wdeq" ()
  in
  let submit ?(deps = []) id =
    St.apply st (St.En.Submit { id; volume = 1.; weight = 1.; cap = 1.; speedup = None; deps })
  in
  let refused what expected r =
    match r with
    | Error e -> Alcotest.(check string) what expected (St.En.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  ignore (submit 1);
  ignore (submit 2);
  let before = St.dump st in
  refused "split parents"
    "task 3: dependencies 1 and 2 are on shards 1 and 0; a task's parents must share a shard"
    (submit ~deps:[ 1; 2 ] 3);
  refused "unknown parent" "task 3: unknown dependency 99" (submit ~deps:[ 1; 99 ] 3);
  refused "duplicate routed by its deps" "duplicate task 2" (submit ~deps:[ 1 ] 2);
  Alcotest.(check string) "state untouched" before (St.dump st);
  (match submit ~deps:[ 1 ] 5 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (St.En.error_to_string e));
  refused "duplicate of a diverted id" "duplicate task 5" (submit 5)

let () =
  Alcotest.run "shard"
    [
      ( "oracles",
        [
          Alcotest.test_case "single-shard identity (float)" `Quick test_single_identity_float;
          Alcotest.test_case "single-shard identity (exact)" `Quick test_single_identity_exact;
          Alcotest.test_case "per-shard replay (float, mod)" `Quick test_shard_replay_float_mod;
          Alcotest.test_case "per-shard replay (float, hash)" `Quick test_shard_replay_float_hash;
          Alcotest.test_case "per-shard replay (exact)" `Quick test_shard_replay_exact;
          Alcotest.test_case "merged determinism (float)" `Quick test_merged_determinism_float;
          Alcotest.test_case "merged determinism (exact)" `Quick test_merged_determinism_exact;
          Alcotest.test_case "flat completion-set agreement (float)" `Quick test_flat_agreement_float;
          Alcotest.test_case "flat completion-set agreement (exact)" `Quick test_flat_agreement_exact;
        ] );
      ( "dag-oracles",
        [
          Alcotest.test_case "single-shard identity (float)" `Quick test_dag_single_identity_float;
          Alcotest.test_case "per-shard replay (float)" `Quick test_dag_shard_replay_float;
          Alcotest.test_case "per-shard replay (exact)" `Quick test_dag_shard_replay_exact;
          Alcotest.test_case "merged determinism (float)" `Quick test_dag_merged_determinism_float;
          Alcotest.test_case "flat completion-set agreement (float)" `Quick test_dag_flat_agreement_float;
        ] );
      ( "refusals",
        [
          Alcotest.test_case "no trace (float, mod)" `Quick (test_refusals_float ~nshards:3 CF.St.Mod);
          Alcotest.test_case "no trace (float, hash)" `Quick (test_refusals_float ~nshards:4 CF.St.Hash);
          Alcotest.test_case "no trace (exact, mod)" `Quick (test_refusals_exact CX.St.Mod);
          Alcotest.test_case "no trace (exact, hash)" `Quick (test_refusals_exact CX.St.Hash);
          Alcotest.test_case "refused submit on a lagging shard" `Quick
            test_refused_submit_on_lagging_shard;
        ] );
      ( "engine",
        [
          Alcotest.test_case "set_capacity" `Quick test_set_capacity;
          Alcotest.test_case "advance_to" `Quick test_advance_to;
        ] );
      ( "ingest", [ Alcotest.test_case "chunked line reader" `Quick test_ingest_lines ] );
      ( "metrics", [ Alcotest.test_case "latency histogram" `Quick test_latency_histogram ] );
      ( "store",
        [
          Alcotest.test_case "idle shard rides ticks" `Quick test_starved_shard;
          Alcotest.test_case "parents on two shards" `Quick test_split_parents;
          Alcotest.test_case "summaries re-sum after cancellation" `Quick test_summary_drift;
        ] );
    ]
