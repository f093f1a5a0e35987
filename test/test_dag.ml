(* Precedence subsystem tests (DESIGN.md §15): the runtime engine's
   dormant -> alive lifecycle (activation at the last parent's
   completion, release re-stamped at activation, cascade cancel), the
   journal round-trip of `deps` fields, zero-edge byte identity with the
   independent-bag engine, and the frontier loop of `Wdeq.simulate`
   against hand-checkable instances. *)

open Test_support
module Spec_io = Mwct_core.Spec_io
module EF = Support.EF
module EQ = Support.EQ
module SF = Mwct_solver.Solver.Float
module EnF = Mwct_runtime.Engine.Make (Mwct_field.Field.Float_field)
module JF = Mwct_runtime.Journal.Make (Mwct_field.Field.Float_field)
module SimF = Mwct_ncv.Simulator.Make (Mwct_field.Field.Float_field)

let wdeq_policy = SimF.P.engine_policy SimF.P.Wdeq
let resolve name = Option.map SimF.P.engine_policy (SimF.P.of_name name)
let fresh ~capacity = EnF.create ~capacity ~policy:wdeq_policy ()

let ok = function Ok x -> x | Error e -> Alcotest.fail (EnF.error_to_string e)

let submit eng ?(deps = []) ~id ~volume ~weight ~cap () =
  EnF.apply eng (EnF.Submit { id; volume; weight; cap; speedup = None; deps })

let parse text =
  match Spec_io.of_string text with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "spec parse: %s" e

(* ---------- dormant lifecycle ---------- *)

(* Chain 0 -> 1 on 2 processors: task 1 is dormant until t=1 (task 0's
   completion), then runs alone for one unit. Its release is stamped at
   activation, so its weighted flow is 1, not 2. *)
let test_dormant_activation () =
  let eng = fresh ~capacity:2.0 in
  ignore (ok (submit eng ~id:0 ~volume:2.0 ~weight:1.0 ~cap:2.0 ()));
  ignore (ok (submit eng ~deps:[ 0 ] ~id:1 ~volume:1.0 ~weight:1.0 ~cap:1.0 ()));
  Alcotest.(check int) "one alive" 1 (EnF.alive_count eng);
  Alcotest.(check int) "one dormant" 1 (EnF.dormant_count eng);
  Alcotest.(check (option int)) "waiting on one parent" (Some 1) (EnF.waiting_on eng 1);
  Alcotest.(check bool) "dump fingerprints dormant state" true
    (let dump = EnF.dump eng in
     let re = Str.regexp_string "dormant id=1" in
     (try ignore (Str.search_forward re dump 0); true with Not_found -> false));
  let notes = ok (EnF.apply eng (EnF.Advance 1.0)) in
  Alcotest.(check (list (pair int (float 1e-9)))) "parent completes at 1" [ (0, 1.0) ]
    (List.map (fun (n : EnF.notification) -> (n.EnF.id, n.EnF.at)) notes);
  Alcotest.(check int) "child activated" 1 (EnF.alive_count eng);
  Alcotest.(check int) "no dormant left" 0 (EnF.dormant_count eng);
  Alcotest.(check (option int)) "no longer waiting" None (EnF.waiting_on eng 1);
  ignore (ok (EnF.apply eng EnF.Drain));
  Alcotest.(check (float 1e-9)) "completions 0@1, 1@2" 2.0 (List.assoc 1 (EnF.completions eng));
  (* flow(0) = 1 - 0; flow(1) = 2 - 1 (release re-stamped at activation) *)
  Alcotest.(check (float 1e-9)) "weighted flow counts activation release" 2.0
    (EnF.weighted_flow eng)

(* A task whose parent already completed must activate immediately on
   submit (deps on closed ids are satisfied, not unknown). *)
let test_deps_on_completed_parent () =
  let eng = fresh ~capacity:2.0 in
  ignore (ok (submit eng ~id:0 ~volume:1.0 ~weight:1.0 ~cap:2.0 ()));
  ignore (ok (EnF.apply eng EnF.Drain));
  ignore (ok (submit eng ~deps:[ 0 ] ~id:1 ~volume:1.0 ~weight:1.0 ~cap:1.0 ()));
  Alcotest.(check int) "immediately alive" 1 (EnF.alive_count eng);
  Alcotest.(check int) "not dormant" 0 (EnF.dormant_count eng)

let test_bad_deps_rejected () =
  let eng = fresh ~capacity:2.0 in
  (match submit eng ~deps:[ 7 ] ~id:0 ~volume:1.0 ~weight:1.0 ~cap:1.0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown parent accepted");
  (match submit eng ~deps:[ 0 ] ~id:0 ~volume:1.0 ~weight:1.0 ~cap:1.0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-dependency accepted");
  (* cancelled parents are gone: a later dep on them is unknown *)
  ignore (ok (submit eng ~id:1 ~volume:1.0 ~weight:1.0 ~cap:1.0 ()));
  ignore (ok (EnF.apply eng (EnF.Cancel 1)));
  match submit eng ~deps:[ 1 ] ~id:2 ~volume:1.0 ~weight:1.0 ~cap:1.0 () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dep on cancelled parent accepted"

(* ---------- cascade cancel (pinned semantics) ---------- *)

(* Cancelling a task cancels its dormant dependents transitively: the
   chosen semantics is CASCADE, not reject. [cancel] reports the full
   cascade, requested id first. *)
let test_cancel_cascades () =
  let eng = fresh ~capacity:2.0 in
  ignore (ok (submit eng ~id:0 ~volume:2.0 ~weight:1.0 ~cap:2.0 ()));
  ignore (ok (submit eng ~deps:[ 0 ] ~id:1 ~volume:1.0 ~weight:1.0 ~cap:1.0 ()));
  ignore (ok (submit eng ~deps:[ 1 ] ~id:2 ~volume:1.0 ~weight:1.0 ~cap:1.0 ()));
  (match EnF.cancel eng 0 with
  | Ok ids -> Alcotest.(check (list int)) "cascade, requested id first" [ 0; 1; 2 ] ids
  | Error e -> Alcotest.fail (EnF.error_to_string e));
  Alcotest.(check int) "nothing alive" 0 (EnF.alive_count eng);
  Alcotest.(check int) "nothing dormant" 0 (EnF.dormant_count eng);
  Alcotest.(check int) "three cancelled" 3 (EnF.cancelled_count eng)

let prop_cancel_root_cascades_chain =
  QCheck2.Test.make ~count:60 ~name:"cancelling a chain's root cascades to every dormant dependent"
    QCheck2.Gen.(int_range 2 10)
    (fun n ->
      let eng = fresh ~capacity:2.0 in
      ignore (ok (submit eng ~id:0 ~volume:2.0 ~weight:1.0 ~cap:2.0 ()));
      for i = 1 to n - 1 do
        ignore (ok (submit eng ~deps:[ i - 1 ] ~id:i ~volume:1.0 ~weight:1.0 ~cap:1.0 ()))
      done;
      let ids = match EnF.cancel eng 0 with Ok ids -> ids | Error _ -> [] in
      ids = List.init n (fun i -> i)
      && EnF.alive_count eng = 0
      && EnF.dormant_count eng = 0
      && EnF.cancelled_count eng = n)

(* ---------- journal round-trip with deps ---------- *)

let diamond_stream () =
  let eng = fresh ~capacity:3.0 in
  let entries = ref [ JF.Init { capacity = 3.0; policy = "wdeq" } ] in
  let apply ev =
    match EnF.apply eng ev with
    | Ok notes ->
      entries := JF.Input ev :: !entries;
      List.iter
        (fun (nt : EnF.notification) ->
          entries := JF.Output { id = nt.EnF.id; at = nt.EnF.at } :: !entries)
        notes
    | Error e -> Alcotest.fail (EnF.error_to_string e)
  in
  let sub ?(deps = []) id volume cap =
    apply (EnF.Submit { id; volume; weight = 1.0; cap; speedup = None; deps })
  in
  sub 0 2.0 3.0;
  sub ~deps:[ 0 ] 1 1.0 2.0;
  sub ~deps:[ 0 ] 2 2.0 1.0;
  apply (EnF.Advance 0.5);
  sub ~deps:[ 1; 2 ] 3 1.0 3.0;
  apply (EnF.Advance 2.0);
  apply EnF.Drain;
  (List.mapi (fun i e -> (i, e)) (List.rev !entries), EnF.dump eng)

let test_journal_roundtrip_deps () =
  let entries, dump = diamond_stream () in
  let lines = List.map (fun (seq, e) -> JF.to_line ~seq e) entries in
  Alcotest.(check bool) "some journal line carries a deps field" true
    (List.exists (fun l -> Str.string_match (Str.regexp ".*\"deps\"") l 0) lines);
  let reparsed =
    List.map
      (fun line ->
        match JF.of_line line with
        | Ok se -> se
        | Error msg -> Alcotest.failf "of_line %S: %s" line msg)
      lines
  in
  List.iter2
    (fun line (seq, e) -> Alcotest.(check string) "codec round-trip" line (JF.to_line ~seq e))
    lines reparsed;
  match JF.replay ~resolve reparsed with
  | Error msg -> Alcotest.failf "replay: %s" msg
  | Ok eng -> Alcotest.(check string) "replayed state identical" dump (EnF.dump eng)

(* Replay must also verify through a *dormant* snapshot: cut the stream
   right after the dormant submits and compare dumps there. *)
let test_replay_dormant_prefix () =
  let eng = fresh ~capacity:3.0 in
  let entries = ref [ JF.Init { capacity = 3.0; policy = "wdeq" } ] in
  let apply ev =
    ignore (ok (EnF.apply eng ev));
    entries := JF.Input ev :: !entries
  in
  apply (EnF.Submit { id = 0; volume = 2.0; weight = 1.0; cap = 3.0; speedup = None; deps = [] });
  apply (EnF.Submit { id = 1; volume = 1.0; weight = 2.0; cap = 2.0; speedup = None; deps = [ 0 ] });
  let entries = List.mapi (fun i e -> (i, e)) (List.rev !entries) in
  match JF.replay ~resolve entries with
  | Error msg -> Alcotest.failf "replay: %s" msg
  | Ok replayed ->
    Alcotest.(check string) "dormant snapshot replays byte-identically" (EnF.dump eng)
      (EnF.dump replayed);
    Alcotest.(check int) "dormant survives replay" 1 (EnF.dormant_count replayed)

(* ---------- zero-edge byte identity ---------- *)

(* A stream that never uses deps must leave no trace of the precedence
   machinery: no "deps" field in any journal line, no dormant line in
   the dump (the PR's no-regression contract with the pre-DAG engine). *)
let test_zero_edge_no_trace () =
  let eng = fresh ~capacity:2.0 in
  let lines = ref [] in
  let apply seq ev =
    ignore (ok (EnF.apply eng ev));
    lines := JF.to_line ~seq (JF.Input ev) :: !lines
  in
  apply 0 (EnF.Submit { id = 0; volume = 2.0; weight = 1.0; cap = 2.0; speedup = None; deps = [] });
  apply 1 (EnF.Submit { id = 1; volume = 1.0; weight = 3.0; cap = 1.0; speedup = None; deps = [] });
  apply 2 (EnF.Advance 0.25);
  List.iter
    (fun l ->
      Alcotest.(check bool) "no deps field on zero-edge journal lines" false
        (Str.string_match (Str.regexp ".*\"deps\"") l 0))
    !lines;
  let dump = EnF.dump eng in
  Alcotest.(check bool) "no dormant line in zero-edge dump" false
    (try
       ignore (Str.search_forward (Str.regexp_string "dormant") dump 0);
       true
     with Not_found -> false)

(* ---------- frontier simulation loop ---------- *)

let chain_spec =
  parse
    {|
procs 3
task 2 1 2
task 1 4 1
deps 0
task 3/2 2 3
deps 1
|}

(* Chain: each task runs alone at min(delta, P); completions are the
   prefix sums 1, 2, 2.5 and the order is forced. *)
let test_dag_chain_schedule () =
  let inst = Support.finst chain_spec in
  let s = EF.Wdeq.wdeq inst in
  Alcotest.(check (array int)) "forced order" [| 0; 1; 2 |] s.EF.Types.order;
  Alcotest.(check (array (float 1e-9))) "prefix-sum finishes" [| 1.0; 2.0; 2.5 |]
    s.EF.Types.finish

let diamond_spec =
  parse
    {|
procs 4
task 2 3 2
task 3/2 1 2
deps 0
task 1 2 3
deps 0
task 5/2 4 4
deps 1 2
|}

(* The diamond respects precedence and matches the registry solver. *)
let test_dag_diamond_valid () =
  let inst = Support.finst diamond_spec in
  let s = EF.Wdeq.wdeq inst in
  let c = EF.Schedule.completion_times s in
  Array.iteri
    (fun i (t : EF.Types.task) ->
      Array.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "parent %d before child %d" p i)
            true
            (c.(p) <= c.(i) +. 1e-9))
        t.EF.Types.deps)
    inst.EF.Types.tasks;
  Alcotest.(check (float 1e-9)) "registry solver agrees"
    (EF.Schedule.weighted_completion_time s)
    (SF.objective "wdeq-dag" inst)

(* Zero-edge instances take the independent-bag code path: the
   registry's frontier entry reproduces the bag schedule — exact
   structural equality, not just objective agreement. *)
let prop_zero_edge_identity =
  QCheck2.Test.make ~count:80 ~name:"wdeq-dag = wdeq on zero-edge instances (exact equality)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:8 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let solve name = fst (SF.solve_exn name inst) in
      let w = solve "wdeq" in
      let same (d : EF.Types.column_schedule) =
        d.EF.Types.order = w.EF.Types.order
        && d.EF.Types.finish = w.EF.Types.finish
        && d.EF.Types.columns = w.EF.Types.columns
      in
      same (solve "wdeq-dag"))

(* The batch frontier schedule against the online engine's dormant ->
   alive lifecycle: every task submitted at time 0 (parents listed as
   deps) to an engine and drained must complete at exactly the batch
   completion time, on the exact field (where the engine reshares
   through the list rule), for WDEQ and DEQ. *)
module EnQ = Mwct_runtime.Engine.Make (Mwct_rational.Rational.Rat_field)
module SimQ = Mwct_ncv.Simulator.Make (Mwct_rational.Rational.Rat_field)

let engine_completions policy (inst : EQ.Types.instance) =
  let eng =
    EnQ.create ?kinetic:(SimQ.P.engine_kinetic policy) ~capacity:inst.EQ.Types.procs
      ~policy:(SimQ.P.engine_policy policy) ()
  in
  let ok = function Ok x -> x | Error e -> Alcotest.fail (EnQ.error_to_string e) in
  Array.iteri
    (fun i (t : EQ.Types.task) ->
      ignore
        (ok
           (EnQ.apply eng
              (EnQ.Submit
                 {
                   id = i;
                   volume = t.EQ.Types.volume;
                   weight = t.EQ.Types.weight;
                   cap = EQ.Instance.effective_delta inst i;
                   speedup = EQ.Instance.speedup_arrays inst i;
                   deps = Array.to_list t.EQ.Types.deps;
                 }))))
    inst.EQ.Types.tasks;
  ok (EnQ.apply eng EnQ.Drain)

let prop_batch_matches_engine =
  QCheck2.Test.make ~count:100 ~name:"batch frontier schedule = engine drain (exact)"
    ~print:Support.print_spec
    QCheck2.Gen.(
      oneofl [ `Dag_layered; `Dag_fork_join; `Dag_random; `Dag_chain ] >>= Support.gen_spec ~max_n:8)
    (fun spec ->
      let inst = Support.qinst spec in
      List.for_all
        (fun (policy, batch) ->
          let c = EQ.Schedule.completion_times (batch inst) in
          let notes = engine_completions policy inst in
          List.length notes = Array.length c
          && List.for_all (fun (n : EnQ.notification) -> EQ.Field.equal n.EnQ.at c.(n.EnQ.id)) notes)
        [ (SimQ.P.Wdeq, EQ.Wdeq.wdeq); (SimQ.P.Deq, EQ.Wdeq.deq) ])

let () =
  let p = QCheck_alcotest.to_alcotest in
  Alcotest.run "dag"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "dormant activation and release re-stamp" `Quick
            test_dormant_activation;
          Alcotest.test_case "deps on completed parent" `Quick test_deps_on_completed_parent;
          Alcotest.test_case "bad deps rejected" `Quick test_bad_deps_rejected;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "cancel cascades through dormant chain" `Quick test_cancel_cascades;
          p prop_cancel_root_cascades_chain;
        ] );
      ( "journal",
        [
          Alcotest.test_case "deps round-trip and replay" `Quick test_journal_roundtrip_deps;
          Alcotest.test_case "dormant prefix replays" `Quick test_replay_dormant_prefix;
          Alcotest.test_case "zero-edge leaves no trace" `Quick test_zero_edge_no_trace;
        ] );
      ( "simulator",
        [
          Alcotest.test_case "chain schedule" `Quick test_dag_chain_schedule;
          Alcotest.test_case "diamond valid + registry agreement" `Quick test_dag_diamond_valid;
          p prop_zero_edge_identity;
          p prop_batch_matches_engine;
        ] );
    ]
