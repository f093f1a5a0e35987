(* Replay the committed regression corpus (test/corpus/*.spec) through
   the differential driver: every registry solver against every
   applicable oracle, on both engines.  Any counterexample `mwct fuzz`
   finds and we fix should land here so the failure can never return.

   The corpus also pins the scoping discovery behind Theorems 9/10:
   [wdeq-thm9-boundary.spec] is an instance where WDEQ's event-driven
   completion-time vector genuinely needs n+1 allocation changes, which
   is why the counting oracles restrict the sharp bounds to offline
   completion-time vectors (and Skip on WDEQ/DEQ instead of Fail). *)

open Test_support
module EQ = Support.EQ
module D = Mwct_check.Differential
module Oracle = Mwct_check.Oracle
module Spec_io = Mwct_core.Spec_io

(* Under `dune runtest` the cwd is the test directory; under
   `dune exec` it is the project root. *)
let corpus_dir =
  if Sys.file_exists "corpus" then "corpus" else Filename.concat "test" "corpus"

let corpus_files () =
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".spec")
  |> List.sort compare

let load name =
  match Spec_io.load (Filename.concat corpus_dir name) with
  | Ok spec -> spec
  | Error e -> Alcotest.failf "%s: %s" name e

let test_replay name () =
  let verdicts = D.run_spec D.default_config (load name) in
  Alcotest.(check bool) "produced verdicts" true (verdicts <> []);
  match D.failures verdicts with
  | [] -> ()
  | fs ->
      Alcotest.failf "%s: %d failing verdicts:\n%s" name (List.length fs)
        (String.concat "\n" (List.map Oracle.verdict_to_string fs))

(* The boundary instance really is beyond the offline bound: exact WDEQ
   needs strictly more than n allocation changes here.  If a future
   change makes this pass, the thm9/thm10 oracles should be re-scoped
   to cover non-clairvoyant solvers again. *)
let test_thm9_boundary () =
  let qi = Support.qinst (load "wdeq-thm9-boundary.spec") in
  let n = Array.length qi.EQ.Types.tasks in
  let s = EQ.Wdeq.wdeq qi in
  let changes = EQ.Preemption.total_changes (EQ.Water_filling.normalize s) in
  Alcotest.(check bool)
    (Printf.sprintf "WDEQ needs > n allocation changes (%d for n=%d)" changes n)
    true (changes > n)

let () =
  let replays =
    List.map
      (fun f -> Alcotest.test_case f `Quick (test_replay f))
      (corpus_files ())
  in
  Alcotest.run "corpus"
    [
      ("replay", replays);
      ( "boundaries",
        [ Alcotest.test_case "thm9 offline scoping is necessary" `Quick test_thm9_boundary ] );
    ]
