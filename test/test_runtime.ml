(* Tests for the online runtime (lib/runtime): the incremental engine
   against the batch WDEQ simulator on zero-release instances, the
   journal codec, the deterministic-replay invariant on random event
   streams (both fields), and error handling on bad events. *)

open Test_support
module Rng = Mwct_util.Rng

(* Field-generic helpers, instantiated below for both engines. *)
module H (F : Mwct_field.Field.S) = struct
  module En = Mwct_runtime.Engine.Make (F)
  module J = Mwct_runtime.Journal.Make (F)
  module E = Mwct_core.Engine.Make (F)
  module Sim = Mwct_ncv.Simulator.Make (F)

  let wdeq_policy = Sim.P.engine_policy Sim.P.Wdeq

  let fresh ?kinetic (inst : E.Types.instance) =
    En.create ?kinetic ~capacity:inst.E.Types.procs ~policy:wdeq_policy ()

  let ok = function Ok x -> x | Error e -> Alcotest.fail (En.error_to_string e)

  let submit eng inst i =
    let t = inst.E.Types.tasks.(i) in
    En.apply eng
      (En.Submit
         {
           id = i;
           volume = t.E.Types.volume;
           weight = t.E.Types.weight;
           cap = E.Instance.effective_delta inst i;
           speedup = E.Instance.speedup_arrays inst i;
           deps = [];
         })

  (* Submit everything at t=0 and run to completion. *)
  let drain_all inst =
    let eng = fresh inst in
    Array.iteri (fun i _ -> ignore (ok (submit eng inst i))) inst.E.Types.tasks;
    ignore (ok (En.apply eng En.Drain));
    eng

  (* Drive a random event stream (submits interleaved with advances and
     cancels, then a drain), journaling every applied event. Rejected
     events never enter the journal. Returns the entries and the final
     state fingerprint. *)
  let random_stream ?kinetic ~seed (inst : E.Types.instance) =
    let rng = Rng.create seed in
    let eng = fresh ?kinetic inst in
    let entries = ref [ J.Init { capacity = inst.E.Types.procs; policy = "wdeq" } ] in
    let push e = entries := e :: !entries in
    let apply ev =
      match En.apply eng ev with
      | Ok notes ->
        push (J.Input ev);
        List.iter
          (fun (nt : En.notification) -> push (J.Output { id = nt.En.id; at = nt.En.at }))
          notes
      | Error _ -> ()
    in
    let n = Array.length inst.E.Types.tasks in
    Array.iteri
      (fun i _ ->
        if Rng.int_in rng 0 3 = 0 then apply (En.Advance (F.of_q (Rng.int_in rng 0 8) 4));
        if Rng.int_in rng 0 4 = 0 then apply (En.Cancel (Rng.int_in rng 0 (n - 1)));
        apply
          (En.Submit
             {
               id = i;
               volume = inst.E.Types.tasks.(i).E.Types.volume;
               weight = inst.E.Types.tasks.(i).E.Types.weight;
               cap = E.Instance.effective_delta inst i;
               speedup = E.Instance.speedup_arrays inst i;
               deps = [];
             }))
      inst.E.Types.tasks;
    apply En.Drain;
    (List.mapi (fun i e -> (i, e)) (List.rev !entries), En.dump eng)

  let resolve name = Option.map Sim.P.engine_policy (Sim.P.of_name name)

  (* Policy labels are free text. Quotes, backslashes and control
     characters must leave the encoder escaped (strict JSON has no raw
     byte below 0x20) and come back unchanged. *)
  let check_label_roundtrip () =
    List.iter
      (fun label ->
        List.iter
          (fun e ->
            let line = J.to_line ~seq:0 e in
            if not (String.for_all (fun c -> Char.code c >= 0x20) line) then
              Alcotest.failf "raw control character in %S" line;
            match J.of_line line with
            | Ok (_, ((J.Init { policy; _ } | J.Policy policy) as e')) ->
              Alcotest.(check string) "label round-trip" label policy;
              Alcotest.(check string) "codec round-trip" line (J.to_line ~seq:0 e')
            | Ok _ -> Alcotest.failf "of_line %S: wrong entry kind" line
            | Error msg -> Alcotest.failf "of_line %S: %s" line msg)
          [ J.Init { capacity = F.one; policy = label }; J.Policy label ])
      [ "a\"b"; "back\\slash"; "new\nline"; "tab\there"; "ctl\001x"; "\"\\\n\t\001\r\031" ]

  (* Serialize, reparse, replay; check the codec round-trips and the
     replayed engine reaches the identical state. *)
  let check_roundtrip (entries, dump) =
    let lines = List.map (fun (seq, e) -> J.to_line ~seq e) entries in
    let reparsed =
      List.map
        (fun line ->
          match J.of_line line with
          | Ok se -> se
          | Error msg -> Alcotest.failf "of_line %S: %s" line msg)
        lines
    in
    List.iter2
      (fun line (seq, e) ->
        Alcotest.(check string) "codec round-trip" line (J.to_line ~seq e))
      lines reparsed;
    check_label_roundtrip ();
    match J.replay ~resolve reparsed with
    | Error msg -> Alcotest.failf "replay: %s" msg
    | Ok eng -> Alcotest.(check string) "replayed state identical" dump (En.dump eng)

  let journal_lines entries = List.map (fun (seq, e) -> J.to_line ~seq e) entries

  (* Kinetic (incremental WDEQ) engine vs the list-policy engine on the
     same event stream: journal bytes and state fingerprints must be
     identical — the incremental frontier is a pure representation
     change. *)
  let check_kinetic_identity ~seed inst =
    let e1, d1 = random_stream ~seed inst in
    let e2, d2 = random_stream ?kinetic:(Sim.P.engine_kinetic Sim.P.Wdeq) ~seed inst in
    List.iter2
      (fun a b -> Alcotest.(check string) "kinetic journal line" a b)
      (journal_lines e1) (journal_lines e2);
    Alcotest.(check string) "kinetic dump" d1 d2

  (* The WDEQ engine over one random stream, with the kinetic rule
     where the field has one: its journal lines and final dump. *)
  let kinetic_run ~seed spec =
    let e, d =
      random_stream ?kinetic:(Sim.P.engine_kinetic Sim.P.Wdeq) ~seed (E.Instance.of_spec spec)
    in
    (journal_lines e, d)
end

module HF = H (Mwct_field.Field.Float_field)
module HQ = H (Mwct_rational.Rational.Rat_field)

(* The float field answering [Any] to the witness match: an engine
   over it runs the generic step loop and commit body and, having no
   kinetic rule, reshares through the list rule, all on float
   arithmetic: the reference for the monomorphic float kernels. *)
module Float_any = struct
  include Mwct_field.Field.Float_field

  let witness : t Mwct_field.Field.witness = Mwct_field.Field.Any
end

module HA = H (Float_any)
module EF = Support.EF
module EQ = Support.EQ

(* ---------- engine vs batch WDEQ ---------- *)

let prop_engine_matches_wdeq_float =
  QCheck2.Test.make ~count:120 ~name:"engine drain = Wdeq.simulate objective (float)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:8 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      let eng = HF.drain_all inst in
      let batch = EF.Wdeq.wdeq inst in
      let expected = EF.Schedule.weighted_completion_time batch in
      abs_float (expected -. HF.En.weighted_completion eng) <= 1e-9 *. (1. +. abs_float expected))

let prop_engine_matches_wdeq_exact =
  QCheck2.Test.make ~count:40 ~name:"engine drain = Wdeq.simulate objective (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Mixed)
    (fun spec ->
      let inst = Support.qinst spec in
      let eng = HQ.drain_all inst in
      let batch = EQ.Wdeq.wdeq inst in
      Support.Q.equal (EQ.Schedule.weighted_completion_time batch) (HQ.En.weighted_completion eng))

(* Per-task completion times, not just the objective. *)
let test_engine_completions_match () =
  let spec =
    Support.spec ~procs:4 [ ((1, 1), (1, 1), 1); ((6, 1), (1, 1), 4); ((2, 1), (3, 1), 2) ]
  in
  let inst = Support.finst spec in
  let eng = HF.drain_all inst in
  let batch = EF.Wdeq.wdeq inst in
  let by_id = HF.En.completions eng in
  Array.iteri
    (fun j ti ->
      let c = List.assoc ti by_id in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "task %d completion" ti)
        batch.EF.Types.finish.(j) c)
    batch.EF.Types.order

(* ---------- journal: replay determinism ---------- *)

let prop_replay_roundtrip_float =
  QCheck2.Test.make ~count:100 ~name:"journal replay deterministic (float)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:8 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      HF.check_roundtrip (HF.random_stream ~seed:(Hashtbl.hash spec) inst);
      true)

let prop_replay_roundtrip_exact =
  QCheck2.Test.make ~count:100 ~name:"journal replay deterministic (exact)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:5 `Mixed)
    (fun spec ->
      let inst = Support.qinst spec in
      HQ.check_roundtrip (HQ.random_stream ~seed:(Hashtbl.hash spec) inst);
      true)

(* ---------- cross-engine bit-identity (kinetic / fast path) ---------- *)

let prop_kinetic_identity_float =
  QCheck2.Test.make ~count:80 ~name:"kinetic engine = list engine (float)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:8 `Uniform)
    (fun spec ->
      let inst = Support.finst spec in
      HF.check_kinetic_identity ~seed:(Hashtbl.hash spec) inst;
      true)

(* The monomorphic float kernels (advance, commit, kinetic reshare)
   against the generic step loop and the list rule on the same float
   arithmetic: journal bytes and final dumps must be identical. *)
let prop_float_kernels_identity =
  QCheck2.Test.make ~count:80 ~name:"float kernels = generic bodies (float)"
    ~print:Support.print_spec
    (Support.gen_spec ~max_n:8 `Uniform)
    (fun spec ->
      let seed = Hashtbl.hash spec in
      let l1, d1 = HF.kinetic_run ~seed spec and l2, d2 = HA.kinetic_run ~seed spec in
      List.iter2 (fun a b -> Alcotest.(check string) "kernel journal line" a b) l1 l2;
      Alcotest.(check string) "kernel dump" d1 d2;
      true)

(* ---------- churn-scale bit-identity (float) ---------- *)

module PF = HF.Sim.P

(* A deterministic churn at 400 alive tasks, the benchsuite's churn
   shape scaled down: each round refills the alive set, cancels four of
   the tasks it just submitted (alive under any policy: no time has
   passed since), then advances a quarter unit; a drain ends it. At
   this size a reshare almost never clips. Each weight carries 49
   significant bits: a pool sum of 400 of them rounds, so the last bits
   of every share depend on the order in which it is summed, while a
   weight times a cap (at most 3 bits) stays exact and the ratio order
   stays a total order. *)
let churn_events () =
  let eng =
    HF.En.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  let rng = Rng.create 16 in
  let out = ref [] in
  let apply ev =
    ignore (HF.ok (HF.En.apply eng ev));
    out := ev :: !out
  in
  let next_id = ref 0 in
  for _ = 1 to 120 do
    let fresh = ref [] in
    while HF.En.alive_count eng < 400 do
      let id = !next_id in
      incr next_id;
      fresh := id :: !fresh;
      apply
        (HF.En.Submit
           {
             id;
             volume = 0.5 +. (float_of_int (Rng.int_in rng 0 64) /. 16.);
             weight =
               float_of_int (1 + Rng.int_in rng 0 10)
               +. (float_of_int (Rng.int_in rng 0 0xfffff) *. 0x1p-45);
             cap = float_of_int (1 + Rng.int_in rng 0 4);
             speedup = None;
             deps = [];
           })
    done;
    List.iteri (fun i id -> if i < 4 then apply (HF.En.Cancel id)) !fresh;
    apply (HF.En.Advance 0.25)
  done;
  apply HF.En.Drain;
  List.rev !out

(* Journal lines and final metrics of one engine over the stream. *)
let churn_run ?kinetic policy events =
  let eng = HF.En.create ?kinetic ~capacity:64. ~policy:(PF.engine_policy policy) () in
  let lines = ref [] and seq = ref 0 in
  let push e =
    lines := HF.J.to_line ~seq:!seq e :: !lines;
    incr seq
  in
  push (HF.J.Init { capacity = 64.; policy = PF.name policy });
  List.iter
    (fun ev ->
      let notes = HF.ok (HF.En.apply eng ev) in
      push (HF.J.Input ev);
      List.iter
        (fun (nt : HF.En.notification) -> push (HF.J.Output { id = nt.HF.En.id; at = nt.HF.En.at }))
        notes)
    events;
  (List.rev !lines, HF.En.metrics_json eng)

(* The kinetic engine (float reshare body) against the list-policy
   engine, at churn scale, for WDEQ and DEQ: same journal bytes, same
   final metrics. The digests were captured from the code before the
   float reshare bodies existed, so they pin the bytes themselves, not
   only the agreement of the two engines. *)
let test_churn_identity () =
  let events = churn_events () in
  List.iter
    (fun (policy, digest) ->
      let what = PF.name policy in
      let kl, km = churn_run ?kinetic:(PF.engine_kinetic policy) policy events in
      let ll, lm = churn_run policy events in
      Alcotest.(check int) (what ^ ": journal length") (List.length ll) (List.length kl);
      List.iter2 (fun a b -> Alcotest.(check string) (what ^ ": journal line") a b) ll kl;
      Alcotest.(check string) (what ^ ": final metrics") lm km;
      Alcotest.(check string) (what ^ ": journal digest") digest
        (Digest.to_hex (Digest.string (String.concat "\n" kl))))
    [ (PF.Wdeq, "a502fb5ee8c316980f2909e870c97f69"); (PF.Deq, "d71700fe7ab063bbdfbe18709e38d3e0") ]

(* ---------- errors ---------- *)

let test_cancel_unknown () =
  let spec = Support.uspec ~procs:2 [ ((1, 1), 1); ((1, 1), 1) ] in
  let inst = Support.finst spec in
  let eng = HF.fresh inst in
  ignore (HF.ok (HF.submit eng inst 0));
  let before = HF.En.dump eng in
  (match HF.En.apply eng (HF.En.Cancel 7) with
  | Error (HF.En.Unknown_task 7) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (HF.En.error_to_string e)
  | Ok _ -> Alcotest.fail "cancel of unknown id succeeded");
  Alcotest.(check string) "state untouched by failed cancel" before (HF.En.dump eng);
  (* Complete task 0, then cancelling it must fail the same way. *)
  ignore (HF.ok (HF.En.apply eng HF.En.Drain));
  let before = HF.En.dump eng in
  (match HF.En.apply eng (HF.En.Cancel 0) with
  | Error (HF.En.Unknown_task 0) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (HF.En.error_to_string e)
  | Ok _ -> Alcotest.fail "cancel of completed id succeeded");
  Alcotest.(check string) "state untouched by failed cancel" before (HF.En.dump eng)

let test_bad_events () =
  let spec = Support.uspec ~procs:2 [ ((1, 1), 1) ] in
  let inst = Support.finst spec in
  let eng = HF.fresh inst in
  ignore (HF.ok (HF.submit eng inst 0));
  (match HF.submit eng inst 0 with
  | Error (HF.En.Duplicate_task 0) -> ()
  | _ -> Alcotest.fail "duplicate submit not rejected");
  (match HF.En.apply eng (HF.En.Advance (-1.0)) with
  | Error (HF.En.Invalid _) -> ()
  | _ -> Alcotest.fail "negative advance not rejected");
  (match
     HF.En.apply eng (HF.En.Submit { id = 5; volume = 0.; weight = 1.; cap = 1.; speedup = None; deps = [] })
   with
  | Error (HF.En.Invalid _) -> ()
  | _ -> Alcotest.fail "zero volume not rejected")

(* At clock 1.5 * 2^60 a float step is 256 wide, so a task needing
   less than half of that can never move the clock: its estimate
   lands on [now]. It completes there, on the linear fast path and on
   the curved generic path alike, instead of stalling the advance into
   its no-progress error. *)
let test_pinned_clock () =
  List.iter
    (fun speedup ->
      let eng = HF.En.create ~capacity:4. ~policy:HF.wdeq_policy () in
      let big = 0x1.8p+60 in
      ignore (HF.ok (HF.En.apply eng (HF.En.Advance big)));
      let submit id volume =
        HF.En.Submit { id; volume; weight = 1.; cap = 2.; speedup; deps = [] }
      in
      ignore (HF.ok (HF.En.apply eng (submit 0 5.)));
      ignore (HF.ok (HF.En.apply eng (submit 1 300.)));
      let notes = HF.ok (HF.En.apply eng (HF.En.Advance 1.)) in
      Alcotest.(check (list int)) "the short task completes" [ 0 ]
        (List.map (fun (n : HF.En.notification) -> n.HF.En.id) notes);
      Alcotest.(check (float 0.)) "at the current clock" big (List.hd notes).HF.En.at;
      let notes = HF.ok (HF.En.apply eng HF.En.Drain) in
      Alcotest.(check (list int)) "drain completes the rest" [ 1 ]
        (List.map (fun (n : HF.En.notification) -> n.HF.En.id) notes))
    [ None; Some ([| 1.; 2. |], [| 1.; 1.5 |]) ]

(* ---------- non-finite input ---------- *)

let test_of_repr_rejects_non_finite () =
  let module FF = Mwct_field.Field.Float_field in
  List.iter
    (fun s -> Alcotest.(check (option (float 0.))) (s ^ " refused") None (FF.of_repr s))
    [ "inf"; "-inf"; "infinity"; "nan"; "1e400"; "-1e400"; "inf/1"; "1/0"; "1e308/1e-308" ];
  List.iter
    (fun (s, x) -> Alcotest.(check (option (float 0.))) (s ^ " accepted") (Some x) (FF.of_repr s))
    [ ("1e308", 1e308); ("0x1p+0", 1.); ("3/2", 1.5); ("-0.25", -0.25) ]

(* An advance whose target is not finite — inf or nan, or a finite dt
   that overflows the clock — is refused with [Invalid], and the state
   (dump and metrics) is untouched: on both advance kernels and on a
   sharded store, which must refuse before any shard moves. *)
let non_finite_advances =
  HF.En.[ Advance 1e308; Advance Float.infinity; Advance Float.nan; Advance_to Float.infinity;
          Advance_to Float.nan ]

let check_refused ~what apply fingerprint =
  List.iteri
    (fun k ev ->
      let before = fingerprint () in
      (match apply ev with
      | Error (HF.En.Invalid _) -> ()
      | Error e -> Alcotest.failf "%s event %d: wrong error: %s" what k (HF.En.error_to_string e)
      | Ok _ -> Alcotest.failf "%s event %d: non-finite advance accepted" what k);
      Alcotest.(check string) (Printf.sprintf "%s event %d: state untouched" what k) before
        (fingerprint ()))
    non_finite_advances

let test_non_finite_advance () =
  let spec = Support.uspec ~procs:2 [ ((1, 1), 1); ((2, 1), 2) ] in
  let inst = Support.finst spec in
  (* a linear-only engine runs the float kernel; one holding a curved
     task runs the generic loop on float *)
  List.iter
    (fun (what, speedup) ->
      let eng = HF.fresh inst in
      ignore (HF.ok (HF.submit eng inst 0));
      ignore (HF.ok (HF.En.apply eng (HF.En.Advance 1e308)));
      ignore (HF.ok (HF.submit eng inst 1));
      Option.iter
        (fun sp ->
          let curved =
            HF.En.Submit { id = 2; volume = 1.; weight = 1.; cap = 2.; speedup = Some sp; deps = [] }
          in
          ignore (HF.ok (HF.En.apply eng curved)))
        speedup;
      check_refused ~what (HF.En.apply eng) (fun () -> HF.En.dump eng ^ HF.En.metrics_json eng))
    [ ("engine", None); ("engine with a curved task", Some ([| 1.; 2. |], [| 1.; 1.5 |])) ];
  let module St = Mwct_runtime.Shard.Float in
  let st =
    St.create ~nshards:2 ~route:St.Mod ~capacity:2. ~allocator:HF.wdeq_policy
      ~policy:HF.wdeq_policy
      ~kinetic:(fun () -> HF.Sim.P.engine_kinetic HF.Sim.P.Wdeq)
      ~policy_label:"wdeq" ()
  in
  let submit id =
    ignore
      (HF.ok
         (St.apply st (St.En.Submit { id; volume = 2.; weight = 1.; cap = 1.; speedup = None; deps = [] })))
  in
  submit 0;
  ignore (HF.ok (St.apply st (St.En.Advance 1e308)));
  submit 1;
  check_refused ~what:"sharded store" (St.apply st) (fun () -> St.dump st ^ St.metrics_json st)

let test_replay_rejects_corruption () =
  let spec = Support.uspec ~procs:2 [ ((1, 1), 1); ((2, 1), 2) ] in
  let inst = Support.finst spec in
  let entries, _ = HF.random_stream ~seed:42 inst in
  (* Drop the init line: replay must refuse. *)
  (match HF.J.replay ~resolve:HF.resolve (List.tl entries) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay accepted a journal without init");
  (* Tamper with a completion time: replay must detect the mismatch. *)
  let tampered =
    List.map
      (function
        | seq, HF.J.Output { id; at } -> (seq, HF.J.Output { id; at = at +. 1. })
        | e -> e)
      entries
  in
  match HF.J.replay ~resolve:HF.resolve tampered with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay accepted tampered decisions"

(* ---------- journal bytes, pinned ---------- *)

(* One line of every entry kind, untagged and tagged [~shard:1], on
   both fields. The round-trip properties above would still pass if the
   format changed the same way on both sides of the codec; these
   literal strings pin the bytes themselves, since recorded journals
   must keep replaying. *)
module Pins (F : Mwct_field.Field.S) = struct
  module J = Mwct_runtime.Journal.Make (F)

  let q = F.of_q

  let entries : J.entry list =
    J.
      [
        Init { capacity = q 64 1; policy = "wdeq" };
        Input (En.Submit { id = 3; volume = q 5 2; weight = q 1 1; cap = q 2 1; speedup = None; deps = [] });
        Input
          (En.Submit
             {
               id = 4;
               volume = q 1 10;
               weight = q 3 1;
               cap = q 3 2;
               speedup = Some ([| q 0 1; q 1 1; q 3 1 |], [| q 0 1; q 1 1; q 5 3 |]);
               deps = [];
             });
        Input
          (En.Submit
             { id = 12; volume = q 123456789 7; weight = q 2 3; cap = q 1 1; speedup = None; deps = [ 3; 4 ] });
        Input (En.Cancel 7);
        Input (En.Advance (q 1 1_000_000_000));
        Input (En.Advance_to (q 1_000_000_000_000_000 1));
        Input En.Drain;
        Output { id = 3; at = q 1 3 };
        Budget (q (-7) 8);
        Policy "deq";
      ]

  let check what expected =
    List.iteri
      (fun seq (e, (plain, tagged)) ->
        Alcotest.(check string) (Printf.sprintf "%s seq %d" what seq) plain (J.to_line ~seq e);
        Alcotest.(check string)
          (Printf.sprintf "%s seq %d shard 1" what seq)
          tagged (J.to_line ~shard:1 ~seq e))
      (List.combine entries expected)
end

module PinsF = Pins (Mwct_field.Field.Float_field)
module PinsQ = Pins (Mwct_rational.Rational.Rat_field)

let test_journal_bytes_pinned () =
  PinsF.check "float"
    [
        ( {|{"seq":0,"type":"init","capacity":64,"capacity_repr":"0x1p+6","policy":"wdeq"}|},
          {|{"seq":0,"shard":1,"type":"init","capacity":64,"capacity_repr":"0x1p+6","policy":"wdeq"}|} );
        ( {|{"seq":1,"type":"submit","id":3,"volume":2.5,"volume_repr":"0x1.4p+1","weight":1,"weight_repr":"0x1p+0","cap":2,"cap_repr":"0x1p+1"}|},
          {|{"seq":1,"shard":1,"type":"submit","id":3,"volume":2.5,"volume_repr":"0x1.4p+1","weight":1,"weight_repr":"0x1p+0","cap":2,"cap_repr":"0x1p+1"}|} );
        ( {|{"seq":2,"type":"submit","id":4,"volume":0.1,"volume_repr":"0x1.999999999999ap-4","weight":3,"weight_repr":"0x1.8p+1","cap":1.5,"cap_repr":"0x1.8p+0","speedup":"0:0 1:1 3:1.66666666667","speedup_repr":"0x0p+0:0x0p+0 0x1p+0:0x1p+0 0x1.8p+1:0x1.aaaaaaaaaaaabp+0"}|},
          {|{"seq":2,"shard":1,"type":"submit","id":4,"volume":0.1,"volume_repr":"0x1.999999999999ap-4","weight":3,"weight_repr":"0x1.8p+1","cap":1.5,"cap_repr":"0x1.8p+0","speedup":"0:0 1:1 3:1.66666666667","speedup_repr":"0x0p+0:0x0p+0 0x1p+0:0x1p+0 0x1.8p+1:0x1.aaaaaaaaaaaabp+0"}|} );
        ( {|{"seq":3,"type":"submit","id":12,"volume":17636684.1429,"volume_repr":"0x1.0d1d4c2492492p+24","weight":0.666666666667,"weight_repr":"0x1.5555555555555p-1","cap":1,"cap_repr":"0x1p+0","deps":"3 4"}|},
          {|{"seq":3,"shard":1,"type":"submit","id":12,"volume":17636684.1429,"volume_repr":"0x1.0d1d4c2492492p+24","weight":0.666666666667,"weight_repr":"0x1.5555555555555p-1","cap":1,"cap_repr":"0x1p+0","deps":"3 4"}|} );
        ( {|{"seq":4,"type":"cancel","id":7}|},
          {|{"seq":4,"shard":1,"type":"cancel","id":7}|} );
        ( {|{"seq":5,"type":"advance","dt":1e-09,"dt_repr":"0x1.12e0be826d695p-30"}|},
          {|{"seq":5,"shard":1,"type":"advance","dt":1e-09,"dt_repr":"0x1.12e0be826d695p-30"}|} );
        ( {|{"seq":6,"type":"advance_to","t":1e+15,"t_repr":"0x1.c6bf52634p+49"}|},
          {|{"seq":6,"shard":1,"type":"advance_to","t":1e+15,"t_repr":"0x1.c6bf52634p+49"}|} );
        ( {|{"seq":7,"type":"drain"}|},
          {|{"seq":7,"shard":1,"type":"drain"}|} );
        ( {|{"seq":8,"type":"complete","id":3,"t":0.333333333333,"t_repr":"0x1.5555555555555p-2"}|},
          {|{"seq":8,"shard":1,"type":"complete","id":3,"t":0.333333333333,"t_repr":"0x1.5555555555555p-2"}|} );
        ( {|{"seq":9,"type":"budget","capacity":-0.875,"capacity_repr":"-0x1.cp-1"}|},
          {|{"seq":9,"shard":1,"type":"budget","capacity":-0.875,"capacity_repr":"-0x1.cp-1"}|} );
        ( {|{"seq":10,"type":"policy","policy":"deq"}|},
          {|{"seq":10,"shard":1,"type":"policy","policy":"deq"}|} )
    ];
  PinsQ.check "exact"
    [
        ( {|{"seq":0,"type":"init","capacity":64,"capacity_repr":"64","policy":"wdeq"}|},
          {|{"seq":0,"shard":1,"type":"init","capacity":64,"capacity_repr":"64","policy":"wdeq"}|} );
        ( {|{"seq":1,"type":"submit","id":3,"volume":2.5,"volume_repr":"5/2","weight":1,"weight_repr":"1","cap":2,"cap_repr":"2"}|},
          {|{"seq":1,"shard":1,"type":"submit","id":3,"volume":2.5,"volume_repr":"5/2","weight":1,"weight_repr":"1","cap":2,"cap_repr":"2"}|} );
        ( {|{"seq":2,"type":"submit","id":4,"volume":0.1,"volume_repr":"1/10","weight":3,"weight_repr":"3","cap":1.5,"cap_repr":"3/2","speedup":"0:0 1:1 3:1.66666666667","speedup_repr":"0:0 1:1 3:5/3"}|},
          {|{"seq":2,"shard":1,"type":"submit","id":4,"volume":0.1,"volume_repr":"1/10","weight":3,"weight_repr":"3","cap":1.5,"cap_repr":"3/2","speedup":"0:0 1:1 3:1.66666666667","speedup_repr":"0:0 1:1 3:5/3"}|} );
        ( {|{"seq":3,"type":"submit","id":12,"volume":17636684.1429,"volume_repr":"123456789/7","weight":0.666666666667,"weight_repr":"2/3","cap":1,"cap_repr":"1","deps":"3 4"}|},
          {|{"seq":3,"shard":1,"type":"submit","id":12,"volume":17636684.1429,"volume_repr":"123456789/7","weight":0.666666666667,"weight_repr":"2/3","cap":1,"cap_repr":"1","deps":"3 4"}|} );
        ( {|{"seq":4,"type":"cancel","id":7}|},
          {|{"seq":4,"shard":1,"type":"cancel","id":7}|} );
        ( {|{"seq":5,"type":"advance","dt":1e-09,"dt_repr":"1/1000000000"}|},
          {|{"seq":5,"shard":1,"type":"advance","dt":1e-09,"dt_repr":"1/1000000000"}|} );
        ( {|{"seq":6,"type":"advance_to","t":1e+15,"t_repr":"1000000000000000"}|},
          {|{"seq":6,"shard":1,"type":"advance_to","t":1e+15,"t_repr":"1000000000000000"}|} );
        ( {|{"seq":7,"type":"drain"}|},
          {|{"seq":7,"shard":1,"type":"drain"}|} );
        ( {|{"seq":8,"type":"complete","id":3,"t":0.333333333333,"t_repr":"1/3"}|},
          {|{"seq":8,"shard":1,"type":"complete","id":3,"t":0.333333333333,"t_repr":"1/3"}|} );
        ( {|{"seq":9,"type":"budget","capacity":-0.875,"capacity_repr":"-7/8"}|},
          {|{"seq":9,"shard":1,"type":"budget","capacity":-0.875,"capacity_repr":"-7/8"}|} );
        ( {|{"seq":10,"type":"policy","policy":"deq"}|},
          {|{"seq":10,"shard":1,"type":"policy","policy":"deq"}|} )
    ];
  (* A generated stream with parents drawn from the settled set. *)
  let module L = Mwct_runtime.Loadgen.Float in
  let events = L.generate ~deps:true ~pattern:L.Diurnal ~seed:5 ~tenants:4 ~events:256 () in
  let lines = List.mapi (fun seq ev -> HF.J.to_line ~seq (HF.J.Input ev)) events in
  Alcotest.(check string) "diurnal stream digest" "834c61aa65771e581608495d9f3376c9"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

(* ---------- codec edges ---------- *)

(* JSON has no literal for inf or nan: a decimal member that is not
   finite is written [null], and the [_repr] beside it keeps the value,
   which is what the decoder reads. *)
let test_non_finite_decimals () =
  let contains line sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length line && (String.sub line i n = sub || go (i + 1)) in
    if not (go 0) then Alcotest.failf "%S lacks %S" line sub
  in
  (* float: Σw·C of one task overflows *)
  let eng = HF.En.create ~capacity:4. ~policy:HF.wdeq_policy () in
  ignore
    (HF.ok
       (HF.En.apply eng
          (HF.En.Submit
             { id = 0; volume = 1e300; weight = 1e300; cap = 1e300; speedup = None; deps = [] })));
  ignore (HF.ok (HF.En.apply eng HF.En.Drain));
  contains (HF.En.metrics_json eng) {|"sum_wc":null,"sum_wc_repr":"infinity"|};
  (* exact: 10^400 has no float *)
  let digits = "1" ^ String.make 400 '0' in
  let big = Option.get (Support.Q.Rat_field.of_repr digits) in
  let line = HQ.J.to_line ~seq:1 (HQ.J.Input (HQ.En.Advance big)) in
  Alcotest.(check string) "exact advance line"
    (Printf.sprintf {|{"seq":1,"type":"advance","dt":null,"dt_repr":"%s"}|} digits)
    line;
  (match HQ.J.of_line line with
  | Ok (1, HQ.J.Input (HQ.En.Advance dt)) when Support.Q.equal dt big -> ()
  | _ -> Alcotest.failf "%S does not read back" line);
  let b = Buffer.create 16 in
  Mwct_runtime.Json_out.decimal b "x" Float.nan;
  Mwct_runtime.Json_out.decimal b "y" Float.neg_infinity;
  Alcotest.(check string) "decimal-only members" {|,"x":null,"y":null|} (Buffer.contents b)

(* The decoder refuses what a strict JSON reader would read otherwise:
   bytes after the closing brace (only blanks may follow; [load] keeps
   a CRLF journal's '\r') and a key given twice, which Python resolves
   to the last value and a first-match lookup to the first. *)
let test_decoder_strict () =
  List.iter
    (fun line ->
      match HF.J.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [
      {|{"seq":1,"type":"drain"} trailing junk|};
      {|{"seq":1,"type":"drain"}}|};
      {|{"seq":1,"type":"drain"},|};
      {|{"seq":1,"type":"advance","dt":1,"dt":5}|};
      {|{"seq":1,"type":"advance","dt_repr":"0x1p+0","dt_repr":"0x1.4p+2"}|};
      {|{"seq":1,"seq":2,"type":"drain"}|};
    ];
  List.iter
    (fun line ->
      match HF.J.of_line line with
      | Ok (1, HF.J.Input HF.En.Drain) -> ()
      | Ok _ -> Alcotest.failf "%S: wrong entry" line
      | Error msg -> Alcotest.failf "refused %S: %s" line msg)
    [ {|{"seq":1,"type":"drain"} |}; "{\"seq\":1,\"type\":\"drain\"}\t\r"; "{\"seq\":1,\"type\":\"drain\"}\r" ];
  let path = Filename.temp_file "crlf" ".jsonl" in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun e -> output_string oc (HF.J.to_line ~seq:0 e ^ "\r\n"))
        [ HF.J.Init { capacity = 2.; policy = "wdeq" } ]);
  let loaded = HF.J.load path in
  Sys.remove path;
  match loaded with
  | Ok [ (0, HF.J.Init _) ] -> ()
  | Ok _ -> Alcotest.fail "CRLF journal: wrong entries"
  | Error msg -> Alcotest.failf "CRLF journal refused: %s" msg

let () =
  let p = QCheck_alcotest.to_alcotest in
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "completions match batch wdeq" `Quick test_engine_completions_match;
          p prop_engine_matches_wdeq_float;
          p prop_engine_matches_wdeq_exact;
        ] );
      ( "journal",
        [
          p prop_replay_roundtrip_float;
          p prop_replay_roundtrip_exact;
          Alcotest.test_case "replay rejects corruption" `Quick test_replay_rejects_corruption;
          Alcotest.test_case "bytes pinned, every entry kind" `Quick test_journal_bytes_pinned;
          Alcotest.test_case "non-finite decimals written null" `Quick test_non_finite_decimals;
          Alcotest.test_case "trailing bytes and duplicate keys refused" `Quick
            test_decoder_strict;
        ] );
      ( "bit-identity",
        [
          p prop_kinetic_identity_float;
          p prop_float_kernels_identity;
          Alcotest.test_case "kinetic = list at churn scale, bytes pinned" `Quick
            test_churn_identity;
        ] );
      ( "errors",
        [
          Alcotest.test_case "cancel unknown/completed" `Quick test_cancel_unknown;
          Alcotest.test_case "bad payloads rejected" `Quick test_bad_events;
          Alcotest.test_case "of_repr refuses non-finite numbers" `Quick
            test_of_repr_rejects_non_finite;
          Alcotest.test_case "non-finite advance refused, state untouched" `Quick
            test_non_finite_advance;
          Alcotest.test_case "estimate pinned to the clock completes" `Quick test_pinned_clock;
        ] );
    ]
