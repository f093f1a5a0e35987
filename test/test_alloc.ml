(* Allocation budget for the engine's float hot path, and differential
   tests for the WDEQ/DEQ share rules over random add/remove streams
   with engine-style slot reuse: after every mutation the list rule must
   match the core reference fixpoint on both fields, and on float one
   persistent kinetic state must reproduce the list rule bit for bit. *)

module Rng = Mwct_util.Rng
module FF = Mwct_field.Field.Float_field
module QF = Mwct_rational.Rational.Rat_field
module Q = Mwct_rational.Rational

(* ---------- zero-allocation steady-state Advance (float) ---------- *)

module En = Mwct_runtime.Engine.Make (FF)
module PF = Mwct_ncv.Policy.Make (FF)

(* In steady state (no completions, no reshares pending) an [Advance]
   on the float engine must not allocate: the sweep runs entirely on
   the struct-of-arrays columns. *)
let steady_engine () =
  let eng =
    En.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  for i = 0 to 49 do
    match En.submit eng ~id:i ~volume:1e9 ~weight:(float_of_int (1 + (i mod 7))) ~cap:2. () with
    | Ok () -> ()
    | Error e -> Alcotest.fail (En.error_to_string e)
  done;
  eng

let warmup = 8
let iters = 1000

(* Fails when [step] allocates: [iters] calls, after [warmup] calls
   (the first advance commits the pending reshare), are measured
   against an identically-shaped empty window so the float boxes
   allocated by [Gc.minor_words] itself cancel out. *)
let check_budget ~what step =
  for _ = 1 to warmup do
    step ()
  done;
  let b0 = Gc.minor_words () in
  for _ = 1 to iters do
    ()
  done;
  let b1 = Gc.minor_words () in
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    step ()
  done;
  let w1 = Gc.minor_words () in
  let delta = w1 -. w0 -. (b1 -. b0) in
  if delta >= float_of_int iters then
    Alcotest.failf "%s allocates: %.0f minor words over %d calls" what delta iters

let advance eng =
  let ev = En.Advance 0.25 in
  fun () ->
    match En.apply eng ev with
    | Ok [] -> ()
    | Ok _ -> Alcotest.fail "unexpected completion (volumes are effectively infinite)"
    | Error e -> Alcotest.fail (En.error_to_string e)

let test_advance_zero_alloc () =
  check_budget ~what:"steady-state Advance" (advance (steady_engine ()))

(* A forked engine must keep the same budget: the snapshot/fork copy
   rebuilds the SoA columns and the kinetic frontier, so the steady
   state it resumes in is the parent's — no lazy rebuilding, no
   hidden allocation on the Advance path (DESIGN.md §16). *)
let test_forked_advance_zero_alloc () =
  let parent = steady_engine () in
  let forked = En.fork ?kinetic:(PF.engine_kinetic PF.Wdeq) (En.snapshot parent) in
  check_budget ~what:"forked-engine Advance" (advance forked)

(* ---------- allocation-free reshare (float) ---------- *)

(* Every call forces a reshare: the capacity toggles between two
   let-bound constants (so the harness allocates nothing), then an
   [Advance] with no completion commits it. The kinetic WDEQ/DEQ rule
   and the engine's commit sweep must run on unboxed floats, whichever
   way the clip rounds go. [reshares] must grow by one per call, so
   the budget cannot be met by skipping the work. *)
let check_reshare_budget ~policy ~c1 ~c2 tasks =
  let eng =
    En.create ?kinetic:(PF.engine_kinetic policy) ~capacity:c1 ~policy:(PF.engine_policy policy) ()
  in
  List.iteri
    (fun i (weight, cap) ->
      match En.submit eng ~id:i ~volume:1e9 ~weight ~cap () with
      | Ok () -> ()
      | Error e -> Alcotest.fail (En.error_to_string e))
    tasks;
  let advance = advance eng and flip = ref false in
  let step () =
    flip := not !flip;
    ignore (En.set_capacity eng (if !flip then c2 else c1));
    advance ()
  in
  check_budget ~what:"reshare" step;
  Alcotest.(check int) "one reshare per call" (warmup + iters) (En.metrics eng).En.M.reshares

(* 1000 tasks, fair shares far below the cap: nobody clips. *)
let test_reshare_noclip () =
  let tasks = List.init 1000 (fun i -> (float_of_int (1 + (i mod 11)), 4.)) in
  check_reshare_budget ~policy:PF.Wdeq ~c1:64. ~c2:48. tasks

(* Every fourth task is heavy (weight 10, cap 1) and clips in round 1;
   the light ones share the residual in round 2. *)
let test_reshare_round2 () =
  let tasks = List.init 40 (fun i -> if i mod 4 = 0 then (10., 1.) else (1., 4.)) in
  check_reshare_budget ~policy:PF.Wdeq ~c1:16. ~c2:20. tasks

(* DEQ with capacity above 40 x 1.5: everyone clips in round 1. *)
let test_reshare_allclip () =
  let tasks = List.init 40 (fun _ -> (1., 1.5)) in
  check_reshare_budget ~policy:PF.Deq ~c1:64. ~c2:80. tasks

(* ---------- incremental frontier vs list kernel vs reference ---------- *)

module DH (F : Mwct_field.Field.S) = struct
  module P = Mwct_ncv.Policy.Make (F)
  module En = Mwct_runtime.Engine.Make (F)
  module E = Mwct_core.Engine.Make (F)

  (* Drive a random stream of adds/removes through [rounds] rounds
     (slots reused through a free list, exactly as the engine does) and
     check the reshare after every round:
     - [P.shares] on the alive views in ascending-id order matches the
       core [shares_reference] fixpoint up to [eq] (exact on rationals,
       1e-9 on floats, as in test_kernels);
     - on float, one persistent kinetic state ([P.engine_kinetic], fed
       the same adds and removes) fills the output order and values of
       [P.shares], bit for bit ([F.equal]). Every other field has no
       kinetic rule. *)
  let check_stream ~eq ~use_weights ~seed ~rounds =
    let pol = if use_weights then P.Wdeq else P.Deq in
    let kinetic = P.engine_kinetic pol in
    let rng = Rng.create seed in
    let capacity = F.of_q (1 + Rng.int rng 16) 1 in
    let alive = ref [] (* (slot, view), unordered *)
    and free = ref []
    and used = ref 0
    and next_id = ref 0 in
    let ok =
      ref
        (match F.witness with
        | Mwct_field.Field.Float -> Option.is_some kinetic
        | Mwct_field.Field.Any -> Option.is_none kinetic)
    in
    let check () =
      let by_id_views =
        List.sort (fun (_, (a : P.view)) (_, b) -> Stdlib.compare a.P.id b.P.id) !alive
      in
      let views = List.map snd by_id_views in
      let expected = P.shares pol ~capacity views in
      Option.iter
        (fun (kin : En.kinetic) ->
          let n = List.length views in
          let by_id = Array.of_list (List.map fst by_id_views) in
          (* [share] is slot-indexed (slots can exceed [n] once the free
             list recycles); [order] is position-indexed. *)
          let share = Array.make (Stdlib.max !used 1) F.zero in
          let order = Array.make (Stdlib.max n 1) 0 in
          kin.En.k_shares ~capacity ~n ~by_id ~share ~order;
          let id_of_slot s = (snd (List.find (fun (sl, _) -> sl = s) !alive)).P.id in
          let got = List.init n (fun k -> (id_of_slot order.(k), share.(order.(k)))) in
          if
            not
              (List.length got = List.length expected
              && List.for_all2 (fun (i, x) (j, y) -> i = j && F.equal x y) got expected)
          then ok := false)
        kinetic;
      let sorted = List.sort (fun (a, _) (b, _) -> Stdlib.compare a b) in
      let reference =
        sorted
          (E.Wdeq.shares_reference ~p:capacity
             (List.map
                (fun (v : P.view) -> (v.P.id, (if use_weights then v.P.weight else F.one), v.P.cap))
                views))
      in
      let listed = sorted expected in
      if
        not
          (List.length listed = List.length reference
          && List.for_all2 (fun (i, x) (j, y) -> i = j && eq x y) listed reference)
      then ok := false
    in
    for _ = 1 to rounds do
      for _ = 1 to 1 + Rng.int rng 3 do
        let slot =
          match !free with
          | s :: rest ->
            free := rest;
            s
          | [] ->
            let s = !used in
            incr used;
            s
        in
        let v =
          {
            P.id = !next_id;
            weight = F.of_q (1 + Rng.int rng 10) 2;
            cap = F.of_q (1 + Rng.int rng 24) 4;
          }
        in
        incr next_id;
        Option.iter
          (fun (k : En.kinetic) -> k.En.k_add ~slot ~id:v.P.id ~weight:v.P.weight ~cap:v.P.cap)
          kinetic;
        alive := (slot, v) :: !alive
      done;
      if Rng.int rng 3 = 0 then begin
        match !alive with
        | [] -> ()
        | l ->
          let k = Rng.int rng (List.length l) in
          let slot, _ = List.nth l k in
          Option.iter (fun (k : En.kinetic) -> k.En.k_remove ~slot) kinetic;
          alive := List.filter (fun (s, _) -> s <> slot) l;
          free := slot :: !free
      end;
      check ()
    done;
    !ok
end

(* Weights in sevenths make the float cross products of the ratio
   order round, so the order is not transitive everywhere and the
   binary search in [remove] can miss a tracked slot. A miss used to
   leave the slot in the kinetic array, which then outgrew its columns
   (Invalid_argument "Array.blit" on a later submit). The engine must
   run such a churn to the end. *)
let test_intransitive_ratios () =
  let eng =
    En.create ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  let rng = Rng.create 3 in
  let alive = ref [] and next = ref 0 in
  let ok = function Ok _ -> () | Error e -> Alcotest.fail (En.error_to_string e) in
  for _ = 1 to 30 do
    for _ = 1 to 100 do
      let id = !next in
      incr next;
      ok
        (En.submit eng ~id ~volume:1e9
           ~weight:(float_of_int (1 + Rng.int rng 11) /. 7.)
           ~cap:(float_of_int (1 + Rng.int rng 5))
           ());
      alive := id :: !alive
    done;
    let ids = Array.of_list !alive in
    Rng.shuffle rng ids;
    Array.iteri (fun i id -> if i < 50 then ok (En.cancel eng id)) ids;
    alive := List.filteri (fun i _ -> i >= 50) (Array.to_list ids);
    ok (En.apply eng (En.Advance 0.25))
  done;
  Alcotest.(check int) "alive" 1500 (En.alive_count eng)

module DF = DH (FF)
module DQ = DH (QF)

let prop_incremental_float =
  QCheck2.Test.make ~count:100 ~name:"incremental WDEQ/DEQ = list kernel = reference (float)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      DF.check_stream
        ~eq:(fun a b -> Float.abs (a -. b) < 1e-9)
        ~use_weights:(seed mod 2 = 0) ~seed ~rounds:25)

let prop_list_exact =
  QCheck2.Test.make ~count:40 ~name:"list WDEQ/DEQ = reference, no kinetic rule (exact)"
    ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      DQ.check_stream ~eq:Q.Rat_field.equal ~use_weights:(seed mod 2 = 0) ~seed ~rounds:12)

let () =
  let p = QCheck_alcotest.to_alcotest in
  Alcotest.run "alloc"
    [
      ( "advance-budget",
        [
          Alcotest.test_case "steady-state Advance is allocation-free" `Quick
            test_advance_zero_alloc;
          Alcotest.test_case "forked-engine Advance is allocation-free" `Quick
            test_forked_advance_zero_alloc;
        ] );
      ( "reshare-budget",
        [
          Alcotest.test_case "WDEQ reshare, nobody clips, is allocation-free" `Quick
            test_reshare_noclip;
          Alcotest.test_case "WDEQ reshare settling in round 2 is allocation-free" `Quick
            test_reshare_round2;
          Alcotest.test_case "DEQ reshare, everyone clips, is allocation-free" `Quick
            test_reshare_allclip;
        ] );
      ( "incremental-frontier",
        [
          p prop_incremental_float;
          p prop_list_exact;
          Alcotest.test_case "intransitive float ratios" `Quick test_intransitive_ratios;
        ] );
    ]
