(** Replay oracles for the sharded store (DESIGN.md §14).

    The sharded store's share profile is hierarchical (per-tick WDEQ
    budgets over shards, WDEQ again inside each shard), which is {e
    not} the flat single-engine profile — so correctness is pinned as
    determinism and replayability rather than objective equality:

    - {!check_single_identity} — with one shard the store must be a
      transparent shim: journal bytes and dump fingerprint identical to
      driving a plain engine by hand.
    - {!check_shard_replay} — each per-shard journal (init / budget /
      absolute advances / submits / out lines) must replay on a plain
      single engine via {!Mwct_runtime.Journal.Make.replay} into the
      exact live shard state (dump equality, objective equality, and
      the shard objectives must sum to the store objective).
    - {!check_merged_determinism} — the merged journal's input lines,
      fed back through a fresh store, must reproduce every journal byte
      (merged and per-shard).
    - {!check_refusals_leave_no_trace} — events the store must refuse,
      inserted into a stream, each return [Error] and change no journal
      byte and no dump, even when they meet a lagging shard.
    - {!check_flat_agreement} — on a drained stream the completion
      {e set} (not times) must match a flat single engine's: sharding
      reorders work, it must never lose or invent a task.

    Streams come from {!gen_stream}: tenant-clustered random traffic
    (submit / cancel / advance) with ids dense per tenant, ending in a
    drain. Everything is driven by an {!Instances.draw}, so the fuzz
    harness and the unit tests share the generator. *)

module Make (F : Mwct_field.Field.S) = struct
  module St = Mwct_runtime.Shard.Make (F)
  module En = St.En
  module J = St.J
  module P = Mwct_ncv.Policy.Make (F)

  let policy () = P.engine_policy P.Wdeq
  let kinetic () = P.engine_kinetic P.Wdeq
  let resolve name = if name = "wdeq" then Some (policy ()) else None

  (* ---------- stream generation ---------- *)

  (** A tenant-clustered event stream: [len] random events (weighted
      toward submits, with cancels of live tasks and small advances)
      followed by [Drain]. Task ids are allocated densely, so tenant =
      id mod [tenants] — routing with [St.Mod] and [nshards = tenants]
      gives one shard per tenant; [St.Hash] scatters them. Weights are
      per-tenant bases (clustered mass), volumes and caps individual. *)
  let gen_stream (draw : Instances.draw) ?(tenants = 4) ?(deps = false) ~len () : En.event list =
    let bases = Array.init tenants (fun _ -> draw 1 8) in
    let next = ref 0 in
    (* Cancels target only tasks submitted since the last advance:
       volumes are positive and submit/cancel move no time, so those
       tasks provably haven't completed yet — the stream applies
       cleanly to any engine without simulating completions here.

       With [deps], a third of the submits list one parent drawn from
       [settled] — tasks that survived an advance. Settled ids are
       never cancelled (cancels target [fresh] only), so the stream
       never references a cascade-removed parent, and a fresh dormant
       task is never anyone's parent — a Cancel of it cascades to
       exactly itself. One parent, not several: the sharded store
       routes a dependent to its first parent's shard and requires the
       rest to be co-resident (multi-parent joins across shards are
       rejected by the shard engine as unknown dependencies), so
       cross-shard streams stay single-parent; the multi-parent
       lifecycle is covered by the single-engine suites. *)
    let fresh = ref [] in
    let nfresh = ref 0 in
    let settled = ref [||] in
    let submit () =
      let id = !next in
      incr next;
      fresh := id :: !fresh;
      incr nfresh;
      let parents =
        if (not deps) || Array.length !settled = 0 || draw 0 2 > 0 then []
        else [ !settled.(draw 0 (Array.length !settled - 1)) ]
      in
      En.Submit
        {
          id;
          volume = F.of_q (draw 1 32) 4;
          weight = F.of_int bases.(id mod tenants);
          cap = F.of_int (draw 1 4);
          speedup = None;
          deps = parents;
        }
    in
    let events =
      List.init len (fun _ ->
          match draw 0 9 with
          | 0 | 1 | 2 | 3 | 4 -> submit ()
          | 5 | 6 when !nfresh > 0 ->
            let k = draw 0 (!nfresh - 1) in
            let id = List.nth !fresh k in
            fresh := List.filter (fun i -> i <> id) !fresh;
            decr nfresh;
            En.Cancel id
          | 5 | 6 -> submit ()
          | _ ->
            settled := Array.append !settled (Array.of_list !fresh);
            fresh := [];
            nfresh := 0;
            En.Advance (F.of_q (draw 0 8) 4))
    in
    events @ [ En.Drain ]

  (* ---------- store / engine drivers ---------- *)

  type capture = {
    store : St.t;
    merged : string list;  (* chronological *)
    shards : string list array;  (* chronological, per shard *)
  }

  (* A fresh store whose sinks keep every journal line, and the
     function that returns what they kept so far. *)
  let capturing_store ~nshards ~route ~capacity : St.t * (unit -> capture) =
    let merged = ref [] in
    let shards = Array.make nshards [] in
    let store =
      St.create ~nshards ~route ~capacity
        ~merged_sink:(fun l -> merged := l :: !merged)
        ~shard_sink:(fun k l -> shards.(k) <- l :: shards.(k))
        ~allocator:(policy ()) ~policy:(policy ()) ~kinetic ~policy_label:"wdeq" ()
    in
    (store, fun () -> { store; merged = List.rev !merged; shards = Array.map List.rev shards })

  (** Run a stream through a sharded store, capturing every journal
      line. Engine errors are reported — generated streams must apply
      cleanly. *)
  let run_store ~nshards ~route ~capacity (stream : En.event list) : (capture, string) result =
    let store, captured = capturing_store ~nshards ~route ~capacity in
    let err = ref None in
    List.iteri
      (fun i ev ->
        if !err = None then
          match St.apply store ev with
          | Ok _ -> ()
          | Error e -> err := Some (Printf.sprintf "event %d: %s" i (En.error_to_string e)))
      stream;
    match !err with Some msg -> Error msg | None -> Ok (captured ())

  (** Drive a plain engine by hand, producing the same journal a
      single-shard store (or the pre-shard serve loop) would: init
      first, an input line per applied event, an out line per decision,
      one shared sequence counter. *)
  let run_plain ~capacity (stream : En.event list) : (En.t * string list, string) result =
    let eng = En.create ?kinetic:(kinetic ()) ~capacity ~policy:(policy ()) () in
    let lines = ref [] in
    let seq = ref 0 in
    let emit e =
      lines := J.to_line ~seq:!seq e :: !lines;
      incr seq
    in
    emit (J.Init { capacity; policy = "wdeq" });
    let err = ref None in
    List.iteri
      (fun i ev ->
        if !err = None then
          match En.apply eng ev with
          | Ok notes ->
            emit (J.Input ev);
            List.iter (fun (n : En.notification) -> emit (J.Output { id = n.En.id; at = n.En.at })) notes
          | Error e -> err := Some (Printf.sprintf "event %d: %s" i (En.error_to_string e)))
      stream;
    match !err with Some msg -> Error msg | None -> Ok (eng, List.rev !lines)

  let ( let* ) = Result.bind

  let diff_lines what a b =
    if a = b then Ok ()
    else begin
      let rec first i a b =
        match (a, b) with
        | [], [] -> Printf.sprintf "%s: length mismatch" what
        | x :: _, [] | [], x :: _ -> Printf.sprintf "%s: line %d only on one side: %s" what i x
        | x :: xs, y :: ys ->
          if x = y then first (i + 1) xs ys
          else Printf.sprintf "%s: line %d differs:\n  %s\n  %s" what i x y
      in
      Error (first 0 a b)
    end

  (* ---------- the oracles ---------- *)

  (** A one-shard store must be byte-identical to the plain engine:
      same journal lines, same dump fingerprint, same objective. *)
  let check_single_identity ?deps (draw : Instances.draw) ~len : (unit, string) result =
    let stream = gen_stream draw ?deps ~len () in
    let capacity = F.of_int 4 in
    let* c = run_store ~nshards:1 ~route:St.Mod ~capacity stream in
    let* eng, plain_lines = run_plain ~capacity stream in
    let* () = diff_lines "single-shard journal" c.merged plain_lines in
    if St.dump c.store <> En.dump eng then Error "single-shard dump differs from plain engine"
    else if not (F.equal (St.weighted_completion c.store) (En.weighted_completion eng)) then
      Error "single-shard objective differs from plain engine"
    else Ok ()

  (** Every per-shard journal must replay on a plain single engine into
      the exact live shard state, and the shard objectives must sum to
      the store objective ([F.equal] — the sum is in ascending shard
      order, the order {!Mwct_runtime.Shard.Make.metrics_json}
      aggregates in). *)
  let check_shard_replay ?deps (draw : Instances.draw) ~nshards ~route ~len : (unit, string) result =
    let stream = gen_stream draw ?deps ~len () in
    let capacity = F.of_int 4 in
    let* c = run_store ~nshards ~route ~capacity stream in
    let engines = St.engines c.store in
    let rec shard k acc_obj =
      if k = nshards then
        if F.equal acc_obj (St.weighted_completion c.store) then Ok ()
        else Error "shard objectives do not sum to the store objective"
      else begin
        let* entries =
          List.fold_left
            (fun acc line ->
              let* acc = acc in
              match J.of_line line with
              | Ok e -> Ok (e :: acc)
              | Error msg -> Error (Printf.sprintf "shard %d journal: %s" k msg))
            (Ok []) c.shards.(k)
          |> Result.map List.rev
        in
        let* replayed =
          Result.map_error (fun msg -> Printf.sprintf "shard %d replay: %s" k msg)
            (J.replay ~resolve entries)
        in
        if En.dump replayed <> En.dump engines.(k) then
          Error (Printf.sprintf "shard %d: replayed dump differs from live shard" k)
        else shard (k + 1) (F.add acc_obj (En.weighted_completion replayed))
      end
    in
    shard 0 F.zero

  (** Feeding the merged journal's input lines through a fresh store
      must reproduce every journal byte — merged and per-shard. *)
  let check_merged_determinism ?deps (draw : Instances.draw) ~nshards ~route ~len :
      (unit, string) result =
    let stream = gen_stream draw ?deps ~len () in
    let capacity = F.of_int 4 in
    let* c = run_store ~nshards ~route ~capacity stream in
    let* inputs =
      List.fold_left
        (fun acc line ->
          let* acc = acc in
          match J.of_line line with
          | Ok (_, J.Input ev) -> Ok (ev :: acc)
          | Ok (_, (J.Init _ | J.Output _ | J.Budget _ | J.Policy _)) -> Ok acc
          | Error msg -> Error (Printf.sprintf "merged journal: %s" msg))
        (Ok []) c.merged
      |> Result.map List.rev
    in
    let* c2 = run_store ~nshards ~route ~capacity inputs in
    let* () = diff_lines "merged journal (re-run)" c.merged c2.merged in
    let rec shards k =
      if k = nshards then Ok ()
      else
        let* () = diff_lines (Printf.sprintf "shard %d journal (re-run)" k) c.shards.(k) c2.shards.(k) in
        shards (k + 1)
    in
    shards 0

  (** A refused event leaves no trace. Before clean event [i],
      [refusals store i] lists events the store must refuse; each must
      return [Error], and the merged journal, every per-shard journal
      and the dump must equal those of the clean stream run alone. *)
  let check_no_trace ~nshards ~route ~(clean : En.event list)
      ~(refusals : St.t -> int -> En.event list) : (unit, string) result =
    let capacity = F.of_int 4 in
    let* c = run_store ~nshards ~route ~capacity clean in
    let store, captured = capturing_store ~nshards ~route ~capacity in
    let refuse i ev =
      match St.apply store ev with
      | Error _ -> Ok ()
      | Ok _ -> Error (Printf.sprintf "before event %d: accepted %s" i (J.to_line ~seq:i (J.Input ev)))
    in
    let rec go i = function
      | [] -> Ok ()
      | ev :: rest -> (
        let* () = List.fold_left (fun acc r -> Result.bind acc (fun () -> refuse i r)) (Ok ()) (refusals store i) in
        match St.apply store ev with
        | Ok _ -> go (i + 1) rest
        | Error e -> Error (Printf.sprintf "event %d: %s" i (En.error_to_string e)))
    in
    let* () = go 0 clean in
    let d = captured () in
    let* () = diff_lines "merged journal (with refusals)" c.merged d.merged in
    let rec shards k =
      if k = nshards then Ok ()
      else
        let* () = diff_lines (Printf.sprintf "shard %d journal (with refusals)" k) c.shards.(k) d.shards.(k) in
        shards (k + 1)
    in
    let* () = shards 0 in
    if St.dump c.store <> St.dump store then Error "dump differs with refusals inserted" else Ok ()

  (** {!check_no_trace} on a {!gen_stream} stream. Before every event
      it inserts a zero-volume submit on each shard that is empty and
      lagging (the lazy clock sync's catch-up path) and, at random,
      zero-volume submits elsewhere, duplicates of submitted ids (as
      sent, and with their deps replaced), submits with an unknown
      dependency, cancels of unknown ids and, with [deps], submits
      whose two parents are on different shards. At least one refused
      submit must have met an empty lagging shard. *)
  let check_refusals_leave_no_trace ?(deps = false) (draw : Instances.draw) ~nshards ~route ~len :
      (unit, string) result =
    let clean = gen_stream draw ~deps ~len () in
    let clean_arr = Array.of_list clean in
    (* ids at or above [fresh] appear nowhere in the stream *)
    let fresh = ref (10 * (len + 1)) in
    let fresh_id () =
      incr fresh;
      !fresh
    in
    let rec fresh_on store k =
      let id = fresh_id () in
      if St.shard_of store id = k then id else fresh_on store k
    in
    let submit ?(deps = []) ~volume id =
      En.Submit { id; volume; weight = F.one; cap = F.one; speedup = None; deps }
    in
    let lagging_hits = ref 0 in
    let refusals store i =
      let engines = St.engines store in
      let lagging =
        List.filter_map
          (fun k ->
            let eng = engines.(k) in
            if
              En.alive_count eng = 0
              && En.dormant_count eng = 0
              && F.compare (En.now eng) (St.now store) < 0
            then begin
              incr lagging_hits;
              Some (submit ~volume:F.zero (fresh_on store k))
            end
            else None)
          (List.init nshards Fun.id)
      in
      let submitted =
        List.filter_map
          (function En.Submit r as ev -> Some (r.id, ev) | _ -> None)
          (Array.to_list (Array.sub clean_arr 0 i))
      in
      let pick l = List.nth l (draw 0 (List.length l - 1)) in
      let maybe gen = if draw 0 2 = 0 then gen () else [] in
      let dups () =
        match submitted with
        | [] -> []
        | _ -> (
          let _, ev = pick submitted in
          let other, _ = pick submitted in
          match ev with
          | En.Submit r -> [ ev; En.Submit { r with deps = [] }; En.Submit { r with deps = [ other ] } ]
          | _ -> [])
      in
      let split () =
        match submitted with
        | [] -> []
        | _ -> (
          let a, _ = pick submitted in
          match List.filter (fun (b, _) -> St.shard_of store b <> St.shard_of store a) submitted with
          | [] -> []
          | others ->
            let b, _ = pick others in
            [ submit ~volume:F.one ~deps:[ a; b ] (fresh_id ()) ])
      in
      let zero = maybe (fun () -> [ submit ~volume:F.zero (fresh_id ()) ]) in
      let dup = maybe dups in
      let unknown_dep =
        maybe (fun () ->
            let parent = fresh_id () in
            [ submit ~volume:F.one ~deps:[ parent ] (fresh_id ()) ])
      in
      let cancel = maybe (fun () -> [ En.Cancel (fresh_id ()) ]) in
      let split = if deps then maybe split else [] in
      List.concat [ lagging; zero; dup; unknown_dep; cancel; split ]
    in
    let* () = check_no_trace ~nshards ~route ~clean ~refusals in
    if !lagging_hits = 0 then Error "no refused submit met an empty lagging shard" else Ok ()

  (** On a drained stream the sharded completion set must equal the
      flat single engine's — same completed task ids, none lost to
      routing, none double-completed (times differ: hierarchical
      budgets are not the flat profile). *)
  let check_flat_agreement ?deps (draw : Instances.draw) ~nshards ~route ~len : (unit, string) result =
    let stream = gen_stream draw ?deps ~len () in
    let capacity = F.of_int 4 in
    let* c = run_store ~nshards ~route ~capacity stream in
    let* eng, _ = run_plain ~capacity stream in
    let completed_ids lines =
      List.filter_map
        (fun line -> match J.of_line line with Ok (_, J.Output { id; _ }) -> Some id | _ -> None)
        lines
      |> List.sort_uniq compare
    in
    let sharded = completed_ids c.merged in
    let flat = List.map fst (En.completions eng) in
    if sharded = flat then
      if St.alive_count c.store = 0 then Ok ()
      else Error "store not drained: alive tasks remain after Drain"
    else
      Error
        (Printf.sprintf "completion sets differ: %d sharded vs %d flat" (List.length sharded)
           (List.length flat))
end

(** Pre-applied checkers. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
