(** What-if branch runner (DESIGN.md §16).

    Replays an input-event stream to a fork point, snapshots the
    engine, then runs K branches from that snapshot — each under a
    mutation set — and prices every branch against the straight-line
    baseline: ΔΣw·C, ΔΣw·(C−r), the first-divergence time (earliest
    completion where the branch's decision stream departs from the
    baseline's) and per-tenant objective deltas.

    Mutations:
    - {e policy switch} — the branch continues under a different share
      rule ([Engine.fork ~policy], recorded as a [policy] journal line
      so the branch journal replays self-contained);
    - {e tenant load scaling} — every suffix submission of a tenant
      ([id mod tenants]) has its volume scaled by a rational factor;
    - {e event injection} — extra [Submit]/[Cancel]/[Advance] events
      applied at the fork point, before the recorded suffix.

    Each branch produces its own complete journal (init, prefix,
    optional policy line, injected inputs, mutated suffix, out lines —
    one monotone seq counter), which {!Journal.Make.replay} accepts:
    recomputing Σw·C from a branch's journal must reproduce the
    report's figure, and the fuzz harness pins exactly that.

    Policies arrive as callbacks ([resolve] names a share rule,
    [kinetic_for] optionally supplies a fresh incremental rule per
    engine) — lib/runtime stays below the policy layer. Suffix events
    that no longer apply after mutation (e.g. the recorded stream
    cancels a task an injected Cancel already removed) are {e dropped}
    and counted, never journaled, so branch journals stay replayable. *)

module Make (F : Mwct_field.Field.S) = struct
  module En = Engine.Make (F)
  module J = Journal.Make (F)

  type scale = { tenant : int; num : int; den : int }

  type mutation =
    | Set_policy of string
    | Scale_tenant of scale
    | Inject of En.event

  type spec = { label : string; mutations : mutation list }

  (* ---------- branch spec grammar ---------- *)

  (* SPEC := LABEL [":" CLAUSE ("," CLAUSE)*]
     CLAUSE := "policy=" NAME
             | "scale=" TENANT ":" Q      (volume factor, e.g. 1:2 or 0:3/2)
             | "cancel=" ID
             | "advance=" Q
             | "submit=" ID ":" Q ":" Q ":" Q   (volume, weight, cap)
     Q := INT | INT "/" INT — every number is rational, so specs mean
     the same thing on both fields. A bare LABEL is a straight-line
     branch (no mutations): its report prices replay fidelity. *)

  let parse_q what (s : string) : (int * int, string) result =
    let int_of what s =
      match int_of_string_opt s with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%s: not an integer %S" what s)
    in
    match String.index_opt s '/' with
    | None -> Result.map (fun n -> (n, 1)) (int_of what s)
    | Some i -> (
      match
        ( int_of what (String.sub s 0 i),
          int_of what (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Ok n, Ok d when d > 0 -> Ok (n, d)
      | Ok _, Ok _ -> Error (Printf.sprintf "%s: denominator must be positive in %S" what s)
      | (Error _ as e), _ | _, (Error _ as e) -> e)

  let parse_pos_q what s : (int * int, string) result =
    match parse_q what s with
    | Ok (n, _) when n <= 0 -> Error (Printf.sprintf "%s: must be positive in %S" what s)
    | r -> r

  let parse_clause (c : string) : (mutation, string) result =
    let ( let* ) = Result.bind in
    match String.index_opt c '=' with
    | None -> Error (Printf.sprintf "clause %S: expected key=value" c)
    | Some i -> (
      let key = String.sub c 0 i in
      let v = String.sub c (i + 1) (String.length c - i - 1) in
      match key with
      | "policy" -> if v = "" then Error "policy=: empty name" else Ok (Set_policy v)
      | "scale" -> (
        match String.index_opt v ':' with
        | None -> Error (Printf.sprintf "scale=%s: expected TENANT:FACTOR" v)
        | Some j ->
          let* tenant =
            match int_of_string_opt (String.sub v 0 j) with
            | Some t when t >= 0 -> Ok t
            | _ -> Error (Printf.sprintf "scale=%s: bad tenant" v)
          in
          let* num, den =
            parse_pos_q "scale factor" (String.sub v (j + 1) (String.length v - j - 1))
          in
          Ok (Scale_tenant { tenant; num; den }))
      | "cancel" -> (
        match int_of_string_opt v with
        | Some id -> Ok (Inject (En.Cancel id))
        | None -> Error (Printf.sprintf "cancel=%s: bad task id" v))
      | "advance" ->
        let* n, d = parse_q "advance" v in
        if n < 0 then Error (Printf.sprintf "advance=%s: negative dt" v)
        else Ok (Inject (En.Advance (F.of_q n d)))
      | "submit" -> (
        match String.split_on_char ':' v with
        | [ id; vol; w; cap ] ->
          let* id =
            match int_of_string_opt id with
            | Some i -> Ok i
            | None -> Error (Printf.sprintf "submit=%s: bad task id" v)
          in
          let* vn, vd = parse_pos_q "submit volume" vol in
          let* wn, wd = parse_pos_q "submit weight" w in
          let* cn, cd = parse_pos_q "submit cap" cap in
          Ok
            (Inject
               (En.Submit
                  {
                    id;
                    volume = F.of_q vn vd;
                    weight = F.of_q wn wd;
                    cap = F.of_q cn cd;
                    speedup = None;
                    deps = [];
                  }))
        | _ -> Error (Printf.sprintf "submit=%s: expected ID:VOLUME:WEIGHT:CAP" v))
      | k -> Error (Printf.sprintf "unknown clause %S" k))

  let parse_spec (s : string) : (spec, string) result =
    let label, rest =
      match String.index_opt s ':' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    if label = "" then Error (Printf.sprintf "branch spec %S: empty label" s)
    else if rest = "" then Ok { label; mutations = [] }
    else begin
      let rec go acc = function
        | [] -> Ok { label; mutations = List.rev acc }
        | c :: cs -> (
          match parse_clause c with
          | Ok m -> go (m :: acc) cs
          | Error msg -> Error (Printf.sprintf "branch %S: %s" label msg))
      in
      go [] (String.split_on_char ',' rest)
    end

  (* ---------- running ---------- *)

  type outcome = {
    label : string;
    policy : string;  (** share rule in effect after the fork *)
    applied : int;  (** injected + suffix events applied on the branch *)
    dropped : int;  (** suffix events refused after mutation (never journaled) *)
    sum_wc : F.t;
    sum_wflow : F.t;
    d_wc : F.t;  (** branch − baseline *)
    d_wflow : F.t;
    first_divergence : F.t option;
        (** earliest completion time at which the branch's decision
            stream departs from the baseline's; [None] = identical *)
    tenant_d_wc : F.t array;  (** ΔΣw·C per tenant ([id mod tenants]) *)
    lines : string list;  (** the branch's own journal, replayable *)
  }

  type report = {
    fork_at : int;
    tenants : int;
    baseline_wc : F.t;
    baseline_wflow : F.t;
    baseline_lines : string list;
    branches : outcome list;
  }

  let ( let* ) = Result.bind

  (* ---------- journal input ---------- *)

  (** A recorded journal as the runner's input: its capacity, policy
      name and input events. [out] lines are dropped, since the runner
      recomputes decisions. Refused, with the offending seq: a journal
      that does not open with [init], a second [init], a [budget] line
      (a sharded run's per-shard journal) and a [policy] line (a branch
      journal). Messages do not name the file. *)
  let load_stream (path : string) : (F.t * string * En.event list, string) result =
    let* entries = J.load path in
    match entries with
    | (_, J.Init { capacity; policy }) :: rest ->
      let rec go acc = function
        | [] -> Ok (capacity, policy, List.rev acc)
        | (_, J.Input ev) :: rest -> go (ev :: acc) rest
        | (_, J.Output _) :: rest -> go acc rest
        | (seq, J.Init _) :: _ -> Error (Printf.sprintf "seq %d: duplicate init line" seq)
        | (seq, J.Budget _) :: _ ->
          Error
            (Printf.sprintf
               "seq %d: budget lines (sharded per-shard journals) are not supported; branch on \
                the merged run or a single-engine journal"
               seq)
        | (seq, J.Policy _) :: _ ->
          Error
            (Printf.sprintf
               "seq %d: this journal already contains a policy switch (a branch journal); \
                branch on the original straight-line journal"
               seq)
      in
      go [] rest
    | _ -> Error "journal must start with an init line"

  (* Apply [events] in order, journaling each accepted input and its
     completions and collecting (id, at) decisions. [lenient] drops
     refused events (counted) instead of failing; a failure names the
     event's index plus [first]. *)
  let drive ?(first = 0) ~lenient eng emit outs events : (int * int, string) result =
    let applied = ref 0 and dropped = ref 0 in
    let err = ref None in
    List.iteri
      (fun i ev ->
        if !err = None then
          match En.apply eng ev with
          | Ok notes ->
            incr applied;
            emit (J.Input ev);
            List.iter
              (fun (n : En.notification) ->
                outs := (n.En.id, n.En.at) :: !outs;
                emit (J.Output { id = n.En.id; at = n.En.at }))
              notes
          | Error e ->
            if lenient then incr dropped
            else err := Some (Printf.sprintf "event %d: %s" (first + i) (En.error_to_string e)))
      events;
    match !err with Some m -> Error m | None -> Ok (!applied, !dropped)

  let split_at n l =
    let rec go i acc = function
      | rest when i = n -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | x :: rest -> go (i + 1) (x :: acc) rest
    in
    go 0 [] l

  (* Σw·C per tenant over completed tasks. *)
  let tenant_wc ~tenants eng =
    let a = Array.make tenants F.zero in
    List.iter
      (fun (id, (c : En.closed)) ->
        if c.En.outcome = En.Completed then begin
          let t = id mod tenants in
          a.(t) <- F.add a.(t) (F.mul c.En.weight c.En.closed_at)
        end)
      (En.closed eng);
    a

  (* Earliest completion where the two decision streams differ: first
     index with a different (id, time) pair — report the earlier of the
     two times — or the time of the first unmatched tail element. *)
  let first_divergence base branch : F.t option =
    let rec go a b =
      match (a, b) with
      | [], [] -> None
      | (_, at) :: _, [] | [], (_, at) :: _ -> Some at
      | (i, x) :: a', (j, y) :: b' ->
        if i = j && F.equal x y then go a' b'
        else Some (if F.compare x y <= 0 then x else y)
    in
    go base branch

  (** [run ~resolve ~kinetic_for ~tenants ~capacity ~policy ~events
      ~fork_at ~branches ()] — baseline replay plus one engine per
      branch, all forked from a single snapshot taken after the first
      [fork_at] input events. *)
  let run ~(resolve : string -> En.policy option)
      ~(kinetic_for : string -> En.kinetic option) ?(tenants = 4) ~capacity ~policy
      ~(events : En.event list) ~fork_at ~(branches : spec list) () : (report, string) result =
    if tenants <= 0 then Error "tenants must be positive"
    else if fork_at < 0 || fork_at > List.length events then
      Error
        (Printf.sprintf "fork point %d out of range (stream has %d events)" fork_at
           (List.length events))
    else
      (* Tenants are [id mod tenants]: a scale of a tenant outside that
         range matches no task and would price to a silent zero delta. *)
      let* () =
        match
          List.find_map
            (fun (sp : spec) ->
              List.find_map
                (function
                  | Scale_tenant s when s.tenant >= tenants -> Some (sp.label, s.tenant)
                  | _ -> None)
                sp.mutations)
            branches
        with
        | None -> Ok ()
        | Some (label, tenant) ->
          Error
            (Printf.sprintf "branch %S: scale tenant %d out of range (tenants are 0..%d)" label
               tenant (tenants - 1))
      in
      let* p0 =
        match resolve policy with
        | Some p -> Ok p
        | None -> Error (Printf.sprintf "unknown policy %S" policy)
      in
      (* baseline: the straight-line run over the whole stream, which
         leaves a snapshot, its journal and its decisions at the fork
         point on the way *)
      let prefix_events, suffix_events = split_at fork_at events in
      let base = En.create ~capacity ~policy:p0 ?kinetic:(kinetic_for policy) () in
      let base_lines = ref [] and base_seq = ref 0 and base_outs = ref [] in
      let base_emit e =
        base_lines := J.to_line ~seq:!base_seq e :: !base_lines;
        incr base_seq
      in
      base_emit (J.Init { capacity; policy });
      let baseline ?first evs =
        Result.map_error
          (fun m -> "baseline: " ^ m)
          (drive ?first ~lenient:false base base_emit base_outs evs)
      in
      let* _ = baseline prefix_events in
      let snap = En.snapshot base in
      let prefix_rev_lines = !base_lines and prefix_seq = !base_seq in
      let prefix_outs_rev = !base_outs in
      let* _ = baseline ~first:fork_at suffix_events in
      let baseline_outs = List.rev !base_outs in
      let baseline_wc = En.weighted_completion base and baseline_wflow = En.weighted_flow base in
      let baseline_tenant = tenant_wc ~tenants base in
      let run_branch (sp : spec) : (outcome, string) result =
        let new_policy =
          List.fold_left
            (fun acc m -> match m with Set_policy p -> Some p | _ -> acc)
            None sp.mutations
        in
        let scales = List.filter_map (function Scale_tenant s -> Some s | _ -> None) sp.mutations in
        let injections = List.filter_map (function Inject e -> Some e | _ -> None) sp.mutations in
        let* eff_policy, eng =
          match new_policy with
          | None -> Ok (policy, En.fork ?kinetic:(kinetic_for policy) snap)
          | Some name -> (
            match resolve name with
            | Some p -> Ok (name, En.fork ~policy:p ?kinetic:(kinetic_for name) snap)
            | None -> Error (Printf.sprintf "branch %S: unknown policy %S" sp.label name))
        in
        let lines = ref prefix_rev_lines and seq = ref prefix_seq in
        let emit e =
          lines := J.to_line ~seq:!seq e :: !lines;
          incr seq
        in
        if new_policy <> None then emit (J.Policy eff_policy);
        let outs = ref prefix_outs_rev in
        let* injected, _ =
          Result.map_error
            (fun m -> Printf.sprintf "branch %S: injection %s" sp.label m)
            (drive ~lenient:false eng emit outs injections)
        in
        let suffix =
          if scales = [] then suffix_events
          else
            List.map
              (function
                | En.Submit { id; volume; weight; cap; speedup; deps } ->
                  let volume =
                    List.fold_left
                      (fun v (s : scale) ->
                        if id mod tenants = s.tenant then
                          F.div (F.mul v (F.of_int s.num)) (F.of_int s.den)
                        else v)
                      volume scales
                  in
                  En.Submit { id; volume; weight; cap; speedup; deps }
                | ev -> ev)
              suffix_events
        in
        let* applied, dropped = drive ~lenient:true eng emit outs suffix in
        let sum_wc = En.weighted_completion eng and sum_wflow = En.weighted_flow eng in
        let bt = baseline_tenant and t = tenant_wc ~tenants eng in
        Ok
          {
            label = sp.label;
            policy = eff_policy;
            applied = injected + applied;
            dropped;
            sum_wc;
            sum_wflow;
            d_wc = F.sub sum_wc baseline_wc;
            d_wflow = F.sub sum_wflow baseline_wflow;
            first_divergence = first_divergence baseline_outs (List.rev !outs);
            tenant_d_wc = Array.init tenants (fun k -> F.sub t.(k) bt.(k));
            lines = List.rev !lines;
          }
      in
      let rec all acc = function
        | [] -> Ok (List.rev acc)
        | sp :: rest ->
          let* o = run_branch sp in
          all (o :: acc) rest
      in
      let* branches = all [] branches in
      Ok
        {
          fork_at;
          tenants;
          baseline_wc;
          baseline_wflow;
          baseline_lines = List.rev !base_lines;
          branches;
        }

  (* ---------- JSONL report rendering ---------- *)

  (* Dual decimal + [_repr] convention, same encoder as the journal. *)

  let baseline_json (r : report) : string =
    let b = Buffer.create 256 in
    Buffer.add_string b "{\"type\":\"baseline\"";
    Json_out.int b "fork_at" r.fork_at;
    Json_out.int b "tenants" r.tenants;
    Json_out.int b "branches" (List.length r.branches);
    J.num b "sum_wc" r.baseline_wc;
    J.num b "sum_wflow" r.baseline_wflow;
    Buffer.add_char b '}';
    Buffer.contents b

  let outcome_json (o : outcome) : string =
    let b = Buffer.create 512 in
    Buffer.add_string b "{\"type\":\"branch\"";
    Json_out.string b "label" o.label;
    Json_out.string b "policy" o.policy;
    Json_out.int b "applied" o.applied;
    Json_out.int b "dropped" o.dropped;
    J.num b "sum_wc" o.sum_wc;
    J.num b "sum_wflow" o.sum_wflow;
    J.num b "d_wc" o.d_wc;
    J.num b "d_wflow" o.d_wflow;
    Option.iter (J.num b "first_divergence") o.first_divergence;
    let tenant_str render =
      String.concat " "
        (List.mapi (fun t d -> string_of_int t ^ ":" ^ render d) (Array.to_list o.tenant_d_wc))
    in
    Json_out.string b "tenant_d_wc" (tenant_str (fun d -> Json_out.decimal_string (F.to_float d)));
    Json_out.string b "tenant_d_wc_repr" (tenant_str F.repr);
    Buffer.add_char b '}';
    Buffer.contents b

  (** The whole report as JSONL: one baseline line, one line per
      branch. *)
  let report_jsonl (r : report) : string list =
    baseline_json r :: List.map outcome_json r.branches
end

(** Pre-applied branch runners. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
