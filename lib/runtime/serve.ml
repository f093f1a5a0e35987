(** The serve loop (DESIGN.md §10.4): one input line in, zero or more
    JSONL lines out, over a sharded store ({!Shard.Make}).

    A line whose first non-blank byte is ['{'] is a journal line
    ({!Journal.Make.of_line}): [init] creates the store, [in] lines
    apply, and [out], [budget] and [policy] lines are skipped, since
    this run recomputes its own decisions. Any other line is a text
    command, tokens separated by spaces, ['#'] starting a comment:
    {v
      submit ID VOLUME WEIGHT CAP [X:Y ...] [deps:J,K,...]
      cancel ID | advance DT | drain | metrics | quit (or exit)
    v}
    Numbers are {!Mwct_field.Field.S.of_repr} literals ([p/q] works on
    both fields); [X:Y] breakpoints select a concave speedup law, and
    [deps:] lists the precedence parents a task waits for.

    The store is created by an [init] line, or with the defaults by the
    first event, [metrics] probe or {!finish}. Every refusal is one
    [{"type":"error","msg":...}] line on [out]; a refused submit,
    cancel or malformed line leaves the store as it was. [resolve] (the
    caller's registry gate: a policy name to its share rule and kinetic
    factory, or the refusal message) and [allocator] keep the runtime
    below the policy layer. [clock], when given, times each
    {!Shard.Make.apply} into the latency histogram; output never
    depends on it. *)

module Make (F : Mwct_field.Field.S) = struct
  module St = Shard.Make (F)
  module En = St.En
  module J = St.J

  (** A resolved policy: the engine's share rule and a factory for its
      incremental counterpart (one fresh state per engine). *)
  type policy = { share : En.policy; kinetic : unit -> En.kinetic option }

  type step = Continue | Quit

  type t = {
    resolve : string -> (policy, string) result;
    make_store : capacity:F.t -> policy_label:string -> policy -> St.t;
    default : F.t * string * policy;  (* capacity, label, policy without an init line *)
    clock : (unit -> float) option;
    out : string -> unit;
    mutable store : St.t option;
  }

  (** [create ~resolve ~allocator ~out ~nshards ~route ~capacity
      ~policy_label ~policy ()]: a loop with no store yet. [capacity],
      [policy_label] and [policy] are the defaults an [init] line
      overrides; the sinks, [shard_cap], [nshards] and [route] are
      handed to {!Shard.Make.create} when the store is made. *)
  let create ~resolve ~allocator ?clock ~out ?merged_sink ?shard_sink ?shard_cap ~nshards ~route
      ~capacity ~policy_label ~policy () : t =
    let make_store ~capacity ~policy_label (p : policy) =
      St.create ?shard_cap ?merged_sink ~decision_sink:out ?shard_sink ~nshards ~route ~capacity
        ~allocator ~policy:p.share ~kinetic:p.kinetic ~policy_label ()
    in
    { resolve; make_store; default = (capacity, policy_label, policy); clock; out; store = None }

  (** The store, once a line or {!finish} has created it. *)
  let store t = t.store

  let get_store t =
    match t.store with
    | Some s -> s
    | None ->
      let capacity, policy_label, policy = t.default in
      let s = t.make_store ~capacity ~policy_label policy in
      t.store <- Some s;
      s

  let error t msg =
    let b = Buffer.create (String.length msg + 32) in
    Buffer.add_string b "{\"type\":\"error\"";
    Json_out.string b "msg" msg;
    Buffer.add_char b '}';
    t.out (Buffer.contents b)

  let apply t ev =
    let s = get_store t in
    let r =
      match t.clock with
      | None -> St.apply s ev
      | Some clock ->
        let t0 = clock () in
        let r = St.apply s ev in
        St.observe_latency s (clock () -. t0);
        r
    in
    match r with Ok _ -> () | Error e -> error t (En.error_to_string e)

  let init t ~capacity ~policy_label =
    if Option.is_some t.store then error t "init after events; line ignored"
    else
      match t.resolve policy_label with
      | Error msg -> error t msg
      | Ok p ->
        if F.sign capacity <= 0 then error t "init: capacity must be positive"
        else t.store <- Some (t.make_store ~capacity ~policy_label p)

  (* The arguments of a text [submit]; [None] if any is malformed. *)
  let submit_of_tokens id v w c rest : En.event option =
    let deps_tokens, bps =
      List.partition (fun p -> String.length p > 5 && String.sub p 0 5 = "deps:") rest
    in
    let deps =
      match deps_tokens with
      | [] -> Some []
      | [ tok ] -> (
        match J.task_ids ',' (String.sub tok 5 (String.length tok - 5)) with
        | Ok (_ :: _ as ids) -> Some ids
        | _ -> None)
      | _ -> None
    in
    let rec curve acc = function
      | [] -> Some (List.rev acc)
      | p :: ps -> ( match J.breakpoint p with Ok bp -> curve (bp :: acc) ps | Error _ -> None)
    in
    let num = F.of_repr in
    match (int_of_string_opt id, num v, num w, num c, curve [] bps, deps) with
    | Some id, Some volume, Some weight, Some cap, Some pairs, Some deps ->
      let speedup =
        match pairs with
        | [] -> None
        | _ -> Some (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))
      in
      Some (En.Submit { id; volume; weight; cap; speedup; deps })
    | _ -> None

  let text_line t line =
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [] -> ()
    | cmd :: _ when cmd.[0] = '#' -> ()
    | "submit" :: id :: v :: w :: c :: rest -> (
      match submit_of_tokens id v w c rest with
      | Some ev -> apply t ev
      | None -> error t ("submit: bad arguments: " ^ line))
    | [ "cancel"; id ] -> (
      match int_of_string_opt id with
      | Some id -> apply t (En.Cancel id)
      | None -> error t ("cancel: bad task id: " ^ line))
    | [ "advance"; dt ] -> (
      match F.of_repr dt with
      | Some dt -> apply t (En.Advance dt)
      | None -> error t ("advance: bad duration: " ^ line))
    | [ "drain" ] -> apply t En.Drain
    | [ "metrics" ] -> t.out (St.metrics_json (get_store t))
    | _ -> error t ("unknown command: " ^ line)

  let json_line t line =
    match J.of_line line with
    | Error msg -> error t ("bad journal line: " ^ msg)
    | Ok (_, J.Init { capacity; policy }) -> init t ~capacity ~policy_label:policy
    | Ok (_, J.Input ev) -> apply t ev
    | Ok (_, (J.Output _ | J.Budget _ | J.Policy _)) -> ()

  (** Handle one input line (surrounding blanks are ignored). [Quit]
      on [quit] or [exit]: the caller stops reading and calls
      {!finish}. *)
  let feed_line t raw : step =
    let line = String.trim raw in
    if line = "quit" || line = "exit" then Quit
    else begin
      if String.length line > 0 && line.[0] = '{' then json_line t line else text_line t line;
      Continue
    end

  (** The final metrics line: the state the run ends on. An input with
      no event still creates the store, so the line is always
      written. *)
  let finish t = t.out (St.metrics_json (get_store t))
end
