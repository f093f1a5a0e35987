(** JSONL event journal for the online engine.

    One JSON object per line, each carrying a monotonically increasing
    [seq] number. Four line kinds:

    - [init]   — engine parameters (capacity, policy name); always first.
    - [in]     — an input event ([submit] / [cancel] / [advance] /
                 [advance_to] / [drain]).
    - [out]    — an emitted decision: task [id] completed at time [t].
    - [budget] — a mid-stream capacity re-assignment (the sharded
                 store's per-tick processor budget for this shard).
    - [policy] — a mid-stream share-rule switch (the what-if branch
                 runner's policy mutation, DESIGN.md §16): replay forks
                 the engine in place under the new rule.

    Lines of a sharded store's merged journal additionally carry a
    [shard] field naming the owning shard ({!to_line}'s [?shard];
    {!of_line_tagged} surfaces it). Untagged lines are byte-identical
    to single-engine journals.

    Numeric payloads follow the library's dual-rendering convention: a
    decimal [float] field for tooling plus an exact [_repr] string
    ({!Mwct_field.Field.S.repr}) that survives the round trip
    bit-for-bit. {!replay} reads the [_repr] fields only, so replaying
    a journal reconstructs the {e exact} final engine state and
    objective — crash recovery and debugging for free. [out] lines are
    verified against the decisions the replayed engine emits; a
    mismatch is reported as corruption instead of being ignored.

    Lines are rendered by {!Json_out}, the runtime's one JSON encoder
    (DESIGN.md §10.2). The parser is a minimal flat-object JSON reader
    (string / number / literal values, no nesting; string escapes are
    backslash-quote, double backslash, [\n], [\r], [\t] and [\u00XX]
    below 0x80, which covers everything the encoder emits) — the
    journal grammar needs nothing more, and the repo deliberately has
    no JSON dependency. It refuses a key given twice and anything but
    blanks after the closing brace. *)

module Make (F : Mwct_field.Field.S) = struct
  module En = Engine.Make (F)

  type entry =
    | Init of { capacity : F.t; policy : string }
    | Input of En.event
    | Output of { id : int; at : F.t }
    | Budget of F.t
        (** capacity re-assignment mid-stream ({!Engine.set_capacity}):
            the sharded store records each shard's per-tick processor
            budget so a per-shard journal replays on a plain single
            engine. *)
    | Policy of string
        (** share-rule switch mid-stream: from here on the engine runs
            under the named policy (state carried over bit-faithfully
            via {!Engine.Make.fork}). Written by the what-if branch
            runner so a policy-switch branch's journal is
            self-contained and replayable. *)

  (* ---------- encoding ---------- *)

  (* Dual rendering of one field value: ,"k":<decimal>,"k_repr":"<exact>". *)
  let num b k x = Json_out.num b k (F.to_float x) (F.repr x)

  (** The payload of one journal line: every member after the
      [{"seq":N] (or [{"seq":N,"shard":k]) frame, closing brace
      included. A sharded store renders an entry's payload once and
      frames it for each journal that takes the line ({!frame}). *)
  let payload (e : entry) : string =
    let b = Buffer.create 128 in
    let ty t = Json_out.string b "type" t in
    (match e with
    | Init { capacity; policy } ->
      ty "init";
      num b "capacity" capacity;
      Json_out.string b "policy" policy
    | Input (En.Submit { id; volume; weight; cap; speedup; deps }) ->
      ty "submit";
      Json_out.int b "id" id;
      num b "volume" volume;
      num b "weight" weight;
      num b "cap" cap;
      (* The curve is rendered as a string of space-separated "x:y"
         breakpoints — the flat-object parser has no arrays — with the
         usual dual decimal / [_repr] convention. Linear submits carry
         no speedup fields, keeping their lines byte-identical to
         pre-curve journals. Dependency edges likewise render as a
         space-separated id string, and only when present. *)
      Option.iter
        (fun (bx, by) ->
          let render f =
            String.concat " "
              (List.map2 (fun x y -> f x ^ ":" ^ f y) (Array.to_list bx) (Array.to_list by))
          in
          Json_out.string b "speedup" (render (fun x -> Json_out.decimal_string (F.to_float x)));
          Json_out.string b "speedup_repr" (render F.repr))
        speedup;
      if deps <> [] then Json_out.string b "deps" (String.concat " " (List.map string_of_int deps))
    | Input (En.Cancel id) -> ty "cancel"; Json_out.int b "id" id
    | Input (En.Advance dt) -> ty "advance"; num b "dt" dt
    | Input (En.Advance_to at) -> ty "advance_to"; num b "t" at
    | Input En.Drain -> ty "drain"
    | Output { id; at } -> ty "complete"; Json_out.int b "id" id; num b "t" at
    | Budget c -> ty "budget"; num b "capacity" c
    | Policy p -> ty "policy"; Json_out.string b "policy" p);
    Buffer.add_char b '}';
    Buffer.contents b

  (** One journal line (no trailing newline) from a rendered
      {!payload}. [shard], when given, tags the line with the owning
      shard of a sharded store's merged journal; untagged lines are
      byte-identical to single-engine journals. *)
  let frame ?shard ~seq payload : string =
    match shard with
    | None -> String.concat "" [ "{\"seq\":"; string_of_int seq; payload ]
    | Some k ->
      String.concat "" [ "{\"seq\":"; string_of_int seq; ",\"shard\":"; string_of_int k; payload ]

  (** One journal line (no trailing newline): {!frame} of {!payload}. *)
  let to_line ?shard ~seq (e : entry) : string = frame ?shard ~seq (payload e)

  (* ---------- payload tokens ---------- *)

  (** One speedup breakpoint ["x:y"]: allocation [x], rate [y], each
      an {!F.of_repr} number. A token with two bad numbers reports the
      rate. [serve]'s text grammar reads its breakpoint tokens with
      it. *)
  let breakpoint (p : string) : (F.t * F.t, string) result =
    match String.index_opt p ':' with
    | None -> Error (Printf.sprintf "speedup: not a breakpoint %S" p)
    | Some i -> (
      let num what r =
        match F.of_repr r with
        | Some x -> Ok x
        | None -> Error (Printf.sprintf "speedup %s: unparseable number %S" what r)
      in
      let y = num "rate" (String.sub p (i + 1) (String.length p - i - 1)) in
      match (y, num "allocation" (String.sub p 0 i)) with
      | Error msg, _ | _, Error msg -> Error msg
      | Ok y, Ok x -> Ok (x, y))

  (** A dependency list: task ids separated by [sep], empty entries
      skipped ([' '] in journals, [','] in [serve]'s [deps:] token). *)
  let task_ids (sep : char) (s : string) : (int list, string) result =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | "" :: rest -> go acc rest
      | p :: rest -> (
        match int_of_string_opt p with
        | Some d -> go (d :: acc) rest
        | None -> Error (Printf.sprintf "deps: not a task id %S" p))
    in
    go [] (String.split_on_char sep s)

  (* ---------- flat-object JSON parsing ---------- *)

  exception Parse of string

  let parse_object (line : string) : (string * string) list =
    (* Returns raw values: strings are unescaped without quotes, other
       scalars (numbers, true/false/null) verbatim. A key given twice
       is refused rather than resolved: JSON leaves the choice open
       (Python keeps the last, a first-match lookup the first). *)
    let n = String.length line in
    let pos = ref 0 in
    let fail msg = raise (Parse (Printf.sprintf "%s at column %d" msg !pos)) in
    (* Is [k] already a key of [fields]? The length test spares most of
       the C string compares on serve's per-line path. *)
    let rec seen k = function
      | [] -> false
      | (k', _) :: l -> (String.length k = String.length k' && String.equal k k') || seen k l
    in
    let skip_ws () = while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do incr pos done in
    let expect c =
      skip_ws ();
      if !pos < n && line.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
    in
    (* [\u00XX] below 0x80: the one-byte code points, which cover
       every control character the encoder escapes *)
    let u_escape p =
      let hex i =
        match line.[p + i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> 16
      in
      if p + 5 < n && line.[p + 2] = '0' && line.[p + 3] = '0' && hex 4 < 8 && hex 5 < 16 then
        Some (Char.chr ((hex 4 lsl 4) lor hex 5))
      else None
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      while !pos < n && line.[!pos] <> '"' && line.[!pos] <> '\\' do
        incr pos
      done;
      if !pos < n && line.[!pos] = '"' then begin
        (* no escape: the value is one slice of the line *)
        incr pos;
        String.sub line start (!pos - 1 - start)
      end
      else begin
        let buf = Buffer.create 16 in
        Buffer.add_substring buf line start (!pos - start);
        let rec go () =
          if !pos >= n then fail "unterminated string"
          else
            match line.[!pos] with
            | '"' -> incr pos
            | '\\' ->
              if !pos + 1 >= n then fail "dangling escape";
              let c, width =
                match line.[!pos + 1] with
                | '"' -> ('"', 2)
                | '\\' -> ('\\', 2)
                | 'n' -> ('\n', 2)
                | 'r' -> ('\r', 2)
                | 't' -> ('\t', 2)
                | c -> (
                  match (c, u_escape !pos) with
                  | 'u', Some u -> (u, 6)
                  | _ -> fail (Printf.sprintf "unsupported escape '\\%c'" c))
              in
              Buffer.add_char buf c;
              pos := !pos + width;
              go ()
            | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
        in
        go ();
        Buffer.contents buf
      end
    in
    let parse_scalar () =
      skip_ws ();
      if !pos < n && line.[!pos] = '"' then parse_string ()
      else begin
        let start = !pos in
        while
          !pos < n
          && (match line.[!pos] with
             | ',' | '}' | ' ' | '\t' -> false
             | _ -> true)
        do
          incr pos
        done;
        if !pos = start then fail "empty value";
        String.sub line start (!pos - start)
      end
    in
    expect '{';
    skip_ws ();
    let fields = ref [] in
    if !pos < n && line.[!pos] = '}' then incr pos
    else begin
      let continue = ref true in
      while !continue do
        let k = parse_string () in
        if seen k !fields then fail (Printf.sprintf "duplicate key %S" k);
        expect ':';
        let v = parse_scalar () in
        fields := (k, v) :: !fields;
        skip_ws ();
        if !pos < n && line.[!pos] = ',' then incr pos
        else begin
          expect '}';
          continue := false
        end
      done
    end;
    (* Only blanks may follow the object: [load] reads with
       [input_line], so a CRLF journal keeps its '\r'. *)
    while !pos < n && (match line.[!pos] with ' ' | '\t' | '\r' -> true | _ -> false) do
      incr pos
    done;
    if !pos < n then fail "trailing characters after the object";
    List.rev !fields

  (** Parse one line, surfacing the optional shard tag of a merged
      sharded journal. *)
  let of_line_tagged (line : string) : (int * int option * entry, string) result =
    try
      let fields = parse_object line in
      let get k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> raise (Parse (Printf.sprintf "missing field %S" k))
      in
      let get_int k =
        match int_of_string_opt (get k) with
        | Some i -> i
        | None -> raise (Parse (Printf.sprintf "field %S: not an integer" k))
      in
      let get_num k k_repr =
        (* The exact [_repr] string is authoritative; the decimal field
           is only a fallback for hand-written journals. *)
        let raw = match List.assoc_opt k_repr fields with Some r -> r | None -> get k in
        match F.of_repr raw with
        | Some x -> x
        | None -> raise (Parse (Printf.sprintf "field %S: unparseable number %S" k raw))
      in
      let seq = get_int "seq" in
      let entry =
        match get "type" with
        | "init" -> Init { capacity = get_num "capacity" "capacity_repr"; policy = get "policy" }
        | "submit" ->
          (* Optional speedup: the exact [_repr] rendering wins, the
             decimal field is the hand-written-journal fallback. *)
          let speedup =
            let raw =
              match List.assoc_opt "speedup_repr" fields with
              | Some r -> Some r
              | None -> List.assoc_opt "speedup" fields
            in
            match raw with
            | None -> None
            | Some s -> (
              let pairs =
                String.split_on_char ' ' s
                |> List.filter (fun p -> p <> "")
                |> List.map (fun p ->
                       match breakpoint p with Ok bp -> bp | Error msg -> raise (Parse msg))
              in
              match pairs with
              | [] -> raise (Parse "speedup: empty breakpoint list")
              | _ -> Some (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs)))
          in
          let deps =
            match List.assoc_opt "deps" fields with
            | None -> []
            | Some s -> ( match task_ids ' ' s with Ok ids -> ids | Error msg -> raise (Parse msg))
          in
          Input
            (En.Submit
               {
                 id = get_int "id";
                 volume = get_num "volume" "volume_repr";
                 weight = get_num "weight" "weight_repr";
                 cap = get_num "cap" "cap_repr";
                 speedup;
                 deps;
               })
        | "cancel" -> Input (En.Cancel (get_int "id"))
        | "advance" -> Input (En.Advance (get_num "dt" "dt_repr"))
        | "advance_to" -> Input (En.Advance_to (get_num "t" "t_repr"))
        | "drain" -> Input En.Drain
        | "complete" -> Output { id = get_int "id"; at = get_num "t" "t_repr" }
        | "budget" -> Budget (get_num "capacity" "capacity_repr")
        | "policy" -> Policy (get "policy")
        | ty -> raise (Parse (Printf.sprintf "unknown line type %S" ty))
      in
      let shard =
        match List.assoc_opt "shard" fields with
        | None -> None
        | Some s -> (
          match int_of_string_opt s with
          | Some k -> Some k
          | None -> raise (Parse "field \"shard\": not an integer"))
      in
      Ok (seq, shard, entry)
    with Parse msg -> Error msg

  let of_line (line : string) : (int * entry, string) result =
    match of_line_tagged line with
    | Ok (seq, _, entry) -> Ok (seq, entry)
    | Error msg -> Error msg

  (* ---------- loading & replay ---------- *)

  (** Parse a journal file. Blank lines are skipped; any malformed line
      aborts with its line number. *)
  let load (path : string) : ((int * entry) list, string) result =
    match open_in path with
    | exception Sys_error msg -> Error msg
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec go lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | "" -> go (lineno + 1) acc
            | line -> (
              match of_line line with
              | Ok e -> go (lineno + 1) (e :: acc)
              | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
          in
          go 1 [])

  (** Rebuild an engine from a journal: the first entry must be [init]
      (resolved to a policy via [resolve]), sequence numbers must be
      strictly increasing, input events are re-applied in order, and
      every [out] line must match the decision the replayed engine
      emits at that point — same task, identical ([F.equal]) time.
      Because the engine is deterministic, the result has the exact
      final state, metrics and objective of the recorded run. *)
  let replay ~(resolve : string -> En.policy option) (entries : (int * entry) list) :
      (En.t, string) result =
    let exception Fail of string in
    try
      let eng, rest =
        match entries with
        | (_, Init { capacity; policy }) :: rest -> (
          match resolve policy with
          | Some p -> (ref (En.create ~capacity ~policy:p ()), rest)
          | None -> raise (Fail (Printf.sprintf "unknown policy %S" policy)))
        | _ -> raise (Fail "journal must start with an init line")
      in
      let last_seq = ref (match entries with (s, _) :: _ -> s | [] -> -1) in
      (* Decisions the engine emitted that have not yet been matched
         against an [out] line. *)
      let pending : En.notification list ref = ref [] in
      List.iter
        (fun (seq, entry) ->
          if seq <= !last_seq then
            raise (Fail (Printf.sprintf "sequence numbers not increasing at seq %d" seq));
          last_seq := seq;
          match entry with
          | Init _ -> raise (Fail (Printf.sprintf "seq %d: duplicate init line" seq))
          | Budget c ->
            (* the recorded per-tick budget of a sharded run's shard:
               re-apply it so the plain engine reproduces the shard's
               completions exactly *)
            if F.sign c < 0 then raise (Fail (Printf.sprintf "seq %d: negative budget" seq))
            else ignore (En.set_capacity !eng c)
          | Policy name -> (
            (* mid-stream share-rule switch: fork the engine in place
               under the new rule (state carried over bit-faithfully) *)
            match resolve name with
            | Some p -> eng := En.fork ~policy:p (En.snapshot !eng)
            | None -> raise (Fail (Printf.sprintf "seq %d: unknown policy %S" seq name)))
          | Input e -> (
            match En.apply !eng e with
            | Ok notes -> pending := !pending @ notes
            | Error err ->
              raise (Fail (Printf.sprintf "seq %d: %s" seq (En.error_to_string err))))
          | Output { id; at } -> (
            match !pending with
            | [] ->
              raise (Fail (Printf.sprintf "seq %d: out line with no matching decision" seq))
            | note :: rest ->
              if note.En.id <> id || not (F.equal note.En.at at) then
                raise
                  (Fail
                     (Printf.sprintf
                        "seq %d: decision mismatch (journal: task %d at %s; replay: task %d at %s)"
                        seq id (F.to_string at) note.En.id (F.to_string note.En.at)));
              pending := rest))
        rest;
      Ok !eng
    with Fail msg -> Error msg
end

(** Pre-applied journals. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
