(* Minimal JSON reader and writer for the benchmark's own files
   (BENCHMARK.json, results, the checked-in baseline) and for the
   multi-line reports of `mwct solve --json`. The journal's flat-object
   parser cannot read nested values, and the repo has no JSON
   dependency. *)

type t = Null | Bool of bool | Num of float | Str of string | Arr of t list | Obj of (string * t) list

exception Error of string

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "dangling escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'u' ->
          (* the benchmark's files are ASCII; keep the escape verbatim *)
          Buffer.add_string b "\\u"
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          ws ();
          let k = string () in
          ws ();
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false) do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x -> Num x
      | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> really_input_string ic (in_channel_length ic))

let of_file path = parse (read_file path)

let member k = function Obj l -> (match List.assoc_opt k l with Some v -> v | None -> Null) | _ -> Null
let to_list = function Arr l -> l | _ -> []
let to_assoc = function Obj l -> l | _ -> []
let to_num = function Num x -> Some x | _ -> None
let to_str = function Str s -> Some s | _ -> None

(* Numbers print with every significant digit (%.17g round-trips), so
   a measured time never reads the same on two runs by rounding. JSON
   has no NaN or infinity: a run that measured nothing prints null. *)
let num_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Compact rendering, or one member per line at [indent] > 0 for the
   files people read and diff. *)
let to_string ?(indent = 0) v =
  let b = Buffer.create 1024 in
  let nl depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Num x -> Buffer.add_string b (num_to_string x)
    | Str s -> Printf.bprintf b "\"%s\"" (escape s)
    | Arr [] -> Buffer.add_string b "[]"
    | Arr l when List.for_all (function Num _ | Str _ -> true | _ -> false) l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_string b ", "; go depth x) l;
      Buffer.add_char b ']'
    | Arr l ->
      Buffer.add_char b '[';
      List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; nl (depth + 1); go (depth + 1) x) l;
      nl depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          nl (depth + 1);
          Printf.bprintf b "\"%s\": " (escape k);
          go (depth + 1) x)
        l;
      nl depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

let to_file ?(indent = 2) path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string ~indent v ^ "\n"))
