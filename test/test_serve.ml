(* Mutation fuzz of serve's input boundary (lib/runtime/serve.ml).
   Loadgen streams on both fields, with and without dependency edges,
   are rendered as journal JSONL and as text-grammar lines; every
   fourth event wears a concave speedup curve, so breakpoint tokens are
   in play. One byte of one line is then mutated at SplitMix64-drawn
   positions (a bit flip, a deletion, an insertion or a truncation) and
   the stream is fed to a fresh loop at 1 and 2 shards. [feed_line]
   must never raise, and a line that prints an error line must leave
   the store's dump byte-equal (a store not yet created counts as an
   empty one). Deterministic: the draws are a function of the case
   number. *)

module Rng = Mwct_util.Rng

module Fuzz (F : Mwct_field.Field.S) = struct
  module S = Mwct_runtime.Serve.Make (F)
  module L = Mwct_runtime.Loadgen.Make (F)
  module P = Mwct_ncv.Policy.Make (F)
  module En = S.En
  module J = S.J

  let resolve name =
    match P.of_name name with
    | Some p -> Ok { S.share = P.engine_policy p; kinetic = (fun () -> P.engine_kinetic p) }
    | None -> Error ("unknown policy " ^ name)

  let capacity = F.of_int 4

  let fresh ~nshards out =
    S.create ~resolve ~allocator:(P.engine_policy P.Wdeq) ~out ~nshards ~route:S.St.Mod ~capacity
      ~policy_label:"wdeq"
      ~policy:(Result.get_ok (resolve "wdeq"))
      ()

  let curve = ([| F.one; F.of_int 2 |], [| F.one; F.of_q 3 2 |])

  let events ~seed ~deps =
    let pattern = [| L.Burst; L.Diurnal; L.Adversarial |].(seed mod 3) in
    List.mapi
      (fun i ev ->
        match ev with
        | En.Submit s when i mod 4 = 0 -> En.Submit { s with speedup = Some curve }
        | ev -> ev)
      (L.generate ~deps ~pattern ~seed ~tenants:3 ~events:24 ())

  let text_line = function
    | En.Submit { id; volume; weight; cap; speedup; deps } ->
      String.concat " "
        ([ "submit"; string_of_int id; F.repr volume; F.repr weight; F.repr cap ]
        @ (match speedup with
          | None -> []
          | Some (bx, by) ->
            Array.to_list (Array.map2 (fun x y -> F.repr x ^ ":" ^ F.repr y) bx by))
        @
        match deps with
        | [] -> []
        | ds -> [ "deps:" ^ String.concat "," (List.map string_of_int ds) ])
    | En.Cancel id -> "cancel " ^ string_of_int id
    | En.Advance dt -> "advance " ^ F.repr dt
    | En.Advance_to _ -> invalid_arg "text_line: the text grammar has no advance_to"
    | En.Drain -> "drain"

  let jsonl_lines evs =
    J.to_line ~seq:0 (J.Init { capacity; policy = "wdeq" })
    :: List.mapi (fun i ev -> J.to_line ~seq:(i + 1) (J.Input ev)) evs

  let alphabet = "0123456789-+.:/,ex {}\"\\#"

  (* One byte of [line] mutated; the kind and position are drawn. *)
  let mutate rng line =
    let n = String.length line in
    let cut p k = String.sub line 0 p ^ k ^ String.sub line (p + 1) (n - p - 1) in
    match Rng.int rng 4 with
    | 0 when n > 0 ->
      let p = Rng.int rng n in
      cut p (String.make 1 (Char.chr (Char.code line.[p] lxor (1 lsl Rng.int rng 8))))
    | 1 when n > 0 -> cut (Rng.int rng n) ""
    | 2 ->
      let p = Rng.int rng (n + 1) in
      let c =
        if Rng.bool rng then alphabet.[Rng.int rng (String.length alphabet)]
        else Char.chr (Rng.int rng 256)
      in
      String.sub line 0 p ^ String.make 1 c ^ String.sub line p (n - p)
    | _ -> String.sub line 0 (Rng.int rng (n + 1))

  let is_error l = String.length l > 15 && String.sub l 0 15 = "{\"type\":\"error\""

  (* Feed [lines]; returns the number of error lines printed. *)
  let run ?(case = "") ~nshards lines =
    let empty =
      let e = fresh ~nshards ignore in
      S.finish e;
      S.St.dump (Option.get (S.store e))
    in
    let printed = ref [] in
    let sv = fresh ~nshards (fun l -> printed := l :: !printed) in
    let dump () = match S.store sv with Some s -> S.St.dump s | None -> empty in
    let errors = ref 0 in
    let rec go = function
      | [] -> ()
      | line :: rest ->
        let before = dump () in
        printed := [];
        let step =
          try S.feed_line sv line
          with e -> Alcotest.failf "%sfeed_line raised %s on %S" case (Printexc.to_string e) line
        in
        (match List.find_opt is_error !printed with
        | Some err ->
          incr errors;
          if dump () <> before then Alcotest.failf "%s%s changed the store on %S" case err line
        | None -> ());
        if step = S.Continue then go rest
    in
    go lines;
    (try S.finish sv with e -> Alcotest.failf "%sfinish raised %s" case (Printexc.to_string e));
    !errors

  (* [cases] mutated streams per format, shard count and deps setting;
     returns the error lines seen and the cases with none. *)
  let sweep ~cases =
    let errors = ref 0 and clean = ref 0 in
    List.iter
      (fun (format, nshards, deps) ->
        for case = 0 to cases - 1 do
          let rng = Rng.create ((case * 8) + (nshards * 2) + Bool.to_int deps) in
          let evs = events ~seed:case ~deps in
          let lines =
            Array.of_list (if format = `Jsonl then jsonl_lines evs else List.map text_line evs)
          in
          let k = Rng.int rng (Array.length lines) in
          lines.(k) <- mutate rng lines.(k);
          let case =
            Printf.sprintf "%s, %d shards, deps %b, case %d, line %d mutated to %S: "
              (if format = `Jsonl then "jsonl" else "text")
              nshards deps case k lines.(k)
          in
          match run ~case ~nshards (Array.to_list lines) with
          | 0 -> incr clean
          | e -> errors := !errors + e
        done)
      (List.concat_map
         (fun f -> [ (f, 1, false); (f, 1, true); (f, 2, false); (f, 2, true) ])
         [ `Jsonl; `Text ]);
    (!errors, !clean)
end

module FF = Fuzz (Mwct_field.Field.Float_field)
module FQ = Fuzz (Mwct_rational.Rational.Rat_field)

let check (errors, clean) =
  Alcotest.(check bool) "some mutations are refused" true (errors > 0);
  Alcotest.(check bool) "some mutations are accepted" true (clean > 0)

(* Unmutated streams apply without a single error line. *)
let test_clean_streams () =
  List.iter
    (fun (nshards, deps) ->
      for seed = 0 to 5 do
        let evs = FF.events ~seed ~deps in
        Alcotest.(check int) "jsonl errors" 0 (FF.run ~nshards (FF.jsonl_lines evs));
        Alcotest.(check int) "text errors" 0 (FF.run ~nshards (List.map FF.text_line evs));
        let evs = FQ.events ~seed ~deps in
        Alcotest.(check int) "exact jsonl errors" 0 (FQ.run ~nshards (FQ.jsonl_lines evs));
        Alcotest.(check int) "exact text errors" 0 (FQ.run ~nshards (List.map FQ.text_line evs))
      done)
    [ (1, false); (1, true); (2, false); (2, true) ]

let () =
  Alcotest.run "serve"
    [
      ( "boundary",
        [
          Alcotest.test_case "clean streams" `Quick test_clean_streams;
          Alcotest.test_case "mutated lines (float)" `Quick (fun () -> check (FF.sweep ~cases:800));
          Alcotest.test_case "mutated lines (exact)" `Quick (fun () -> check (FQ.sweep ~cases:300));
        ] );
    ]
