(* The mwct benchmark. Run from the repository root, through run.sh
   (which builds the binary and this program first):

     bash benchsuite/run.sh [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]
                            [--repeats K] [--sets N] [--quick] [--out FILE]
     bash benchsuite/run.sh --compare OLD.json NEW.json

   Each run generates the workload's inputs from the seed, measures for
   about T seconds and checks the outputs. --trace 0 runs the built
   binary with tracing off and reports the end-to-end metrics; --trace 1
   replays the same inputs in process with spans around every layer and
   reports the per-layer metrics. --repeats K runs seeds S .. S+K-1 and
   reports medians with quartiles; --sets N does that N times and
   compares each set with the first. --quick runs every workload at toy
   size, both kinds of run: the smoke test. The last line of stdout is
   one JSON object: correct, attempted, failed and the metrics with
   their units. The exit code is non-zero when any correctness gate
   fails, and with --compare when a metric got worse. *)

let usage () =
  prerr_endline
    "usage: run.exe [--workload NAME] [--seed S] [--seconds T] [--trace 0|1] [--repeats K] [--sets N] \
     [--quick] [--out FILE] [--mwct PATH] | --compare OLD NEW";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("error: " ^ s); exit 2) fmt

(* ---------- BENCHMARK.json ---------- *)

type spec = {
  run_seconds : float;
  names : string list;  (* workloads *)
  e2e : (string * string * string * float) list;  (* name, unit, better, bound *)
  layers : (string * string) list;  (* name, unit *)
}

let better_name = function Suite.Higher -> "higher" | Suite.Lower -> "lower"

(* The file and the code must agree on every name and unit: a metric
   the code computes but the file lacks, or the reverse, is a bug in
   the benchmark. *)
let load_spec () =
  let j = try Json.of_file "BENCHMARK.json" with Json.Error m | Sys_error m -> die "BENCHMARK.json: %s" m in
  let str k o = match Json.to_str (Json.member k o) with Some s -> s | None -> die "BENCHMARK.json: missing %s" k in
  let num k o = match Json.to_num (Json.member k o) with Some x -> x | None -> die "BENCHMARK.json: missing %s" k in
  let spec =
    {
      run_seconds = num "run_seconds" j;
      names = List.map (str "name") (Json.to_list (Json.member "workloads" j));
      e2e =
        List.map
          (fun m -> (str "name" m, str "unit" m, str "better" m, num "bound" m))
          (Json.to_list (Json.member "end_to_end" j));
      layers = List.map (fun m -> (str "name" m, str "unit" m)) (Json.to_list (Json.member "per_layer" j));
    }
  in
  let code_names = List.map (fun (w : Suite.workload) -> w.Suite.name) Suite.workloads in
  if List.sort compare spec.names <> List.sort compare code_names then die "BENCHMARK.json workloads differ from the code's";
  let same what file code =
    if List.sort compare file <> List.sort compare code then die "BENCHMARK.json %s metrics differ from the code's" what
  in
  same "end_to_end"
    (List.map (fun (n, u, b, _) -> (n, u, b)) spec.e2e)
    (List.map (fun (n, u, b) -> (n, u, better_name b)) Suite.end_to_end);
  same "per_layer" spec.layers (List.map (fun (n, u, _) -> (n, u)) Suite.per_layer);
  spec

(* ---------- machine descriptor ---------- *)

let first_line_of_command cmd =
  try
    let ic = Unix.open_process_in cmd in
    let l = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    l
  with Unix.Unix_error _ -> ""

let proc_field file key =
  match open_in file with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | l -> (
            match String.index_opt l ':' with
            | Some i when String.trim (String.sub l 0 i) = key ->
              Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
            | _ -> go ())
        in
        go ())

let machine () =
  let nproc = match int_of_string_opt (first_line_of_command "nproc 2>/dev/null") with Some n -> n | None -> 0 in
  let ram_mb =
    match proc_field "/proc/meminfo" "MemTotal" with
    | Some s -> ( try Scanf.sscanf s "%d" (fun kb -> kb / 1024) with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
    | None -> 0
  in
  Json.Obj
    [
      ("nproc", Json.Num (float_of_int nproc));
      ("cpu_model", Json.Str (Option.value ~default:"unknown" (proc_field "/proc/cpuinfo" "model name")));
      ("ram_mb", Json.Num (float_of_int ram_mb));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* ---------- results ---------- *)

let unit_of name =
  match List.find_opt (fun (n, _, _) -> n = name) (Suite.end_to_end @ Suite.per_layer) with
  | Some (_, u, _) -> u
  | None -> "?"

let summary values =
  let a = Array.of_list values in
  let q1, q3 = Stats.quartiles a in
  (Stats.median a, q1, q3)

(* One workload's runs: per metric, the median and quartiles over the
   repeats, plus every value. *)
let workload_json (runs : (int * Suite.result) list) =
  let names = List.map fst (snd (List.hd runs)).Suite.metrics in
  let values name = List.map (fun (_, r) -> List.assoc name r.Suite.metrics) runs in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 runs in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all (fun (_, r) -> r.Suite.correct) runs));
      ("attempted", Json.Num (float_of_int (sum (fun r -> r.Suite.attempted))));
      ("failed", Json.Num (float_of_int (sum (fun r -> r.Suite.failed))));
      ("seeds", Json.Arr (List.map (fun (s, _) -> Json.Num (float_of_int s)) runs));
      ( "failures",
        Json.Arr (List.concat_map (fun (s, r) -> List.map (fun f -> Json.Str (Printf.sprintf "seed %d: %s" s f)) r.Suite.failures) runs) );
      ( "details",
        Json.Arr
          (List.map
             (fun (s, r) ->
               Json.Obj (("seed", Json.Num (float_of_int s)) :: List.map (fun (k, v) -> (k, Json.Num v)) r.Suite.details))
             runs) );
      ( "metrics",
        Json.Obj
          (List.map
             (fun name ->
               let v = values name in
               let med, q1, q3 = summary v in
               ( name,
                 Json.Obj
                   [
                     ("unit", Json.Str (unit_of name));
                     ("median", Json.Num med);
                     ("q1", Json.Num q1);
                     ("q3", Json.Num q3);
                     ("values", Json.Arr (List.map (fun x -> Json.Num x) v));
                   ] ))
             names) );
    ]

let spread v =
  let q1, q3 = Stats.quartiles v in
  if q3 = q1 then 0. else (q3 -. q1) /. Stats.median v

(* The metrics, then failed/attempted, then the workload's details
   (the batch commands' own wall times among them), each as a median
   with quartiles over the runs. *)
let print_table (w, runs) =
  let r0 = snd (List.hd runs) in
  Printf.printf "%s (%d run%s)\n" w (List.length runs) (if List.length runs = 1 then "" else "s");
  let row name unit v =
    let med, q1, q3 = summary v in
    Printf.printf "  %-38s %14.6g %-6s [q1 %.6g, q3 %.6g, iqr/median %.4f]\n" name med unit q1 q3 (spread (Array.of_list v))
  in
  List.iter (fun (name, _) -> row name (unit_of name) (List.map (fun (_, r) -> List.assoc name r.Suite.metrics) runs)) r0.Suite.metrics;
  row "failed_frac" "frac" (List.map (fun (_, r) -> float_of_int r.Suite.failed /. float_of_int (max 1 r.Suite.attempted)) runs);
  List.iter (fun (name, _) -> row name "" (List.map (fun (_, r) -> List.assoc name r.Suite.details) runs)) r0.Suite.details

(* ---------- --compare ---------- *)

(* A results file holds one or more sets of runs; the values of one
   workload and metric are pooled across its sets. *)
let load_values file =
  let j = try Json.of_file file with Json.Error m | Sys_error m -> die "%s: %s" file m in
  let sets = Json.to_list (Json.member "sets" j) in
  fun w m ->
    List.concat_map
      (fun s ->
        List.filter_map Json.to_num
          (Json.to_list (Json.member "values" (Json.member m (Json.member "metrics" (Json.member w (Json.member "workloads" s)))))))
      sets
    |> Array.of_list

(* The rules of the choosing-metrics method: a gain needs the change to
   win nine tenths of the paired runs and to move the median by more
   than the parent's own quartile spread; a loss is a median worse by
   more than the bound; a spread wider than the bound leaves the metric
   unresolved unless every new run beats every old one. *)
let verdict ~better ~bound old_v new_v =
  let om = Stats.median old_v and nm = Stats.median new_v in
  let worse_by = if better = "higher" then (om -. nm) /. om else (nm -. om) /. om in
  let beats a b = if better = "higher" then a > b else a < b in
  let pairs = min (Array.length old_v) (Array.length new_v) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if beats new_v.(i) old_v.(i) then incr wins
  done;
  let oq1, oq3 = Stats.quartiles old_v in
  let all_better = Array.for_all (fun n -> Array.for_all (fun o -> beats n o) old_v) new_v in
  if pairs > 0 && float_of_int !wins >= 0.9 *. float_of_int pairs && Float.abs (nm -. om) > oq3 -. oq1 && worse_by < 0.
  then ("better", worse_by)
  else if worse_by > bound then ("worse", worse_by)
  else if Float.max (spread old_v) (spread new_v) > bound && not all_better then ("unresolved", worse_by)
  else ("unchanged", worse_by)

(* One row per workload and end-to-end metric; the number of "worse"
   verdicts. *)
let compare_values spec ~old_label ~new_label old_values new_values =
  Printf.printf "%-16s %-14s %14s %14s %9s %7s  %s\n" "workload" "metric" old_label new_label "delta" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m, u, better, bound) ->
          let o = old_values w m and n = new_values w m in
          if Array.length o = 0 || Array.length n = 0 then Printf.printf "%-16s %-14s missing\n" w m
          else begin
            let v, worse_by = verdict ~better ~bound o n in
            if v = "worse" then incr worse;
            Printf.printf "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.1f%%  %s (%s, %s is better)\n" w m (Stats.median o)
              (Stats.median n) (-100. *. worse_by) (100. *. bound) v u better
          end)
        spec.e2e)
    spec.names;
  !worse

let compare_files spec old_file new_file =
  let worse = compare_values spec ~old_label:"parent" ~new_label:"change" (load_values old_file) (load_values new_file) in
  exit (if worse > 0 then 1 else 0)

(* ---------- main ---------- *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref None and seed = ref Suite.default_seed and seconds = ref None and trace = ref 0 in
  let repeats = ref 1 and sets = ref 1 and quick = ref false and out = ref None and mwct = ref "_build/default/bin/main.exe" in
  let compare = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := (match int_of_string_opt v with Some s -> s | None -> usage ()); parse rest
    | "--seconds" :: v :: rest ->
      seconds := (match float_of_string_opt v with Some s when s > 0. -> Some s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> 0 | "1" -> 1 | _ -> usage ()); parse rest
    | "--repeats" :: v :: rest ->
      repeats := (match int_of_string_opt v with Some k when k >= 1 -> k | _ -> usage ());
      parse rest
    | "--sets" :: v :: rest ->
      sets := (match int_of_string_opt v with Some k when k >= 1 -> k | _ -> usage ());
      parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--mwct" :: v :: rest -> mwct := v; parse rest
    | "--compare" :: a :: b :: rest -> compare := Some (a, b); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let spec = load_spec () in
  (match !compare with Some (a, b) -> compare_files spec a b | None -> ());
  if not (Sys.file_exists !mwct) then die "no mwct binary at %s (build it with dune build ./bin/main.exe)" !mwct;
  let size = if !quick then Suite.Quick else Suite.Full in
  let seconds = match !seconds with Some s -> s | None -> if !quick then 1. else spec.run_seconds in
  let selected =
    match !workload with
    | None -> Suite.workloads
    | Some n -> ( match Suite.find n with Some w -> [ w ] | None -> die "unknown workload %S" n)
  in
  (* --quick is the smoke test: every workload, both kinds of run *)
  let traces = if !quick then [ 0; 1 ] else [ !trace ] in
  let root = Filename.concat ".bench_build" "mwct" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ ".bench_build"; root ];
  let run_set () =
    List.concat_map
      (fun tr ->
        List.map
          (fun (w : Suite.workload) ->
            let runs =
              List.init !repeats (fun r ->
                  let seed = !seed + r in
                  let dir =
                    Filename.concat root
                      (Printf.sprintf "%s-%s-%d" w.Suite.name (if !quick then "quick" else "full") seed)
                  in
                  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                  Printf.printf "== %s, seed %d, %s ==\n%!" w.Suite.name seed
                    (if tr = 0 then "end to end, tracing off" else "traced in process");
                  let ctx =
                    { Suite.mwct = !mwct; dir; seed; size; seconds; say = (fun s -> Printf.printf "%s\n%!" s) }
                  in
                  let steal0 = Proc.steal_s () in
                  let r = if tr = 0 then Suite.run_end_to_end ctx w else Suite.run_traced ctx w in
                  let r = { r with Suite.details = r.Suite.details @ [ ("host.steal_s", Proc.steal_s () -. steal0) ] } in
                  List.iter (fun f -> Printf.eprintf "FAILED     %s\n%!" f) r.Suite.failures;
                  (seed, r))
            in
            let label = if List.length traces > 1 then Printf.sprintf "%s/trace%d" w.Suite.name tr else w.Suite.name in
            (label, runs))
          selected)
      traces
  in
  let sets = List.init !sets (fun _ -> run_set ()) in
  List.iteri
    (fun i set ->
      Printf.printf "\n%s\n" (if List.length sets = 1 then "summary" else Printf.sprintf "set %d" (i + 1));
      List.iter print_table set)
    sets;
  (* two sets of runs of one commit must agree within the bounds *)
  (match sets with
  | first :: (_ :: _ as rest) ->
    let values set w m =
      match List.assoc_opt w set with
      | Some runs -> Array.of_list (List.map (fun (_, r) -> List.assoc m r.Suite.metrics) runs)
      | None -> [||]
    in
    List.iteri
      (fun i set ->
        Printf.printf "\nset %d against set 1\n" (i + 2);
        let worse = compare_values spec ~old_label:"set 1" ~new_label:(Printf.sprintf "set %d" (i + 2)) (values first) (values set) in
        if worse > 0 then Printf.printf "the sets disagree beyond the bounds on %d metric(s)\n" worse)
      rest
  | _ -> ());
  let out_file = match !out with Some f -> f | None -> Filename.concat root "results.json" in
  Json.to_file out_file
    (Json.Obj
       [
         ("machine", machine ());
         ( "settings",
           Json.Obj
             [
               ("size", Json.Str (if !quick then "quick" else "full"));
               ("seconds", Json.Num seconds);
               ("seed", Json.Num (float_of_int !seed));
               ("repeats", Json.Num (float_of_int !repeats));
               ("sets", Json.Num (float_of_int (List.length sets)));
               ("trace", Json.Num (float_of_int !trace));
             ] );
         ( "sets",
           Json.Arr
             (List.map (fun set -> Json.Obj [ ("workloads", Json.Obj (List.map (fun (w, runs) -> (w, workload_json runs)) set)) ]) sets)
         );
       ]);
  Printf.printf "results written to %s\n" out_file;
  (* the last check: the results file names every metric of
     BENCHMARK.json for every workload *)
  let results = List.map (fun (w, _) -> (w, List.concat_map (List.assoc w) sets)) (List.hd sets) in
  let missing =
    let j = Json.of_file out_file in
    List.concat_map
      (fun (w, _) ->
        let ms =
          Json.to_assoc (Json.member "metrics" (Json.member w (Json.member "workloads" (List.hd (Json.to_list (Json.member "sets" j))))))
        in
        let traced = if !quick then String.ends_with ~suffix:"trace1" w else !trace = 1 in
        let wanted = if traced then List.map fst spec.layers else List.map (fun (n, _, _, _) -> n) spec.e2e in
        List.filter_map (fun n -> if List.mem_assoc n ms then None else Some (w ^ ": " ^ n)) wanted)
      results
  in
  List.iter (fun m -> Printf.eprintf "FAILED     results lack metric %s\n%!" m) missing;
  (* the result line *)
  let all_runs = List.concat_map snd results in
  let sum f = List.fold_left (fun a (_, r) -> a + f r) 0 all_runs in
  let correct = missing = [] && List.for_all (fun (_, r) -> r.Suite.correct) all_runs in
  let metrics =
    List.concat_map
      (fun (w, runs) ->
        List.map
          (fun (name, _) ->
            let med, _, _ = summary (List.map (fun (_, r) -> List.assoc name r.Suite.metrics) runs) in
            let key = if List.length results = 1 then name else w ^ "/" ^ name in
            (key, Json.Obj [ ("value", Json.Num med); ("unit", Json.Str (unit_of name)) ]))
          (snd (List.hd runs)).Suite.metrics)
      results
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int (sum (fun r -> r.Suite.attempted))));
            ("failed", Json.Num (float_of_int (sum (fun r -> r.Suite.failed) + List.length missing)));
            ("metrics", Json.Obj metrics);
          ]));
  exit (if correct then 0 else 1)
