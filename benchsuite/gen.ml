(* Workload inputs. Every file is a deterministic function of its size
   parameters and the seed, written once per seed and then only read:
   the program under test sees nothing but these files. *)

module EnF = Mwct_runtime.Engine.Float
module PF = Mwct_ncv.Policy.Make (Mwct_field.Field.Float_field)
module Rng = Mwct_util.Rng
module Spec = Mwct_core.Spec

let with_out path f =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

(* Journal streams over either field: an [init] line, then one [in]
   line per event, the format `serve --journal` and `whatif --journal`
   read. *)
module Stream (F : Mwct_field.Field.S) = struct
  module J = Mwct_runtime.Journal.Make (F)
  module L = Mwct_runtime.Loadgen.Make (F)

  let write path ~capacity (events : J.En.event list) =
    with_out path (fun oc ->
        let line seq e =
          output_string oc (J.to_line ~seq e);
          output_char oc '\n'
        in
        line 0 (J.Init { capacity = F.of_int capacity; policy = "wdeq" });
        List.iteri (fun i ev -> line (i + 1) (J.Input ev)) events)

  (* The diurnal load generator, called on chunks of [chunk] events with
     disjoint id ranges and one drain at the end. Loadgen appends to its
     settled-task array on every advance, so a single long call costs
     time quadratic in the stream length; chunks keep generation linear.
     Each chunk draws its own tenant weights.
     Loadgen ids are [counter * tenants + tenant] with [counter < chunk],
     so an offset of [chunk * tenants] per chunk keeps ids unique and
     their tenant unchanged. Loadgen cancels only tasks submitted since
     the last advance, so the stream applies cleanly at any shard
     count. *)
  let diurnal ~seed ~tenants ~events : J.En.event list =
    let chunk = 1000 in
    let stride = chunk * tenants in
    let nchunks = (events + chunk - 1) / chunk in
    let shift off : J.En.event -> J.En.event = function
      | J.En.Submit s -> J.En.Submit { s with id = s.id + off }
      | J.En.Cancel id -> J.En.Cancel (id + off)
      | ev -> ev
    in
    let body =
      List.concat
        (List.init nchunks (fun c ->
             let n = min chunk (events - (c * chunk)) in
             L.generate ~drain:false ~pattern:L.Diurnal ~seed:((seed * 1000) + c) ~tenants ~events:n ()
             |> List.map (shift (c * stride))))
    in
    body @ [ J.En.Drain ]

  (* The same events under other names: tenant [k] becomes [perm.(k)]
     for a seeded permutation, and the id stays [counter * tenants +
     tenant]. Weights travel with their tasks, so one shard schedules
     the relabelled stream exactly as the original. *)
  let relabel ~seed ~tenants (events : J.En.event list) : J.En.event list =
    let perm = Array.init tenants Fun.id in
    Rng.shuffle (Rng.create seed) perm;
    let id i = (i - (i mod tenants)) + perm.(i mod tenants) in
    List.map
      (function
        | J.En.Submit s -> J.En.Submit { s with id = id s.id }
        | J.En.Cancel i -> J.En.Cancel (id i)
        | ev -> ev)
      events
end

module Float_stream = Stream (Mwct_field.Field.Float_field)
module Exact_stream = Stream (Mwct_rational.Rational.Rat_field)

(* A steady churn at a fixed alive-set size: each round refills the
   alive set to [alive], cancels four tasks, then advances a quarter
   time unit. The generator runs the engine itself to know how many
   tasks completed, so the alive set holds at [alive] exactly. Cancels
   pick among tasks submitted since the last advance, which are
   provably still alive whatever the shard count. *)
let churn ~seed ~rounds ~alive : EnF.event list =
  let eng =
    EnF.create ~record_segments:false ?kinetic:(PF.engine_kinetic PF.Wdeq) ~capacity:64.0
      ~policy:(PF.engine_policy PF.Wdeq) ()
  in
  let rng = Rng.create seed in
  let out = ref [] in
  let apply ev =
    (match EnF.apply eng ev with Ok _ -> () | Error e -> failwith ("churn: " ^ EnF.error_to_string e));
    out := ev :: !out
  in
  let next_id = ref 0 in
  let fresh = ref [] in
  let submit () =
    let id = !next_id in
    incr next_id;
    fresh := id :: !fresh;
    apply
      (EnF.Submit
         {
           id;
           volume = 0.5 +. (float_of_int (Rng.int_in rng 0 64) /. 16.);
           weight = float_of_int (1 + Rng.int_in rng 0 10);
           cap = float_of_int (1 + Rng.int_in rng 0 4);
           speedup = None;
           deps = [];
         })
  in
  for _ = 1 to rounds do
    while EnF.alive_count eng < alive do
      submit ()
    done;
    let pool = Array.of_list !fresh in
    Rng.shuffle rng pool;
    Array.iteri (fun i id -> if i < 4 then apply (EnF.Cancel id)) pool;
    fresh := [];
    apply (EnF.Advance 0.25)
  done;
  apply EnF.Drain;
  List.rev !out

(* ---------- batch instances ---------- *)

let procs = 16
let linear ~seed ~n = Mwct_workload.Generator.uniform (Rng.create seed) ~procs ~n ()

(* Concave speedup: rate = allocation up to a random knee, then half a
   unit of rate per extra processor up to the cap. *)
let curved ~seed ~n =
  let rng = Rng.create (seed + 1) in
  let s = linear ~seed ~n in
  let curve (t : Spec.task) =
    let d = t.Spec.delta in
    if d < 2 then t
    else
      let knee = Rng.int_in rng 1 (d - 1) in
      let top = Spec.rat ((2 * knee) + (d - knee)) 2 in
      { t with Spec.speedup = [ (Spec.rat_of_int knee, Spec.rat_of_int knee); (Spec.rat_of_int d, top) ] }
  in
  { s with Spec.tasks = Array.map curve s.Spec.tasks }

(* Layered DAG: task [i] depends on the task [width] before it and, on
   alternate tasks, on that task's neighbour in the previous layer. *)
let dag ~seed ~n ~width =
  let s = linear ~seed ~n in
  let deps i =
    if i < width then []
    else
      let layer0 = i - width - (i mod width) in
      let p = layer0 + (i mod width) in
      if (i + (i / width)) mod 2 = 0 || i mod width = 0 then [ p ] else [ p; layer0 + ((i + 1) mod width) ]
  in
  { s with Spec.tasks = Array.mapi (fun i t -> { t with Spec.deps = deps i }) s.Spec.tasks }

let write_spec path spec = with_out path (fun oc -> output_string oc (Mwct_core.Spec_io.to_string spec))
