(* Shared helpers for the core test suites. *)

open Mwct_core
module EF = Engine.Float
module EQ = Engine.Exact
module Rng = Mwct_util.Rng
module Q = Mwct_rational.Rational

let finst spec = EF.Instance.of_spec spec
let qinst spec = EQ.Instance.of_spec spec

(* Hand-rolled spec: volumes/weights given as (num, den) pairs. *)
let spec ~procs tasks =
  Spec.make ~procs
    (List.map (fun ((vn, vd), (wn, wd), d) -> Spec.task ~volume:(Spec.rat vn vd) ~weight:(Spec.rat wn wd) ~delta:d ()) tasks)

(* Unweighted shortcut. *)
let uspec ~procs tasks =
  Spec.make ~procs (List.map (fun ((vn, vd), d) -> Spec.task ~volume:(Spec.rat vn vd) ~delta:d ()) tasks)

module Instances = Mwct_check.Instances

let family_of_kind = function
  | `Uniform -> Instances.Uniform
  | `Unweighted -> Instances.Unweighted
  | `Wide -> Instances.Wide
  | `Unit -> Instances.Unit
  | `Mixed -> Instances.Mixed
  | `Delta_one -> Instances.Delta_one
  | `Delta_full -> Instances.Delta_full
  | `Near_tie -> Instances.Near_tie
  | `Tiny_den -> Instances.Tiny_den
  | `Concave_curves -> Instances.Concave_curves
  | `Capacity_tight -> Instances.Capacity_tight
  | `Dag_layered -> Instances.Dag_layered
  | `Dag_fork_join -> Instances.Dag_fork_join
  | `Dag_random -> Instances.Dag_random
  | `Dag_chain -> Instances.Dag_chain

(* QCheck generators of specs, built structurally from lib/check's
   instance families. Structural generation (rather than drawing a PRNG
   seed and handing it to lib/workload) is what makes shrinking work: a
   failing spec shrinks to a smaller spec of the same shape — tasks
   removed, rationals rounded toward 1, procs/delta lowered — instead
   of jumping to the unrelated instance of a "smaller" seed. *)
let gen_spec ?(max_procs = 8) ?(max_n = 6) ?(den = 64) kind =
  let family = family_of_kind kind in
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let draw lo hi = if hi <= lo then lo else lo + Random.State.int st (hi - lo + 1) in
      Instances.sample draw ~max_procs ~max_n ~den family)
    ~shrink:Instances.shrink

let check_close ?(tol = 1e-6) name expected actual =
  Alcotest.(check (float tol)) name expected actual

(* Render a spec into a qcheck print function. *)
let print_spec = Spec.to_string
