(** Deterministic seeded load generator (DESIGN.md §16).

    Produces tenant-clustered engine event streams under three arrival
    patterns, for `mwct whatif` (generate → record → fork) and as the
    stress driver for the sharded store:

    - {e burst} — long advance-only stretches punctuated by clumps of
      submissions from a single tenant (the "tenant doubles its load"
      shape the what-if service prices).
    - {e diurnal} — tenants take turns being "daytime": submission mass
      rotates through the tenant set on a fixed period, so every tenant
      alternates between hot and idle windows.
    - {e adversarial} — a reshare-heavy worst case: small volumes at
      cap 1 (completions arrive constantly), cancels of just-submitted
      tasks, and tiny advances, so the share frontier churns on nearly
      every event.

    Streams are deterministic functions of [(pattern, seed, tenants,
    events)]: the generator runs on an inline SplitMix64 (a reference
    copy of {!Mwct_util.Rng} — lib/runtime deliberately depends only on
    the field layers) and every numeric payload is dyadic via [F.of_q],
    so the same parameters draw the same rational event stream on both
    fields and render byte-identical journal lines on every OCaml
    version. Task ids encode the tenant as
    [id mod tenants] (per-tenant counters, ids unique), cancels target
    only tasks submitted since the last advance (provably not yet
    completed, so streams apply cleanly to any engine), and the stream
    ends in [Drain] unless [~drain:false]. *)

module Make (F : Mwct_field.Field.S) = struct
  module En = Engine.Make (F)

  type pattern = Burst | Diurnal | Adversarial

  let pattern_name = function
    | Burst -> "burst"
    | Diurnal -> "diurnal"
    | Adversarial -> "adversarial"

  let pattern_of_string = function
    | "burst" -> Some Burst
    | "diurnal" -> Some Diurnal
    | "adversarial" -> Some Adversarial
    | _ -> None

  (* ---------- SplitMix64 (reference copy of Mwct_util.Rng) ---------- *)

  (* Identical constants and finalizer; draws use modulo rather than
     rejection sampling (bias is irrelevant here — only determinism
     matters, and the modulo path takes exactly one [next64] per draw,
     which keeps the stream a pure function of the draw count). *)

  type rng = { mutable state : int64 }

  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let rng_create seed = { state = mix64 (Int64.of_int seed) }

  let next64 r =
    r.state <- Int64.add r.state golden_gamma;
    mix64 r.state

  (* Uniform-ish draw in [lo, hi] (inclusive); top 62 bits, one next64. *)
  let draw r lo hi =
    if hi <= lo then lo
    else lo + Int64.to_int (Int64.shift_right_logical (next64 r) 2) mod (hi - lo + 1)

  (* ---------- generation ---------- *)

  (** [generate ~pattern ~seed ~tenants ~events ()] — [events] input
      events plus a trailing [Drain] (omitted with [~drain:false]).
      With [~deps:true] roughly a third of submissions carry one parent
      drawn from the settled set (tasks that survived an advance), the
      same single-parent discipline as the sharded-store streams. *)
  let generate ?(deps = false) ?(drain = true) ~pattern ~seed ~tenants ~events () :
      En.event list =
    if tenants <= 0 then invalid_arg "Loadgen.generate: tenants must be positive";
    if events < 0 then invalid_arg "Loadgen.generate: events must be non-negative";
    let r = rng_create seed in
    let bases = Array.init tenants (fun _ -> draw r 1 8) in
    let counters = Array.make tenants 0 in
    let fresh = ref [] in
    let nfresh = ref 0 in
    (* the first [nsettled] cells hold the settled ids; the array
       doubles when full, and is filled only when parents are drawn *)
    let settled = ref (Array.make 64 0) and nsettled = ref 0 in
    let settle id =
      if !nsettled = Array.length !settled then settled := Array.append !settled !settled;
      !settled.(!nsettled) <- id;
      incr nsettled
    in
    let submit ?volume ?cap tenant =
      let id = (counters.(tenant) * tenants) + tenant in
      counters.(tenant) <- counters.(tenant) + 1;
      fresh := id :: !fresh;
      incr nfresh;
      let parents =
        if (not deps) || !nsettled = 0 || draw r 0 2 > 0 then []
        else [ !settled.(draw r 0 (!nsettled - 1)) ]
      in
      let volume = match volume with Some v -> v | None -> F.of_q (draw r 1 32) 4 in
      let cap = match cap with Some c -> c | None -> F.of_int (draw r 1 4) in
      En.Submit
        { id; volume; weight = F.of_int bases.(tenant); cap; speedup = None; deps = parents }
    in
    let advance q den =
      if deps then List.iter settle !fresh;
      fresh := [];
      nfresh := 0;
      En.Advance (F.of_q q den)
    in
    let cancel_or ~alt () =
      if !nfresh = 0 then alt ()
      else begin
        let k = draw r 0 (!nfresh - 1) in
        let id = List.nth !fresh k in
        fresh := List.filter (fun i -> i <> id) !fresh;
        decr nfresh;
        En.Cancel id
      end
    in
    let burst_tenant = ref 0 in
    let event i =
      match pattern with
      | Burst ->
        (* 16-event cycle: a 6-submit clump from one tenant, then a
           quiet stretch of advances with a stray cancel. *)
        let pos = i mod 16 in
        if pos = 0 then burst_tenant := draw r 0 (tenants - 1);
        if pos < 6 then submit !burst_tenant
        else if pos = 14 then cancel_or ~alt:(fun () -> advance (draw r 1 8) 4) ()
        else advance (draw r 1 8) 4
      | Diurnal ->
        (* the "daytime" tenant rotates every 8 events; its window is
           submit-heavy, everyone else's traffic is the residue *)
        let day = i / 8 mod tenants in
        let d = draw r 0 9 in
        if d < 5 then submit day
        else if d < 7 then submit (draw r 0 (tenants - 1))
        else if d = 7 then cancel_or ~alt:(fun () -> submit day) ()
        else advance (draw r 0 6) 4
      | Adversarial ->
        (* churn the frontier: tiny volumes at cap 1 complete fast,
           cancels hit just-submitted tasks, advances are slivers *)
        let d = draw r 0 9 in
        if d < 5 then
          submit ~volume:(F.of_q (draw r 1 8) 8) ~cap:F.one (draw r 0 (tenants - 1))
        else if d < 8 then cancel_or ~alt:(fun () -> advance (draw r 1 4) 8) ()
        else advance (draw r 1 4) 8
    in
    let stream = List.init events event in
    if drain then stream @ [ En.Drain ] else stream
end

(** Pre-applied generators. *)
module Float = Make (Mwct_field.Field.Float_field)

module Exact = Make (Mwct_rational.Rational.Rat_field)
