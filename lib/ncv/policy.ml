(** Non-clairvoyant allocation policies.

    A policy sees only what a real runtime would see: the set of
    currently-alive tasks with their weights and caps — never the
    remaining volumes. It returns a share (a fractional processor
    count) per alive task; the simulator guarantees the shares are
    clipped to the caps and to the total capacity before use, so a
    policy returning slightly-infeasible shares is still safe.

    [Wdeq] is Algorithm 1 of the paper; [Deq] its unweighted special
    case; [Equi] ignores caps in the fair share (then gets clipped) —
    the classical equipartition; [Priority_weight] gives everything to
    the heaviest alive tasks first (a greedy non-clairvoyant
    heuristic).

    The WDEQ/DEQ clipping frontier is the library's one kernel,
    {!Mwct_core.Wdeq.Make.frontier}. The list rule ({!Make.wdeq_shares})
    runs two [List.partition] clip rounds in id order before falling
    back to it. The rounds stay because their output order is the order
    of simultaneous [complete] lines in every journal (DESIGN.md §6.1).
    Float engines reshare through {!Incremental}, which replays those
    rounds in a monomorphic body over a maintained ratio order: the list
    rule's operations in the same order, so the shares are
    bit-identical, and a reshare that settles within the rounds
    allocates nothing (DESIGN.md §12). Every other field runs the list
    rule. *)

(** Incremental (kinetic) WDEQ/DEQ on the float field. The list rule's
    fallback sorts the residual pool on every cascading reshare; here
    the ratio order is {e kinetic} state — a slot-indexed sorted array
    updated by binary-search insert/remove as tasks arrive and leave
    (O(n) blit per event) — so a reshare is linear sweeps plus the
    kernel. The comparator is a strict total order (ids break ties)
    wherever its float cross products are exact, so the maintained
    order restricted to any subset {e is} the fresh sort
    [frontier_shares] would compute. Bit-identity with the list rule is
    the contract, checked by the differential tests.

    The columns are flat float arrays and every intermediate stays
    unboxed. Without flambda a field-generic body pays an indirect
    call and a box for each [F.add]/[F.mul]/[F.div] and for each column
    read: about 18 words per task per reshare. *)
module Incremental = struct
  module W = Mwct_core.Engine.Float.Wdeq

  type state = {
    use_weights : bool;  (** [false] maps every weight to [1.] (DEQ) *)
    (* slot-indexed task attributes, mirroring the engine's columns *)
    mutable w : float array;
    mutable d : float array;
    mutable ids : int array;
    (* the kinetic frontier: alive slots sorted by [d/w] ratio, id tie-break *)
    mutable rank : int array;
    mutable n : int;
    (* reshare scratch (no allocation per call once grown) *)
    mutable status : int array;  (* 0 unsaturated, 1 round-1 clip, 2 round-2 clip *)
    mutable rest2 : int array;  (* residual pool in rank order *)
    mutable pd : float array;  (* prefix caps over [rest2] *)
    mutable pw : float array;  (* prefix weights over [rest2] *)
  }

  let create ~use_weights =
    let n = 64 in
    {
      use_weights;
      w = Array.make n 0.;
      d = Array.make n 0.;
      ids = Array.make n 0;
      rank = Array.make n 0;
      n = 0;
      status = Array.make n 0;
      rest2 = Array.make n 0;
      pd = Array.make (n + 1) 0.;
      pw = Array.make (n + 1) 0.;
    }

  let ensure st slot =
    let len = Array.length st.w in
    if slot >= len then begin
      let m = Stdlib.max (2 * len) (slot + 1) in
      let g z a = let b = Array.make m z in Array.blit a 0 b 0 len; b in
      let gf a = let b = Array.make (m + 1) 0. in Array.blit a 0 b 0 (len + 1); b in
      st.w <- g 0. st.w;
      st.d <- g 0. st.d;
      st.ids <- g 0 st.ids;
      st.rank <- g 0 st.rank;
      st.status <- g 0 st.status;
      st.rest2 <- g 0 st.rest2;
      st.pd <- gf st.pd;
      st.pw <- gf st.pw
    end

  (* The frontier order: strict total (ids are unique while alive),
     exactly [frontier_shares]'s comparator. *)
  let cmp st a b =
    let c = Float.compare (st.d.(a) *. st.w.(b)) (st.d.(b) *. st.w.(a)) in
    if c <> 0 then c else Stdlib.compare st.ids.(a) st.ids.(b)

  let add st ~slot ~id ~weight ~cap =
    ensure st slot;
    st.w.(slot) <- (if st.use_weights then weight else 1.);
    st.d.(slot) <- cap;
    st.ids.(slot) <- id;
    let lo = ref 0 and hi = ref st.n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cmp st st.rank.(mid) slot < 0 then lo := mid + 1 else hi := mid
    done;
    let pos = !lo in
    Array.blit st.rank pos st.rank (pos + 1) (st.n - pos);
    st.rank.(pos) <- slot;
    st.n <- st.n + 1

  let remove st ~slot =
    let lo = ref 0 and hi = ref (st.n - 1) in
    let pos = ref (-1) in
    while !pos < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = cmp st st.rank.(mid) slot in
      if c = 0 then pos := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
    done;
    (* Float ratios whose cross products round (weights such as 4/7)
       can make [cmp] intransitive, so the search may miss a slot that
       is there: find it by a scan instead. *)
    if !pos < 0 then
      for k = 0 to st.n - 1 do
        if st.rank.(k) = slot then pos := k
      done;
    let pos = !pos in
    if pos >= 0 then begin
      Array.blit st.rank (pos + 1) st.rank pos (st.n - 1 - pos);
      st.n <- st.n - 1
    end

  (* Clipping cascaded past round 2, whose clips are marked [2] in
     [status]: append them to [order] (id order) after the [j] round-1
     clips, then run the frontier on the residual pool [r1 - round-2
     caps]/[w1 - round-2 weights], read off the kinetic array in ratio
     order instead of sorted afresh. *)
  let cascade st ~n ~(by_id : int array) ~(share : float array) ~(order : int array) ~j ~r1 ~w1 =
    let r2 = ref r1 and w2 = ref w1 in
    for i = 0 to n - 1 do
      let s = by_id.(i) in
      if st.status.(s) = 2 then begin
        r2 := !r2 -. st.d.(s);
        w2 := !w2 -. st.w.(s)
      end
    done;
    let j = ref j in
    for i = 0 to n - 1 do
      let s = by_id.(i) in
      if st.status.(s) = 2 then begin
        order.(!j) <- s;
        incr j;
        share.(s) <- st.d.(s)
      end
    done;
    let m = ref 0 in
    for k = 0 to st.n - 1 do
      let s = st.rank.(k) in
      if st.status.(s) = 0 then begin
        st.rest2.(!m) <- s;
        order.(!j + !m) <- s;
        incr m
      end
    done;
    W.frontier ~r:!r2 ~w:!w2 ~m:!m ~idx:st.rest2 ~weight:st.w ~cap:st.d ~pd:st.pd ~pw:st.pw ~share

  (* Replicates [wdeq_shares capacity views] with [views] the [n] slots
     of [by_id] in ascending-id order: fills [share] (slot-indexed) and
     [order] (output order — clipped round 1 in id order, then clipped
     round 2 in id order, then the frontier pool in ratio order),
     exactly the list the adaptive kernel returns. The list rule's
     operations in the same order ([w0] summed in id order, [F.compare]
     is [Float.compare], [F.sign x > 0] is [x > 0.]). Each division is
     written inline under its [> 0.] guard, which already makes
     [F.div]'s zero-divisor raise unreachable: a division helper is not
     inlined without flambda and would box every quotient. A cascade
     takes [cascade], and with it the one {!W.frontier}. *)
  let shares_into st ~capacity ~n ~(by_id : int array) ~(share : float array)
      ~(order : int array) =
    if n > 0 then begin
      let w = st.w and d = st.d and status = st.status in
      let w0 = ref 0. in
      for i = 0 to n - 1 do
        w0 := !w0 +. w.(by_id.(i))
      done;
      let w0 = !w0 in
      (* round 1: who clips at the fair share capacity/w0? *)
      let nv1 = ref 0 in
      for i = 0 to n - 1 do
        let s = by_id.(i) in
        if Float.compare (d.(s) *. w0) (w.(s) *. capacity) < 0 then begin
          status.(s) <- 1;
          incr nv1
        end
        else status.(s) <- 0
      done;
      if !nv1 = 0 then begin
        (* nobody clips: plain weighted equipartition, id order *)
        let pos = w0 > 0. in
        for i = 0 to n - 1 do
          let s = by_id.(i) in
          order.(i) <- s;
          share.(s) <- (if pos then (w.(s) *. capacity) /. w0 else 0.)
        done
      end
      else begin
        let r1 = ref capacity and w1 = ref w0 in
        for i = 0 to n - 1 do
          let s = by_id.(i) in
          if status.(s) = 1 then begin
            r1 := !r1 -. d.(s);
            w1 := !w1 -. w.(s)
          end
        done;
        let r1 = !r1 and w1 = !w1 in
        (* round 2 over the survivors *)
        let nv2 = ref 0 in
        for i = 0 to n - 1 do
          let s = by_id.(i) in
          if status.(s) = 0 && Float.compare (d.(s) *. w1) (w.(s) *. r1) < 0 then begin
            status.(s) <- 2;
            incr nv2
          end
        done;
        let j = ref 0 in
        for i = 0 to n - 1 do
          let s = by_id.(i) in
          if status.(s) = 1 then begin
            order.(!j) <- s;
            incr j;
            share.(s) <- d.(s)
          end
        done;
        if !nv2 = 0 then begin
          (* round 2 settles: survivors share the residual, id order *)
          let pos = w1 > 0. in
          for i = 0 to n - 1 do
            let s = by_id.(i) in
            if status.(s) = 0 then begin
              order.(!j) <- s;
              incr j;
              share.(s) <- (if pos then (w.(s) *. r1) /. w1 else 0.)
            end
          done
        end
        else cascade st ~n ~by_id ~share ~order ~j:!j ~r1 ~w1
      end
    end
end

module Make (F : Mwct_field.Field.S) = struct
  module En = Mwct_runtime.Engine.Make (F)
  module W = Mwct_core.Wdeq.Make (F)

  (** What a policy may observe about one alive task: the engine's
      view record itself, so the engine's views reach {!shares} as
      they are. *)
  type view = En.view = { id : int; weight : F.t; cap : F.t }

  type t = Wdeq | Deq | Equi | Priority_weight

  let name = function
    | Wdeq -> "wdeq"
    | Deq -> "deq"
    | Equi -> "equi"
    | Priority_weight -> "priority-weight"

  let all = [ Wdeq; Deq; Equi; Priority_weight ]

  (** Lookup by {!name}; [None] for unknown names. *)
  let of_name s = List.find_opt (fun p -> String.equal (name p) s) all

  (* Weighted water-filling fixpoint (Algorithm 1) over a residual
     pool: sort the views by saturation ratio [cap/weight] (id
     tie-break) and run the library's clipping-frontier kernel
     ({!Mwct_core.Wdeq.Make.frontier}, DESIGN.md §6.1). [r]/[w] are the
     pool's residual capacity and weight. *)
  let frontier_shares r w (pool : view list) : (int * F.t) list =
    let arr = Array.of_list pool in
    let m = Array.length arr in
    let weight = Array.map (fun v -> v.weight) arr and cap = Array.map (fun v -> v.cap) arr in
    let idx = Array.init m Fun.id in
    Array.sort
      (fun a b ->
        let c = F.compare (F.mul cap.(a) weight.(b)) (F.mul cap.(b) weight.(a)) in
        if c <> 0 then c else Stdlib.compare arr.(a).id arr.(b).id)
      idx;
    let share = Array.make m F.zero in
    W.frontier ~r ~w ~m ~idx ~weight ~cap ~pd:(Array.make (m + 1) F.zero)
      ~pw:(Array.make (m + 1) F.zero) ~share;
    List.init m (fun k -> (arr.(idx.(k)).id, share.(idx.(k))))

  (* Adaptive WDEQ shares: on real view sets the clipping fixpoint
     almost always settles within a round or two, and a plain
     List.partition round is cheaper than a fresh sort — so run the
     iterative fixpoint with a small round budget and fall back to the
     sorted frontier (worst-case O(n log n) instead of the fixpoint's
     O(n²)) only if clipping cascades. Both paths compute the same
     fixpoint. *)
  let wdeq_shares capacity (views : view list) : (int * F.t) list =
    let rec go budget unsat saturated r w =
      if budget = 0 then List.rev_append saturated (frontier_shares r w unsat)
      else begin
        let violating, rest =
          List.partition (fun v -> F.compare (F.mul v.cap w) (F.mul v.weight r) < 0) unsat
        in
        match violating with
        | [] ->
          List.rev_append saturated
            (List.map
               (fun v -> (v.id, if F.sign w > 0 then F.div (F.mul v.weight r) w else F.zero))
               rest)
        | _ ->
          let r' = List.fold_left (fun acc v -> F.sub acc v.cap) r violating in
          let w' = List.fold_left (fun acc v -> F.sub acc v.weight) w violating in
          go (budget - 1) rest
            (List.rev_append (List.map (fun v -> (v.id, v.cap)) violating) saturated)
            r' w'
      end
    in
    let w0 = List.fold_left (fun acc v -> F.add acc v.weight) F.zero views in
    go 2 views [] capacity w0

  (** [shares policy ~capacity views] — the allocation for this
      instant. Always returns every alive id exactly once, with
      non-negative shares summing to at most [capacity]. *)
  let shares (policy : t) ~(capacity : F.t) (views : view list) : (int * F.t) list =
    match views with
    | [] -> []
    | _ -> (
      match policy with
      | Wdeq -> wdeq_shares capacity views
      | Deq ->
        let unw = List.map (fun v -> { v with weight = F.one }) views in
        wdeq_shares capacity unw
      | Equi ->
        (* Plain 1/n share clipped to the cap; surplus is wasted (the
           point of comparing against DEQ). *)
        let fair = F.div capacity (F.of_int (List.length views)) in
        List.map (fun v -> (v.id, F.min fair v.cap)) views
      | Priority_weight ->
        (* Heaviest first, each up to its cap, until capacity runs out. *)
        let sorted =
          List.sort (fun a b ->
              let c = F.compare b.weight a.weight in
              if c <> 0 then c else Stdlib.compare a.id b.id)
            views
        in
        let remaining = ref capacity in
        List.map
          (fun v ->
            let give = F.min v.cap !remaining in
            let give = F.max F.zero give in
            remaining := F.sub !remaining give;
            (v.id, give))
          sorted)

  (** The policy as the online runtime's share function: {!shares}
      itself, since the two view types are one. *)
  let engine_policy (p : t) : En.policy = shares p

  (** The kinetic counterpart of {!engine_policy}, for the engine's
      [?kinetic] slot: a fresh {!Incremental} state per call (states
      are per-engine). The float field is selected once, at functor
      application, through the field witness; in that arm [F.t] is
      [float]. [None] for Equi and Priority_weight, and on every other
      field: exact engines reshare through the list rule. *)
  let engine_kinetic : t -> En.kinetic option =
    match F.witness with
    | Mwct_field.Field.Any -> fun _ -> None
    | Mwct_field.Field.Float ->
      let kinetic ~use_weights : En.kinetic =
        let st = Incremental.create ~use_weights in
        {
          k_add = (fun ~slot ~id ~weight ~cap -> Incremental.add st ~slot ~id ~weight ~cap);
          k_remove = (fun ~slot -> Incremental.remove st ~slot);
          k_shares =
            (fun ~capacity ~n ~by_id ~share ~order ->
              Incremental.shares_into st ~capacity ~n ~by_id ~share ~order);
        }
      in
      (function
      | Wdeq -> Some (kinetic ~use_weights:true)
      | Deq -> Some (kinetic ~use_weights:false)
      | Equi | Priority_weight -> None)
end
