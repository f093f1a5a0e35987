(** Runtime counters and gauges for the online engine.

    A plain mutable record the engine bumps as events flow through it,
    plus a JSON snapshot following the library's dual-rendering
    convention (decimal [float] field + exact [_repr] string). The
    snapshot is deliberately deterministic — wall-clock derived gauges
    (events per second) are optional parameters supplied by the caller,
    so golden tests of the [serve] front-end stay byte-stable. *)

module Make (F : Mwct_field.Field.S) = struct
  type t = {
    mutable events : int;  (** input events applied (submit/cancel/advance/drain) *)
    mutable submitted : int;
    mutable completed : int;
    mutable cancelled : int;
    mutable reshares : int;  (** share recomputations (state changes) *)
    mutable alloc_changes : int;  (** individual per-task share changes *)
    mutable weighted_completion : F.t;  (** [Σ w_i C_i] over completed tasks *)
    mutable weighted_flow : F.t;  (** [Σ w_i (C_i − submit_i)] over completed tasks *)
    (* Log-bucketed service-time histogram: bucket [i] counts
       observations in [2^i, 2^(i+1)) nanoseconds. *)
    lat : int array;
    mutable lat_count : int;
  }

  let lat_buckets = 64

  let create () =
    {
      events = 0;
      submitted = 0;
      completed = 0;
      cancelled = 0;
      reshares = 0;
      alloc_changes = 0;
      weighted_completion = F.zero;
      weighted_flow = F.zero;
      lat = Array.make lat_buckets 0;
      lat_count = 0;
    }

  (* ---------- tail-latency histogram ---------- *)

  (* [observe_latency m secs] files one per-event service time (seconds,
     wall clock) into the log-bucketed histogram. Sub-nanosecond and
     non-finite observations land in bucket 0; anything beyond ~2^63 ns
     in the last. *)
  let observe_latency (m : t) (secs : float) : unit =
    let ns = secs *. 1e9 in
    let b =
      if not (ns >= 1.) then 0
      else begin
        let i = int_of_float (Float.log2 ns) in
        if i < 0 then 0 else if i >= lat_buckets then lat_buckets - 1 else i
      end
    in
    m.lat.(b) <- m.lat.(b) + 1;
    m.lat_count <- m.lat_count + 1

  (** [latency_quantile m q] — upper edge (microseconds) of the bucket
      holding the [q]-quantile observation, [None] while the histogram
      is empty. Log bucketing means the value is exact to within a
      factor of 2 — the right resolution for a tail-latency gauge. *)
  let latency_quantile (m : t) (q : float) : float option =
    if m.lat_count = 0 then None
    else begin
      let rank =
        let r = int_of_float (ceil (q *. float_of_int m.lat_count)) in
        if r < 1 then 1 else if r > m.lat_count then m.lat_count else r
      in
      let acc = ref 0 and b = ref 0 in
      while !acc < rank && !b < lat_buckets do
        acc := !acc + m.lat.(!b);
        incr b
      done;
      (* bucket !b - 1 covers [2^(b-1), 2^b) ns; report the upper edge in µs *)
      Some (Float.pow 2. (float_of_int !b) /. 1e3)
    end

  (** One JSONL metrics line (no trailing newline). [alive] and [now]
      are gauges owned by the engine; [events_per_sec] is wall-clock
      derived and only included when the caller measured it. *)
  let to_json ?events_per_sec ~alive ~now (m : t) : string =
    let b = Buffer.create 320 in
    let num k x = Json_out.num b k (F.to_float x) (F.repr x) in
    Buffer.add_string b "{\"type\":\"metrics\"";
    num "now" now;
    Json_out.int b "alive" alive;
    Json_out.int b "submitted" m.submitted;
    Json_out.int b "completed" m.completed;
    Json_out.int b "cancelled" m.cancelled;
    Json_out.int b "events" m.events;
    Json_out.int b "reshares" m.reshares;
    Json_out.int b "alloc_changes" m.alloc_changes;
    num "sum_wc" m.weighted_completion;
    num "sum_wflow" m.weighted_flow;
    (* Latency fields appear only once something was observed, so runs
       that never time events keep pre-histogram snapshot bytes. *)
    if m.lat_count > 0 then begin
      Json_out.int b "lat_events" m.lat_count;
      List.iter
        (fun (k, q) -> Option.iter (Json_out.decimal b k) (latency_quantile m q))
        [ ("lat_p50_us", 0.50); ("lat_p90_us", 0.90); ("lat_p99_us", 0.99); ("lat_p999_us", 0.999) ]
    end;
    Option.iter (Json_out.decimal b "events_per_sec") events_per_sec;
    Buffer.add_char b '}';
    Buffer.contents b
end
