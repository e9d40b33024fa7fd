(* Measurement: set-up, the timed loop, and the metrics it yields.

   End-to-end metrics come from the untraced loop. The traced run also
   runs the untraced loop on a fresh world, then the decomposed loop on
   another, and requires the two to agree exactly on every simulated
   quantity (the fidelity check) before it reports per-layer numbers. *)

module W = Workload
module R = Runner
module Stats = Sim.Stats
module Engine = Sim.Engine

(* World, working set, untimed warm-up prefix and drain. Returns the world
   and the host seconds it took, at the reference speed ([Speed]). *)
let setup (stream : W.stream) =
  let wd, _raw, s =
    Speed.measure (fun () ->
        let wd = R.build stream.W.spec in
        ignore (R.run_ops wd R.Syscall stream ~first:0 ~last:stream.W.warm);
        if not (snd (R.settle wd.R.w)) then failwith "warm-up settle exhausted its event budget";
        wd)
  in
  (wd, s)

type loop = {
  ops : int;
  host_s : float;         (* host seconds of ops, drains and final settle,
                             at the reference speed *)
  raw_s : float;          (* the same, as measured *)
  events : int;           (* engine events the drains executed *)
  settled : bool;         (* the final settle went idle, not `Limit *)
  sim_end : float;        (* simulated clock after the final settle *)
  counters : (string * int) list; (* program counter deltas over the loop *)
  lat : R.lat;            (* per-class simulated latencies, sorted *)
}

let timed_loop ?settle_every (wd : R.world) mode (stream : W.stream) =
  let first = stream.W.warm and last = W.length stream in
  let lat = R.lat_create stream ~first ~last in
  let snap = Stats.snapshot wd.R.stats in
  let (events, (settled_events, settled)), raw_s, host_s =
    Speed.measure (fun () ->
        let events = R.run_ops ?settle_every ~lat wd mode stream ~first ~last in
        match mode with
        | R.Syscall -> (events, R.settle wd.R.w)
        | R.Traced sp ->
          let i = Spans.start sp ~stage:Spans.s_drain ~op:last ~parent:(-1) in
          let r = R.settle wd.R.w in
          Spans.stop sp i;
          (events, r))
  in
  Array.iter (Array.sort Float.compare) lat.R.samples;
  {
    ops = last - first;
    host_s;
    raw_s;
    events = events + settled_events;
    settled;
    sim_end = Engine.now wd.R.engine;
    counters = Stats.delta wd.R.stats snap;
    lat;
  }

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every checked op of a run — warm-up, timed loop and read-back — with a
   livelocked final settle counted as one more error. *)
type tally = {
  attempted : int;
  wrong : int;
  errors : int;
  stale_names : int; (* the wrong results §2.3.4 permits *)
  stale_enet : int;  (* of which ENET on a recycled name *)
  superseded : int;
  first : string list; (* the first few failures, oldest first *)
}

let tally (wd : R.world) (l : loop) (stream : W.stream) ~readbacks =
  let m = wd.R.model in
  {
    attempted = stream.W.warm + l.ops + readbacks;
    wrong = m.Oracle.wrong;
    errors = (m.Oracle.errors + if l.settled then 0 else 1);
    stale_names = m.Oracle.stale_names;
    stale_enet = m.Oracle.stale_enet;
    superseded = m.Oracle.superseded;
    first = List.rev_map snd m.Oracle.first;
  }

let failed t = t.wrong + t.errors

let sum_tallies = function
  | [] -> invalid_arg "Bench.sum_tallies"
  | t :: ts ->
    List.fold_left
      (fun a b ->
        {
          attempted = a.attempted + b.attempted;
          wrong = a.wrong + b.wrong;
          errors = a.errors + b.errors;
          stale_names = a.stale_names + b.stale_names;
          stale_enet = a.stale_enet + b.stale_enet;
          superseded = a.superseded + b.superseded;
          first = a.first @ b.first;
        })
      t ts

(* Spans for a traced loop over [stream]: per op the op span, a drain and
   at most five layer calls; then the final settle. *)
let spans_for (wd : R.world) (stream : W.stream) =
  Spans.create
    ~capacity:((7 * W.length stream) + 1)
    ~sim:(fun () -> Engine.now wd.R.engine)
    ~msgs:(fun () -> Stats.cget wd.R.msg)

type run = { setup_s : float; loop : loop; tally : tally; spans : Spans.t option }

(* One measured run on a fresh world: set-up, the timed loop (traced or
   not), the final read-back. *)
let measure ?settle_every ~traced (stream : W.stream) =
  let wd, setup_s = setup stream in
  let spans = if traced then Some (spans_for wd stream) else None in
  let mode = match spans with Some sp -> R.Traced sp | None -> R.Syscall in
  let loop = timed_loop ?settle_every wd mode stream in
  { setup_s; loop; tally = tally wd loop stream ~readbacks:(R.readback wd); spans }

(* No result the paper's semantics forbid: every failure, if any, is a
   stale name-space answer. *)
let violations t = failed t - t.stale_names

(* ---- metrics ---- *)

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* The [p]th percentile of a sorted sample, as a Harrell-Davis-style
   smoothed quantile: a Gaussian-weighted mean of the order statistics
   around rank p(n-1), with the rank's own sampling spread sqrt(np(1-p))
   as the width. Simulated latencies are quantized, and a nearest-rank
   percentile jumps between atoms from seed to seed; this estimator moves
   smoothly with the distribution's mass. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let q = p /. 100.0 in
    let center = q *. float_of_int (n - 1) in
    let sd = Float.max 0.5 (Float.sqrt (float_of_int n *. q *. (1.0 -. q))) in
    let lo = max 0 (int_of_float (Float.floor (center -. (5.0 *. sd)))) in
    let hi = min (n - 1) (int_of_float (Float.ceil (center +. (5.0 *. sd)))) in
    let acc = ref 0.0 and wsum = ref 0.0 in
    for i = lo to hi do
      let z = (float_of_int i -. center) /. sd in
      let w = Float.exp (-0.5 *. z *. z) in
      acc := !acc +. (w *. sorted.(i));
      wsum := !wsum +. w
    done;
    !acc /. !wsum
  end

let counter l name = Option.value (List.assoc_opt name l.counters) ~default:0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let hit_ratio l prefix =
  let hits = counter l (prefix ^ ".hit") in
  ratio hits (hits + counter l (prefix ^ ".miss"))

(* Every loop's latency samples, per class, sorted. *)
let pooled_samples loops =
  Array.mapi
    (fun c _ ->
      let a = Array.concat (List.map (fun l -> l.lat.R.samples.(c)) loops) in
      Array.sort Float.compare a;
      a)
    W.cls_names

let latency_metrics samples =
  List.concat
    (List.mapi
       (fun c name ->
         let s = samples.(c) in
         [
           metric (name ^ "_p50_ms") "ms" (percentile s 50.0);
           metric (name ^ "_p99_ms") "ms" (percentile s 99.0);
         ])
       (Array.to_list W.cls_names))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* The end-to-end metrics of several loops, each on a fresh world, and
   their summed checks. Every metric pools every loop's ops. *)
let end_to_end ~setup_s loops t =
  let ops = List.fold_left (fun a l -> a + l.ops) 0 loops in
  let per_op c =
    float_of_int (List.fold_left (fun a l -> a + counter l c) 0 loops) /. float_of_int ops
  in
  let host_s = List.fold_left (fun a l -> a +. l.host_s) 0.0 loops in
  [ metric "setup_s" "s" setup_s; metric "ops_per_s" "1/s" (float_of_int ops /. host_s) ]
  @ latency_metrics (pooled_samples loops)
  @ [
      metric "msgs_per_op" "msg/op" (per_op "net.msg");
      metric "wire_kb_per_op" "KiB/op" (per_op "net.bytes" /. 1024.0);
      metric "success_frac" "frac" (1.0 -. ratio (failed t) t.attempted);
      metric "peak_heap_mb" "MiB" (peak_heap_mb ());
    ]

(* Message tags reported per op: the union, over the three workloads, of
   the tags carrying at least 1% of a workload's messages. *)
let msg_tags =
  [
    "open"; "close.us"; "read"; "write"; "truncate"; "commit"; "page.invalidate"; "lease.break";
    "notify"; "where"; "lookup"; "stat"; "create";
  ]

let layer_stages = List.init (Spans.n_stages - 1) (fun i -> i + 1)

let per_layer ~untraced ~traced (agg : Spans.totals) t =
  let ops = float_of_int traced.ops in
  let total_ns = float_of_int (Array.fold_left ( + ) 0 agg.Spans.self_ns) in
  let stage s =
    let name = Spans.stage_names.(s) and calls = agg.Spans.calls.(s) in
    let per_call v = if calls = 0 then 0.0 else v /. float_of_int calls in
    let ns = float_of_int agg.Spans.self_ns.(s) in
    [
      metric (name ^ ".calls") "count" (float_of_int calls);
      metric (name ^ ".host_us") "us" (per_call ns /. 1000.0);
      metric (name ^ ".host_share") "frac" (ns /. total_ns);
      metric (name ^ ".words") "words" (per_call agg.Spans.words_tot.(s));
      metric (name ^ ".sim_ms") "ms" (per_call agg.Spans.sim_tot.(s));
      metric (name ^ ".msgs") "msg" (per_call (float_of_int agg.Spans.msgs_tot.(s)));
    ]
  in
  let l = traced in
  let c name = counter l name in
  let harness_ns = float_of_int agg.Spans.self_ns.(Spans.s_op) in
  List.concat_map stage layer_stages
  @ [
      metric "harness.host_us" "us" (harness_ns /. ops /. 1000.0);
      metric "harness.host_share" "frac" (harness_ns /. total_ns);
      metric "namecache.hit_ratio" "frac" (hit_ratio l "name.cache");
      metric "pathname.remote_walks_per_op" "1/op" (float_of_int (c "name.remote_walks") /. ops);
      metric "openlease.hit_ratio" "frac" (hit_ratio l "open.lease");
      metric "cache.us.hit_ratio" "frac" (hit_ratio l "cache.us");
      metric "cache.ss.hit_ratio" "frac" (hit_ratio l "cache.ss");
      metric "us.bulk.read_pages_per_rpc" "pages"
        (ratio (c "us.bulk.read.pages") (c "us.bulk.read"));
      metric "us.bulk.write_pages_per_rpc" "pages"
        (ratio (c "us.bulk.write.pages") (c "us.bulk.write"));
      metric "prop.bulk.pages_per_pull" "pages" (ratio (c "prop.bulk.pages") (c "prop.bulk"));
      metric "engine.events_per_op" "1/op" (float_of_int l.events /. ops);
      metric "engine.host_ns_per_event" "ns"
        (if l.events = 0 then 0.0
         else float_of_int agg.Spans.self_ns.(Spans.s_drain) /. float_of_int l.events);
      metric "rpc.retry_ratio" "frac" (ratio (c "rpc.retry") (c "rpc.call"));
    ]
  @ List.map
      (fun tag ->
        metric ("net.msgs_per_op." ^ tag) "msg/op" (float_of_int (c ("net.msg." ^ tag)) /. ops))
      msg_tags
  @ [
      metric "trace.overhead_frac" "frac" ((traced.host_s /. untraced.host_s) -. 1.0);
      metric "check.wrong_result" "count" (float_of_int t.wrong);
      metric "check.error" "count" (float_of_int t.errors);
      metric "failed_frac" "frac" (ratio (failed t) t.attempted);
    ]

(* ---- fidelity: the decomposed loop must reproduce the syscall loop ---- *)

let fidelity a b ta tb =
  let diffs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  List.iter
    (fun (name, v) ->
      let v' = counter b name in
      if v <> v' then note "counter %s: %d vs %d" name v v')
    a.counters;
  List.iter
    (fun (name, v) ->
      if not (List.mem_assoc name a.counters) then note "counter %s: 0 vs %d" name v)
    b.counters;
  if not (Float.equal a.sim_end b.sim_end) then note "final sim time: %h vs %h" a.sim_end b.sim_end;
  if a.events <> b.events then note "engine events: %d vs %d" a.events b.events;
  Array.iteri
    (fun c s ->
      if not (s = b.lat.R.samples.(c)) then note "%s latency samples differ" W.cls_names.(c))
    a.lat.R.samples;
  if ta <> tb then note "check tallies differ";
  List.rev !diffs
