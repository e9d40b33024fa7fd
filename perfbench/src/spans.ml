(* In-memory span store for the traced run.

   Spans live in preallocated flat arrays — stage, op id, parent span,
   start/end host ns, minor words, simulated ms and messages — so opening
   and closing one allocates nothing. They are aggregated and written out
   once, after the traced loop ends. *)

external now_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let clock () = Int64.to_int (now_ns ())

(* Stage 0 is the op span itself: its self time is the benchmark's own
   overhead. The others are the public layer calls a syscall makes. *)
let stage_names =
  [|
    "op";
    "pathname.resolve";
    "pathname.resolve_parent";
    "us.open";
    "us.read";
    "us.write";
    "us.commit";
    "us.close";
    "us.stat";
    "dirops.create";
    "dirops.unlink";
    "engine.drain";
  |]

let s_op = 0
let s_resolve = 1
let s_resolve_parent = 2
let s_open = 3
let s_read = 4
let s_write = 5
let s_commit = 6
let s_close = 7
let s_stat = 8
let s_create = 9
let s_unlink = 10
let s_drain = 11

let n_stages = Array.length stage_names

type t = {
  stage : int array;
  op : int array;
  parent : int array; (* -1 for a root span *)
  t0 : int array;
  t1 : int array;
  words : float array; (* minor words allocated inside the span *)
  sim : float array;   (* simulated ms elapsed inside the span *)
  msgs : int array;
  mutable n : int;
  clock_sim : unit -> float;
  clock_msgs : unit -> int;
}

let create ~capacity ~sim ~msgs =
  {
    stage = Array.make capacity 0;
    op = Array.make capacity 0;
    parent = Array.make capacity (-1);
    t0 = Array.make capacity 0;
    t1 = Array.make capacity 0;
    words = Array.make capacity 0.0;
    sim = Array.make capacity 0.0;
    msgs = Array.make capacity 0;
    n = 0;
    clock_sim = sim;
    clock_msgs = msgs;
  }

(* Open a span; the start readings are parked in the end-value cells and
   turned into deltas by [stop]. *)
let start t ~stage ~op ~parent =
  let i = t.n in
  if i >= Array.length t.stage then failwith "Spans.start: capacity exhausted";
  t.n <- i + 1;
  t.stage.(i) <- stage;
  t.op.(i) <- op;
  t.parent.(i) <- parent;
  t.msgs.(i) <- t.clock_msgs ();
  t.sim.(i) <- t.clock_sim ();
  t.words.(i) <- Gc.minor_words ();
  t.t0.(i) <- clock ();
  i

let stop t i =
  t.t1.(i) <- clock ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i);
  t.sim.(i) <- t.clock_sim () -. t.sim.(i);
  t.msgs.(i) <- t.clock_msgs () - t.msgs.(i)

(* Per-stage totals: calls, self host ns, minor words, simulated ms,
   messages. A span's self time is its duration minus its children's. *)
type totals = {
  calls : int array;
  self_ns : int array;
  words_tot : float array;
  sim_tot : float array;
  msgs_tot : int array;
}

let aggregate t =
  let c_ns = Array.make t.n 0 and c_words = Array.make t.n 0.0 in
  let c_sim = Array.make t.n 0.0 and c_msgs = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then begin
      c_ns.(p) <- c_ns.(p) + (t.t1.(i) - t.t0.(i));
      c_words.(p) <- c_words.(p) +. t.words.(i);
      c_sim.(p) <- c_sim.(p) +. t.sim.(i);
      c_msgs.(p) <- c_msgs.(p) + t.msgs.(i)
    end
  done;
  let calls = Array.make n_stages 0 and self_ns = Array.make n_stages 0 in
  let words_tot = Array.make n_stages 0.0 and sim_tot = Array.make n_stages 0.0 in
  let msgs_tot = Array.make n_stages 0 in
  for i = 0 to t.n - 1 do
    let s = t.stage.(i) in
    calls.(s) <- calls.(s) + 1;
    self_ns.(s) <- self_ns.(s) + (t.t1.(i) - t.t0.(i)) - c_ns.(i);
    words_tot.(s) <- words_tot.(s) +. t.words.(i) -. c_words.(i);
    sim_tot.(s) <- sim_tot.(s) +. t.sim.(i) -. c_sim.(i);
    msgs_tot.(s) <- msgs_tot.(s) + t.msgs.(i) - c_msgs.(i)
  done;
  { calls; self_ns; words_tot; sim_tot; msgs_tot }

let write t path =
  let oc = open_out path in
  output_string oc "stage\top\tparent\tstart_ns\tend_ns\tminor_words\tsim_ms\tmsgs\n";
  for i = 0 to t.n - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%.0f\t%.6f\t%d\n" stage_names.(t.stage.(i)) t.op.(i)
      t.parent.(i) t.t0.(i) t.t1.(i) t.words.(i) t.sim.(i) t.msgs.(i)
  done;
  close_out oc
