(* Host time at a fixed machine speed.

   The benchmark shares its machine with other tenants, and their load
   changes how fast the same work runs by up to 2x within minutes. To take
   that out of the host metrics, a fixed integer kernel is run after every
   [period] of measured work, and the work's host seconds are scaled by how
   fast the kernel ran meanwhile: [work * nominal * calls / kernel time].
   The kernel touches no heap and allocates nothing, so its speed depends
   on the machine and not on the program being measured. It tracks most
   of the swings, not all: the README gives the measurements.

   One meter, for a single-threaded benchmark: [tick] is called between
   units of work, and [measure] wraps a whole measured region. *)

let cpu () = Sys.time ()

(* Measured work between two kernel runs, in host seconds. *)
let period = 0.025

(* Host seconds of one kernel run on the reference machine when it is
   quiet: the unit the scaled times are expressed in. *)
let nominal = 0.0003

let kernel () =
  let s = ref 0 in
  for i = 0 to 300_000 do
    s := !s + ((i * i) land 1023)
  done;
  ignore (Sys.opaque_identity !s)

type meter = {
  mutable last : float;   (* when measured work last resumed *)
  mutable work : float;   (* host seconds of measured work *)
  mutable kernel : float; (* host seconds of kernel runs *)
  mutable calls : int;
}

let meter = { last = 0.0; work = 0.0; kernel = 0.0; calls = 0 }

let sample now =
  meter.work <- meter.work +. (now -. meter.last);
  kernel ();
  let t = cpu () in
  meter.kernel <- meter.kernel +. (t -. now);
  meter.calls <- meter.calls + 1;
  meter.last <- t

(* Between two units of measured work: runs the kernel once [period] of
   work has gone by since the last run. *)
let tick () =
  let now = cpu () in
  if now -. meter.last >= period then sample now

(* [f ()], with its measured host seconds, raw and scaled to the
   reference speed. Not reentrant. *)
let measure f =
  meter.work <- 0.0;
  meter.kernel <- 0.0;
  meter.calls <- 0;
  meter.last <- cpu ();
  let v = f () in
  sample (cpu ());
  let raw = meter.work in
  (v, raw, raw *. nominal *. float_of_int meter.calls /. meter.kernel)
