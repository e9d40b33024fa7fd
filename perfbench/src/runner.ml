(* World set-up and the closed-loop op runner.

   One op is outstanding at a time, sent from a single thread. Before
   each op the loop runs the events already due at the current
   simulated time ([Engine.run_for engine 0.0]); it never drains inside an
   op. The untraced loop sends each op as one syscall; the traced loop
   makes the same public layer calls the syscall makes, each wrapped in a
   span. Both check every result against the oracle. *)

module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Us = Locus_core.Us
module Dirops = Locus_core.Dirops
module Pathname = Locus_core.Pathname
module Engine = Sim.Engine
module Stats = Sim.Stats
module World = Locus.World
module W = Workload

type world = {
  spec : W.spec;
  w : World.t;
  engine : Engine.t;
  stats : Stats.t;
  kernels : K.t array;
  procs : K.proc array;
  paths : string array;
  model : Oracle.t;
  msg : Stats.counter;
}

let settle w = match World.settle w with n, `Idle -> (n, true) | n, `Limit -> (n, false)

(* The world and working set, before any op of the stream. *)
let build (spec : W.spec) =
  let base = World.default_config ~n_sites:spec.W.n_sites () in
  let config =
    {
      base with
      World.filegroups = [ { World.fg = 0; pack_sites = spec.W.pack_sites; mount_path = None } ];
      kernel_config = { K.default_config with K.table_size_hint = max 64 spec.W.n_sites };
    }
  in
  let w = World.create ~config () in
  let engine = World.engine w in
  (* protocol-trace strings would dominate host time at this scale *)
  Sim.Trace.set_recording (Engine.trace engine) false;
  let kernels = Array.init spec.W.n_sites (World.kernel w) in
  let procs = Array.init spec.W.n_sites (World.proc w) in
  Array.iter (fun p -> Kernel.set_ncopies p spec.W.ncopies) procs;
  let k0 = kernels.(0) and p0 = procs.(0) in
  List.iter
    (fun d ->
      ignore (Kernel.mkdir k0 p0 d);
      Speed.tick ())
    spec.W.dirs;
  Array.iteri
    (fun i path ->
      ignore (Kernel.creat k0 p0 path);
      Kernel.write_file k0 p0 path (W.initial_body spec i);
      Speed.tick ())
    spec.W.files;
  Array.iteri
    (fun i path ->
      if spec.W.preloaded i then begin
        ignore (Kernel.creat k0 p0 path);
        Speed.tick ()
      end)
    spec.W.names;
  if not (snd (settle w)) then failwith "set-up settle exhausted its event budget";
  let stats = World.stats w in
  {
    spec;
    w;
    engine;
    stats;
    kernels;
    procs;
    paths = W.targets spec;
    model = Oracle.create spec;
    msg = Stats.counter stats "net.msg";
  }

(* ---- one op, two ways ---- *)

let syscall k p (kind : W.kind) path written =
  match
    match kind with
    | W.Read -> Oracle.Body (Kernel.read_file k p path)
    | W.Write ->
      Kernel.write_file k p path written;
      Oracle.Done
    | W.Create ->
      ignore (Kernel.creat k p path);
      Oracle.Done
    | W.Unlink ->
      Kernel.unlink k p path;
      Oracle.Done
    | W.Lookup ->
      ignore (Kernel.stat k p path);
      Oracle.Found
  with
  | outcome -> outcome
  | exception K.Error (e, _) -> Oracle.Failed e

(* The same op as the sequence of public layer calls the syscall makes
   (Kernel.read_file, write_file, creat, unlink, stat), each in a span.
   Error paths release the open exactly as Kernel does. *)
let decomposed sp ~op ~parent k (p : K.proc) (kind : W.kind) path written =
  let span stage f =
    let i = Spans.start sp ~stage ~op ~parent in
    match f () with
    | v ->
      Spans.stop sp i;
      v
    | exception e ->
      Spans.stop sp i;
      raise e
  in
  let releasing o f () = try f () with e -> Us.release k o; raise e in
  let open_for mode =
    let gf = span Spans.s_resolve (fun () -> Kernel.resolve k p path) in
    span Spans.s_open (fun () -> Kernel.open_checked k p gf mode)
  in
  let parent_of () =
    span Spans.s_resolve_parent (fun () ->
        Pathname.resolve_parent k ~cwd:p.K.p_cwd ~context:p.K.p_context path)
  in
  match
    match kind with
    | W.Read ->
      let o = open_for Proto.Mode_read in
      let body = span Spans.s_read (releasing o (fun () -> Us.read_all k o)) in
      span Spans.s_close (fun () -> Us.close k o);
      Oracle.Body body
    | W.Write ->
      let o = open_for Proto.Mode_modify in
      span Spans.s_write (releasing o (fun () -> Us.set_contents k o written));
      span Spans.s_commit (releasing o (fun () -> Us.commit k o));
      span Spans.s_close (fun () -> Us.close k o);
      Oracle.Done
    | W.Create ->
      let dir_gf, name = parent_of () in
      ignore
        (span Spans.s_create (fun () ->
             Dirops.create_in k dir_gf ~name ~ftype:Storage.Inode.Regular ~owner:p.K.p_uid
               ~perms:0o644 ~ncopies:p.K.p_ncopies));
      Oracle.Done
    | W.Unlink ->
      let dir_gf, name = parent_of () in
      ignore (span Spans.s_unlink (fun () -> Dirops.unlink_gf k dir_gf ~name));
      Oracle.Done
    | W.Lookup ->
      let gf = span Spans.s_resolve (fun () -> Kernel.resolve k p path) in
      ignore (span Spans.s_stat (fun () -> Us.stat_gf k gf));
      Oracle.Found
  with
  | outcome -> outcome
  | exception K.Error (e, _) -> Oracle.Failed e

(* ---- the loop ---- *)

type mode = Syscall | Traced of Spans.t

(* Simulated latency samples per class, preallocated. *)
type lat = { samples : float array array; count : int array }

let lat_create (s : W.stream) ~first ~last =
  let sizes = Array.make 4 0 in
  for i = first to last - 1 do
    let c = W.cls s.W.kind.(i) in
    sizes.(c) <- sizes.(c) + 1
  done;
  { samples = Array.map (fun n -> Array.make n 0.0) sizes; count = Array.make 4 0 }

(* Run ops [first, last). With [settle_every] 0, the default, due events
   are drained before each op; with k > 0 there is no between-op drain and
   the world is settled every k ops instead, as E24's flood loop does (the
   oracle self-test shows what that lets through). Returns the number of
   events the drains executed. *)
let run_ops ?(settle_every = 0) ?lat wd mode (s : W.stream) ~first ~last =
  let engine = wd.engine in
  let events = ref 0 in
  let run_op ~parent i =
    let site = s.W.site.(i) and kind = s.W.kind.(i) and t = s.W.target.(i) in
    let k = wd.kernels.(site) and p = wd.procs.(site) and path = wd.paths.(t) in
    let written = match kind with W.Write -> W.body wd.spec s.W.rev.(i) | _ -> "" in
    let t0 = Engine.now engine in
    let outcome =
      match mode with
      | Syscall -> syscall k p kind path written
      | Traced sp -> decomposed sp ~op:i ~parent k p kind path written
    in
    let dt = Engine.now engine -. t0 in
    Oracle.check wd.model kind t ~written outcome;
    match lat with
    | Some l ->
      let c = W.cls kind in
      l.samples.(c).(l.count.(c)) <- dt;
      l.count.(c) <- l.count.(c) + 1
    | None -> ()
  in
  for i = first to last - 1 do
    if settle_every > 0 && i mod settle_every = 0 then
      events := !events + fst (settle wd.w);
    (match mode with
    | Syscall ->
      if settle_every = 0 then events := !events + Engine.run_for engine 0.0;
      run_op ~parent:(-1) i
    | Traced sp ->
      let op = Spans.start sp ~stage:Spans.s_op ~op:i ~parent:(-1) in
      if settle_every = 0 then begin
        let d = Spans.start sp ~stage:Spans.s_drain ~op:i ~parent:op in
        events := !events + Engine.run_for engine 0.0;
        Spans.stop sp d
      end;
      run_op ~parent:op i;
      Spans.stop sp op);
    Speed.tick ()
  done;
  !events

(* After the final drain every live target must read back, byte for byte,
   at a site that stores no copy (the highest-numbered site holds no
   pack). Returns the number of reads made. *)
let readback wd =
  let site = Array.length wd.kernels - 1 in
  assert (not (List.mem site wd.spec.W.pack_sites));
  let k = wd.kernels.(site) and p = wd.procs.(site) in
  let n = ref 0 in
  Array.iteri
    (fun t live ->
      if live then begin
        incr n;
        Oracle.check ~settled:true wd.model W.Read t ~written:""
          (syscall k p W.Read wd.paths.(t) "")
      end)
    wd.model.Oracle.live;
  !n
