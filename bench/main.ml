(* Benchmark harness entry point.

   dune exec bench/main.exe            -- run every experiment (E1..E24)
   dune exec bench/main.exe -- e5 e6   -- run selected experiments
   dune exec bench/main.exe -- micro   -- Bechamel micro-benchmarks of the
                                          hot paths (host CPU time)
   dune exec bench/main.exe -- soak [--seeds K] [--seed N] [--ops M]
                                    [--drop i,j,...]
                                       -- deterministic fault soak under every
                                          shipped configuration; failing
                                          seeds shrink to a minimal repro
                                          command and exit non-zero *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Page = Storage.Page
module Inode = Storage.Inode
module Pack = Storage.Pack
module Shadow = Storage.Shadow
module Vvec = Vv.Version_vector

(* ---- Bechamel micro-benchmarks ---- *)

let micro_tests () =
  (* Persistent worlds reused across iterations (the benchmarks measure
     steady-state kernel paths, not world construction). *)
  let w = World.create ~config:(World.default_config ~n_sites:5 ()) () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/bench");
  Kernel.write_file k0 p0 "/bench" (String.make 4096 'b');
  Experiments.settle_ok w;
  let gf0 = Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/bench" in
  let k3 = World.kernel w 3 in

  let local_open =
    ( "open+close local",
      fun () ->
        let o = Us.open_gf k0 gf0 Proto.Mode_read in
        Us.close k0 o )
  in
  let remote_open =
    ( "open+close remote",
      fun () ->
        let o = Us.open_gf k3 gf0 Proto.Mode_read in
        Us.close k3 o )
  in
  let o_local = Us.open_gf k0 gf0 Proto.Mode_read in
  let o_remote = Us.open_gf k3 gf0 Proto.Mode_read in
  let read_local = ("page read local", fun () -> ignore (Us.read_page k0 o_local 0)) in
  let read_remote =
    ("page read remote (cached)", fun () -> ignore (Us.read_page k3 o_remote 0))
  in
  let pack = Pack.create ~fg:9 ~pack_id:0 ~ino_lo:2 ~ino_hi:10_000 () in
  let inode = Inode.create ~ino:2 ~ftype:Inode.Regular ~owner:"b" in
  Pack.install_inode pack inode;
  let body = String.make 2048 's' in
  let shadow_commit =
    ( "shadow commit 2 pages",
      fun () ->
        let s = Shadow.begin_modify pack 2 in
        Shadow.set_contents s body;
        Shadow.commit s ~vv:Vvec.zero ~mtime:0.0 )
  in
  let a = Vvec.of_list [ (0, 3); (1, 2); (4, 9) ] in
  let b = Vvec.of_list [ (0, 3); (2, 7) ] in
  let vv_compare = ("version-vector compare", fun () -> ignore (Vvec.compare_vv a b)) in
  (* A directory of the size the perfbench namespace workload churns:
     what a dirop pays to read it, search it, and rewrite one entry. *)
  let dir = Catalog.Dir.empty () in
  for i = 0 to 511 do
    Catalog.Dir.insert dir ~name:(Printf.sprintf "entry%04d" i) ~ino:(i + 2)
      ~stamp:(float_of_int i *. 1.37) ~origin:(i mod 64)
  done;
  let dir_body = Catalog.Dir.encode dir in
  let dir_decode =
    ("directory decode (512 entries)", fun () -> ignore (Catalog.Dir.decode dir_body))
  in
  let dir_lookup =
    ("directory lookup (512 entries)", fun () -> ignore (Catalog.Dir.lookup dir "entry0300"))
  in
  let dir_insert =
    ( "directory insert+encode (512 entries)",
      fun () ->
        Catalog.Dir.insert dir ~name:"entry0300" ~ino:302 ~stamp:1234.5 ~origin:3;
        ignore (Catalog.Dir.encode dir) )
  in
  [
    local_open; remote_open; read_local; read_remote; shadow_commit; vv_compare;
    dir_decode; dir_lookup; dir_insert;
  ]

(* ---- event-core micro suite (BENCH_micro.json) ---- *)

(* Steady-state scheduler churn: preload the heap to a fixed depth, then
   pop-one/push-one for [iters] events, the hold pattern a running
   simulation keeps the queue in. Time increments come from a precomputed
   float array so the measured loop allocates nothing beyond what the
   heap under test allocates (plus the one boxed float the non-flambda
   call boundary charges both heaps equally). Reports host events/sec
   and minor words per event. *)
let n_incs = 4096

let make_incs () =
  let rng = Sim.Rng.create 0x10adL in
  Array.init n_incs (fun _ -> Sim.Rng.float rng 10.0)

let churn_old ~preload ~iters =
  let h = Oldheap.create () in
  let incs = make_incs () in
  for i = 0 to preload - 1 do
    Oldheap.push h ~time:incs.(i land (n_incs - 1)) ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    let time =
      match Oldheap.pop h with Some (time, ()) -> time | None -> assert false
    in
    Oldheap.push h ~time:(time +. incs.(i land (n_incs - 1))) ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

let churn_new ~preload ~iters =
  let h = Sim.Eheap.create () in
  let incs = make_incs () in
  let scratch = [| 0.0 |] in
  for i = 0 to preload - 1 do
    Sim.Eheap.push h ~time:incs.(i land (n_incs - 1)) ()
  done;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    Sim.Eheap.pop_into h ~time:scratch;
    Sim.Eheap.push h ~time:(scratch.(0) +. incs.(i land (n_incs - 1))) ()
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

(* Whole-engine churn: a self-rescheduling thunk, i.e. schedule + step +
   dispatch per event. There is no old engine to race it against; the
   metric pins the end-to-end cost of one simulated event. *)
let churn_engine ~iters =
  let e = Sim.Engine.create ~seed:7L () in
  let n = ref 0 in
  let rec tick () =
    if !n < iters then begin
      incr n;
      Sim.Engine.schedule e ~delay:1.0 tick
    end
  in
  Sim.Engine.schedule e ~delay:1.0 tick;
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Sim.Engine.run_until_idle ~limit:(iters + 8) e);
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  (float_of_int iters /. dt, words /. float_of_int iters)

let run_heap_micro () =
  let metric = Report.metric ~experiment:"micro" in
  Printf.printf "\n== event-core micro suite ==\n%!";
  let iters = 400_000 in
  Printf.printf "  %-34s %12s %12s\n" "scheduler churn (pop+push)"
    "events/sec" "words/event";
  let speedups =
    List.map
      (fun preload ->
        (* one throwaway round to warm the code paths, then measure *)
        ignore (churn_old ~preload ~iters:(iters / 8));
        ignore (churn_new ~preload ~iters:(iters / 8));
        let old_eps, old_wpe = churn_old ~preload ~iters in
        let new_eps, new_wpe = churn_new ~preload ~iters in
        metric (Printf.sprintf "heap.old.events_per_sec.d%d" preload) old_eps;
        metric (Printf.sprintf "heap.old.words_per_event.d%d" preload) old_wpe;
        metric (Printf.sprintf "heap.new.events_per_sec.d%d" preload) new_eps;
        metric (Printf.sprintf "heap.new.words_per_event.d%d" preload) new_wpe;
        Printf.printf "  old heap, depth %-6d %25.0f %12.1f\n%!" preload old_eps
          old_wpe;
        Printf.printf "  new heap, depth %-6d %25.0f %12.1f\n%!" preload new_eps
          new_wpe;
        new_eps /. old_eps)
      [ 1_024; 65_536 ]
  in
  let speedup = List.fold_left max 0.0 speedups in
  metric "heap.speedup" speedup;
  Printf.printf "  heap speedup (best depth): %.1fx (need >= 3x): %s\n" speedup
    (Report.check (speedup >= 3.0));
  let eng_eps, eng_wpe = churn_engine ~iters:200_000 in
  metric "engine.events_per_sec" eng_eps;
  metric "engine.words_per_event" eng_wpe;
  Printf.printf "  engine step+dispatch: %.0f events/sec, %.1f words/event\n%!"
    eng_eps eng_wpe

(* Words allocated per call, minor and major heap alike (large arrays and
   strings go straight to the major heap). *)
let words_per_call f =
  let n = 200 in
  f ();
  let mi0, pr0, ma0 = Gc.counters () in
  for _ = 1 to n do
    f ()
  done;
  let mi1, pr1, ma1 = Gc.counters () in
  (mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)) /. float_of_int n

let run_micro () =
  run_heap_micro ();
  let open Bechamel in
  Printf.printf "\n== Bechamel micro-benchmarks (host CPU) ==\n%!";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun (name, f) ->
      (* words first, so state the timing runs leave behind does not count *)
      let words = words_per_call f in
      let results = Benchmark.all cfg [ instance ] (Test.make ~name (Staged.stage f)) in
      let ns =
        match Analyze.OLS.estimates (Hashtbl.find (Analyze.all ols instance results) name) with
        | Some [ est ] -> Printf.sprintf "%10.0f" est
        | Some _ | None -> Printf.sprintf "%10s" "-"
      in
      Printf.printf "  %-44s %s ns/op %10.0f words/op\n%!" name ns words)
    (micro_tests ())

(* ---- fault soak ---- *)

(* `soak --seed N --ops M [--drop i,j]` replays one scenario (this is the
   shape of the shrunken repro commands the harness prints); `soak --seeds
   K --ops M` sweeps seeds 1..K, shrinking any failure. Every scenario
   runs under each configuration in [Soak.Driver.configs], so a repro
   command replays the failing configuration too. Exit 1 on any invariant
   violation. *)
let run_soak args =
  let seeds = ref 0 and seed = ref 1 and ops = ref 2000 and drop = ref [] in
  let rec parse = function
    | [] -> ()
    | "--seeds" :: v :: rest -> seeds := int_of_string v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--ops" :: v :: rest -> ops := int_of_string v; parse rest
    | "--drop" :: v :: rest ->
      drop := List.map int_of_string (String.split_on_char ',' v);
      parse rest
    | a :: _ -> failwith (Printf.sprintf "soak: unknown argument %S" a)
  in
  parse args;
  let scenarios =
    if !seeds > 0 then
      List.init !seeds (fun i ->
          { Soak.Shrink.sc_seed = i + 1; sc_ops = !ops; sc_drop = [] })
    else [ { Soak.Shrink.sc_seed = !seed; sc_ops = !ops; sc_drop = !drop } ]
  in
  let run config sc =
    Soak.Driver.run ~drop:sc.Soak.Shrink.sc_drop ~config ~seed:sc.Soak.Shrink.sc_seed
      ~ops:sc.Soak.Shrink.sc_ops ()
  in
  let failures = ref 0 in
  List.iter
    (fun (name, config) ->
      List.iter
        (fun sc ->
          let oc = run config sc in
          let faults =
            List.fold_left (fun a (_, c) -> a + c) 0 oc.Soak.Driver.oc_injected
          in
          if Soak.Driver.failed oc then begin
            incr failures;
            let labels =
              String.concat ", "
                (List.map
                   (fun (l, c) -> if c = 1 then l else Printf.sprintf "%s x%d" l c)
                   oc.Soak.Driver.oc_injected)
            in
            Printf.printf "seed %d [%s]: FAIL (%d ops, %d faults: %s)\n%!"
              sc.Soak.Shrink.sc_seed name oc.Soak.Driver.oc_report.Locus.Workload.ops
              faults labels;
            List.iter
              (fun v ->
                Printf.printf "  %s\n" (Format.asprintf "%a" Soak.Invariant.pp_violation v))
              oc.Soak.Driver.oc_violations;
            (* The repro replays every configuration, this one included. *)
            let small, runs =
              Soak.Shrink.shrink ~fails:(fun sc -> Soak.Driver.failed (run config sc)) sc
            in
            Printf.printf "  shrunk in %d replays; minimal repro:\n  %s\n%!" runs
              (Soak.Shrink.repro_command small)
          end
          else
            Printf.printf "seed %d [%s]: ok (%d ops, %d faults, %d events, %d stripe reads)\n%!"
              sc.Soak.Shrink.sc_seed name oc.Soak.Driver.oc_report.Locus.Workload.ops
              faults oc.Soak.Driver.oc_events oc.Soak.Driver.oc_stripe_reads)
        scenarios)
    Soak.Driver.configs;
  let total = List.length scenarios * List.length Soak.Driver.configs in
  if !failures > 0 then begin
    Printf.printf "soak: %d/%d scenarios FAILED\n" !failures total;
    exit 1
  end
  else
    Printf.printf "soak: all %d scenarios passed (%d seeds x %d configurations)\n" total
      (List.length scenarios) (List.length Soak.Driver.configs)

(* ---- entry point ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  Printf.printf
    "LOCUS reproduction benchmark harness (see EXPERIMENTS.md for the index)\n";
  (match args with
  | [] ->
    List.iter (fun e -> e ()) Experiments.all;
    run_micro ()
  | [ "micro" ] -> run_micro ()
  | "soak" :: rest -> run_soak rest
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt (String.lowercase_ascii name) Experiments.by_name with
        | Some e -> e ()
        | None ->
          if name = "micro" then run_micro ()
          else
            Printf.eprintf "unknown experiment %S (e1..e%d, micro)\n" name
              (List.length Experiments.all))
      names);
  (* Experiments that recorded metrics get a BENCH_<n>.json for CI. *)
  Report.write_metrics ()
