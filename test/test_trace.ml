(* Kernel trace records: formatted only while the trace is recording, and
   byte-identical to the details the kernel has always written. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Trace = Sim.Trace

let check = Alcotest.check

(* Packs at sites 0 and 1 only: site 1 pulls what site 0 commits, and
   site 3 opens remotely. *)
let world () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ]
    }
  in
  World.create ~config ()

let trace w = Sim.Engine.trace (World.engine w)

let test_off_never_formats () =
  let w = world () in
  let k = World.kernel w 0 in
  let calls = ref 0 in
  let counting ppf () =
    incr calls;
    Format.pp_print_string ppf "detail"
  in
  Trace.set_recording (trace w) false;
  K.record k ~tag:"test.off" "%a %d" counting () 7;
  check Alcotest.int "printer not called while off" 0 !calls;
  check Alcotest.int "nothing recorded" 0 (List.length (Trace.find_all (trace w) ~tag:"test.off"));
  (* A whole write/read round trip with the trace off records nothing. *)
  let before = Trace.count (trace w) in
  let p0 = World.proc w 0 in
  ignore (Kernel.creat k p0 "/quiet");
  Kernel.write_file k p0 "/quiet" "x";
  ignore (World.settle w);
  check Alcotest.int "no events while off" before (Trace.count (trace w));
  Trace.set_recording (trace w) true;
  K.record k ~tag:"test.on" "%a %d" counting () 7;
  check Alcotest.int "printer called once while on" 1 !calls;
  check Alcotest.(list string) "detail prefixed with the site" [ "s0 detail 7" ]
    (List.map (fun (e : Trace.event) -> e.Trace.detail) (Trace.find_all (trace w) ~tag:"test.on"))

(* The details below are what the kernel wrote when every call site built
   its string with [Format.asprintf] before recording it. *)
let test_details_unchanged () =
  let w = world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "hello";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  ignore (Kernel.read_file k3 p3 "/f");
  ignore (World.settle w);
  let details tag =
    List.map (fun (e : Trace.event) -> e.Trace.detail) (Trace.find_all (trace w) ~tag)
  in
  check Alcotest.(list string) "us.open"
    [ "s0 <0,1> modify ss=s0"; "s0 <0,2> modify ss=s0"; "s3 <0,2> read ss=s0" ]
    (details "us.open");
  check Alcotest.(list string) "ss.commit" [ "s0 <0,1> vv=<0:1>"; "s0 <0,2> vv=<0:2>" ]
    (details "ss.commit");
  check Alcotest.(list string) "prop.pull" [ "s1 <0,1> <- s0 vv=<0:1> (1 pages)" ]
    (details "prop.pull")

let () =
  Alcotest.run "trace"
    [
      ( "record",
        [
          Alcotest.test_case "off: printers never run" `Quick test_off_never_formats;
          Alcotest.test_case "on: details unchanged" `Quick test_details_unchanged;
        ] );
    ]
