(* perfbench: run one workload and print its metrics.

     main.exe --workload flood --seed 1 --seconds 10 --trace 0

   The seed gives [repeats] op streams. --trace 0 drives each through the
   syscall loop on a fresh world and prints the end-to-end metrics.
   --trace 1 prints the per-layer metrics of the decomposed loop over the
   first stream, after checking it against an untraced loop on an
   identical world. The last line of standard output is one JSON object:
   correct, attempted, failed, metrics. *)

module W = Perfbench.Workload
module R = Perfbench.Runner
module B = Perfbench.Bench
module Spans = Perfbench.Spans

(* Op streams per run, each [rate * seconds / repeats] ops long. *)
let repeats = 3

(* Set-up alone is repeated after the untraced loops, for the setup_s
   median, until [setup_budget_s] scaled host seconds have gone to set-up or
   there are [max_setups] set-ups. *)
let setup_budget_s = 3.0

let max_setups = 9

let report (spec : W.spec) (runs : B.run list) (t : B.tally) metrics =
  List.iteri
    (fun i (r : B.run) ->
      let l = r.B.loop in
      Printf.printf
        "%s world %d: %d timed ops, set-up %.3f s, loop %.3f s host (%.3f s as measured)\n"
        spec.W.name i l.B.ops r.B.setup_s l.B.host_s l.B.raw_s)
    runs;
  Printf.printf "%d checked ops\n" t.B.attempted;
  Array.iteri
    (fun c s ->
      Printf.printf "  %-8s samples %6d%s  deciles (ms):" W.cls_names.(c) (Array.length s)
        (if Array.length s < 1000 then " (p99 from <1000 samples)" else "");
      List.iter
        (fun p -> Printf.printf " %.3f" (B.percentile s p))
        [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90. ];
      print_newline ())
    (B.pooled_samples (List.map (fun (r : B.run) -> r.B.loop) runs));
  Printf.printf
    "  checks: wrong_result %d (stale names %d, of which ENET %d; superseded reads %d), error %d\n"
    t.B.wrong t.B.stale_names t.B.stale_enet t.B.superseded t.B.errors;
  List.iter (Printf.printf "    failed: %s\n") t.B.first;
  List.iter
    (fun (m : B.metric) -> Printf.printf "  %-36s %16.6f %s\n" m.B.name m.B.value m.B.unit)
    metrics

let json ~correct (t : B.tally) metrics =
  let value (m : B.metric) =
    if not (Float.is_finite m.B.value) then failwith ("metric " ^ m.B.name ^ " is not finite");
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.B.name m.B.value m.B.unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    t.B.attempted (B.failed t)
    (String.concat ", " (List.map value metrics))

let untraced streams =
  let runs =
    List.map
      (fun stream ->
        Gc.full_major ();
        B.measure ~traced:false stream)
      streams
  in
  let rec setups times total =
    if List.length times >= max_setups || total >= setup_budget_s then times
    else begin
      Gc.full_major ();
      let _, s = B.setup (List.hd streams) in
      setups (s :: times) (total +. s)
    end
  in
  let times = List.map (fun (r : B.run) -> r.B.setup_s) runs in
  let times = setups times (List.fold_left ( +. ) 0.0 times) in
  Printf.printf "set-ups, newest first (host s):";
  List.iter (Printf.printf " %.3f") times;
  print_newline ();
  let setup_s = B.median (Array.of_list times) in
  let t = B.sum_tallies (List.map (fun (r : B.run) -> r.B.tally) runs) in
  let metrics = B.end_to_end ~setup_s (List.map (fun (r : B.run) -> r.B.loop) runs) t in
  report (List.hd streams).W.spec runs t metrics;
  json ~correct:(B.violations t = 0) t metrics

(* Where the traced run writes its spans, relative to the working
   directory. *)
let span_dir = ".perfbench_out"

let traced stream =
  let untraced = B.measure ~traced:false stream in
  Gc.full_major ();
  let r = B.measure ~traced:true stream in
  let l2 = r.B.loop and t2 = r.B.tally and sp = Option.get r.B.spans in
  let diffs = B.fidelity untraced.B.loop l2 untraced.B.tally t2 in
  List.iter (fun d -> Printf.printf "FIDELITY MISMATCH: %s\n" d) diffs;
  if diffs = [] then
    Printf.printf "fidelity: traced loop matches untraced (%d msgs, sim end %.6f ms)\n"
      (B.counter l2 "net.msg") l2.B.sim_end;
  (try
     if not (Sys.file_exists span_dir) then Sys.mkdir span_dir 0o755;
     Spans.write sp (Filename.concat span_dir (Printf.sprintf "spans-%s.tsv" stream.W.spec.W.name))
   with Sys_error e -> Printf.printf "spans not written: %s\n" e);
  let total = B.counter l2 "net.msg" in
  List.iter
    (fun (name, n) ->
      if String.starts_with ~prefix:"net.msg." name then
        Printf.printf "  %-36s %9d msgs %5.1f%%\n" name n (100.0 *. B.ratio n total))
    l2.B.counters;
  let metrics = B.per_layer ~untraced:untraced.B.loop ~traced:l2 (Spans.aggregate sp) t2 in
  report stream.W.spec [ r ] t2 metrics;
  json ~correct:(diffs = [] && B.violations t2 = 0) t2 metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " flood | namespace | stream");
      ("--seed", Arg.Set_int seed, " op-stream seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds (sets the stream length)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match W.find !workload with
  | None ->
    prerr_endline ("unknown workload: " ^ !workload);
    exit 2
  | Some spec ->
    let ops = spec.W.rate * max 1 !seconds / repeats in
    (* stream i of seed n is the generator's seed n * repeats + i *)
    let streams =
      List.init repeats (fun i -> W.generate spec ~seed:((!seed * repeats) + i) ~ops)
    in
    List.iter
      (fun (s : W.stream) ->
        Printf.printf "op stream %s: %d ops (%d warm-up), digest %s\n" spec.W.name (W.length s)
          s.W.warm (W.digest s))
      streams;
    flush stdout;
    if !trace = 0 then untraced streams else traced (List.hd streams)
