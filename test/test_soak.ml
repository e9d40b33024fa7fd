(* Self-test of the fault-soak harness (lib/soak).

   Four claims are pinned:
   - clean seeds pass: a sweep of schedules covering every fault class
     quiesces with zero invariant violations (the full 50x2000 sweep runs
     via `make soak`; this is the alcotest-sized slice);
   - every configuration that ships (Driver.configs) passes too, and the
     striped one really stripes;
   - the harness is deterministic: the same (seed, ops) replays the
     identical run, which is what makes shrunken repros trustworthy;
   - the harness has teeth: re-introducing a fixed bug (error paths
     abandoning open handles, the pre-Us.release leak) makes at least one
     seed fail and shrink to a one-line replayable repro command — while
     the other reintroducible bug (the silent lease-table scrub) is
     absorbed by the section 5.6 merge rebuild and must pass, pinning the
     self-heal. *)

module Driver = Soak.Driver
module Shrink = Soak.Shrink
module Invariant = Soak.Invariant

let check = Alcotest.check

let pp_violations vs =
  String.concat "; " (List.map (Format.asprintf "%a" Invariant.pp_violation) vs)

let seeds = [ 1; 2; 3; 4; 5; 6 ]
let ops = 400

let test_clean_seeds () =
  List.iter
    (fun seed ->
      let oc = Driver.run ~seed ~ops () in
      if Driver.failed oc then
        Alcotest.failf "seed %d: %s" seed (pp_violations oc.Driver.oc_violations))
    seeds

(* Every configuration that ships is soaked, and each one really runs its
   own protocol: the striped configuration must fan reads over stripe
   owners, the other two must never. *)
let test_every_config () =
  List.iter
    (fun (name, config) ->
      List.iter
        (fun seed ->
          let oc = Driver.run ~config ~seed ~ops () in
          if Driver.failed oc then
            Alcotest.failf "%s seed %d: %s" name seed (pp_violations oc.Driver.oc_violations);
          check Alcotest.bool
            (Printf.sprintf "%s seed %d: striping engaged" name seed)
            (config.Locus_core.Ktypes.stripe_width > 1)
            (oc.Driver.oc_stripe_reads > 0))
        seeds)
    Driver.configs

let test_determinism () =
  let a = Driver.run ~seed:3 ~ops:300 () in
  let b = Driver.run ~seed:3 ~ops:300 () in
  check Alcotest.int "events replay" a.Driver.oc_events b.Driver.oc_events;
  check Alcotest.int "skips replay" a.Driver.oc_skipped b.Driver.oc_skipped;
  check
    Alcotest.(list (pair string int))
    "fault mix replays" a.Driver.oc_injected b.Driver.oc_injected;
  check Alcotest.int "errors replay" a.Driver.oc_report.Locus.Workload.errors
    b.Driver.oc_report.Locus.Workload.errors

(* Masking every fault out of a failing schedule must reproduce a clean
   run: the workload stream is independent of the fault stream, which is
   what lets the shrinker drop faults one at a time. *)
let test_drop_all_faults_is_clean () =
  List.iter
    (fun seed ->
      let total =
        Soak.Schedule.fault_count (Soak.Schedule.generate ~seed ~ops)
      in
      let drop = List.init total Fun.id in
      let oc = Driver.run ~drop ~seed ~ops () in
      check Alcotest.(list (pair string int)) "no faults injected" []
        oc.Driver.oc_injected;
      if Driver.failed oc then
        Alcotest.failf "faultless seed %d: %s" seed
          (pp_violations oc.Driver.oc_violations))
    [ 1; 2 ]

(* The silent lease-table scrub strands SS serving registrations and CSS
   reader/lease entries — state the quiesce merge now rebuilds from the
   members' actual opens (Css.rebuild + Ss.revalidate_serving, the §5.6
   rebuild). Every seed must therefore pass even with the bug live: this
   pins the self-heal, and a failure here means the merge-time rebuild
   regressed. *)
let test_silent_scrub_absorbed_by_merge () =
  List.iter
    (fun seed ->
      let oc = Driver.run ~bug:Driver.Bug_silent_scrub ~seed ~ops () in
      if Driver.failed oc then
        Alcotest.failf "seed %d not absorbed: %s" seed
          (pp_violations oc.Driver.oc_violations))
    seeds

let fails_with_bug sc =
  Driver.failed
    (Driver.run ~drop:sc.Shrink.sc_drop ~bug:Driver.Bug_abandoned_open
       ~seed:sc.Shrink.sc_seed ~ops:sc.Shrink.sc_ops ())

(* The acceptance demo: with the Us.release fix reverted (error paths
   abandoning opened handles again), the invariant checker must flag at
   least one seed, and the shrinker must reduce it to a replayable
   one-line repro. *)
let test_bug_reintroduced_caught_and_shrunk () =
  let failing =
    List.filter
      (fun seed ->
        fails_with_bug { Shrink.sc_seed = seed; sc_ops = ops; sc_drop = [] })
      seeds
  in
  check Alcotest.bool "some seed catches the reintroduced bug" true
    (failing <> []);
  let seed = List.hd failing in
  let small, replays =
    Shrink.shrink ~fails:fails_with_bug
      { Shrink.sc_seed = seed; sc_ops = ops; sc_drop = [] }
  in
  check Alcotest.bool "shrinking replayed the scenario" true (replays > 0);
  check Alcotest.bool "shrunk ops not above original" true
    (small.Shrink.sc_ops <= ops);
  check Alcotest.bool "shrunk scenario still fails" true (fails_with_bug small);
  let cmd = Shrink.repro_command small in
  let prefix = "dune exec bench/main.exe -- soak --seed " in
  check Alcotest.bool "repro is a one-line soak command" true
    (String.length cmd >= String.length prefix
    && String.equal (String.sub cmd 0 (String.length prefix)) prefix);
  Printf.printf "reintroduced-bug minimal repro: %s\n%!" cmd

let () =
  Alcotest.run "soak"
    [
      ( "soak",
        [
          Alcotest.test_case "clean seeds pass invariants" `Slow test_clean_seeds;
          Alcotest.test_case "every shipped configuration" `Slow test_every_config;
          Alcotest.test_case "same seed replays identically" `Quick
            test_determinism;
          Alcotest.test_case "masking all faults is clean" `Quick
            test_drop_all_faults_is_clean;
          Alcotest.test_case "silent scrub absorbed by merge rebuild" `Slow
            test_silent_scrub_absorbed_by_merge;
          Alcotest.test_case "reintroduced bug caught and shrunk" `Slow
            test_bug_reintroduced_caught_and_shrunk;
        ] );
    ]
