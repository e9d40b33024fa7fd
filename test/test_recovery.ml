(* Reconfiguration and recovery tests (sections 4 and 5): the partition
   protocol's iterative intersection, the merge protocol and its adaptive
   timeout, CSS re-election and lock-table rebuild, the cleanup table, and
   the reconciliation rules for directories, mailboxes and untyped files. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module K = Locus_core.Ktypes
module Partition = Recovery.Partition
module Merge = Recovery.Merge
module Reconcile = Recovery.Reconcile
module Topology = Net.Topology
module Inode = Storage.Inode

let check = Alcotest.check

let make_world ?(n = 6) () = World.create ~config:(World.default_config ~n_sites:n ()) ()

(* ---- partition protocol (section 5.4) ---- *)

let test_partition_membership_agreement () =
  let w = make_world () in
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ];
  let r = Partition.run_active (World.kernel w 0) in
  check Alcotest.(list int) "members" [ 0; 1; 2 ] r.Partition.members;
  (* Consensus: every member's site table equals the agreed set. *)
  List.iter
    (fun s ->
      check Alcotest.(list int)
        (Printf.sprintf "site %d table" s)
        [ 0; 1; 2 ]
        (World.kernel w s).K.site_table)
    [ 0; 1; 2 ]

(* A single broken link must not split the net into three parts: the
   protocol finds maximum partitions. *)
let test_partition_maximal_on_single_link_failure () =
  let w = make_world ~n:4 () in
  Topology.set_link (World.topology w) 1 3 false;
  let r = Partition.run_active (World.kernel w 0) in
  (* 0 keeps either {0,1,2} or {0,2,3}: size 3, not 2. *)
  check Alcotest.int "maximum partition kept" 3 (List.length r.Partition.members);
  check Alcotest.bool "initiator included" true (List.mem 0 r.Partition.members)

let test_partition_single_site () =
  let w = make_world ~n:3 () in
  Topology.partition (World.topology w) [ [ 0 ]; [ 1; 2 ] ];
  let r = Partition.run_active (World.kernel w 0) in
  check Alcotest.(list int) "alone" [ 0 ] r.Partition.members

let test_partition_active_failover () =
  let w = make_world ~n:4 () in
  (* Site 1 believes site 0 is coordinating, but site 0 is dead. *)
  World.crash_site w 0;
  match Partition.check_active_and_takeover (World.kernel w 1) ~active:0 with
  | Some r ->
    check Alcotest.(list int) "takeover found survivors" [ 1; 2; 3 ] r.Partition.members
  | None -> Alcotest.fail "passive site should have taken over"

let test_partition_css_reelection () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.creat k0 p0 "/r");
  Kernel.write_file k0 p0 "/r" "data";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0 ]; [ 1; 2; 3 ] ]);
  (* The right-hand partition must have re-elected site 1 as CSS for fg 0
     and rebuilt its tables: opens keep working. *)
  let k1 = World.kernel w 1 in
  check Alcotest.int "new CSS" 1 (Locus_core.Ktypes.fg_info k1 0).K.css_site;
  let p2 = World.proc w 2 and k2 = World.kernel w 2 in
  check Alcotest.string "reads still served" "data" (Kernel.read_file k2 p2 "/r");
  Kernel.write_file k2 p2 "/r" "updated in right partition";
  ignore (World.settle w);
  check Alcotest.string "updates still served" "updated in right partition"
    (Kernel.read_file k2 p2 "/r")

(* ---- merge protocol (section 5.5) ---- *)

let test_merge_rejoins_all () =
  let w = make_world () in
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5 ] ]);
  Topology.heal (World.topology w);
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.(list int) "all sites merged" [ 0; 1; 2; 3; 4; 5 ] r.Merge.members;
  List.iter
    (fun s ->
      check Alcotest.(list int)
        (Printf.sprintf "site %d table" s)
        [ 0; 1; 2; 3; 4; 5 ]
        (World.kernel w s).K.site_table)
    (World.sites w)

let test_merge_adaptive_timeout_cheaper () =
  (* A small partition of a large network merges quickly under the
     two-level timeout: when every site believed up has answered, only the
     short timeout applies to the (down) rest. *)
  let run policy =
    let w = make_world ~n:6 () in
    ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]);
    (* Sites 3..5 stay down: believed down by everyone in {0,1,2}. *)
    List.iter (fun s -> World.crash_site w s) [ 3; 4; 5 ];
    let r = Merge.run_initiator ~policy (World.kernel w 0) ~all_sites:(World.sites w) in
    r.Merge.wait_charged
  in
  let fixed = run (Merge.Fixed_timeout 150.0) in
  let adaptive = run (Merge.Adaptive_timeout { long = 150.0; short = 15.0 }) in
  check Alcotest.bool "adaptive waits much less" true (adaptive *. 2.0 < fixed);
  check (Alcotest.float 0.01) "adaptive = short timeout" 15.0 adaptive

let test_merge_expected_site_missing_uses_long_timeout () =
  let w = make_world ~n:4 () in
  (* Site 3 crashes without anyone noticing: still believed up. *)
  World.crash_site w 3;
  let r =
    Merge.run_initiator
      ~policy:(Merge.Adaptive_timeout { long = 150.0; short = 15.0 })
      (World.kernel w 0) ~all_sites:(World.sites w)
  in
  check (Alcotest.float 0.01) "long timeout charged" 150.0 r.Merge.wait_charged;
  check Alcotest.(list int) "survivors merged" [ 0; 1; 2 ] r.Merge.members

(* The gateway optimization of the 5.5 footnote: in a large network, only
   sites vouched for by a gateway are polled individually. *)
let test_merge_gateway_optimization () =
  let w = make_world ~n:12 () in
  (* Sites 6..11 form a remote subnet behind gateway 6; the whole remote
     subnet except the gateway is down. Everyone still believes only their
     own partition up. *)
  ignore (World.partition w [ [ 0; 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10; 11 ] ]);
  List.iter (fun s -> World.crash_site w s) [ 7; 8; 9; 10; 11 ];
  ignore (World.detect_failures w ~initiator:6);
  Topology.heal (World.topology w);
  List.iter (fun s -> Topology.set_site_up (World.topology w) s false)
    [ 7; 8; 9; 10; 11 ];
  let r =
    Merge.run_initiator ~gateways:[ 6 ] (World.kernel w 0)
      ~all_sites:(World.sites w)
  in
  (* The five dead subnet members were never polled: no gateway vouched. *)
  check Alcotest.int "skipped unvouched sites" 5 r.Merge.skipped;
  check Alcotest.(list int) "gateway + local partition merged"
    [ 0; 1; 2; 3; 4; 5; 6 ] r.Merge.members;
  check (Alcotest.float 0.01) "no timeout charged" 0.0 r.Merge.wait_charged

let test_merge_busy_arbitration () =
  let w = make_world ~n:3 () in
  (* Site 0 is already coordinating a merge; a poll from a higher site is
     refused, and the higher site yields. *)
  Hashtbl.replace Merge.merging 0 ();
  (match Merge.run_initiator (World.kernel w 1) ~all_sites:(World.sites w) with
  | _ -> Alcotest.fail "higher-numbered initiator should yield"
  | exception Merge.Yield active -> check Alcotest.int "yields to lower site" 0 active);
  Hashtbl.remove Merge.merging 0

(* ---- cleanup procedure (section 5.6 table) ---- *)

let test_cleanup_reader_reopens_other_copy () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/multi");
  Kernel.write_file k0 p0 "/multi" "replicated";
  ignore (World.settle w);
  (* Open for read at site 3 served by some SS; crash that SS. *)
  let k3 = World.kernel w 3 in
  let gf =
    Locus_core.Pathname.resolve_from k3 ~cwd:(Catalog.Mount.root k3.K.mount)
      ~context:[] "/multi"
  in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let ss = o.K.o_ss in
  World.crash_site w ss;
  ignore (World.detect_failures w ~initiator:3);
  (* The system substituted another copy: the open still works. *)
  check Alcotest.bool "reopened elsewhere" false (Net.Site.equal o.K.o_ss ss);
  check Alcotest.bool "still open" false o.K.o_closed;
  let data, _ = Us.read_page k3 o 0 in
  check Alcotest.string "data intact" "replicated" (String.sub data 0 10);
  Us.close k3 o

let test_cleanup_writer_loses_update () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  ignore (Kernel.creat k1 p1 "/only_at_1");
  Kernel.write_file k1 p1 "/only_at_1" "committed";
  ignore (World.settle w);
  ignore p0;
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/only_at_1"
  in
  let o = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 o ~off:0 "uncommitted";
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  (* Update open on a lost SS: pages discarded, error in the descriptor. *)
  check Alcotest.bool "descriptor errored" true o.K.o_closed;
  check Alcotest.bool "cleanup counted" true
    (Sim.Stats.get (World.stats w) "cleanup.us.update_lost" >= 1);
  (* After restart, the committed version survives (shadow pages). *)
  World.restart_site w 1;
  ignore (World.heal_and_merge w);
  check Alcotest.string "previous commit intact" "committed"
    (Kernel.read_file k1 p1 "/only_at_1")

let test_cleanup_ss_aborts_orphan_session () =
  let w = make_world ~n:3 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 1;
  ignore (Kernel.creat k0 p0 "/victim");
  Kernel.write_file k0 p0 "/victim" "stable";
  ignore (World.settle w);
  (* Site 1 opens for modification, writes, then site 1 dies. *)
  let k1 = World.kernel w 1 in
  let gf =
    Locus_core.Pathname.resolve_from k1 ~cwd:(Catalog.Mount.root k1.K.mount)
      ~context:[] "/victim"
  in
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  Us.write k1 o ~off:0 "doomed";
  (* Push the write-behind run out so the SS has an open shadow session to
     orphan when the site dies. *)
  Us.flush_wb k1 o;
  World.crash_site w 1;
  ignore (World.detect_failures w ~initiator:0);
  check Alcotest.bool "ss aborted the session" true
    (Sim.Stats.get (World.stats w) "cleanup.ss.aborted" >= 1);
  (* The committed version is what remains. *)
  check Alcotest.string "old version intact" "stable" (Kernel.read_file k0 p0 "/victim")

(* ---- reconciliation (section 4) ---- *)

let conflict_world () =
  let w = make_world ~n:4 () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 4;
  ignore (Kernel.mkdir k0 p0 "/mail");
  (w, k0, p0)

let total f recon = List.fold_left (fun acc (_, r) -> acc + f r) 0 recon

let test_stale_copy_propagates_on_merge () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/doc");
  Kernel.write_file k0 p0 "/doc" "v1";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* Update on the left only: the right side is merely stale. *)
  Kernel.write_file k0 p0 "/doc" "v2";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.bool "propagations scheduled" true
    (total (fun r -> r.Reconcile.propagations) recon >= 1);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "right side caught up" "v2" (Kernel.read_file k3 p3 "/doc")

let test_mailbox_merge_on_partition () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/alice");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.mailbox_deliver k0 ~path:"/mail/alice" ~from:"bob" ~body:"left mail";
  Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/alice" ~from:"carol"
    ~body:"right mail";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "mailbox merged automatically" true
    (total (fun r -> r.Reconcile.mail_merges) recon >= 1);
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  let msgs = Kernel.mailbox_read k0 p0 "/mail/alice" in
  check Alcotest.int "both messages present" 2 (List.length msgs)

let test_delete_vs_update_saves_file () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/precious");
  Kernel.write_file k0 p0 "/precious" "original";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* Left deletes; right modifies. The file wants to be saved (4.4). *)
  Kernel.unlink k0 p0 "/precious";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  Kernel.write_file k2 p2 "/precious" "updated while deleted elsewhere";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "save counted" true
    (total (fun r -> r.Reconcile.saved_from_delete + r.Reconcile.deletes_undone) recon
     >= 1);
  check Alcotest.string "modified data saved" "updated while deleted elsewhere"
    (Kernel.read_file k2 p2 "/precious")

let test_name_conflict_renames_both () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (Kernel.mkdir k0 p0 "/dir");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  (* The same fresh name bound to different files in each partition. *)
  ignore (Kernel.creat k0 p0 "/dir/report");
  Kernel.write_file k0 p0 "/dir/report" "left report";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k2 p2 "/dir/report");
  Kernel.write_file k2 p2 "/dir/report" "right report";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.bool "name conflict detected" true
    (total (fun r -> r.Reconcile.name_conflicts) recon >= 1);
  let entries =
    Kernel.readdir k0 p0 "/dir"
    |> List.map (fun (e : Catalog.Dir.entry) -> e.Catalog.Dir.name)
    |> List.filter (fun n -> String.length n >= 6 && String.sub n 0 6 = "report")
  in
  check Alcotest.int "both versions kept under altered names" 2 (List.length entries);
  (* The owner was notified by mail. *)
  check Alcotest.bool "owner notified" true
    (List.length (Kernel.mailbox_read k0 p0 "/mail/root") >= 1)

let test_untyped_conflict_marked_and_resolvable () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (Kernel.creat k0 p0 "/binary");
  Kernel.write_file k0 p0 "/binary" "base";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/binary" "left";
  Kernel.write_file (World.kernel w 2) (World.proc w 2) "/binary" "right";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "conflict marked" 1
    (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.bool "owner mailed" true
    (total (fun r -> r.Reconcile.mails_sent) recon >= 1);
  (* Access fails until resolved. *)
  (match Kernel.read_file k0 p0 "/binary" with
  | _ -> Alcotest.fail "conflicted file should refuse access"
  | exception K.Error (Proto.Econflict, _) -> ());
  (* Interactive resolution keeps one version. *)
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/binary"
  in
  check Alcotest.bool "resolution succeeds" true
    (Reconcile.resolve_manual (World.kernel w 0) gf ~winner:0);
  ignore (World.settle w);
  check Alcotest.string "winner readable" "left" (Kernel.read_file k0 p0 "/binary")

(* The one-call orchestration: partition protocols per group, then merge
   and recovery. *)
let test_full_reconfigure_entry () =
  let w = make_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 6;
  ignore (Kernel.creat k0 p0 "/o");
  Kernel.write_file k0 p0 "/o" "v1";
  ignore (World.settle w);
  Topology.partition (World.topology w) [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ];
  let report =
    Recovery.Reconfig.reconfigure (World.kernels w) ~initiators:[ 0; 3 ]
      ~merge_initiator:0
  in
  check Alcotest.int "two partition reports" 2
    (List.length report.Recovery.Reconfig.partition_reports);
  (* Sub-partitions formed... but the physical net is still split, so the
     merge only rejoins what is reachable. Heal and do it again. *)
  Topology.heal (World.topology w);
  let report2 =
    Recovery.Reconfig.reconfigure (World.kernels w) ~initiators:[ 0 ]
      ~merge_initiator:0
  in
  (match report2.Recovery.Reconfig.merge_report with
  | Some m -> check Alcotest.int "all merged" 6 (List.length m.Merge.members)
  | None -> Alcotest.fail "missing merge report");
  check Alcotest.string "file intact" "v1" (Kernel.read_file k0 p0 "/o")

(* Hidden directories reconcile by the same rules as ordinary ones: load
   modules installed for different machine types in different partitions
   both survive the merge. *)
let test_hidden_directory_merge () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/cmd");
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  ignore (Kernel.creat k0 p0 "/cmd/@vax");
  Kernel.write_file k0 p0 "/cmd/@vax" "vax module";
  let k2 = World.kernel w 2 and p2 = World.proc w 2 in
  ignore (Kernel.creat k2 p2 "/cmd/@pdp11");
  Kernel.write_file k2 p2 "/cmd/@pdp11" "pdp11 module";
  ignore (World.settle w);
  let _, recon = World.heal_and_merge w in
  check Alcotest.int "no conflicts" 0 (total (fun r -> r.Reconcile.conflicts_marked) recon);
  check Alcotest.string "vax entry merged" "vax module"
    (Kernel.read_file k2 p2 "/cmd/@vax");
  check Alcotest.string "pdp11 entry merged" "pdp11 module"
    (Kernel.read_file k0 p0 "/cmd/@pdp11")

let test_demand_recovery_single_file () =
  let w, k0, p0 = conflict_world () in
  ignore (Kernel.creat k0 p0 "/hot");
  Kernel.write_file k0 p0 "/hot" "v1";
  ignore (World.settle w);
  ignore (World.partition w [ [ 0; 1 ]; [ 2; 3 ] ]);
  Kernel.write_file k0 p0 "/hot" "v2-left";
  ignore (World.settle w);
  (* Heal and merge membership, but reconcile just the one file on demand. *)
  Topology.heal (World.topology w);
  let r = Merge.run_initiator (World.kernel w 0) ~all_sites:(World.sites w) in
  check Alcotest.int "merged" 6 (List.length r.Merge.members + 2);
  let gf =
    Locus_core.Pathname.resolve_from k0 ~cwd:(Catalog.Mount.root k0.K.mount)
      ~context:[] "/hot"
  in
  let report = Reconcile.empty_report () in
  Reconcile.reconcile_file (World.kernel w 0) gf report;
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "demand-reconciled" "v2-left" (Kernel.read_file k3 p3 "/hot")

let () =
  Alcotest.run "recovery"
    [
      ( "partition-protocol",
        [
          Alcotest.test_case "membership agreement" `Quick
            test_partition_membership_agreement;
          Alcotest.test_case "maximal partitions" `Quick
            test_partition_maximal_on_single_link_failure;
          Alcotest.test_case "single site" `Quick test_partition_single_site;
          Alcotest.test_case "active failover" `Quick test_partition_active_failover;
          Alcotest.test_case "css re-election" `Quick test_partition_css_reelection;
        ] );
      ( "merge-protocol",
        [
          Alcotest.test_case "rejoins all" `Quick test_merge_rejoins_all;
          Alcotest.test_case "adaptive timeout" `Quick test_merge_adaptive_timeout_cheaper;
          Alcotest.test_case "long timeout for expected sites" `Quick
            test_merge_expected_site_missing_uses_long_timeout;
          Alcotest.test_case "busy arbitration" `Quick test_merge_busy_arbitration;
          Alcotest.test_case "gateway optimization" `Quick
            test_merge_gateway_optimization;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "reader reopens" `Quick test_cleanup_reader_reopens_other_copy;
          Alcotest.test_case "writer loses update" `Quick test_cleanup_writer_loses_update;
          Alcotest.test_case "ss aborts orphan" `Quick test_cleanup_ss_aborts_orphan_session;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "stale copy propagates" `Quick
            test_stale_copy_propagates_on_merge;
          Alcotest.test_case "mailbox merge" `Quick test_mailbox_merge_on_partition;
          Alcotest.test_case "delete vs update saves" `Quick
            test_delete_vs_update_saves_file;
          Alcotest.test_case "name conflict renames" `Quick test_name_conflict_renames_both;
          Alcotest.test_case "untyped conflict" `Quick
            test_untyped_conflict_marked_and_resolvable;
          Alcotest.test_case "demand recovery" `Quick test_demand_recovery_single_file;
          Alcotest.test_case "full reconfigure entry" `Quick test_full_reconfigure_entry;
          Alcotest.test_case "hidden directory merge" `Quick test_hidden_directory_merge;
        ] );
    ]
