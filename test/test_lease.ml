(* Open leases: CSS-granted read leases with callback invalidation and
   deferred close. Warm re-opens cost zero messages; a writer open or a
   version advance breaks the lease by callback before the next read can
   observe stale data; eviction sends exactly one deferred close; no lease
   survives a partition event; both ablations reproduce the classic
   protocol's message counts exactly. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Css = Locus_core.Css
module Openlease = Locus_core.Openlease
module Pathname = Locus_core.Pathname
module K = Locus_core.Ktypes
module Mount = Catalog.Mount
module Gfile = Catalog.Gfile
module Stats = Sim.Stats
module Vvec = Vv.Version_vector

let check = Alcotest.check

(* Packs at 0 and 1 (CSS at 0), five sites: every US/CSS/SS collocation of
   Figure 2 is constructible. *)
let make_world ?kconfig () =
  let base = World.default_config ~n_sites:5 () in
  let kernel_config = Option.value kconfig ~default:base.World.kernel_config in
  World.create
    ~config:
      {
        base with
        World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
        kernel_config;
      }
    ()

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Mount.root k.K.mount) ~context:[] path

let mk_file w ~at ~path ~body =
  let k = World.kernel w at and p = World.proc w at in
  Kernel.set_ncopies p 1;
  ignore (Kernel.creat k p path);
  Kernel.write_file k p path body;
  ignore (World.settle w)

let msgs w snap = Stats.delta_of (World.stats w) snap "net.msg"

let held k gf = Openlease.find_entry k.K.open_leases gf <> None

(* ---- warm re-open ---- *)

(* All roles distinct (file at 1, CSS at 0, US at 3): the cold open costs
   the paper's four messages, and the re-open riding the retained grant
   costs none at all. *)
let test_warm_reopen_zero_messages () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"x";
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/f" in
  let snap = Stats.snapshot (World.stats w) in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.int "cold open msgs" 4 (msgs w snap);
  check Alcotest.string "cold data" "x" (Us.read_all k3 o);
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "grant retained across close" true (held k3 gf);
  let snap = Stats.snapshot (World.stats w) in
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.int "warm reopen msgs" 0 (msgs w snap);
  check Alcotest.string "warm data" "x" (Us.read_all k3 o2);
  Us.close k3 o2;
  ignore (World.settle w);
  check Alcotest.int "lease hit counted" 1
    (Stats.get (World.stats w) "open.lease.hit")

(* ---- callback breaks ---- *)

(* A writer open revokes every read lease on the file; the holder's next
   open revalidates through the CSS and reads the committed data. *)
let test_break_on_writer_open () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"old!";
  let k3 = World.kernel w 3 and k2 = World.kernel w 2 in
  let gf = gf_of k3 "/f" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  ignore (Us.read_all k3 o);
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k3 gf);
  let ow = Us.open_gf k2 gf Proto.Mode_modify in
  ignore (World.settle w);
  check Alcotest.bool "broken by writer open" false (held k3 gf);
  Us.set_contents k2 ow "new!";
  Us.commit k2 ow;
  Us.close k2 ow;
  ignore (World.settle w);
  let snap = Stats.snapshot (World.stats w) in
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.bool "reopen revalidates (cold)" true (msgs w snap > 0);
  check Alcotest.string "never stale" "new!" (Us.read_all k3 o2);
  Us.close k3 o2;
  ignore (World.settle w)

(* The CSS can also learn of a version advance without a writer open
   flowing through it (reconciliation, a replayed notification): the
   commit-notify bookkeeping must break the leases too. *)
let test_break_on_commit_notify () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"v1";
  let k0 = World.kernel w 0 and k3 = World.kernel w 3 in
  let gf = gf_of k3 "/f" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k3 gf);
  let f = Css.get_file k0 0 gf.Gfile.ino in
  let vv' = Vvec.bump f.K.latest_vv 1 in
  Css.handle_commit_notify k0 gf ~origin:1 ~vv:vv' ~deleted:false;
  ignore (World.settle w);
  check Alcotest.bool "broken by version advance" false (held k3 gf)

(* ---- deferred close ---- *)

(* With a single-entry lease table, registering a second grant evicts the
   first, which sends its deferred close — exactly one [Us_close] RPC —
   and drains the reader registration at the CSS. *)
let test_eviction_sends_one_close () =
  let kconfig = { K.default_config with K.open_lease_entries = 1 } in
  let w = make_world ~kconfig () in
  mk_file w ~at:1 ~path:"/a" ~body:"a";
  mk_file w ~at:1 ~path:"/b" ~body:"b";
  let k3 = World.kernel w 3 and k0 = World.kernel w 0 in
  let gfa = gf_of k3 "/a" and gfb = gf_of k3 "/b" in
  let oa = Us.open_gf k3 gfa Proto.Mode_read in
  Us.close k3 oa;
  ignore (World.settle w);
  let stats = World.stats w in
  let snap = Stats.snapshot stats in
  let ob = Us.open_gf k3 gfb Proto.Mode_read in
  check Alcotest.int "one eviction" 1 (Stats.delta_of stats snap "open.lease.evict");
  check Alcotest.int "exactly one deferred Us_close" 2
    (Stats.delta_of stats snap "net.msg.close.us");
  ignore (World.settle w);
  (match Css.find_file k0 0 gfa.Gfile.ino with
  | Some f -> check Alcotest.int "reader registration drained" 0 (K.Site.Map.cardinal f.K.readers)
  | None -> Alcotest.fail "css record missing");
  check Alcotest.bool "evicted grant gone" false (held k3 gfa);
  check Alcotest.bool "new grant live" true (held k3 gfb);
  Us.close k3 ob;
  ignore (World.settle w)

(* ---- partition events ---- *)

(* No lease survives a partition or a merge: the grantor may be
   unreachable or no longer the CSS, so its break callbacks can no longer
   be trusted (the §5.6 lock-table scrub applied to leases). *)
let test_scrub_across_partition_and_merge () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"x";
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/f" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  Us.close k3 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k3 gf);
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
  ignore (World.settle w);
  check Alcotest.bool "scrubbed by the partition protocol" false (held k3 gf);
  ignore (World.heal_and_merge w);
  ignore (World.settle w);
  check Alcotest.bool "nothing resurrected by the merge" false (held k3 gf);
  (* Service resumes through the normal protocol. *)
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.string "readable after merge" "x" (Us.read_all k3 o2);
  Us.close k3 o2;
  ignore (World.settle w)

(* The scrub also runs on the partition that keeps both CSS and SS: a
   lease must never survive any membership change. *)
let test_scrub_even_in_surviving_partition () =
  let w = make_world () in
  mk_file w ~at:1 ~path:"/f" ~body:"x";
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/f" in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  Us.close k2 o;
  ignore (World.settle w);
  check Alcotest.bool "lease held" true (held k2 gf);
  (* Sites 0 (CSS), 1 (SS) and 2 (holder) stay together; 3, 4 leave. *)
  ignore (World.partition w [ [ 0; 1; 2 ]; [ 3; 4 ] ]);
  ignore (World.settle w);
  check Alcotest.bool "scrubbed anyway" false (held k2 gf);
  let o2 = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.string "still readable" "x" (Us.read_all k2 o2);
  Us.close k2 o2;
  ignore (World.settle w)

(* ---- ablations ---- *)

(* With the layer off (no lease table) both the first and the second
   open of every E1 collocation mode cost the paper's message counts:
   the protocol is exactly the pre-lease one. *)
let test_ablations_match_e1_counts () =
  (* (file_at, open_at, paper count) for the five E1 placements. *)
  let placements = [ (0, 0, 0); (1, 1, 2); (1, 0, 2); (0, 3, 2); (1, 3, 4) ] in
  let run kconfig (file_at, open_at, _) =
    let w = make_world ~kconfig () in
    mk_file w ~at:file_at ~path:"/f" ~body:"x";
    let k = World.kernel w open_at in
    let gf = gf_of k "/f" in
    let snap = Stats.snapshot (World.stats w) in
    let o = Us.open_gf k gf Proto.Mode_read in
    let cold = msgs w snap in
    Us.close k o;
    ignore (World.settle w);
    let snap = Stats.snapshot (World.stats w) in
    let o2 = Us.open_gf k gf Proto.Mode_read in
    let warm = msgs w snap in
    Us.close k o2;
    ignore (World.settle w);
    (cold, warm)
  in
  List.iter
    (fun ((_, _, paper) as p) ->
      let cold, warm = run { K.default_config with K.open_lease_entries = 0 } p in
      check Alcotest.int "open_lease_entries=0 cold" paper cold;
      check Alcotest.int "open_lease_entries=0 warm" paper warm)
    placements

let () =
  Alcotest.run "lease"
    [
      ( "warm reopen",
        [
          Alcotest.test_case "zero messages" `Quick test_warm_reopen_zero_messages;
        ] );
      ( "callback break",
        [
          Alcotest.test_case "writer open" `Quick test_break_on_writer_open;
          Alcotest.test_case "commit notify" `Quick test_break_on_commit_notify;
        ] );
      ( "deferred close",
        [
          Alcotest.test_case "eviction sends one close" `Quick
            test_eviction_sends_one_close;
        ] );
      ( "partition",
        [
          Alcotest.test_case "scrub across partition + merge" `Quick
            test_scrub_across_partition_and_merge;
          Alcotest.test_case "scrub in surviving partition" `Quick
            test_scrub_even_in_surviving_partition;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "matches E1 counts" `Quick test_ablations_match_e1_counts;
        ] );
    ]
