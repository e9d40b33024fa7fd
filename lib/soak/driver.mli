(** The fault-soak driver.

    One run = one world (5 sites, one filegroup packed everywhere), one
    seeded workload generator, one seeded fault schedule; segments
    alternate a batch of operations with one injected fault. After the
    last segment the driver quiesces (loss off, dead sites restarted and
    scavenged, network healed, merge run, engine settled) and hands the
    world to {!Invariant.check}. Fully deterministic in [(seed, ops,
    drop)]. *)

type bug =
  | Bug_silent_scrub
      (** Wipe live lease tables without firing the deferred closes (what
          the Lru [~notify:false] policy would do on the wrong path),
          stranding SS serving registrations and CSS reader/lease
          entries. The §5.6 merge rebuild absorbs exactly this class at
          quiesce, so runs with this bug are expected to {e pass} —
          pinning the self-heal. *)
  | Bug_abandoned_open
      (** Abandon a successfully opened handle without closing it, as the
          pre-[Us.release] error paths did. The orphan lives at the using
          site, where no recovery protocol looks, so the invariant
          checker must flag it. *)

type outcome = {
  oc_seed : int;
  oc_ops : int;
  oc_report : Locus.Workload.report;
  oc_injected : (string * int) list;  (** fault label -> times injected *)
  oc_skipped : int;  (** faults skipped because preconditions failed *)
  oc_violations : Invariant.violation list;
  oc_events : int;  (** engine events executed over the whole run *)
  oc_stripe_reads : int;
      (** strided page requests the run's using sites sent: nonzero when
          striping engaged *)
}

val configs : (string * Locus_core.Ktypes.config) list
(** Every kernel configuration that ships, by name: [default]; [classic],
    the paper's protocols (window 1, no open leases); and [striped]
    (stripe width 2). The soak runs each seed under all of them. *)

val run :
  ?drop:int list ->
  ?bug:bug ->
  ?config:Locus_core.Ktypes.config ->
  seed:int ->
  ops:int ->
  unit ->
  outcome
(** Replay one scenario under [config] (default: {!Locus_core.Ktypes.default_config}). *)

val failed : outcome -> bool
