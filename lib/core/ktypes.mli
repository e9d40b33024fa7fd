(** Kernel state shared by every module of the core library.

    One {!t} is the resident LOCUS kernel of one site. A site can
    simultaneously play the three logical roles of §2.3.1 — using site
    (US), storage site (SS) and current synchronization site (CSS) — so
    the kernel holds the state for all three, keyed by filegroup and
    file. *)

module Engine = Sim.Engine
module Vvec = Vv.Version_vector
module Site = Net.Site
module Gfile = Catalog.Gfile

exception Error of Proto.errno * string
(** Every kernel failure, local or reflected from a remote site (§3.3). *)

val err : Proto.errno -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted message. *)

(** {1 Configuration} *)

type config = {
  readahead : bool;          (** keep a window requested ahead of sequential reads (§2.3.3) *)
  us_cache_pages : int;      (** US page-cache entries; 0 disables the tier *)
  ss_cache_pages : int;      (** SS buffer-cache entries; 0 disables the tier *)
  cache_retention : bool;    (** keep version-keyed US pages across opens *)
  propagation_delay : float; (** ms before the propagation kernel process runs *)
  name_cache_entries : int;  (** pathname name-cache entries; 0 disables (§2.3.4) *)
  remote_lookup : bool;      (** ship partial pathnames to a storage site (§2.3.4) *)
  bulk_window : int;
      (** maximum pages per bulk transfer: streaming-read fetch window,
          write-behind batch size, and propagation pull batch. 1 disables
          the bulk layer and reproduces the one-page-per-RTT protocols. *)
  open_lease_entries : int;
      (** retained open grants per site: the CSS grants revocable read
          leases on open, so the US keeps the whole open grant across
          close and re-opens with zero messages until a callback break.
          0 disables the lease layer and keeps the classic open protocol
          byte-identical. *)
  stripe_width : int;
      (** stripe a file's logical pages across up to this many storage
          sites holding latest copies; 1 disables striping and keeps the
          classic protocol byte-identical *)
  table_size_hint : int;
      (** initial bucket count for the hot per-kernel hashtables, so
          large runs don't pay repeated rehashing *)
}

val default_config : config

(** {1 CSS state: synchronization and version bookkeeping (§2.3.1)} *)

type css_file = {
  mutable latest_vv : Vvec.t;
  mutable site_vv : Vvec.t Site.Map.t;
      (** every site storing a copy, with the version it holds *)
  mutable readers : int Site.Map.t; (** open-for-read counts per US *)
  mutable writer : Site.t option;        (** at most one open for modification *)
  mutable writer_ss : Site.t option;     (** the single SS while a writer exists *)
  mutable css_deleted : bool;
  mutable css_conflict : bool;
      (** unresolved version conflict: normal opens fail (§4.6) *)
  mutable leases : Site.Set.t;
      (** sites granted a read lease on this file; broken by callback
          ([Lease_break]) when a writer opens, the version advances, a
          conflict or delete is recorded, or the partition changes *)
  mutable stripes : Site.t list;
      (** stripe map pinned while opens are outstanding, so every US of a
          shared file uses the same page→SS assignment; [[]] = unstriped *)
}

type css_fg = { css_files : (int, css_file) Hashtbl.t }

(** {1 US state: incore inodes for open files (§2.3.3)} *)

type wb_run = { wb_off : int; wb_buf : Buffer.t; wb_serial : int }
(** A write-behind run: adjacent write chunks coalesced at the US, sent to
    the SS as one [Write_pages] batch at the next flush point.
    [wb_serial] ties the flush timer to the run it was armed for. *)

type ofile = {
  o_gf : Gfile.t;
  o_serial : int; (** distinguishes simultaneous opens of the same file *)
  o_mode : Proto.open_mode;
  mutable o_ss : Site.t;
  mutable o_info : Proto.inode_info;
  mutable o_nocache : bool; (** a writer is active: bypass the US cache *)
  mutable o_dirty : bool;   (** uncommitted modifications sent to the SS *)
  mutable o_last_lpage : int; (** drives the sequential readahead *)
  mutable o_guess : int; (** the SS's incore-inode slot, sent with page reads *)
  mutable o_window : int;
      (** streaming fetch window, pages: doubles on sequential reads up to
          [config.bulk_window], resets to 1 on a seek *)
  mutable o_ra_frontier : int; (** first page not yet requested ahead *)
  mutable o_inflight : (int * int) list;
      (** scheduled readahead ranges (first, count), deduping overlaps *)
  mutable o_wb : wb_run option; (** pending write-behind run *)
  mutable o_stripes : Site.t list;
      (** stripe map for this open: page p is served by
          [stripes.(p mod width)]; [[]] = unstriped. When striped, [o_ss]
          is the primary (first) stripe site. *)
  mutable o_closed : bool;
  mutable o_lease : Openlease.entry option;
      (** the lease grant this open rides: its close is deferred while
          the lease lives *)
}

(** {1 SS state: served opens and shadow sessions (§2.3.5, §2.3.6)} *)

type ss_open = {
  s_gf : Gfile.t;
  s_slot : int; (** incore-inode slot; shipped to USs as their read guess *)
  mutable s_shadow : Storage.Shadow.t option;
  mutable s_uss : int Site.Map.t; (** using sites currently served, with counts *)
  mutable s_others : Site.t list; (** other storing sites, for commit notifications *)
}

(** {1 Shared file descriptors and their offset tokens (§3.2)} *)

type fd_key = int * int
(** Shared-descriptor identity: origin site, serial. The origin site
    manages the token. *)

type shared_fd = {
  f_key : fd_key;
  f_gf : Gfile.t;
  f_mode : Proto.open_mode;
  mutable f_offset : int;    (** meaningful only where the token is *)
  mutable f_holder : Site.t; (** manager's view of the current holder *)
  mutable f_valid : bool;    (** this site currently holds the token *)
  mutable f_refs : int;      (** local fd-table references *)
  mutable f_ofile : ofile option; (** this site's own open handle *)
}

(** {1 Processes (§3)} *)

type proc_status = Running | Exited of int

type proc = {
  pid : int;
  mutable p_site : Site.t;
  mutable p_parent : (int * Site.t) option;
  mutable p_uid : string;
  mutable p_cwd : Gfile.t;
  mutable p_context : string list; (** hidden-directory context (§2.4.1) *)
  mutable p_ncopies : int; (** inherited default replication factor (§2.3.7) *)
  mutable p_advice : Site.t list;
      (** execution-site advice list (§3.1): first reachable entry wins *)
  p_fds : (int, fd_key) Hashtbl.t;
  mutable p_next_fd : int;
  mutable p_status : proc_status;
  mutable p_children : (int * Site.t) list;
  mutable p_signals : int list; (** delivered signals, newest first *)
  mutable p_zombies : (int * int) list; (** exited children awaiting wait() *)
  mutable p_err_info : string option;
      (** details of a reflected remote failure, read by a new call (§3.3) *)
  mutable p_image_pages : int; (** image size, shipped by a remote fork *)
}

(** {1 Per-filegroup replicated configuration} *)

type fg_info = {
  fg : int;
  mutable css_site : Site.t;
  mutable pack_sites : Site.t list;
      (** sites with a physical container of this filegroup *)
}

(** {1 The kernel} *)

type page_key = Gfile.t * int * (Vvec.site * int) list
(** A buffered page: (file, logical page, {!vv_key} of its version). *)

type t = {
  site : Site.t;
  machine_type : string; (** cpu type; selects hidden-directory entries *)
  engine : Engine.t;
  net : (Proto.req, Proto.resp) Net.Netsim.t;
  config : config;
  mount : Catalog.Mount.t; (** the replicated mount table (§2.1) *)
  mutable fg_table : fg_info list;
  packs : (int, Storage.Pack.t) Hashtbl.t;
  css_state : (int, css_fg) Hashtbl.t;
  open_files : (Gfile.t * int, ofile) Hashtbl.t;
  ss_opens : (Gfile.t, ss_open) Hashtbl.t;
  ss_slots : (int, Gfile.t) Hashtbl.t; (** incore-inode slot → file *)
  us_cache : page_key Storage.Cache.t;
      (** (file, page, version) → page: stale versions miss naturally *)
  ss_cache : page_key Storage.Cache.t;
      (** SS buffer cache fronting pack/disk page reads, same keying *)
  name_cache : Namecache.t;
      (** (directory, component) → child links, vv-validated (§2.3.4) *)
  open_leases : Openlease.t;
      (** retained open grants of lease-backed read opens: zero-message
          re-opens and deferred closes *)
  mutable prop_pending : Gfile.Set.t;
  prop_queue : (Gfile.t * Vvec.t * int list * int * float) Queue.t;
      (** file, target version, modified pages ([] = all), retries left,
          earliest-retry time (backed off after a failed pull) *)
  shared_fds : (fd_key, shared_fd) Hashtbl.t;
  procs : (int, proc) Hashtbl.t;
  pipe_bufs : (Gfile.t, string ref) Hashtbl.t;
  mutable next_serial : int;
  mutable dispatch : Site.t -> Proto.req -> Proto.resp;
      (** local fast path into this kernel's own message handler *)
  mutable extra_handler : Site.t -> Proto.req -> Proto.resp option;
      (** reconfiguration handlers, installed by the recovery layer *)
  mutable site_table : Site.t list; (** believed-up sites: this partition *)
  mutable site_set : Site.Set.t;
      (** same membership as [site_table] for O(log n) tests; update both
          through {!set_sites} only *)
  mutable alive : bool;
  mutable recon_stage : int; (** reconfiguration stage, for §5.7 ordering *)
}

(** {1 Helpers} *)

val now : t -> float
(** Simulated time, ms. *)

val stats : t -> Sim.Stats.t

val latency : t -> Net.Latency.t

val charge : t -> float -> unit

val charge_disk_read : t -> unit

val charge_disk_write : t -> unit

val charge_cpu_page : t -> unit

val record : t -> tag:string -> ('a, Format.formatter, unit) format -> 'a
(** [record k ~tag fmt args] appends a protocol-trace event, prefixed with
    this site. The detail is formatted only while the trace is recording
    ({!Sim.Trace.set_recording}); otherwise no printer runs. *)

val fg_info : t -> int -> fg_info
(** Raises [EINVAL] for an unknown filegroup. *)

val local_pack : t -> int -> Storage.Pack.t option

val local_pack_exn : t -> int -> Storage.Pack.t

val in_partition : t -> Site.t -> bool

val set_sites : t -> Site.t list -> unit
(** Replace the partition membership, keeping the ordered list view and
    the set view consistent (sorts and dedups the input). *)

val place_css : fg:int -> Site.t list -> Site.t option
(** Deterministic CSS placement: every site computes the same coordinator
    for [fg] from the sorted pack-holder candidates alone. Filegroup 0
    maps to the lowest candidate (the classic layout); distinct
    filegroups spread across their holders. [None] iff no candidates. *)

val stripe_map : width:int -> ino:int -> Site.t list -> Site.t list
(** Deterministic stripe map: up to [width] distinct latest-copy holders,
    rotated by [ino]. [[]] (unstriped) when [width <= 1] or fewer than
    two candidates. *)

val stripe_owner : Site.t list -> int -> Site.t
(** The stripe site serving logical page [lpage]. Raises on an unstriped
    ([[]]) map. *)

val vv_key : Vvec.t -> (Vvec.site * int) list
(** The version vector as a cache-key component: its canonical component
    list ({!Vvec.to_list}), equal for equal vectors. A new committed
    version changes the key, so stale buffered pages miss naturally. *)

val other_versions : Gfile.t -> Vvec.t -> page_key -> bool
(** [other_versions gf vv] holds for buffered pages of [gf] under any
    version but [vv]: the invalidation predicate of a commit. *)

val ss_cache_enabled : t -> bool
(** Whether the SS-side buffer-cache tier is on ([ss_cache_pages > 0]). *)

val fresh_serial : t -> int

val rpc_result : t -> Site.t -> Proto.req -> (Proto.resp, Net.Rpc.rpc_error) result
(** Remote procedure call to another kernel through the {!Net.Rpc}
    transport layer, under the request's message-class policy
    ({!Proto.req_policy}); collocated roles short-circuit to a procedure
    call (§2.3.2). Returns the typed transport error; callers that can
    tolerate or interpret failure (close paths, recovery polls, token
    reclamation) match on it. If this kernel is down the error carries
    [attempts = 0]. *)

val rpc : t -> Site.t -> Proto.req -> Proto.resp
(** Like {!rpc_result}, but any transport failure raises [ENET] — for the
    protocol paths where unreachability simply fails the operation. *)

val rpc_close :
  ?attempts:int -> t -> Site.t -> Proto.req -> (Proto.resp, Net.Rpc.rpc_error) result
(** {!rpc_result} for the non-idempotent close legs ([Us_close]/[Ss_close]):
    resends on [Unreachable] only (the handler provably did not run, so a
    resend cannot double-apply), up to [attempts] sends total (default 3).
    [Lost_reply] — the close DID run — is returned as-is, never resent.
    Without this, one randomly lost close between two healthy sites leaks
    the SS serving registration forever: merge rebuilds only the CSS lock
    table, and failure cleanup covers only dead sites. *)

val send_close : t -> Site.t -> Proto.req -> Proto.resp option
(** {!rpc_close}, plus at-least-once hand-off: if every synchronous resend
    was lost ([Unreachable]), the close is parked and retried on a growing
    background timer until it reaches the destination, the destination
    leaves this site's partition (membership cleanup then owns the state),
    or the backoff budget runs out (an undetected dead site; restart
    scavenging owns the state). Retries remain [Unreachable]-only, so the
    non-idempotent handler still runs at most once. [None] means the close
    either ran with its reply lost, or is parked for retry — the caller
    may treat it as handed off either way. *)

val notify : t -> Site.t -> Proto.req -> unit
(** One-way message; losses are silent (recovery reconciles). *)

val ss_find_open : t -> Gfile.t -> ss_open option

val ss_get_open : t -> Gfile.t -> ss_open
(** Find-or-create the SS serving state (allocating its incore slot). *)

val ss_add_us : ss_open -> Site.t -> unit

val expect_ok : Proto.resp -> unit
(** Raise on [R_err]; accept [R_ok]. *)
