(* Using Site file access (section 2.3.3, 2.3.5).

   The US carries out the user-visible half of every file operation: it
   contacts the CSS to open, exchanges pages with the selected SS, and runs
   the close protocol. All page traffic goes through kernel buffers; remote
   pages are cached at the US (keyed by file and version, so a new committed
   version naturally misses), and one read planner keeps a window of pages
   requested ahead of a sequential reader, striped or not. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack
module Page = Storage.Page
module Cache = Storage.Cache

let local_vv_of k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Pack.find_inode pack gf.Gfile.ino
    |> Option.map (fun (i : Inode.t) -> i.Inode.vv)

(* Open <filegroup, inode>: interrogate the CSS, which selects the SS
   (Figure 2). Returns the US incore inode.

   A retained open lease short-circuits the whole exchange: a read or
   internal re-open of a file whose grant is still live completes with
   zero messages — no [Open_req], no storage poll — riding the grant the
   CSS issued at the cold open. Shared opens never ride a lease (their
   offset token traffic needs the full registration). *)
let rec open_gf ?(shared = false) k gf mode =
  let fi = fg_info k gf.Gfile.fg in
  let lease_ride =
    match mode with
    | (Proto.Mode_read | Proto.Mode_internal) when not shared -> (
      match Openlease.acquire k.open_leases gf with
      | Some e when in_partition k e.Openlease.le_ss -> Some e
      | Some e ->
        (* The serving SS left the partition under us: the grant is dead
           even if no break callback made it through. *)
        e.Openlease.le_active <- e.Openlease.le_active - 1;
        Openlease.kill k.open_leases gf;
        None
      | None -> None)
    | _ -> None
  in
  match lease_ride with
  | Some e ->
    let o =
      {
        o_gf = gf;
        o_serial = fresh_serial k;
        o_mode = mode;
        o_ss = e.Openlease.le_ss;
        o_info = e.Openlease.le_info;
        (* A striped grant rides too: the peers serve their stripes
           statelessly, so the map stays valid as long as the lease does. *)
        o_stripes = e.Openlease.le_info.Proto.i_stripes;
        (* Leases only exist while no writer does. *)
        o_nocache = false;
        o_dirty = false;
        o_last_lpage = -1;
        o_guess = e.Openlease.le_slot;
        o_window = 1;
        o_ra_frontier = 0;
        o_inflight = [];
        o_wb = None;
        o_closed = false;
        o_lease = Some e;
      }
    in
    Hashtbl.add k.open_files (gf, o.o_serial) o;
    record k ~tag:"us.open.lease"
      "%a %a ss=%a" Gfile.pp gf Proto.pp_mode mode Site.pp e.Openlease.le_ss;
    o
  | None -> open_gf_cold ~shared k fi gf mode

and open_gf_cold ~shared k fi gf mode =
  let us_vv = local_vv_of k gf in
  match rpc k fi.css_site (Proto.Open_req { gf; mode; us_vv; shared }) with
  | Proto.R_open { ss; info; others; nocache; slot; lease; registered } ->
    let info =
      if Site.equal ss k.site then begin
        (* We serve ourselves: the real disk inode is local. *)
        match local_pack k gf.Gfile.fg with
        | Some pack -> (
          match Pack.find_inode pack gf.Gfile.ino with
          | Some inode ->
            (* The stripe map is CSS state, not disk state: keep it. *)
            { (Proto.info_of_inode inode) with Proto.i_stripes = info.Proto.i_stripes }
          | None -> info)
        | None -> info
      end
      else info
    in
    (* When the CSS chose this site as SS without a storage poll (the US-is-
       current optimization), create the serving state locally. When the
       CSS *did* poll (or registered a CSS-local serve), the registration
       already counts this open — adding again would need two closes to
       balance and leaks a serving entry forever. *)
    if Site.equal ss k.site && not registered then begin
      let s = Ss.get_open k gf in
      Ss.add_us s k.site;
      s.s_others <- others
    end;
    let lease_entry =
      if lease && Openlease.enabled k.open_leases then begin
        let e =
          {
            Openlease.le_gf = gf;
            le_ss = ss;
            le_mode = mode;
            le_info = info;
            le_slot = slot;
            le_vv = info.Proto.i_vv;
            le_active = 1;
            le_broken = false;
          }
        in
        Openlease.insert k.open_leases e;
        record k ~tag:"us.lease.grant" "%a" Gfile.pp gf;
        Some e
      end
      else None
    in
    let o =
      {
        o_gf = gf;
        o_serial = fresh_serial k;
        o_mode = mode;
        o_ss = ss;
        o_info = info;
        o_stripes = info.Proto.i_stripes;
        o_nocache = nocache;
        o_dirty = false;
        (* -1 so a scan starting at page 0 counts as sequential and primes
           the readahead window immediately. *)
        o_last_lpage = -1;
        o_guess = slot;
        o_window = 1;
        o_ra_frontier = 0;
        o_inflight = [];
        o_wb = None;
        o_closed = false;
        o_lease = lease_entry;
      }
    in
    Hashtbl.add k.open_files (gf, o.o_serial) o;
    record k ~tag:"us.open"
      "%a %a ss=%a" Gfile.pp gf Proto.pp_mode mode Site.pp ss;
    o
  | Proto.R_err e -> err e "open %a failed" Gfile.pp gf
  | _ -> err Proto.Eio "unexpected open response"

let cache_key o lpage = (o.o_gf, lpage, vv_key o.o_info.Proto.i_vv)

(* ---- striped access (section: scale-out storage) ----

   A striped open carries a stripe map from the CSS: logical page [p] is
   served by [o_stripes.(p mod width)]. An empty map is width 1: the
   classic single-SS protocol, every page served by [o_ss]. *)

let striped o = o.o_stripes <> []

let width o = match o.o_stripes with [] -> 1 | stripes -> List.length stripes

let page_site o lpage =
  match o.o_stripes with [] -> o.o_ss | stripes -> stripe_owner stripes lpage

(* A stripe peer stopped answering: drop back to the classic protocol
   against the primary, which holds a complete latest copy. Modify opens
   cannot degrade (pages already written to peer sessions would be lost);
   they fail like a classic open whose SS died. *)
let stripe_degrade k o =
  record k ~tag:"us.stripe.degrade" "%a" Gfile.pp o.o_gf;
  Sim.Stats.incr (stats k) "us.stripe.degrade";
  o.o_stripes <- []

let fetch_page k o lpage =
  let site = page_site o lpage in
  let guess = if Site.equal site o.o_ss then o.o_guess else 0 in
  let resp =
    if Site.equal site k.site then begin
      charge k (latency k).Net.Latency.local_call;
      Ss.handle_read_page ~guess k o.o_gf lpage
    end
    else rpc k site (Proto.Read_page { gf = o.o_gf; lpage; guess })
  in
  match resp with
  | Proto.R_page { data; eof } -> (data, eof)
  | Proto.R_err e -> err e "read %a page %d failed" Gfile.pp o.o_gf lpage
  | _ -> err Proto.Eio "unexpected read response"

(* [us_cache_pages = 0] turns the US buffer tier off. *)
let cacheable k o = k.config.us_cache_pages > 0 && not o.o_nocache

(* The bulk-transfer layer batches write traffic with a remote SS; local
   access and a window of one page keep the original protocol exactly. *)
let bulk_enabled k o = k.config.bulk_window > 1 && not (Site.equal o.o_ss k.site)

(* ---- write-behind (bulk write path) ---- *)

(* How long a small run may sit at the US before a timer pushes it out:
   long enough to coalesce a burst of adjacent write() calls, short enough
   that any settle point still observes the data at the SS. *)
let wb_flush_delay = 0.05

(* Flush the pending write-behind run to the SS as [Write_pages] batches of
   at most a window of pages each. Every path that makes the modification
   externally visible — commit, close, truncate, a read on this open, a
   file-offset token moving away — must come through here first, so the
   SS shadow session always holds the data before anyone can look. *)
let flush_wb k o =
  match o.o_wb with
  | None -> ()
  | Some run ->
    o.o_wb <- None;
    let data = Buffer.contents run.wb_buf in
    let len = String.length data in
    let window_bytes = k.config.bulk_window * Page.size in
    let rec loop pos =
      if pos < len then begin
        let abs = run.wb_off + pos in
        let first = abs / Page.size in
        let poff = abs mod Page.size in
        let n = min (window_bytes - poff) (len - pos) in
        let chunk = String.sub data pos n in
        expect_ok
          (rpc k o.o_ss (Proto.Write_pages { gf = o.o_gf; first; off = poff; data = chunk }));
        Sim.Stats.incr (stats k) "us.bulk.write";
        Sim.Stats.add (stats k) "us.bulk.write.pages" ((poff + n + Page.size - 1) / Page.size);
        loop (pos + n)
      end
    in
    loop 0

let start_wb_run k o ~off data =
  let buf = Buffer.create (max 64 (String.length data)) in
  Buffer.add_string buf data;
  let serial = fresh_serial k in
  o.o_wb <- Some { wb_off = off; wb_buf = buf; wb_serial = serial };
  (* The timer is tied to this run by serial: if the run was already pushed
     out (and possibly replaced by a later one) the timer is a no-op rather
     than flushing somebody else's half-built run early. *)
  Engine.schedule k.engine ~delay:wb_flush_delay (fun () ->
      match o.o_wb with
      | Some run when run.wb_serial = serial && k.alive && not o.o_closed -> (
        match flush_wb k o with () -> () | exception Error _ -> ())
      | Some _ | None -> ())

(* ---- the read planner: one windowed streaming read for every width ----

   A sequential reader keeps a window of pages per owner requested ahead
   of it: the window doubles per sequential page up to [bulk_window] and
   resets to 1 on a seek, and a striped open multiplies it by the width,
   so the aggregate window is [o_window * width] pages per round trip.
   Window 1 at width 1 is the classic protocol: one [Read_page] per miss
   and one page of readahead (section 2.3.3). *)

let npages_of o = (o.o_info.Proto.i_size + Page.size - 1) / Page.size

let in_flight o p = List.exists (fun (f, c) -> p >= f && p < f + c) o.o_inflight

(* Length of the run of wanted pages from [from]: stop at the first page
   already cached or already requested, at [limit] pages, or at eof. *)
let run_length k o ~from ~limit =
  let npages = npages_of o in
  let rec len i =
    if i >= limit || from + i >= npages then i
    else if Cache.mem k.us_cache (cache_key o (from + i)) || in_flight o (from + i) then i
    else len (i + 1)
  in
  len 0

(* Fetch the run [first, first+count) into the US cache, split by owner:
   the owner of residue [j] mod the width gets the run's pages with that
   residue as one request, and the requests travel in parallel, so the
   elapsed cost is the slowest owner's share, not the sum. Unstriped, the
   one owner gets the whole run; a one-page run is then the plain
   [Read_page] of the classic protocol, carrying the SS slot guess.
   Returns the reply that carried page [first] (its pages and eof flag)
   and the page after the last one that arrived. *)
let fetch_run k o ~first ~count =
  let w = width o in
  let demand = ref ([], true) and upto = ref first in
  let fetch_share (f, cnt) =
    let pages, eof =
      if w = 1 && cnt = 1 then begin
        let data, eof = fetch_page k o f in
        ([ data ], eof)
      end
      else begin
        let site = page_site o f in
        let guess = if w = 1 then o.o_guess else 0 in
        let resp =
          if Site.equal site k.site then begin
            charge k (latency k).Net.Latency.local_call;
            Ss.handle_read_pages ~guess ~stride:w k o.o_gf ~first:f ~count:cnt
          end
          else
            rpc k site (Proto.Read_pages { gf = o.o_gf; first = f; count = cnt; guess; stride = w })
        in
        match resp with
        | Proto.R_pages { pages; eof } ->
          let n = List.length pages in
          if w = 1 then begin
            Sim.Stats.incr (stats k) "us.bulk.read";
            Sim.Stats.add (stats k) "us.bulk.read.pages" n
          end
          else begin
            Sim.Stats.incr (stats k) "us.stripe.read";
            Sim.Stats.add (stats k) "us.stripe.read.pages" n
          end;
          (pages, eof)
        | Proto.R_err e -> err e "read %a pages %d+%d failed" Gfile.pp o.o_gf f cnt
        | _ -> err Proto.Eio "unexpected read response"
      end
    in
    List.iteri
      (fun i d ->
        let p = f + (i * w) in
        Cache.insert k.us_cache (cache_key o p) (Page.of_string d);
        if p >= !upto then upto := p + 1)
      pages;
    if f = first then demand := (pages, eof)
  in
  let shares =
    List.init w (fun j ->
        let f = first + ((j - (first mod w) + w) mod w) in
        if f >= first + count then None else Some (f, (first + count - f + w - 1) / w))
    |> List.filter_map Fun.id
  in
  Engine.parallel k.engine (List.map (fun share () -> fetch_share share) shares);
  let pages, eof = !demand in
  (pages, eof, !upto)

(* Keep a full window requested ahead of a sequential reader. The frontier
   is the first page no fetch has been issued for; a new batch goes out
   only when the reader has nearly caught up with it, so steady-state
   sequential reading issues one window-sized round per window of pages.
   A readahead failure is silent: the next demand fetch surfaces the error
   (and a striped open's degrade path handles it). *)
let schedule_window k o ~lpage =
  let npages = npages_of o in
  let next = lpage + 1 in
  if k.config.readahead && o.o_ra_frontier <= next && next < npages then begin
    let w = width o in
    let first = max next o.o_ra_frontier in
    let count = run_length k o ~from:first ~limit:(min (o.o_window * w) (npages - first)) in
    if count > 0 then begin
      o.o_inflight <- (first, count) :: o.o_inflight;
      o.o_ra_frontier <- first + count;
      Engine.schedule k.engine ~delay:0.01 (fun () ->
          o.o_inflight <- List.filter (fun r -> r <> (first, count)) o.o_inflight;
          (* A degrade since scheduling changed the page->owner map: the
             planned fan-out no longer applies. *)
          if (not o.o_closed) && k.alive && width o = w then begin
            (* A demand fetch may have overtaken us: re-scan and fetch only
               the still-missing tail of the scheduled range. *)
            let rec first_missing p =
              if p >= first + count then None
              else if Cache.mem k.us_cache (cache_key o p) then first_missing (p + 1)
              else Some p
            in
            match first_missing first with
            | None -> ()
            | Some p0 -> (
              match fetch_run k o ~first:p0 ~count:(first + count - p0) with
              | _ -> Sim.Stats.incr (stats k) "us.readahead"
              | exception Error _ -> ())
          end)
    end
  end

(* A read through the US buffers. A hit is trimmed to the open's size; a
   miss fetches a run of up to a window of pages from [lpage] and returns
   the demand page as the SS sent it. Unstriped, the SS's eof flag is the
   file's; a stripe owner's flag covers only its own stripe, so a striped
   miss judges eof by the open's size, as a hit does. Cache hits extend the
   window too, or sequential reads degrade to miss/hit/miss/hit once the
   readahead stream is one page deep. *)
let read_cached k o lpage ~sequential =
  if sequential then o.o_window <- min k.config.bulk_window (o.o_window * 2)
  else begin
    o.o_window <- 1;
    o.o_ra_frontier <- lpage + 1
  end;
  let w = width o in
  let size = o.o_info.Proto.i_size in
  let size_eof = (lpage + 1) * Page.size >= size in
  let ((_, eof) as result) =
    match Cache.find k.us_cache (cache_key o lpage) with
    | Some page ->
      Sim.Stats.incr (stats k) "cache.us.hit";
      let len = max 0 (min Page.size (size - (lpage * Page.size))) in
      (Page.sub page 0 len, size_eof)
    | None -> (
      Sim.Stats.incr (stats k) "cache.us.miss";
      let limit = min (o.o_window * w) (max 1 (npages_of o - lpage)) in
      let count = max 1 (run_length k o ~from:lpage ~limit) in
      let pages, eof, upto = fetch_run k o ~first:lpage ~count in
      if o.o_ra_frontier < upto then o.o_ra_frontier <- upto;
      match pages with
      | [] -> ("", true)
      | d :: rest -> (d, if w > 1 then size_eof else eof && rest = []))
  in
  if sequential && not eof then schedule_window k o ~lpage;
  result

(* Read one logical page through the kernel buffers (section 2.3.3).
   Unstriped local access and opens that bypass the US cache read the page
   directly; everything else goes through the read planner. *)
let rec read_page k o lpage =
  if o.o_closed then err Proto.Einval "read on closed file";
  (* Read-your-writes: anything buffered for write-behind must reach the
     SS shadow session before a page can be read back. *)
  if o.o_wb <> None then flush_wb k o;
  charge_cpu_page k;
  let sequential = lpage = o.o_last_lpage + 1 in
  o.o_last_lpage <- lpage;
  let read () =
    if cacheable k o && (striped o || not (Site.equal o.o_ss k.site)) then
      read_cached k o lpage ~sequential
    else fetch_page k o lpage
  in
  if not (striped o) then read ()
  else
    match read () with
    | result -> result
    | exception Error _ when o.o_mode <> Proto.Mode_modify && in_partition k o.o_ss ->
      (* A stripe peer failed but the primary is still up: retry classic. *)
      stripe_degrade k o;
      read_page k o lpage

(* Whole-body read, following the SS's eof indications. *)
let read_all k o =
  let buf = Buffer.create 1024 in
  let rec loop lpage =
    let data, eof = read_page k o lpage in
    Buffer.add_string buf data;
    if (not eof) && String.length data > 0 then loop (lpage + 1)
  in
  if o.o_info.Proto.i_size > 0 || Site.equal o.o_ss k.site then loop 0;
  Buffer.contents buf

(* One page of zeroes, shared by every sparse/short-page gap below: a gap
   never exceeds the page size, so [Buffer.add_substring] of this covers
   any gap without allocating a fresh string per hole. *)
let blank_page = String.make Page.size '\000'

(* Read up to [len] bytes starting at byte [off] (fd-style read). *)
let read_bytes k o ~off ~len =
  if len <= 0 then ""
  else begin
    let buf = Buffer.create len in
    let rec loop abs remaining =
      if remaining > 0 then begin
        let lpage = abs / Page.size in
        let poff = abs mod Page.size in
        let data, eof = read_page k o lpage in
        let avail = max 0 (String.length data - poff) in
        let take = min remaining avail in
        if take > 0 then Buffer.add_string buf (String.sub data poff take);
        if not eof then begin
          (* A short or sparse mid-file page reads as zeroes out to the page
             boundary; keep going into the next page rather than silently
             returning short data. *)
          let page_room = Page.size - poff in
          let gap = min (remaining - take) (page_room - avail) in
          if gap > 0 then Buffer.add_substring buf blank_page 0 gap;
          loop (abs + take + gap) (remaining - take - gap)
        end
      end
    in
    loop off len;
    Buffer.contents buf
  end

(* Write [data] at byte offset [off] through the write protocol: each
   affected page travels US -> SS once; whole-page changes need no read.
   With the bulk layer on, adjacent chunks coalesce into a write-behind
   run at the US and travel later as one [Write_pages] batch. *)
let write k o ~off data =
  if o.o_closed then err Proto.Einval "write on closed file";
  if o.o_mode <> Proto.Mode_modify then err Proto.Eaccess "file not open for modification";
  let len = String.length data in
  let write_behind () =
    (match o.o_wb with
    | Some run when run.wb_off + Buffer.length run.wb_buf = off ->
      Buffer.add_string run.wb_buf data
    | Some _ ->
      (* Non-adjacent write: push the old run out first, in order. *)
      flush_wb k o;
      start_wb_run k o ~off data
    | None -> start_wb_run k o ~off data);
    match o.o_wb with
    | Some run
      when (run.wb_off mod Page.size) + Buffer.length run.wb_buf
           >= k.config.bulk_window * Page.size ->
      flush_wb k o
    | _ -> ()
  in
  let send_chunk ~lpage ~poff chunk =
    let whole = poff = 0 && String.length chunk = Page.size in
    let site = page_site o lpage in
    let req =
      Proto.Write_page { gf = o.o_gf; lpage; whole; off = poff; data = chunk }
    in
    let resp =
      if Site.equal site k.site then begin
        charge k (latency k).Net.Latency.local_call;
        Ss.handle_write_page k ~src:k.site o.o_gf ~lpage ~whole ~off:poff ~data:chunk
      end
      else rpc k site req
    in
    expect_ok resp
  in
  let rec loop pos =
    if pos < len then begin
      let abs = off + pos in
      let lpage = abs / Page.size in
      let poff = abs mod Page.size in
      let n = min (Page.size - poff) (len - pos) in
      send_chunk ~lpage ~poff (String.sub data pos n);
      loop (pos + n)
    end
  in
  (* A striped write must route each page to its owner, so the contiguous
     write-behind run does not apply; pages travel singly as in the
     unbatched protocol. *)
  if len > 0 then if bulk_enabled k o && not (striped o) then write_behind () else loop 0;
  o.o_dirty <- true;
  if off + len > o.o_info.Proto.i_size then
    o.o_info <- { o.o_info with Proto.i_size = off + len }

let truncate k o size =
  if o.o_mode <> Proto.Mode_modify then err Proto.Eaccess "file not open for modification";
  (* Buffered writes precede the truncate in program order. *)
  if o.o_wb <> None then flush_wb k o;
  let truncate_at site =
    let resp =
      if Site.equal site k.site then Ss.handle_truncate k o.o_gf ~size
      else rpc k site (Proto.Truncate_req { gf = o.o_gf; size })
    in
    expect_ok resp
  in
  (* Every stripe session must agree on the size, so commit-time size
     reconciliation (the max of the session sizes) stays sound. *)
  (match o.o_stripes with
  | [] -> truncate_at o.o_ss
  | stripes -> List.iter truncate_at stripes);
  o.o_dirty <- true;
  if size < o.o_info.Proto.i_size then o.o_info <- { o.o_info with Proto.i_size = size }

let set_contents k o body =
  truncate k o 0;
  if String.length body > 0 then write k o ~off:0 body;
  o.o_dirty <- true

(* Commit or abort the modifications of this open (section 2.3.6). *)
let commit_gen k o ~abort ~delete =
  (* The write-behind run is part of what commits: flush it into the SS
     shadow session first. Aborting just drops it. *)
  if abort then o.o_wb <- None else if o.o_wb <> None then flush_wb k o;
  let resp =
    match o.o_stripes with
    | (primary :: _) as stripes when o.o_mode = Proto.Mode_modify ->
      (* Striped commit goes to the primary, which collects each peer's
         session pages, folds them into one complete shadow copy, and
         runs the classic atomic commit on it. *)
      if Site.equal primary k.site then
        Ss.handle_commit ~stripes k o.o_gf ~abort ~delete
      else
        rpc k primary
          (Proto.Commit_req
             { gf = o.o_gf; us = k.site; abort; delete; force_vv = None; stripes })
    | _ ->
      if Site.equal o.o_ss k.site then
        Ss.handle_commit k o.o_gf ~abort ~delete
      else
        rpc k o.o_ss
          (Proto.Commit_req
             { gf = o.o_gf; us = k.site; abort; delete; force_vv = None; stripes = [] })
  in
  match resp with
  | Proto.R_committed { vv } ->
    o.o_dirty <- false;
    if not (Vvec.equal vv Vvec.zero) then o.o_info <- { o.o_info with Proto.i_vv = vv };
    vv
  | Proto.R_err e -> err e "commit failed"
  | _ -> err Proto.Eio "unexpected commit response"

let commit k o = ignore (commit_gen k o ~abort:false ~delete:false)

let abort k o = ignore (commit_gen k o ~abort:true ~delete:false)

(* Send the one batched close a dead lease owes: the [Us_close] the cold
   open deferred. Installed as [Openlease.on_dead] by [Kernel.create], so
   breaks arriving through dispatch, eviction or recovery all route here. *)
let lease_send_close k (e : Openlease.entry) =
  if k.alive then begin
    record k ~tag:"us.lease.close" "%a" Gfile.pp e.Openlease.le_gf;
    if Site.equal e.Openlease.le_ss k.site then
      (try
         ignore
           (Ss.handle_us_close k ~src:k.site e.Openlease.le_gf ~mode:e.Openlease.le_mode)
       with Error _ -> ())
    else
      (* Hand off with background retry; a persistently unreachable SS is
         handled by reconfiguration cleanup. *)
      try
        ignore
          (send_close k e.Openlease.le_ss
             (Proto.Us_close { gf = e.Openlease.le_gf; mode = e.Openlease.le_mode }))
      with Error _ -> ()
  end

(* One local open stops riding the lease. If the lease already died while
   it was open, the last rider out sends the deferred close. *)
let lease_drop_rider k (e : Openlease.entry) =
  e.Openlease.le_active <- e.Openlease.le_active - 1;
  if e.Openlease.le_broken && e.Openlease.le_active <= 0 then lease_send_close k e

(* Close: flush (commit) any modification, then run the close protocol
   US -> SS -> CSS (section 2.3.3). A lease-backed read open defers the
   protocol instead: the SS keeps serving this US, and the [Us_close] /
   [Ss_close] pair travels once, when the lease dies. *)
let close k o =
  if not o.o_closed then begin
    if o.o_dirty then commit k o;
    o.o_closed <- true;
    Hashtbl.remove k.open_files (o.o_gf, o.o_serial);
    (match o.o_lease with
    | Some e ->
      if not e.Openlease.le_broken then Sim.Stats.incr (stats k) "open.lease.defer";
      lease_drop_rider k e
    | None ->
      let close_at site =
        let resp =
          if Site.equal site k.site then
            (try Ss.handle_us_close k ~src:k.site o.o_gf ~mode:o.o_mode
             with Error _ -> Proto.R_ok)
          else
            match send_close k site (Proto.Us_close { gf = o.o_gf; mode = o.o_mode }) with
            | Some resp -> resp
            | None -> Proto.R_ok
            (* Handed off: either the close ran with its reply lost, or it
               is parked for background retry; a close that can never reach
               the SS is handled by cleanup when the membership change is
               observed. *)
        in
        match resp with Proto.R_ok | Proto.R_err _ -> () | _ -> ()
      in
      (match o.o_stripes with
      | (_ :: _) as stripes when o.o_mode = Proto.Mode_modify ->
        (* Every stripe site registered this open at the poll; each gets
           its [Us_close], and the CSS treats the resulting [Ss_close]
           volley idempotently. *)
        List.iter close_at stripes
      | _ -> close_at o.o_ss));
    (* Without retention the buffered pages die with the open; with it they
       stay, version-keyed, so a re-open of the same version hits warm. *)
    if not k.config.cache_retention then
      Cache.invalidate_if ~notify:false k.us_cache (fun (g, _, _) -> Gfile.equal g o.o_gf);
    record k ~tag:"us.close" "%a" Gfile.pp o.o_gf
  end

(* Delete the file body: mark the inode deleted and commit (section 2.3.7). *)
let delete_file k o = ignore (commit_gen k o ~abort:false ~delete:true)

(* Best-effort release of [o] after a failed operation: drop uncommitted
   modification state, abort any shadow session, run the close protocol —
   and never raise, so the original error propagates. Error paths that
   skip the release leak the open forever: nothing else ever closes it,
   so the SS keeps its serving registration (and any shadow session and
   its shadow pages) until the site dies. *)
let release k o =
  if not o.o_closed then begin
    o.o_wb <- None;
    if o.o_dirty then
      (try ignore (commit_gen k o ~abort:true ~delete:false) with Error _ -> ());
    (* Whether or not the abort reached the SS, this open must not try to
       commit on close. *)
    o.o_dirty <- false;
    try close k o with Error _ -> ()
  end

let stat_gf k gf =
  (* Prefer the local copy; otherwise ask the CSS's believed-latest site. *)
  match local_pack k gf.Gfile.fg with
  | Some pack when Pack.stores pack gf.Gfile.ino ->
    Proto.info_of_inode (Pack.get_inode pack gf.Gfile.ino)
  | Some _ | None -> (
    let fi = fg_info k gf.Gfile.fg in
    match rpc k fi.css_site (Proto.Where_stored { gf }) with
    | Proto.R_where { sites; _ } -> (
      let reachable = List.filter (fun s -> in_partition k s) sites in
      match reachable with
      | [] -> err Proto.Enet "no reachable copy of %a" Gfile.pp gf
      | _ :: _ ->
        (* The CSS's storing-site list can be momentarily stale, and any
           one site can be newly unreachable: fall through the remaining
           candidates rather than failing on the first. *)
        let rec try_sites = function
          | [] -> err Proto.Enoent "stat %a: no reachable copy answered" Gfile.pp gf
          | s :: rest -> (
            match rpc_result k s (Proto.Stat_req { gf }) with
            | Ok (Proto.R_stat { info = Some info; _ }) -> info
            | Ok (Proto.R_stat { info = None; _ })
            | Ok (Proto.R_err _)
            | Stdlib.Error _ ->
              try_sites rest
            | Ok _ -> err Proto.Eio "unexpected stat response")
        in
        try_sites reachable)
    | Proto.R_err e -> err e "stat: CSS lookup failed"
    | _ -> err Proto.Eio "unexpected where response")
