(* Current Synchronization Site logic (section 2.3.1).

   All open requests for a filegroup's files flow through its CSS, which
   enforces the global synchronization policy (single open-for-modification,
   any number of readers), knows which sites store each file and what the
   most current version vector is, and selects the storage site that will
   serve each open. *)

open Ktypes
module Inode = Storage.Inode
module Pack = Storage.Pack

let fg_state k fg =
  match Hashtbl.find_opt k.css_state fg with
  | Some s -> s
  | None ->
    let s = { css_files = Hashtbl.create (max 16 k.config.table_size_hint) } in
    Hashtbl.add k.css_state fg s;
    s

let is_css k fg = Hashtbl.mem k.css_state fg || (fg_info k fg).css_site = k.site

let new_file_state () =
  {
    latest_vv = Vvec.zero;
    site_vv = Site.Map.empty;
    readers = Site.Map.empty;
    writer = None;
    writer_ss = None;
    css_deleted = false;
    css_conflict = false;
    leases = Site.Set.empty;
    stripes = [];
  }

let find_file k fg ino = Hashtbl.find_opt (fg_state k fg).css_files ino

let get_file k fg ino =
  let st = fg_state k fg in
  match Hashtbl.find_opt st.css_files ino with
  | Some f -> f
  | None ->
    let f = new_file_state () in
    (* Seed from the local pack if this CSS stores the file itself. *)
    (match local_pack k fg with
    | Some pack -> (
      match Pack.find_inode pack ino with
      | Some inode ->
        f.latest_vv <- inode.Inode.vv;
        f.site_vv <- Site.Map.add k.site inode.Inode.vv f.site_vv;
        f.css_deleted <- inode.Inode.deleted
      | None -> ())
    | None -> ());
    Hashtbl.add st.css_files ino f;
    f

(* Update the record of which version [site] stores. Notifications can be
   delivered out of order, so the per-site record only moves forward. *)
let update_site_vv f ~site ~vv =
  let keep_old =
    match Site.Map.find_opt site f.site_vv with
    | Some prev -> Vvec.dominates_or_equal prev vv && not (Vvec.equal prev vv)
    | None -> false
  in
  if not keep_old then f.site_vv <- Site.Map.add site vv f.site_vv

(* Record (at CSS creation or after a merge) that [site] stores version
   [vv] of the file. *)
let seed_copy k gf ~site ~vv ~deleted =
  let f = get_file k gf.Gfile.fg gf.Gfile.ino in
  update_site_vv f ~site ~vv;
  if Vvec.conflict vv f.latest_vv then f.css_conflict <- true
  else if not (Vvec.dominates_or_equal f.latest_vv vv) then f.latest_vv <- vv;
  if deleted then f.css_deleted <- true

let sites_with_latest k f =
  Site.Map.fold
    (fun site vv acc ->
      if Vvec.dominates_or_equal vv f.latest_vv && in_partition k site then site :: acc
      else acc)
    f.site_vv []
  |> List.sort Site.compare

(* Ask a candidate site whether it will act as SS. The version check — a
   site refuses if it does not store the latest version — happens at the
   candidate against the vv we send (section 2.3.3). *)
let poll_storage_site k ~gf ~vv ~us ~mode ~others candidate =
  match
    rpc_result k candidate (Proto.Storage_req { gf; vv; us; mode; others })
  with
  | Ok (Proto.R_storage { accept = true; info = Some info; slot }) -> Some (info, slot)
  | Ok (Proto.R_storage _ | Proto.R_err _) -> None
  | Ok _ -> None
  | Stdlib.Error _ -> None

let local_info k gf =
  match local_pack k gf.Gfile.fg with
  | None -> None
  | Some pack ->
    Pack.find_inode pack gf.Gfile.ino |> Option.map Proto.info_of_inode

let pp_stripes ppf = function
  | [] -> ()
  | stripes -> Format.fprintf ppf " stripes [%a]" Site.pp_list stripes

(* Break every outstanding read lease on a file by callback: a writer
   opened, the version advanced, a conflict or delete was recorded. Each
   holder drops its retained grant and sends its deferred close, which is
   what eventually uncounts it as a reader; losses are silent — a stale
   entry is caught by the version-keyed page cache and self-cleans at the
   next break or eviction. *)
let break_leases k gf (f : css_file) =
  if not (Site.Set.is_empty f.leases) then begin
    let holders = Site.Set.elements f.leases in
    f.leases <- Site.Set.empty;
    record k ~tag:"css.lease.break"
      "%a -> [%a]" Gfile.pp gf Site.pp_list holders;
    List.iter
      (fun h ->
        if Site.equal h k.site then
          (* Collocated holder: direct procedure call (section 2.3.2). *)
          ignore (k.dispatch k.site (Proto.Lease_break { gf }))
        else notify k h (Proto.Lease_break { gf }))
      holders
  end

let lease_config_on k = k.config.open_lease_entries > 0

let count_reader f us =
  let n = match Site.Map.find_opt us f.readers with Some n -> n | None -> 0 in
  f.readers <- Site.Map.add us (n + 1) f.readers

let uncount_reader f us =
  match Site.Map.find_opt us f.readers with
  | None -> ()
  | Some 1 -> f.readers <- Site.Map.remove us f.readers
  | Some n -> f.readers <- Site.Map.add us (n - 1) f.readers

(* The CSS half of the open protocol. Returns R_open { ss; info } or an
   error. Implements both optimizations of section 2.3.3: the US's own copy
   is used when it is current, and the CSS picks itself without message
   overhead when it stores the latest version. *)
let handle_open k ~src gf mode ~shared us_vv =
  let fg = gf.Gfile.fg and ino = gf.Gfile.ino in
  if not (is_css k fg) then Proto.R_err Proto.Estale
  else begin
    let f = get_file k fg ino in
    if f.css_deleted then Proto.R_err Proto.Enoent
    else if f.css_conflict && mode <> Proto.Mode_internal then
      Proto.R_err Proto.Econflict
    else if Site.Map.is_empty f.site_vv then Proto.R_err Proto.Enoent
    else begin
      match mode with
      | _ when f.stripes <> [] && f.writer <> None ->
        (* A striped modification session is in flight: its fresh pages
           are scattered over per-stripe shadow sessions, so no other
           open (read or shared) can be served coherently by any single
           site until the writer commits. Classic (stripe_width = 1)
           runs never pin a map and never take this branch. *)
        Proto.R_err Proto.Ebusy
      | Proto.Mode_modify when f.writer <> None && not shared -> Proto.R_err Proto.Ebusy
      | Proto.Mode_read | Proto.Mode_internal | Proto.Mode_modify ->
        let candidates = sites_with_latest k f in
        if candidates = [] then Proto.R_err Proto.Enet
        else begin
          let others ss = List.filter (fun s -> not (Site.equal s ss)) candidates in
          let poll ss =
            poll_storage_site k ~gf ~vv:f.latest_vv ~us:src ~mode
              ~others:(others ss) ss
            |> Option.map (fun (info, slot) -> (ss, info, slot))
          in
          let us_is_current =
            match us_vv with
            | Some vv -> Vvec.dominates_or_equal vv f.latest_vv
            | None -> false
          in
          (* Dummy descriptor returned when the US serves itself: the US
             already holds the real disk inode and ignores this field. *)
          let own_inode vv =
            {
              Proto.i_ftype = Inode.Regular;
              i_size = 0;
              i_nlink = 1;
              i_owner = "";
              i_perms = 0o644;
              i_mtime = 0.0;
              i_vv = vv;
              i_deleted = false;
              i_stripes = [];
            }
          in
          (* Optimization 2 of section 2.3.3: the CSS stores the latest
             version itself — select it with no message overhead,
             registering the serving state a Storage_req would have. *)
          let css_self () =
            match local_info k gf with
            | Some info
              when List.mem k.site candidates
                   && Vvec.dominates_or_equal info.Proto.i_vv f.latest_vv ->
              let s = ss_get_open k gf in
              ss_add_us s src;
              s.s_others <- others k.site;
              Some (k.site, info, s.s_slot)
            | Some _ | None -> None
          in
          (* Every choice records whether serving state for this open
             already exists at the chosen SS (storage poll or CSS-local
             registration). Only the US-is-current shortcut skips the
             registration — the US creates it on receipt; without the
             distinction the US double-registers a polled self-serve open
             and one close can never balance two registrations. *)
          let reg (ss, info, slot) = (ss, info, slot, true) in
          let classic_choice () =
            (* While a writer is active only one storage site may be
               involved (section 2.3.6 footnote): every open is directed to
               writer_ss. *)
            match f.writer_ss with
            | Some ss when List.mem ss candidates -> Option.map reg (poll ss)
            | Some _ | None ->
              if us_is_current then
                (* Optimization 1: the US stores the latest version; pick it
                   with no storage poll. *)
                Some (src, own_inode (Option.get us_vv), 0, false)
              else begin
                match css_self () with
                | Some x -> Some (reg x)
                | None ->
                  let rec try_sites = function
                    | [] -> None
                    | c :: rest -> (
                      match poll c with Some x -> Some x | None -> try_sites rest)
                  in
                  Option.map reg (try_sites candidates)
              end
          in
          (* Stripe only a solitary open: a modify session fans its pages
             over per-stripe shadow sessions, and a striped read wants an
             undisturbed whole-version copy at every stripe site, so any
             concurrent sharing falls back to the classic single-SS
             protocol. stripe_width = 1 disables the machinery. *)
          let stripes_granted =
            if k.config.stripe_width <= 1 || shared then []
            else
              match mode with
              | Proto.Mode_internal -> []
              | Proto.Mode_read ->
                if f.writer = None && f.writer_ss = None && not us_is_current then
                  stripe_map ~width:k.config.stripe_width ~ino candidates
                else []
              | Proto.Mode_modify ->
                if f.writer = None && f.writer_ss = None && Site.Map.is_empty f.readers
                then stripe_map ~width:k.config.stripe_width ~ino candidates
                else []
          in
          let choice, stripes =
            match stripes_granted with
            | [] -> (classic_choice (), [])
            | primary :: peers -> (
              match mode with
              | Proto.Mode_modify -> (
                (* Poll every stripe site: each opens serving state and
                   registers the US, so a site failure mid-write can abort
                   the orphaned per-stripe sessions. (If a poll fails after
                   earlier ones succeeded, the leftover registrations are
                   harmless serving state, swept on close or failure.) *)
                let prim =
                  if Site.equal primary k.site then css_self () else poll primary
                in
                match prim with
                | Some x when List.for_all (fun p -> poll p <> None) peers ->
                  (Some (reg x), stripes_granted)
                | Some _ | None -> (classic_choice (), []))
              | Proto.Mode_read | Proto.Mode_internal -> (
                (* Only the primary is polled and registered: peers serve
                   strided reads statelessly from their packs, so a striped
                   read open costs the same messages as a classic one. *)
                let prim =
                  if Site.equal primary k.site then css_self () else poll primary
                in
                match prim with
                | Some x -> (Some (reg x), stripes_granted)
                | None -> (classic_choice (), [])))
          in
          match choice with
          | None -> Proto.R_err Proto.Enet
          | Some (ss, info, slot, registered) ->
            let lease =
              (* Grant a revocable read lease when nothing threatens the
                 version the grant names: no writer, no conflict, not a
                 shared-descriptor open (the offset token serializes
                 those; their opens must revalidate). *)
              match mode with
              | Proto.Mode_read | Proto.Mode_internal ->
                lease_config_on k && (not shared) && f.writer = None
                && not f.css_conflict
              | Proto.Mode_modify -> false
            in
            (match mode with
            | Proto.Mode_modify ->
              if f.writer = None then f.writer <- Some src;
              f.writer_ss <- Some ss;
              (* Pin the stripe map while the session lives, so the CSS
                 can refuse opens it could not serve coherently. *)
              f.stripes <- stripes;
              (* A writer exists: no outstanding lease may keep serving
                 zero-message re-opens of the now-mutable file. *)
              break_leases k gf f
            | Proto.Mode_read | Proto.Mode_internal ->
              count_reader f src;
              if lease then f.leases <- Site.Set.add src f.leases);
            record k ~tag:"css.open" "%a %a by %a -> ss %a%a" Gfile.pp gf Proto.pp_mode
              mode Site.pp src Site.pp ss pp_stripes stripes;
            Proto.R_open
              {
                ss;
                info = { info with Proto.i_stripes = stripes };
                others = others ss;
                nocache = f.writer <> None;
                slot;
                lease;
                registered;
              }
        end
    end
  end

(* SS -> CSS leg of the close protocol. *)
let handle_ss_close k gf ~us ~mode =
  let fg = gf.Gfile.fg in
  if not (is_css k fg) then Proto.R_err Proto.Estale
  else begin
    match find_file k fg gf.Gfile.ino with
    | None -> Proto.R_ok
    | Some f ->
      (match mode with
      | Proto.Mode_modify ->
        if f.writer = Some us then begin
          f.writer <- None;
          (* A striped writer's close arrives once per stripe site; the
             first Ss_close unpins, the rest are no-ops. *)
          f.stripes <- [];
          if Site.Map.is_empty f.readers then f.writer_ss <- None
        end
      | Proto.Mode_read | Proto.Mode_internal ->
        uncount_reader f us;
        if Site.Map.is_empty f.readers && f.writer = None then f.writer_ss <- None);
      Proto.R_ok
  end

(* Reclaim check: once every storing site has seen a delete, tell them all
   to release the inode number for reallocation (section 2.3.7). *)
let maybe_reclaim k gf f =
  if f.css_deleted then begin
    let all_seen =
      Site.Map.for_all (fun _ vv -> Vvec.dominates_or_equal vv f.latest_vv) f.site_vv
    in
    let all_reachable =
      Site.Map.for_all (fun site _ -> in_partition k site) f.site_vv
    in
    if all_seen && all_reachable then begin
      Site.Map.iter (fun site _ -> notify k site (Proto.Reclaim_req { gf })) f.site_vv;
      Hashtbl.remove (fg_state k gf.Gfile.fg).css_files gf.Gfile.ino;
      record k ~tag:"css.reclaim" "%a" Gfile.pp gf
    end
  end

(* Commit notification bookkeeping at the CSS. *)
let handle_commit_notify ?(replicas = []) k gf ~origin ~vv ~deleted =
  if is_css k gf.Gfile.fg then begin
    let f = get_file k gf.Gfile.fg gf.Gfile.ino in
    update_site_vv f ~site:origin ~vv;
    (* Designated initial storage sites count as (stale) copy holders
       right away, so replication factors are honoured even before their
       background pulls complete. *)
    List.iter
      (fun r ->
        if not (Site.Map.mem r f.site_vv) then
          f.site_vv <- Site.Map.add r Vvec.zero f.site_vv)
      replicas;
    let advanced = not (Vvec.dominates_or_equal f.latest_vv vv) in
    if Vvec.conflict vv f.latest_vv then f.css_conflict <- true
    else if advanced then f.latest_vv <- vv;
    if deleted then f.css_deleted <- true;
    (* A new latest version, a conflict, or a delete: every lease granted
       on the superseded version is dead — break by callback before any
       holder can serve another zero-message re-open of stale state. *)
    if advanced || f.css_conflict || deleted then break_leases k gf f;
    maybe_reclaim k gf f
  end

let handle_where k gf =
  match find_file k gf.Gfile.fg gf.Gfile.ino with
  | None -> Proto.R_err Proto.Enoent
  | Some f ->
    let sites = sites_with_latest k f in
    let all_sites = List.map fst (Site.Map.bindings f.site_vv) in
    Proto.R_where { sites; all_sites; vv = f.latest_vv }

(* Lock-table contents for a rebuilding CSS (section 5.6). *)
let handle_open_files_query k fg =
  let files = ref [] in
  Hashtbl.iter
    (fun (gf, _serial) (o : ofile) ->
      if Int.equal gf.Gfile.fg fg && not o.o_closed then
        files := (gf.Gfile.ino, o.o_mode, k.site) :: !files)
    k.open_files;
  Proto.R_open_files { files = !files }

(* Clear synchronization state owned by a site that left the partition: the
   cleanup procedure's lock-table scrub (section 5.6). *)
let drop_site k dead =
  Hashtbl.iter
    (fun _fg st ->
      Hashtbl.iter
        (fun _ino f ->
          if f.writer = Some dead then begin
            f.writer <- None;
            f.writer_ss <- None;
            f.stripes <- []
          end;
          (* A stripe site left mid-session: the scattered session can
             never commit coherently, so unpin; the writer's own site
             failure handling aborts its side. *)
          if List.exists (Site.equal dead) f.stripes then f.stripes <- [];
          f.readers <- Site.Map.remove dead f.readers;
          (* A lease must never survive a partition event (the holders
             scrub their own side; no callback can reach a departed
             site). *)
          f.leases <- Site.Set.remove dead f.leases)
        st.css_files)
    k.css_state

(* Re-register an open reported by a member site during lock-table rebuild
   (section 5.6). *)
let register_open k fg (ino, mode, site) =
  let f = get_file k fg ino in
  match mode with
  | Proto.Mode_modify -> if f.writer = None then f.writer <- Some site
  | Proto.Mode_read | Proto.Mode_internal -> count_reader f site

(* Drop all CSS state for a filegroup (this site lost the CSS role). *)
let drop_fg k fg = Hashtbl.remove k.css_state fg

let mark_conflict k gf =
  let f = get_file k gf.Gfile.fg gf.Gfile.ino in
  f.css_conflict <- true;
  break_leases k gf f

let clear_conflict k gf =
  match find_file k gf.Gfile.fg gf.Gfile.ino with
  | Some f -> f.css_conflict <- false
  | None -> ()
