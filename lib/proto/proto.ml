(* Kernel-to-kernel protocol vocabulary.

   These are the lowest-level protocols in the system: single
   request/response exchanges with no layered acknowledgements (section
   2.3.3 of the paper). Each constructor corresponds to one message of the
   paper's open / read / write / commit / close / create protocols, the
   remote-process machinery (section 3), or the reconfiguration protocols
   (section 5). [req_bytes] and [resp_bytes] give the wire-size model used
   for latency charging and byte accounting. *)

module Vvec = Vv.Version_vector

type open_mode =
  | Mode_read          (* normal synchronized read *)
  | Mode_modify        (* open for update *)
  | Mode_internal      (* unsynchronized internal read, pathname searching *)

let pp_mode ppf m =
  Format.pp_print_string ppf
    (match m with
    | Mode_read -> "read"
    | Mode_modify -> "modify"
    | Mode_internal -> "internal")

(* Typed failures reflected across machine boundaries. *)
type errno =
  | Enoent        (* no such file or directory *)
  | Enotdir
  | Eisdir
  | Eexist
  | Eaccess
  | Ebusy         (* synchronization policy refused the open *)
  | Estale        (* version no longer latest / file replaced *)
  | Econflict     (* copies in version-vector conflict; access blocked *)
  | Enospc
  | Eio
  | Enet          (* partition or site failure mid-operation *)
  | Esrch         (* no such process *)
  | Edeadtoken    (* token holder unreachable *)
  | Einval

let errno_to_string = function
  | Enoent -> "ENOENT"
  | Enotdir -> "ENOTDIR"
  | Eisdir -> "EISDIR"
  | Eexist -> "EEXIST"
  | Eaccess -> "EACCES"
  | Ebusy -> "EBUSY"
  | Estale -> "ESTALE"
  | Econflict -> "ECONFLICT"
  | Enospc -> "ENOSPC"
  | Eio -> "EIO"
  | Enet -> "ENET"
  | Esrch -> "ESRCH"
  | Edeadtoken -> "EDEADTOKEN"
  | Einval -> "EINVAL"

let pp_errno ppf e = Format.pp_print_string ppf (errno_to_string e)

(* Disk-inode information shipped in open/stat responses: "all the disk
   inode information (eg. file size, ownership, permissions) is obtained
   from the CSS response" (section 2.3.3). *)
type inode_info = {
  i_ftype : Storage.Inode.ftype;
  i_size : int;
  i_nlink : int;
  i_owner : string;
  i_perms : int;
  i_mtime : float;
  i_vv : Vvec.t;
  i_deleted : bool;
  i_stripes : Net.Site.t list;
  (* stripe map assigned by the CSS at open time: logical page p is
     served by stripes.(p mod width). [] = unstriped (classic single-SS
     service) and costs zero wire bytes, keeping stripe_width = 1
     byte-identical to the classic protocol. *)
}

let info_of_inode (i : Storage.Inode.t) =
  {
    i_ftype = i.Storage.Inode.ftype;
    i_size = i.size;
    i_nlink = i.nlink;
    i_owner = i.owner;
    i_perms = i.perms;
    i_mtime = i.mtime;
    i_vv = i.vv;
    i_deleted = i.deleted;
    i_stripes = [];
  }

type token_key =
  | Tok_fd of int * int (* shared file-descriptor offset: origin site, serial *)

let pp_token ppf = function
  | Tok_fd (s, n) -> Format.fprintf ppf "fd-token(%d.%d)" s n

(* One shared open file descriptor carried to a forked child (section 3.1):
   the parent and child share the descriptor, with a token deciding which
   site's copy of the file position is valid. *)
type fd_desc = {
  d_num : int;                 (* descriptor number in the process *)
  d_key : int * int;           (* shared-descriptor identity: origin site, serial *)
  d_gf : Catalog.Gfile.t;
  d_mode : open_mode;
}

(* Environment needed to initialize a remote process (section 3.1). *)
type process_env = {
  e_uid : string;
  e_cwd : Catalog.Gfile.t;
  e_context : string list;       (* hidden-directory context, e.g. ["vax"] *)
  e_ncopies : int;               (* inherited default replication factor *)
  e_fds : fd_desc list;
}

(* One directory-search step performed server-side by a partial-pathname
   lookup (the remedy named in section 2.3.4): which directory was
   searched, at which version, and which gfile the component named. The
   using site turns each step into a name-cache entry. *)
type lookup_step = {
  l_dir : Catalog.Gfile.t;
  l_vv : Vvec.t; (* the directory's version vector at search time *)
  l_child : Catalog.Gfile.t;
  l_ftype : Storage.Inode.ftype option; (* child's type, when stored at the SS *)
}

type req =
  (* --- open protocol (Figure 2) --- *)
  | Open_req of {
      gf : Catalog.Gfile.t;
      mode : open_mode;
      us_vv : Vvec.t option;
      shared : bool;
        (* join an existing open through a shared descriptor (fork):
           exempt from the single-writer policy, serialized by the token *)
    } (* US -> CSS: open request; carries the US's copy version if it stores one *)
  | Storage_req of {
      gf : Catalog.Gfile.t;
      vv : Vvec.t;
      us : Net.Site.t;
      mode : open_mode;
      others : Net.Site.t list;
        (* the other sites storing the file, so that the SS can send its
           commit notifications directly to them (section 2.3.6) *)
    } (* CSS -> candidate SS: will you serve this open at this version? *)
  (* --- data transfer --- *)
  | Read_page of { gf : Catalog.Gfile.t; lpage : int; guess : int }
    (* US -> SS; [guess] is the hint for locating the incore inode *)
  | Read_pages of { gf : Catalog.Gfile.t; first : int; count : int; guess : int; stride : int }
    (* US -> SS: up to [count] pages starting at [first], every [stride]-th
       logical page, in one round trip — the bulk-transfer read protocol.
       [stride] = 1 is the classic consecutive window; a striped US sends
       stride = width to each stripe SS so each serves only its own pages. *)
  | Write_page of { gf : Catalog.Gfile.t; lpage : int; whole : bool; off : int; data : string }
    (* US -> SS: one logical page of modification (whole page or patch) *)
  | Write_pages of { gf : Catalog.Gfile.t; first : int; off : int; data : string }
    (* US -> SS: one contiguous run of modified bytes starting at byte
       [off] within page [first], possibly spanning several pages — a
       coalesced write-behind batch. Absolute positioning keeps the
       request idempotent. *)
  | Truncate_req of { gf : Catalog.Gfile.t; size : int }
    (* US -> SS: shrink the open modification session's file *)
  | Commit_req of {
      gf : Catalog.Gfile.t;
      us : Net.Site.t;
      abort : bool;
      delete : bool;
      force_vv : Vvec.t option;
        (* recovery only: install this exact version vector (the pointwise
           maximum of the merged copies, bumped at the merge site) instead
           of bumping the local one *)
      stripes : Net.Site.t list;
        (* striped session: the peer stripe sites the primary SS must
           collect modified pages from before committing, so every
           committed copy is complete under one version bump. [] (classic)
           costs zero wire bytes. *)
    } (* US -> SS: commit (or abort) the open modification session; [delete]
         marks the inode deleted before committing (section 2.3.7) *)
  | Stripe_collect of { gf : Catalog.Gfile.t }
    (* primary SS -> peer stripe SS at commit: hand over your session's
       modified pages and size, then abort your session; the primary
       folds them into its shadow session and commits classically *)
  (* --- close protocol (3 messages; see the race note in section 2.3.3) --- *)
  | Us_close of { gf : Catalog.Gfile.t; mode : open_mode }
  | Ss_close of { gf : Catalog.Gfile.t; ss : Net.Site.t; us : Net.Site.t; mode : open_mode }
  (* --- commit notification and propagation (section 2.3.6) --- *)
  | Commit_notify of {
      gf : Catalog.Gfile.t;
      vv : Vvec.t;
      meta_only : bool;
      modified : int list; (* modified logical pages; [] with meta_only=false means "all" *)
      origin : Net.Site.t;
      fresh : bool; (* a new commit (propagate me) vs. a completed propagation *)
      deleted : bool;
      designate : bool;
        (* create-time designation: pull a first copy even though this
           site does not store the file yet (section 2.3.7) *)
      replicas : Net.Site.t list;
        (* create -> CSS only: the designated initial storage sites, so
           the CSS records them as (stale) copy holders immediately *)
    }
  | Reclaim_req of { gf : Catalog.Gfile.t }
    (* CSS -> SS: every storage site has seen the delete; the inode number
       can be reallocated (section 2.3.7) *)
  | Page_invalidate of { gf : Catalog.Gfile.t; lpage : int }
    (* SS -> other USs it serves: your buffered copy of this page is no
       longer valid (the page-valid tokens of section 3.2) *)
  | Lease_break of { gf : Catalog.Gfile.t }
    (* CSS -> lease-holding US: the read lease granted on this file is
       revoked (a writer opened, a new version committed, a conflict or
       delete was recorded, or the partition changed). The holder drops
       its retained open grant and sends any deferred close. *)
  (* --- create / delete (section 2.3.7) --- *)
  | Create_req of {
      fg : int;
      ftype : Storage.Inode.ftype;
      owner : string;
      perms : int;
      replicate_at : Net.Site.t list; (* the other initial storage sites *)
    } (* US -> chosen SS; a placeholder travels instead of an inode number *)
  (* --- interrogation --- *)
  | Link_count of { gf : Catalog.Gfile.t; delta : int }
    (* US -> SS: adjust the link count (metadata-only commit) *)
  | Set_attr of { gf : Catalog.Gfile.t; perms : int option; owner : string option }
    (* US -> SS: chmod/chown; a metadata-only commit (section 2.3.6's
       "just inode information changed" case) *)
  | Stat_req of { gf : Catalog.Gfile.t }
  | Where_stored of { gf : Catalog.Gfile.t } (* CSS bookkeeping query *)
  | Lookup_req of { gf : Catalog.Gfile.t; comps : string list }
    (* US -> SS: walk as many of the remaining pathname components from
       [gf] as this site stores, in one round trip (section 2.3.4) *)
  (* --- tokens (section 3.2) --- *)
  | Token_req of { key : token_key; for_site : Net.Site.t }
  | Token_state_req of { key : token_key } (* fetch guarded state with the token *)
  (* --- remote processes (section 3) --- *)
  | Fork_req of { child_pid : int; env : process_env; image_pages : int; parent : int * Net.Site.t }
  | Exec_req of { pid : int; path : string; env : process_env; image_pages : int; parent : int * Net.Site.t }
  | Run_req of {
      child_pid : int;
      path : string;
      env : process_env;
      parent : int * Net.Site.t;
      context_override : string list option;
        (* caller-specified hidden-directory context, applied after exec *)
    }
  | Signal_req of { pid : int; signo : int }
  | Exit_notify of { pid : int; status : int; child_site : Net.Site.t }
  (* --- reconfiguration (section 5) --- *)
  | Part_poll of { initiator : Net.Site.t; pset : Net.Site.t list }
    (* partition protocol poll: here is my partition set; send me yours *)
  | Part_announce of { active : Net.Site.t; members : Net.Site.t list }
  | Merge_poll of { initiator : Net.Site.t }
  | Merge_announce of { members : Net.Site.t list; css_map : (int * Net.Site.t) list }
  | Status_check of { asker : Net.Site.t }
    (* protocol-synchronization probe of section 5.7 *)
  | Open_files_query of { fg : int }
    (* new CSS rebuilding its lock table after reconfiguration (section 5.6) *)
  | Pack_inventory of { fg : int }
    (* recovery: which inodes does your pack store, at which versions? *)
  | Pipe_write of { gf : Catalog.Gfile.t; data : string }
  | Pipe_read of { gf : Catalog.Gfile.t; max : int }

type resp =
  | R_ok
  | R_err of errno
  | R_open of {
      ss : Net.Site.t;
      info : inode_info;
      others : Net.Site.t list;
      nocache : bool; (* a writer is active: using sites must not buffer pages *)
      slot : int;     (* the SS's incore-inode slot: the US's read guess *)
      lease : bool;
        (* the CSS granted a revocable read lease on (gf, vv): the US may
           retain the whole grant across close and re-open with no
           messages until a [Lease_break] arrives. Packs into the same
           flag byte as [nocache], so the wire size is unchanged and the
           [open_lease_entries = 0] ablation is byte-identical. *)
      registered : bool;
        (* the serving state at [ss] already counts this open (the CSS
           polled it with [Storage_req], or registered it locally as
           CSS = SS). False only on the US-is-current shortcut, where the
           CSS names the US itself without a poll: the US must then create
           its own serving registration. Packs into the flag byte. *)
    }
  | R_storage of { accept : bool; info : inode_info option; slot : int }
  | R_page of { data : string; eof : bool }
  | R_pages of { pages : string list; eof : bool }
    (* consecutive pages from a [Read_pages]; may be fewer than asked when
       the file ends mid-window. [eof] marks that the last page returned
       contains end of file (or that [first] was past it). *)
  | R_committed of { vv : Vvec.t }
  | R_stripe of { pages : (int * string) list; size : int }
    (* a peer stripe SS's modified full pages (lpage, data) and its
       session's file size, surrendered to the committing primary *)
  | R_created of { ino : int }
  | R_stat of { info : inode_info option; stored_here : bool }
  | R_lookup of { gf : Catalog.Gfile.t; consumed : int; trail : lookup_step list }
    (* where the server-side walk stopped, how many components it
       consumed, and one trail step per consumed component *)
  | R_where of {
      sites : Net.Site.t list;     (* reachable sites holding the latest version *)
      all_sites : Net.Site.t list; (* every site holding any copy, even stale or unreachable *)
      vv : Vvec.t;
    }
  | R_token of { granted : bool; state : string }
  | R_pid of { pid : int }
  | R_pset of { pset : Net.Site.t list }
  | R_merge_info of { believed_up : Net.Site.t list; fgs : int list }
  | R_busy of { active : Net.Site.t }
  | R_status of { stage : int; site : Net.Site.t }
  | R_open_files of { files : (int * open_mode * Net.Site.t) list }
  | R_inventory of { files : (int * Vvec.t * bool) list }
    (* ino, version, deleted? for every inode the pack stores *)
  | R_data of { data : string }

(* ---- wire-size model ---- *)

let header = 24

let gfile_bytes = 8

let vv_bytes v = 8 * max 1 (List.length (Vvec.to_list v))

let site_list_bytes l = 4 * List.length l

let info_bytes i =
  40 + String.length i.i_owner + vv_bytes i.i_vv + site_list_bytes i.i_stripes

let env_bytes e =
  16 + String.length e.e_uid + gfile_bytes
  + List.fold_left (fun a s -> a + String.length s) 0 e.e_context
  + ((13 + gfile_bytes) * List.length e.e_fds)

let page_bytes = 1024

let token_bytes = function Tok_fd _ -> 8

let req_bytes = function
  | Open_req { us_vv; _ } ->
    header + gfile_bytes + 2
    + (match us_vv with Some v -> vv_bytes v | None -> 0)
  | Storage_req { vv; others; _ } ->
    header + gfile_bytes + vv_bytes vv + 5 + site_list_bytes others
  | Read_page _ -> header + gfile_bytes + 8
  | Read_pages { stride; _ } ->
    header + gfile_bytes + 12 + (if stride > 1 then 2 else 0)
  | Write_page { data; _ } -> header + gfile_bytes + 9 + String.length data
  | Write_pages { data; _ } -> header + gfile_bytes + 12 + String.length data
  | Truncate_req _ -> header + gfile_bytes + 4
  | Commit_req { force_vv; stripes; _ } ->
    header + gfile_bytes + 5
    + (match force_vv with Some v -> vv_bytes v | None -> 0)
    + site_list_bytes stripes
  | Stripe_collect _ -> header + gfile_bytes
  | Us_close _ -> header + gfile_bytes + 1
  | Ss_close _ -> header + gfile_bytes + 9
  | Commit_notify { vv; modified; replicas; _ } ->
    header + gfile_bytes + vv_bytes vv + 3 + (4 * List.length modified) + 4
    + site_list_bytes replicas
  | Reclaim_req _ -> header + gfile_bytes
  | Page_invalidate _ -> header + gfile_bytes + 4
  | Lease_break _ -> header + gfile_bytes
  | Create_req { owner; replicate_at; _ } ->
    header + 12 + String.length owner + site_list_bytes replicate_at
  | Link_count _ -> header + gfile_bytes + 4
  | Set_attr { owner; _ } ->
    header + gfile_bytes + 6
    + (match owner with Some o -> String.length o | None -> 0)
  | Stat_req _ | Where_stored _ -> header + gfile_bytes
  | Lookup_req { comps; _ } ->
    header + gfile_bytes
    + List.fold_left (fun a c -> a + 1 + String.length c) 0 comps
  | Token_req { key; _ } -> header + token_bytes key + 4
  | Token_state_req { key } -> header + token_bytes key
  | Fork_req { env; image_pages; _ } ->
    (* A fork ships the whole process image to the destination site. *)
    header + 16 + env_bytes env + (image_pages * page_bytes)
  | Exec_req { path; env; _ } -> header + 16 + String.length path + env_bytes env
  | Run_req { path; env; context_override; _ } ->
    header + 12 + String.length path + env_bytes env
    + (match context_override with
      | Some c -> List.fold_left (fun a s -> a + 1 + String.length s) 0 c
      | None -> 0)
  | Signal_req _ -> header + 8
  | Exit_notify _ -> header + 12
  | Part_poll { pset; _ } -> header + 4 + site_list_bytes pset
  | Part_announce { members; _ } -> header + 4 + site_list_bytes members
  | Merge_poll _ -> header + 4
  | Merge_announce { members; css_map } ->
    header + site_list_bytes members + (8 * List.length css_map)
  | Status_check _ -> header + 4
  | Open_files_query _ -> header + 4
  | Pack_inventory _ -> header + 4
  | Pipe_write { data; _ } -> header + gfile_bytes + String.length data
  | Pipe_read _ -> header + gfile_bytes + 4

let resp_bytes = function
  | R_ok -> header
  | R_err _ -> header + 4
  | R_open { info; others; _ } ->
    header + 5 + info_bytes info + site_list_bytes others
  | R_storage { info; _ } ->
    header + 1 + (match info with Some i -> info_bytes i | None -> 0)
  | R_page { data; _ } -> header + 1 + String.length data
  | R_pages { pages; _ } ->
    (* One header for the whole batch; each page pays only a small length
       frame plus its payload — the honest accounting that makes the bulk
       win fewer headers and RTTs, not free bytes. *)
    header + 1 + List.fold_left (fun a p -> a + 2 + String.length p) 0 pages
  | R_committed { vv } -> header + vv_bytes vv
  | R_stripe { pages; _ } ->
    header + 8 + List.fold_left (fun a (_, p) -> a + 6 + String.length p) 0 pages
  | R_created _ -> header + 4
  | R_stat { info; _ } ->
    header + 1 + (match info with Some i -> info_bytes i | None -> 0)
  | R_lookup { trail; _ } ->
    header + gfile_bytes + 4
    + List.fold_left (fun a s -> a + (2 * gfile_bytes) + vv_bytes s.l_vv + 1) 0 trail
  | R_where { sites; all_sites; vv } ->
    header + site_list_bytes sites + site_list_bytes all_sites + vv_bytes vv
  | R_token { state; _ } -> header + 1 + String.length state
  | R_pid _ -> header + 4
  | R_pset { pset } -> header + site_list_bytes pset
  | R_merge_info { believed_up; fgs } ->
    header + site_list_bytes believed_up + (4 * List.length fgs)
  | R_busy _ -> header + 4
  | R_status _ -> header + 8
  | R_open_files { files } -> header + (9 * List.length files)
  | R_inventory { files } ->
    header + List.fold_left (fun a (_, vv, _) -> a + 5 + vv_bytes vv) 0 files
  | R_data { data } -> header + String.length data

let req_tag = function
  | Open_req _ -> "open"
  | Storage_req _ -> "storage"
  | Read_page _ | Read_pages _ -> "read"
  | Write_page _ | Write_pages _ -> "write"
  | Truncate_req _ -> "truncate"
  | Commit_req _ -> "commit"
  | Stripe_collect _ -> "stripe.collect"
  | Us_close _ -> "close.us"
  | Ss_close _ -> "close.ss"
  | Commit_notify _ -> "notify"
  | Reclaim_req _ -> "reclaim"
  | Page_invalidate _ -> "page.invalidate"
  | Lease_break _ -> "lease.break"
  | Create_req _ -> "create"
  | Link_count _ -> "link"
  | Set_attr _ -> "setattr"
  | Stat_req _ -> "stat"
  | Where_stored _ -> "where"
  | Lookup_req _ -> "lookup"
  | Token_req _ -> "token"
  | Token_state_req _ -> "token.state"
  | Fork_req _ -> "fork"
  | Exec_req _ -> "exec"
  | Run_req _ -> "run"
  | Signal_req _ -> "signal"
  | Exit_notify _ -> "exit"
  | Part_poll _ -> "part.poll"
  | Part_announce _ -> "part.announce"
  | Merge_poll _ -> "merge.poll"
  | Merge_announce _ -> "merge.announce"
  | Status_check _ -> "status"
  | Open_files_query _ -> "lock.rebuild"
  | Pack_inventory _ -> "inventory"
  | Pipe_write _ -> "pipe.write"
  | Pipe_read _ -> "pipe.read"

(* Retry policy per message class. Idempotent requests (reads, queries,
   token traffic, re-sendable notifications) get the default retry policy;
   requests whose handler mutates state non-idempotently (opens count
   readers, commits bump version vectors, forks create processes) are never
   blindly retried; reconfiguration probes are single-shot because
   unreachability is the information being gathered (section 5.4). *)
let req_idempotent = function
  | Read_page _ | Read_pages _ | Stat_req _ | Where_stored _ | Lookup_req _
  | Open_files_query _ | Pack_inventory _ | Token_state_req _ | Token_req _
  | Page_invalidate _ | Lease_break _ | Reclaim_req _ | Commit_notify _ | Write_page _
  | Write_pages _ | Truncate_req _
  | Part_poll _ | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check _ ->
    true
  | Open_req _ | Storage_req _ | Commit_req _ | Stripe_collect _ | Us_close _ | Ss_close _
  | Create_req _ | Link_count _ | Set_attr _ | Fork_req _ | Exec_req _
  | Run_req _ | Signal_req _ | Exit_notify _ | Pipe_write _ | Pipe_read _ ->
    false

let req_policy = function
  | Part_poll _ | Part_announce _ | Merge_poll _ | Merge_announce _
  | Status_check _ ->
    Net.Rpc.probe
  | req -> if req_idempotent req then Net.Rpc.default_policy else Net.Rpc.no_retry
