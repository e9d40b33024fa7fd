(** Using Site file access (§2.3.3, §2.3.5).

    The US carries out the user-visible half of every file operation: it
    contacts the CSS to open (Figure 2), exchanges pages with the selected
    SS, and runs the close protocol. Remote pages are cached at the US,
    keyed by file and version, and sequential reads keep a window of
    pages requested ahead. *)

val open_gf :
  ?shared:bool -> Ktypes.t -> Catalog.Gfile.t -> Proto.open_mode -> Ktypes.ofile
(** Open <filegroup, inode> through the CSS, which selects the storage
    site. [shared] joins an existing open through a forked descriptor
    (exempt from the single-writer policy; the offset token serializes
    access). Raises {!Ktypes.Error}. *)

val read_page : Ktypes.t -> Ktypes.ofile -> int -> string * bool
(** [read_page k o lpage] returns the page data (possibly short at end of
    file) and an eof flag. Sequential reads keep a fetch window scheduled
    ahead of the reader: it grows to [config.bulk_window] pages per stripe
    owner, and window 1 at stripe width 1 is the classic one-page
    readahead. Unstriped local opens and opens that bypass the US cache
    read each page directly. *)

val read_all : Ktypes.t -> Ktypes.ofile -> string
(** Whole-body read following the SS's eof indications. *)

val read_bytes : Ktypes.t -> Ktypes.ofile -> off:int -> len:int -> string
(** Byte-ranged read (fd-style). *)

val write : Ktypes.t -> Ktypes.ofile -> off:int -> string -> unit
(** Send the affected pages to the SS via the write protocol: whole-page
    changes travel without a read; partial pages as patches. With
    [config.bulk_window > 1] and a remote SS, adjacent chunks coalesce
    into a write-behind run sent as one [Write_pages] batch at the next
    flush point (window full, non-adjacent write, read-back, truncate,
    commit, close, token release, or a short timer). *)

val flush_wb : Ktypes.t -> Ktypes.ofile -> unit
(** Push any pending write-behind run to the SS now. Called wherever the
    modification must become visible outside this open — notably before a
    file-offset token leaves this site. No-op when nothing is buffered. *)

val truncate : Ktypes.t -> Ktypes.ofile -> int -> unit

val set_contents : Ktypes.t -> Ktypes.ofile -> string -> unit
(** Whole-file overwrite (truncate + page writes). *)

val commit : Ktypes.t -> Ktypes.ofile -> unit
(** Atomically commit this open's modifications at the SS (§2.3.6). *)

val abort : Ktypes.t -> Ktypes.ofile -> unit
(** Undo any changes back to the previous commit point. *)

val close : Ktypes.t -> Ktypes.ofile -> unit
(** Flush (commit) if dirty, then run the US→SS→CSS close protocol. The
    close of a lease-backed read open is deferred: the retained grant
    keeps the SS serving state registered, and the protocol runs once
    when the lease dies. *)

val lease_send_close : Ktypes.t -> Openlease.entry -> unit
(** Send the deferred [Us_close] a dead lease owes. Installed as the
    {!Openlease} [on_dead] callback by [Kernel.create]. *)

val lease_drop_rider : Ktypes.t -> Openlease.entry -> unit
(** One local open stops riding the lease; the last rider of a broken
    lease sends the deferred close. *)

val delete_file : Ktypes.t -> Ktypes.ofile -> unit
(** Mark the inode deleted and commit (§2.3.7). *)

val release : Ktypes.t -> Ktypes.ofile -> unit
(** Best-effort cleanup of an open after a failed operation: discard any
    buffered writes, abort uncommitted modifications, and run the close
    protocol, swallowing protocol errors so the original failure
    propagates. Every error path that abandons an [ofile] must release it,
    or the SS serving registration (and any shadow session) leaks. *)

val stat_gf : Ktypes.t -> Catalog.Gfile.t -> Proto.inode_info
(** Descriptor information, from the local pack when possible, else from a
    reachable site holding the latest version. *)

val local_vv_of : Ktypes.t -> Catalog.Gfile.t -> Vv.Version_vector.t option
(** The version of this site's own copy, if it stores one. *)
