(** LRU buffer cache.

    Used at a storage site to front disk-page reads and at a using site for
    pages fetched across the network (§2.3.3: "all such requests are
    serviced via kernel buffers"). Keys are caller-chosen; entries are
    whole pages. A hashtable keyed on the entries plus an intrusive
    doubly-linked recency list makes every operation O(1) except
    {!clear}, which visits every entry, and {!filter_group}, which visits
    the entries of one group. The kernel groups pages by file, so a
    write, commit or notification visits only that file's pages. *)

type ('k, 'g) t

val create :
  ?on_evict:('k -> unit) -> ?group:('k -> 'g) -> capacity:int -> unit -> ('k, 'g) t
(** [on_evict] is called with the key of every entry dropped by capacity
    pressure (not by explicit invalidation) — the hook the kernel uses to
    export eviction counts. [group] maps a key to its group (the kernel:
    the file); without it {!filter_group} is unavailable. *)

val find : ('k, 'g) t -> 'k -> Page.t option
(** Hit moves the entry to most-recently-used and returns a copy. Counts
    toward {!hits}/{!misses}. *)

val mem : ('k, 'g) t -> 'k -> bool
(** Presence probe: no recency update, no counter update. Used where a
    lookup is bookkeeping (readahead dedup), not a demand access. *)

val insert : ('k, 'g) t -> 'k -> Page.t -> unit
(** Insert (or refresh) a copy of the page, evicting the least recently
    used entry if over capacity. *)

val invalidate : ('k, 'g) t -> 'k -> unit

val filter_group : ('k, 'g) t -> notify:bool -> 'g -> ('k -> Page.t -> bool) -> int
(** [filter_group t ~notify g pred] drops the entries of group [g] that
    satisfy the predicate (e.g. every page of a file that just changed
    version) and returns how many it dropped. [~notify] selects whether
    each drop fires [on_evict] (the capacity {!evictions} counter is never
    bumped); coherence invalidations pass [false] so the eviction counters
    keep measuring capacity pressure only. O(entries of [g]). Raises
    [Invalid_argument] if [t] was created without [~group]. *)

val clear : ('k, 'g) t -> notify:bool -> unit

val length : ('k, 'g) t -> int

val capacity : ('k, 'g) t -> int

val keys_mru : ('k, 'g) t -> 'k list
(** Keys in recency order, most recently used first (test/debug aid). *)

val group_keys : ('k, 'g) t -> 'g -> 'k list
(** Keys on group [g]'s chain (test/debug aid). *)

val hits : ('k, 'g) t -> int

val misses : ('k, 'g) t -> int

val evictions : ('k, 'g) t -> int
(** Entries dropped by capacity pressure since creation. *)
