(** Generic O(1) LRU recency-list structure.

    A hashtable keyed on caller-chosen keys plus an intrusive doubly-linked
    recency list. {!Cache} (the buffer caches) and the kernel's pathname
    name cache are both instances of {!Make}; they differ only in the
    cached value type. All operations are O(1) except {!Make.filter_out}
    and {!Make.clear}, which visit every entry, and {!Make.filter_group},
    which visits the entries of one group.

    A cache may be created with a group function, which maps each key to
    its group (for the page caches, the file a page belongs to). Every
    entry is then also on an intrusive per-group chain, and
    {!Make.filter_group} drops entries of one group without scanning the
    rest of the cache. *)

module type VALUE = sig
  type t

  val copy : t -> t
  (** Isolates the cache's copy of a value from the caller's (pages are
      mutable buffers); the identity for immutable values. *)
end

module Make (V : VALUE) : sig
  type ('k, 'g) t
  (** A cache keyed by ['k] whose entries are grouped by ['g]. *)

  val create :
    ?on_evict:('k -> unit) -> ?group:('k -> 'g) -> capacity:int -> unit -> ('k, 'g) t
  (** [on_evict] is called with the key of every entry dropped by capacity
      pressure (not by explicit invalidation). [group] maps a key to its
      group; without it the cache keeps no chains and {!filter_group} is
      unavailable. Raises [Invalid_argument] on non-positive capacity. *)

  val find : ('k, 'g) t -> 'k -> V.t option
  (** Hit moves the entry to most-recently-used and returns a copy. Counts
      toward {!hits}/{!misses}. *)

  val mem : ('k, 'g) t -> 'k -> bool
  (** Presence probe: no recency update, no counter update. *)

  val insert : ('k, 'g) t -> 'k -> V.t -> unit
  (** Insert (or refresh) a copy of the value, evicting the least recently
      used entry if over capacity. *)

  val invalidate : ('k, 'g) t -> 'k -> unit

  val filter_out : ('k, 'g) t -> notify:bool -> ('k -> V.t -> bool) -> int
  (** Drop all entries satisfying the predicate; returns how many were
      dropped (for invalidation accounting). With [~notify:true] every
      dropped key fires [on_evict] (the capacity {!evictions} counter is
      not bumped); with [~notify:false] the drop is silent. Callers whose
      [on_evict] hook carries a liveness obligation (e.g. a deferred close)
      must pick the policy explicitly — a silent scrub leaks it. O(n). *)

  val filter_group : ('k, 'g) t -> notify:bool -> 'g -> ('k -> V.t -> bool) -> int
  (** [filter_group t ~notify g pred] is {!filter_out} restricted to the
      entries of group [g]: it drops exactly the entries of [g] that
      satisfy [pred], and costs O(entries of [g]), not O(n). Raises
      [Invalid_argument] if [t] was created without [~group]. *)

  val clear : ('k, 'g) t -> notify:bool -> unit
  (** Drop everything; [~notify:true] fires [on_evict] per entry, LRU
      first. *)

  val length : ('k, 'g) t -> int

  val capacity : ('k, 'g) t -> int

  val keys_mru : ('k, 'g) t -> 'k list
  (** Keys in recency order, most recently used first (test/debug aid). *)

  val group_keys : ('k, 'g) t -> 'g -> 'k list
  (** Keys on group [g]'s chain, in chain order (test/debug aid). *)

  val hits : ('k, 'g) t -> int

  val misses : ('k, 'g) t -> int

  val evictions : ('k, 'g) t -> int
  (** Entries dropped by capacity pressure since creation. *)
end
