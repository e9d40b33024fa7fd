(* O(1) LRU: a hashtable from key to list node plus an intrusive doubly
   linked recency list (head = most recent, tail = next eviction victim).
   Every operation except [filter_out] and [clear] is constant time;
   [filter_group] visits only its group's entries.

   The recency-list core is generic over the cached value: the buffer
   caches ({!Cache}, holding pages) and the pathname name cache (holding
   directory links) are both instances. [V.copy] isolates the cache's copy
   of a value from the caller's — identity for immutable values.

   A cache created with [~group] also threads every node onto an intrusive
   per-group chain (for the page caches, a group is a file), and a group
   table maps each group to its chain's first node. Links are never
   [option] boxes: a node linked to itself means "none", in both the
   recency list and the group chains, so a node is one flat record. *)

module type VALUE = sig
  type t

  val copy : t -> t
end

module Make (V : VALUE) = struct
  type 'k node = {
    n_key : 'k;
    mutable n_value : V.t;
    mutable n_prev : 'k node; (* self: the most recently used *)
    mutable n_next : 'k node; (* self: the least recently used *)
    mutable g_prev : 'k node; (* self: first of its group's chain *)
    mutable g_next : 'k node; (* self: last of its group's chain *)
  }

  type ('k, 'g) t = {
    capacity : int;
    table : ('k, 'k node) Hashtbl.t;
    mutable head : 'k node option; (* most recently used *)
    mutable tail : 'k node option; (* least recently used *)
    group : ('k -> 'g) option;
    groups : ('g, 'k node) Hashtbl.t; (* group -> first node of its chain *)
    on_evict : 'k -> unit;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create ?(on_evict = fun _ -> ()) ?group ~capacity () =
    if capacity <= 0 then invalid_arg "Lru.create: capacity must be positive";
    {
      capacity;
      table = Hashtbl.create capacity;
      head = None;
      tail = None;
      group;
      groups = Hashtbl.create (if Option.is_none group then 1 else 16);
      on_evict;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let unlink t n =
    let p = n.n_prev and s = n.n_next in
    if p == n then
      if s == n then begin
        t.head <- None;
        t.tail <- None
      end
      else begin
        s.n_prev <- s;
        t.head <- Some s
      end
    else if s == n then begin
      p.n_next <- p;
      t.tail <- Some p
    end
    else begin
      p.n_next <- s;
      s.n_prev <- p
    end;
    n.n_prev <- n;
    n.n_next <- n

  (* [n] must be unlinked (self-linked both ways). *)
  let push_front t n =
    match t.head with
    | Some h ->
      n.n_next <- h;
      h.n_prev <- n;
      t.head <- Some n
    | None ->
      t.head <- Some n;
      t.tail <- Some n

  let touch t n =
    if n.n_prev != n then begin
      unlink t n;
      push_front t n
    end

  (* A new node joins its group's chain second, after the chain's first
     node, so the group table is written only when the group is new. *)
  let group_link t n =
    match t.group with
    | None -> ()
    | Some group -> (
      let g = group n.n_key in
      match Hashtbl.find_opt t.groups g with
      | None -> Hashtbl.add t.groups g n
      | Some first ->
        let s = first.g_next in
        if s != first then begin
          n.g_next <- s;
          s.g_prev <- n
        end;
        first.g_next <- n;
        n.g_prev <- first)

  let group_unlink t n =
    match t.group with
    | None -> ()
    | Some group ->
      let p = n.g_prev and s = n.g_next in
      if p == n then begin
        (* The chain's first node: the group table points here. *)
        let g = group n.n_key in
        if s == n then Hashtbl.remove t.groups g
        else begin
          s.g_prev <- s;
          Hashtbl.replace t.groups g s
        end
      end
      else if s == n then p.g_next <- p
      else begin
        p.g_next <- s;
        s.g_prev <- p
      end;
      n.g_prev <- n;
      n.g_next <- n

  let find t key =
    match Hashtbl.find_opt t.table key with
    | Some n ->
      t.hits <- t.hits + 1;
      touch t n;
      Some (V.copy n.n_value)
    | None ->
      t.misses <- t.misses + 1;
      None

  let mem t key = Hashtbl.mem t.table key

  let remove_node t n =
    unlink t n;
    group_unlink t n;
    Hashtbl.remove t.table n.n_key

  let insert t key value =
    match Hashtbl.find_opt t.table key with
    | Some n ->
      n.n_value <- V.copy value;
      touch t n
    | None ->
      let value = V.copy value in
      let rec n =
        { n_key = key; n_value = value; n_prev = n; n_next = n; g_prev = n; g_next = n }
      in
      Hashtbl.replace t.table key n;
      push_front t n;
      group_link t n;
      while Hashtbl.length t.table > t.capacity do
        match t.tail with
        | Some victim ->
          remove_node t victim;
          t.evictions <- t.evictions + 1;
          t.on_evict victim.n_key
        | None -> Hashtbl.reset t.table (* unreachable: list mirrors the table *)
      done

  let invalidate t key =
    match Hashtbl.find_opt t.table key with
    | Some n -> remove_node t n
    | None -> ()

  (* Bulk removals take an explicit [~notify] policy: with [~notify:true]
     each dropped key fires [on_evict] (without bumping the capacity-pressure
     [evictions] counter); with [~notify:false] entries vanish silently.
     Callers whose eviction hook carries a liveness obligation (the open-lease
     cache sends deferred closes from it) must choose deliberately — a silent
     scrub of such a cache leaks the obligation. Victims are all collected
     before any is removed, so the predicate sees the cache as it was. *)
  let drop_victims t ~notify victims =
    List.iter (remove_node t) victims;
    if notify then List.iter (fun n -> t.on_evict n.n_key) victims;
    List.length victims

  let filter_out t ~notify pred =
    let victims =
      Hashtbl.fold
        (fun key n acc -> if pred key n.n_value then n :: acc else acc)
        t.table []
    in
    drop_victims t ~notify victims

  let filter_group t ~notify g pred =
    if Option.is_none t.group then invalid_arg "Lru.filter_group: cache has no groups";
    match Hashtbl.find_opt t.groups g with
    | None -> 0
    | Some first ->
      let rec collect acc n =
        let acc = if pred n.n_key n.n_value then n :: acc else acc in
        if n.g_next == n then acc else collect acc n.g_next
      in
      drop_victims t ~notify (collect [] first)

  let fold_mru t f acc =
    let rec go acc n =
      let acc = f acc n in
      if n.n_next == n then acc else go acc n.n_next
    in
    match t.head with None -> acc | Some h -> go acc h

  let clear t ~notify =
    (* LRU-first, matching the order capacity pressure would use. *)
    let victims = if notify then fold_mru t (fun acc n -> n.n_key :: acc) [] else [] in
    Hashtbl.reset t.table;
    Hashtbl.reset t.groups;
    t.head <- None;
    t.tail <- None;
    List.iter t.on_evict victims

  let length t = Hashtbl.length t.table

  let capacity t = t.capacity

  let keys_mru t = List.rev (fold_mru t (fun acc n -> n.n_key :: acc) [])

  let group_keys t g =
    match Hashtbl.find_opt t.groups g with
    | None -> []
    | Some first ->
      let rec go acc n =
        let acc = n.n_key :: acc in
        if n.g_next == n then List.rev acc else go acc n.g_next
      in
      go [] first

  let hits t = t.hits

  let misses t = t.misses

  let evictions t = t.evictions
end
