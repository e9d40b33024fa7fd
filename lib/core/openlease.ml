(* Per-site cache of CSS-granted open leases.

   On a successful read/internal open the CSS may grant a revocable read
   lease on (gf, vv), carried in [R_open]. The using site retains the
   whole open grant — serving SS, inode information, incore-inode slot —
   in this LRU across [close], so a re-open of the unchanged file
   completes with zero messages: no [Open_req], no [Storage_req]. Close
   of a lease-backed read open is *deferred*: the SS serving state stays
   registered and the Us_close/Ss_close legs are elided until the lease
   dies (callback break, commit, eviction, partition scrub), at which
   point exactly one batched close travels.

   The structure itself is protocol-agnostic: the deferred-close sender
   is a callback installed by [Kernel.create], so any kernel module can
   kill a lease without depending on the US layer.

   An entry is shared by reference with every ofile currently riding it
   ([le_active] counts them). A dead entry ([le_broken]) is out of the
   table and satisfies no further re-opens; the last riding close sends
   the deferred close legs.

   Counters exported through [Sim.Stats]: open.lease.hit,
   open.lease.miss, open.lease.break, open.lease.evict,
   open.lease.defer. *)

module Gfile = Catalog.Gfile
module Vvec = Vv.Version_vector
module Site = Net.Site

type entry = {
  le_gf : Gfile.t;
  le_ss : Site.t;            (* the storage site serving the leased open *)
  le_mode : Proto.open_mode; (* mode the SS/CSS registered (read/internal) *)
  le_info : Proto.inode_info;
  le_slot : int;             (* the SS's incore-inode slot (read guess) *)
  le_vv : Vvec.t;            (* version the lease was granted on *)
  mutable le_active : int;   (* local opens currently riding this grant *)
  mutable le_broken : bool;  (* lease dead: no reuse; close on last drain *)
}

module Lru = Storage.Lru.Make (struct
  type t = entry

  let copy e = e (* shared by reference: riders mutate the same record *)
end)

type t = {
  cache : Gfile.t Lru.t option; (* None: disabled (open_lease_entries = 0) *)
  tbl : (Gfile.t, entry) Hashtbl.t; (* mirror, for value recovery on eviction *)
  stats : Sim.Stats.t;
  on_dead : (entry -> unit) ref;
  (* deferred-close sender, installed by [Kernel.create]; called exactly
     once per entry, when the lease is dead and no local open rides it *)
}

let count t what = Sim.Stats.incr t.stats ("open.lease." ^ what)

let create ~stats ~capacity () =
  let tbl = Hashtbl.create 32 in
  let on_dead = ref (fun (_ : entry) -> ()) in
  let cache =
    if capacity <= 0 then None
    else
      Some
        (Lru.create
           ~on_evict:(fun gf ->
             (* Capacity eviction: one batched close travels now — unless
                an open still rides the grant, in which case the last
                riding close sends it. *)
             Sim.Stats.incr stats "open.lease.evict";
             match Hashtbl.find_opt tbl gf with
             | None -> ()
             | Some e ->
               Hashtbl.remove tbl gf;
               e.le_broken <- true;
               if e.le_active <= 0 then !on_dead e)
           ~capacity ())
  in
  { cache; tbl; stats; on_dead }

let enabled t = t.cache <> None

let set_on_dead t f = t.on_dead := f

let length t = match t.cache with None -> 0 | Some c -> Lru.length c

let find_entry t gf = Hashtbl.find_opt t.tbl gf

(* Warm re-open: take a ride on a live lease. Touches recency and counts
   hit/miss. The caller is responsible for only asking on lease-eligible
   opens (read/internal, not shared), so the miss counter means "eligible
   open that had to go cold". *)
let acquire t gf =
  match t.cache with
  | None -> None
  | Some c -> (
    match Lru.find c gf with
    | None ->
      count t "miss";
      None
    | Some e ->
      count t "hit";
      e.le_active <- e.le_active + 1;
      Some e)

(* Kill the lease on [gf]: remove it so no re-open can ride it, and send
   the deferred close now (idle) or at the last riding close (active). *)
let kill ?(counter = "break") t gf =
  match Hashtbl.find_opt t.tbl gf with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.tbl gf;
    (match t.cache with Some c -> Lru.invalidate c gf | None -> ());
    count t counter;
    e.le_broken <- true;
    if e.le_active <= 0 then !(t.on_dead) e

(* Register a fresh grant (the cold open that carried it is its first
   rider). A live entry under the same key would mean a lost break
   callback: kill it first so its registered open still gets closed. *)
let insert t e =
  match t.cache with
  | None -> ()
  | Some c ->
    kill t e.le_gf;
    Hashtbl.replace t.tbl e.le_gf e;
    Lru.insert c e.le_gf e

(* A commit notification for [gf] observed locally: any lease granted on
   a different version is stale, whether or not the CSS callback has
   arrived yet. *)
let note_commit t gf vv =
  match find_entry t gf with
  | Some e when not (Vvec.equal e.le_vv vv) -> kill t gf
  | Some _ | None -> ()

let kill_if t pred =
  let doomed = Hashtbl.fold (fun gf e acc -> if pred e then gf :: acc else acc) t.tbl [] in
  List.iter (kill t) doomed

(* Partition scrub (§5.6's lock-table scrub): a lease must never survive
   a partition event. Deferred closes go out best-effort; unreachable
   storage sites clean up through their own failure handling. *)
let scrub t = kill_if t (fun _ -> true)

(* Crash: volatile state dies silently — no messages from a dead kernel.
   ~notify:false is load-bearing here: firing on_evict would try to send
   deferred closes from a site that no longer exists. Every live-site bulk
   removal must go through [scrub]/[kill_if] instead, which do send them. *)
let clear t =
  Hashtbl.iter (fun _ e -> e.le_broken <- true) t.tbl;
  Hashtbl.reset t.tbl;
  match t.cache with None -> () | Some c -> Lru.clear c ~notify:false
