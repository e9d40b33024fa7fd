(* The correctness oracle: a model of the file tree (last committed
   contents of each target and the set of live names) that every op's
   result is checked against. A mismatch or an unexpected error counts the
   op as failed; it never aborts the run.

   Pathname walks read directories unsynchronized (§2.3.4), so a read,
   write or stat may see a name-space view a moment old: ENOENT on a live
   name, or success on a just-unlinked one. Such an answer is possible
   only for a name whose liveness has changed during the run (it was
   created or unlinked). Those answers count as wrong results like any
   other, and are also tallied as [stale_names]: they are the one kind of
   wrong answer the paper's semantics permit. A stale entry can also lead
   a walk to an inode unlinked since, which the program reports as ENET
   (no site stores it) rather than ENOENT; on a fault-free run, ENET for a
   name that has been unlinked at least once is that case, and is tallied
   as [stale_enet] too. Everything else — wrong bytes, a wrong liveness
   answer for a name whose liveness never changed, a failed create of an
   absent name, an unexpected errno, any wrong answer after the final
   drain — violates them. *)

type verdict = Ok | Stale | Stale_enet | Wrong | Error

type t = {
  live : bool array;       (* per target *)
  contents : string array; (* last committed body, per target *)
  toggled : bool array;    (* created or unlinked during the run *)
  recycled : bool array;   (* unlinked at least once *)
  mutable wrong : int;     (* results that contradict the model *)
  mutable errors : int;    (* errnos no model state explains *)
  mutable stale_names : int; (* wrong results from a stale directory read *)
  mutable stale_enet : int;  (* of which ENET on a recycled name *)
  mutable superseded : int;  (* wrong reads that returned an older version *)
  mutable first : (verdict * string) list; (* the first failures, newest first *)
}

type outcome =
  | Body of string  (* a read's bytes *)
  | Done            (* write, create or unlink completed *)
  | Found           (* stat succeeded *)
  | Failed of Proto.errno

let create (spec : Workload.spec) =
  let n_files = Array.length spec.Workload.files in
  let n = Workload.n_targets spec in
  {
    live = Array.init n (fun t -> t < n_files || spec.Workload.preloaded (t - n_files));
    contents =
      Array.init n (fun t -> if t < n_files then Workload.initial_body spec t else "");
    toggled = Array.make n false;
    recycled = Array.make n false;
    wrong = 0;
    errors = 0;
    stale_names = 0;
    stale_enet = 0;
    superseded = 0;
    first = [];
  }

(* The stamp a benchmark body carries in its "#<stamp>#" header. *)
let stamp body =
  if String.length body < 2 || body.[0] <> '#' then None
  else
    match String.index_from_opt body 1 '#' with
    | Some j -> int_of_string_opt (String.sub body 1 (j - 1))
    | None -> None

let describe = function
  | Body b -> Printf.sprintf "%d bytes" (String.length b)
  | Done -> "done"
  | Found -> "found"
  | Failed e -> Proto.errno_to_string e

(* The verdict on one op, advancing the model when the op took effect. *)
let judge m (kind : Workload.kind) t ~written outcome =
  let live = m.live.(t) in
  (* the answer a stale name-space view gives: the name's liveness is
     wrong and nothing else is, and it has changed since set-up *)
  let name_view_wrong = function
    | Failed Proto.Enoent -> live
    | Found | Done | Body _ -> not live
    | Failed _ -> false
  in
  match kind, outcome with
  | (Workload.Read | Workload.Write | Workload.Lookup), o when name_view_wrong o ->
    if m.toggled.(t) then Stale else Wrong
  | (Workload.Read | Workload.Write | Workload.Lookup), Failed Proto.Enet when m.recycled.(t) ->
    Stale_enet
  | Workload.Read, Body b ->
    if String.equal b m.contents.(t) then Ok
    else begin
      (match stamp b, stamp m.contents.(t) with
      | Some s, Some cur when s <> cur -> m.superseded <- m.superseded + 1
      | _ -> ());
      Wrong
    end
  | Workload.Write, Done ->
    m.contents.(t) <- written;
    Ok
  | Workload.Lookup, Found -> Ok
  | Workload.Create, Done ->
    m.live.(t) <- true;
    m.toggled.(t) <- true;
    m.contents.(t) <- "";
    if live then Wrong else Ok
  | Workload.Unlink, Done ->
    m.live.(t) <- false;
    m.toggled.(t) <- true;
    m.recycled.(t) <- true;
    m.contents.(t) <- "";
    if live then Ok else Wrong
  | _, Failed Proto.Enoent -> if live then Wrong else Ok
  | _, Failed Proto.Eexist -> if live then Ok else Wrong
  | _, (Failed _ | Body _ | Done | Found) -> Error

(* Check one op and count a failure. [written] is the body a write sent.
   [settled] means every update has propagated, so no staleness is
   excused. *)
let check ?(settled = false) m kind t ~written outcome =
  let live = m.live.(t) in
  let v = judge m kind t ~written outcome in
  let v = match v with (Stale | Stale_enet) when settled -> Wrong | v -> v in
  (match v with
  | Ok -> ()
  | Stale ->
    m.wrong <- m.wrong + 1;
    m.stale_names <- m.stale_names + 1
  | Stale_enet ->
    m.wrong <- m.wrong + 1;
    m.stale_names <- m.stale_names + 1;
    m.stale_enet <- m.stale_enet + 1
  | Wrong -> m.wrong <- m.wrong + 1
  | Error -> m.errors <- m.errors + 1);
  (* keep the first few of each kind of failure *)
  let seen = List.length (List.filter (fun (v', _) -> v' = v) m.first) in
  if v <> Ok && seen < 3 then
    m.first <-
      ( v,
        Printf.sprintf "%s%s of target %d (live %b) -> %s"
          (match v with
          | Stale | Stale_enet -> "stale: "
          | Error -> "error: "
          | Ok | Wrong -> "wrong: ")
          (Workload.kind_name kind) t live (describe outcome) )
      :: m.first
