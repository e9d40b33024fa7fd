(* The read planner returns the same bytes in every configuration.

   One US read path serves every configuration: the transfer window
   (bulk_window 1 = the classic one-page protocol, 8 = streaming), the
   stripe width (1 = one SS, 2 = pages fanned over two storage sites), the
   US buffer tier (off with us_cache_pages = 0, a 3-page tier smaller than
   one fetch run, or the default) and readahead. A
   random read pattern — sequential runs, seeks, re-reads and byte-ranged
   reads, with the engine drained between some of them so scheduled
   readahead lands in the cache — must return exactly the model's bytes
   and eof flags under all 24 combinations, from a reader with its own
   copy and from one without. The 3-page tier is smaller than one fetch
   run, so a run evicts its own first pages: the demand page must come
   from the reply, not back out of the cache. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module K = Locus_core.Ktypes
module Us = Locus_core.Us
module Page = Storage.Page
module Engine = Sim.Engine
module Stats = Sim.Stats

let configs =
  List.concat_map
    (fun bulk_window ->
      List.concat_map
        (fun stripe_width ->
          List.concat_map
            (fun us_cache_pages ->
              List.map
                (fun readahead ->
                  { K.default_config with K.bulk_window; stripe_width; us_cache_pages; readahead })
                [ true; false ])
            [ 0; 3; K.default_config.K.us_cache_pages ])
        [ 1; 2 ])
    [ 1; 8 ]

let show_config (c : K.config) =
  Printf.sprintf "window=%d width=%d us_cache=%d readahead=%b" c.K.bulk_window
    c.K.stripe_width c.K.us_cache_pages c.K.readahead

type op =
  | Seq of int  (** read the next n pages after the last one read *)
  | Seek of int  (** read one page anywhere, past eof included *)
  | Reread  (** read the last page again *)
  | Bytes of int * int  (** read_bytes ~off ~len *)
  | Drain  (** run every scheduled event: readahead lands *)

let show_op = function
  | Seq n -> Printf.sprintf "seq %d" n
  | Seek p -> Printf.sprintf "seek %d" p
  | Reread -> "reread"
  | Bytes (off, len) -> Printf.sprintf "bytes %d+%d" off len
  | Drain -> "drain"

type case = { size : int; remote : bool; ops : op list }

let max_pages = 20

let gen_case =
  QCheck.Gen.(
    let* full = int_bound max_pages in
    let* tail = if full = max_pages then return 0 else int_bound (Page.size - 1) in
    let size = (full * Page.size) + tail in
    let gen_op =
      frequency
        [
          (4, map (fun n -> Seq n) (int_range 1 8));
          (2, map (fun p -> Seek p) (int_bound (max_pages + 2)));
          (1, return Reread);
          ( 2,
            map2 (fun off len -> Bytes (off, len))
              (int_bound (size + Page.size))
              (int_bound (3 * Page.size)) );
          (2, return Drain);
        ]
    in
    let* remote = bool in
    let* ops = list_size (int_range 1 12) gen_op in
    return { size; remote; ops })

let arb_case =
  QCheck.make gen_case ~print:(fun c ->
      Printf.sprintf "size=%d %s [%s]" c.size
        (if c.remote then "remote" else "local")
        (String.concat "; " (List.map show_op c.ops)))

(* Position-dependent bytes, so a page served for the wrong page number or
   at the wrong offset shows up as a content diff. *)
let contents size =
  String.init size (fun i -> Char.chr (Char.code 'a' + (((i * 7) + (i / Page.size)) mod 26)))

(* The file lives at sites 0-2, every one holding the latest version (the
   precondition for a stripe grant). Site 3 stores nothing, so its open is
   remote and, at width 2, striped; site 1 reads its own copy. *)
let make_world kconfig size =
  let base = World.default_config ~n_sites:4 () in
  let config =
    {
      base with
      World.kernel_config = kconfig;
      filegroups = [ { World.fg = 0; pack_sites = [ 0; 1; 2 ]; mount_path = None } ];
    }
  in
  let w = World.create ~config () in
  World.mount_filegroups w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 3;
  ignore (Kernel.creat k0 p0 "/f");
  if size > 0 then Kernel.write_file k0 p0 "/f" (contents size);
  ignore (World.settle w);
  w

let model_page body lpage =
  let size = String.length body in
  let start = lpage * Page.size in
  let data = if start >= size then "" else String.sub body start (min Page.size (size - start)) in
  (data, (lpage + 1) * Page.size >= size)

let model_bytes body ~off ~len =
  let size = String.length body in
  if len <= 0 || off >= size then "" else String.sub body off (min len (size - off))

(* Replay [c] under [kconfig]; [Some msg] on the first wrong read. *)
let replay kconfig c =
  let w = make_world kconfig c.size in
  let body = contents c.size in
  let site = if c.remote then 3 else 1 in
  let k = World.kernel w site and p = World.proc w site in
  let o = Us.open_gf k (Kernel.resolve k p "/f") Proto.Mode_read in
  let striped = o.K.o_stripes <> [] in
  let expect_striped = c.remote && kconfig.K.stripe_width = 2 in
  let last = ref (-1) in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
  if striped <> expect_striped then fail "stripe map %b, expected %b" striped expect_striped;
  let read lpage =
    last := lpage;
    let got = Us.read_page k o lpage in
    let want = model_page body lpage in
    if got <> want then
      fail "page %d: got %d bytes eof=%b, want %d bytes eof=%b" lpage
        (String.length (fst got)) (snd got) (String.length (fst want)) (snd want)
  in
  List.iter
    (fun op ->
      match op with
      | Seq n ->
        for _ = 1 to n do
          read (!last + 1)
        done
      | Seek lpage -> read lpage
      | Reread -> read (max 0 !last)
      | Bytes (off, len) ->
        let got = Us.read_bytes k o ~off ~len in
        if got <> model_bytes body ~off ~len then
          fail "bytes %d+%d: got %d bytes, want %d" off len (String.length got)
            (String.length (model_bytes body ~off ~len))
      | Drain -> ignore (Engine.run_until_idle (World.engine w)))
    c.ops;
  Us.close k o;
  ignore (World.settle w);
  (* The tier switch is honoured: with no US pages nothing touches the US
     cache. *)
  if kconfig.K.us_cache_pages = 0 then begin
    let s = World.stats w in
    if Stats.get s "cache.us.hit" + Stats.get s "cache.us.miss" > 0 then
      fail "US cache used with us_cache_pages = 0"
  end;
  !failure

let prop_reads_match_model =
  QCheck.Test.make ~name:"every configuration reads the model's bytes" ~count:100 arb_case
    (fun c ->
      List.for_all
        (fun kconfig ->
          match replay kconfig c with
          | None -> true
          | Some msg -> QCheck.Test.fail_reportf "%s: %s" (show_config kconfig) msg)
        configs)

let () =
  Alcotest.run "readplan"
    [ ("planner", [ QCheck_alcotest.to_alcotest prop_reads_match_model ]) ]
