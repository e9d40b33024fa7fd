(* Kernel-level tests: the open protocol and its optimizations, reads and
   writes through the three logical sites, commit/abort semantics, pathname
   searching with hidden directories, and the name-space operations. *)

module World = Locus.World
module Kernel = Locus_core.Kernel
module Us = Locus_core.Us
module Pathname = Locus_core.Pathname
module K = Locus_core.Ktypes
module Stats = Sim.Stats
module Dir = Catalog.Dir
module Inode = Storage.Inode

let check = Alcotest.check

(* World with packs only at sites 0 and 1, so sites 2..4 are pure using
   sites — forcing genuinely remote opens. *)
let asym_world () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ]
    }
  in
  World.create ~config ()

let full_world () = World.create ~config:(World.default_config ~n_sites:5 ()) ()

(* Like [asym_world], with the bulk-transfer layer disabled: for the tests
   that assert the exact shape of the one-page-per-RTT read protocol
   (per-page readahead counts, per-page guesses, injected single-page
   responses). Bulk behavior has its own suite in test_bulk.ml. *)
let asym_world_nobulk () =
  let base = World.default_config ~n_sites:5 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0; 1 ]; mount_path = None } ];
      World.kernel_config = { base.World.kernel_config with K.bulk_window = 1 }
    }
  in
  World.create ~config ()

let stats w = World.stats w

let msg_delta w snap = Stats.delta_of (stats w) snap "net.msg"

let gf_of k path =
  Pathname.resolve_from k ~cwd:(Catalog.Mount.root k.K.mount) ~context:[] path

(* ---- open protocol message counts (Figure 2) ---- *)

(* All roles collocated: an open costs no messages at all. *)
let test_open_all_local () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "x";
  ignore (World.settle w);
  let snap = Stats.snapshot (stats w) in
  let gf = gf_of k0 "/f" in
  let o = Us.open_gf k0 gf Proto.Mode_read in
  check Alcotest.int "local open needs no messages" 0 (msg_delta w snap);
  Us.close k0 o

(* Fully remote: US=2, CSS=0, SS=1 — the general protocol is 4 messages
   (open request, storage request, storage response, open response). *)
let test_open_fully_remote_four_messages () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/f");
  Kernel.write_file k0 p0 "/f" "x";
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/f" in
  (* Drop the CSS's own copy from the bookkeeping so it must poll site 1. *)
  let css = World.kernel w 0 in
  (match Locus_core.Css.find_file css 0 gf.Catalog.Gfile.ino with
  | Some f -> f.K.site_vv <- Net.Site.Map.remove 0 f.K.site_vv
  | None -> Alcotest.fail "css state missing");
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "general open = 4 messages" 4 (msg_delta w snap);
  Us.close k2 o

(* US = SS optimization: the US stores the latest copy; two messages
   (request and response to the CSS), no storage poll. *)
let test_open_us_is_ss_two_messages () =
  let w = asym_world () in
  let k1 = World.kernel w 1 and p1 = World.proc w 1 in
  ignore (Kernel.creat k1 p1 "/g");
  Kernel.write_file k1 p1 "/g" "y";
  ignore (World.settle w);
  let gf = gf_of k1 "/g" in
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k1 gf Proto.Mode_read in
  check Alcotest.int "US-current open = 2 messages" 2 (msg_delta w snap);
  check Alcotest.bool "US serves itself" true (Net.Site.equal o.K.o_ss 1);
  Us.close k1 o

(* CSS = SS optimization: CSS stores the latest version and picks itself
   without message overhead — still 2 messages total from the US. *)
let test_open_css_is_ss () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/h");
  Kernel.write_file k0 p0 "/h" "z";
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let gf = gf_of k2 "/h" in
  let snap = Stats.snapshot (stats w) in
  let o = Us.open_gf k2 gf Proto.Mode_read in
  check Alcotest.int "CSS-as-SS open = 2 messages" 2 (msg_delta w snap);
  check Alcotest.bool "CSS serves" true (Net.Site.equal o.K.o_ss 0);
  Us.close k2 o

(* ---- read protocol ---- *)

let test_remote_read_two_messages_per_page () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/big");
  Kernel.write_file k0 p0 "/big" (String.make (3 * Storage.Page.size) 'q');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/big" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  let data, _eof = Us.read_page k3 o 1 in
  check Alcotest.int "page read = request + response" 2 (msg_delta w snap);
  check Alcotest.int "full page" Storage.Page.size (String.length data);
  Us.close k3 o;
  ignore (World.settle w)

let test_readahead_fills_cache () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/seq");
  Kernel.write_file k0 p0 "/seq" (String.make (4 * Storage.Page.size) 's');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/seq" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let _ = Us.read_page k3 o 0 in
  let _ = Us.read_page k3 o 1 in
  ignore (World.settle w);
  check Alcotest.bool "readahead happened" true
    (Stats.get (stats w) "us.readahead" > 0);
  (* Page 2 was prefetched: reading it costs no messages. *)
  let snap = Stats.snapshot (stats w) in
  let _ = Us.read_page k3 o 2 in
  check Alcotest.int "prefetched page is free" 0 (msg_delta w snap);
  Us.close k3 o;
  ignore (World.settle w)

let test_cache_keyed_by_version () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/c");
  Kernel.write_file k0 p0 "/c" "old contents";
  ignore (World.settle w);
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  check Alcotest.string "first read" "old contents" (Kernel.read_file k3 p3 "/c");
  Kernel.write_file k0 p0 "/c" "new contents";
  ignore (World.settle w);
  check Alcotest.string "fresh read after update" "new contents"
    (Kernel.read_file k3 p3 "/c")

(* Regression: a cache hit must extend the readahead window too. With the
   old code only misses scheduled readahead, so a sequential scan settled
   into miss/hit/miss/hit — every other page paid the network round trip. *)
let test_readahead_on_cache_hit () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/seq6");
  Kernel.write_file k0 p0 "/seq6" (String.make (6 * Storage.Page.size) 's');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let o = Us.open_gf k3 (gf_of k3 "/seq6") Proto.Mode_read in
  let _ = Us.read_page k3 o 0 in
  ignore (World.settle w);
  (* Every subsequent page was prefetched before we asked for it: no demand
     read may cost a message, no matter how deep the scan goes. *)
  for lpage = 1 to 5 do
    let snap = Stats.snapshot (stats w) in
    let _ = Us.read_page k3 o lpage in
    check Alcotest.int (Printf.sprintf "page %d served from cache" lpage) 0
      (msg_delta w snap);
    ignore (World.settle w)
  done;
  (* Pages 1..5 were each readahead targets exactly once (page 5 is eof). *)
  check Alcotest.int "readahead fired on every sequential page" 5
    (Stats.get (stats w) "us.readahead");
  Us.close k3 o;
  ignore (World.settle w)

(* [us_cache_pages = 0] turns the US buffer tier off, as 0 does for the
   other caches: a remote sequential read never touches the US cache and
   pays a round trip per page — the 64 messages of E2's "no cache at US"
   row (32 pages, file at site 0, reader at site 2). *)
let test_zero_us_pages_disables_tier () =
  let pages = 32 in
  let base = World.default_config ~n_sites:3 () in
  let config =
    { base with
      World.filegroups = [ { World.fg = 0; pack_sites = [ 0 ]; mount_path = None } ];
      kernel_config = { base.World.kernel_config with K.us_cache_pages = 0 } }
  in
  let w = World.create ~config () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/seq");
  let body = String.make (pages * Storage.Page.size) 'd' in
  Kernel.write_file k0 p0 "/seq" body;
  ignore (World.settle w);
  let k2 = World.kernel w 2 in
  let o = Us.open_gf k2 (gf_of k2 "/seq") Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  let buf = Buffer.create (String.length body) in
  for lpage = 0 to pages - 1 do
    Buffer.add_string buf (fst (Us.read_page k2 o lpage));
    ignore (World.settle w)
  done;
  check Alcotest.int "E2 no-cache message count" 64 (msg_delta w snap);
  Us.close k2 o;
  ignore (World.settle w);
  check Alcotest.string "contents" body (Buffer.contents buf);
  List.iter
    (fun c -> check Alcotest.int c 0 (Stats.get (stats w) c))
    [ "cache.us.hit"; "cache.us.miss"; "cache.us.evict"; "us.readahead" ];
  check Alcotest.int "nothing buffered" 0 (Storage.Cache.length k2.K.us_cache)

(* Version-keyed pages survive close and serve a re-open of the unchanged
   version; a new committed version both misses naturally and has its stale
   entries dropped by the Commit_notify prefix invalidation. *)
let test_cross_open_cache_retention () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/warm");
  let body = String.make (2 * Storage.Page.size) 'w' in
  Kernel.write_file k0 p0 "/warm" body;
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/warm" in
  let o1 = Us.open_gf k3 gf Proto.Mode_read in
  check Alcotest.string "first open reads through" body (Us.read_all k3 o1);
  Us.close k3 o1;
  ignore (World.settle w);
  check Alcotest.bool "pages retained across close" true
    (Storage.Cache.length k3.K.us_cache > 0);
  let o2 = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  check Alcotest.string "re-open served warm" body (Us.read_all k3 o2);
  check Alcotest.int "no page traffic on re-open" 0 (msg_delta w snap);
  Us.close k3 o2;
  ignore (World.settle w);
  (* A new committed version must not be masked by the warm pages. *)
  Kernel.write_file k0 p0 "/warm" "fresh";
  ignore (World.settle w);
  let p3 = World.proc w 3 in
  check Alcotest.string "new version read through" "fresh"
    (Kernel.read_file k3 p3 "/warm");
  (* The Commit_notify handler drops every entry of the file that is not
     at the announced version, from both cache tiers. *)
  let vv = (Us.stat_gf k0 gf).Proto.i_vv in
  let stale = K.vv_key (Vv.Version_vector.of_list [ (9, 9) ]) in
  Storage.Cache.insert k3.K.us_cache (gf, 0, K.vv_key vv) (Storage.Page.of_string "cur");
  Storage.Cache.insert k3.K.us_cache (gf, 1, stale) (Storage.Page.of_string "old");
  Storage.Cache.insert k3.K.ss_cache (gf, 2, stale) (Storage.Page.of_string "old");
  let notify =
    Proto.Commit_notify
      { gf; vv; meta_only = false; modified = []; origin = 0; fresh = false;
        deleted = false; designate = false; replicas = [] }
  in
  ignore (k3.K.dispatch 0 notify);
  check Alcotest.bool "current version kept" true
    (Storage.Cache.mem k3.K.us_cache (gf, 0, K.vv_key vv));
  check Alcotest.bool "stale US entry dropped" false
    (Storage.Cache.mem k3.K.us_cache (gf, 1, stale));
  check Alcotest.bool "stale SS entry dropped" false
    (Storage.Cache.mem k3.K.ss_cache (gf, 2, stale))

(* Regression: a short mid-file page (a lying or sparse SS) used to stop
   the read_bytes loop, silently returning short data. It must read as
   zeroes to the page boundary and continue into the next page. *)
let test_read_bytes_zero_fills_short_page () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  let ps = Storage.Page.size in
  ignore (Kernel.creat k0 p0 "/sparse");
  Kernel.write_file k0 p0 "/sparse"
    (String.make ps 'A' ^ String.make ps 'B' ^ String.make ps 'C');
  ignore (World.settle w);
  (* Serve page 1 short and non-eof; everything else takes the normal path. *)
  Net.Netsim.set_handler (World.net w) 0 (fun ~src req ->
      match req with
      | Proto.Read_page { lpage = 1; _ } -> Proto.R_page { data = "XY"; eof = false }
      | _ -> k0.K.dispatch src req);
  let k3 = World.kernel w 3 in
  let o = Us.open_gf k3 (gf_of k3 "/sparse") Proto.Mode_read in
  let data = Us.read_bytes k3 o ~off:0 ~len:(3 * ps) in
  check Alcotest.int "full length returned" (3 * ps) (String.length data);
  check Alcotest.string "page 0 intact" (String.make ps 'A') (String.sub data 0 ps);
  check Alcotest.string "short page prefix" "XY" (String.sub data ps 2);
  check Alcotest.string "zero fill to page boundary"
    (String.make (ps - 2) '\000')
    (String.sub data (ps + 2) (ps - 2));
  check Alcotest.string "next page reached" (String.make ps 'C')
    (String.sub data (2 * ps) ps);
  Us.close k3 o;
  ignore (World.settle w)

(* ---- write / commit / abort ---- *)

let test_commit_visibility () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/t");
  Kernel.write_file k0 p0 "/t" "committed";
  ignore (World.settle w);
  let k1 = World.kernel w 1 in
  let gf = gf_of k1 "/t" in
  let o = Us.open_gf k1 gf Proto.Mode_modify in
  Us.set_contents k1 o "uncommitted!";
  Us.abort k1 o;
  Us.close k1 o;
  ignore (World.settle w);
  check Alcotest.string "abort undoes" "committed" (Kernel.read_file k0 p0 "/t")

let test_single_writer_policy () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/lock");
  Kernel.write_file k0 p0 "/lock" "v";
  ignore (World.settle w);
  let gf = gf_of k0 "/lock" in
  let o1 = Us.open_gf k0 gf Proto.Mode_modify in
  let k2 = World.kernel w 2 in
  (match Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_modify with
  | _ -> Alcotest.fail "second writer should be refused"
  | exception K.Error (Proto.Ebusy, _) -> ());
  let o2 = Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_read in
  Us.close k2 o2;
  Us.close k0 o1;
  ignore (World.settle w);
  let o3 = Us.open_gf k2 (gf_of k2 "/lock") Proto.Mode_modify in
  Us.close k2 o3;
  ignore (World.settle w)

let test_concurrent_read_during_write_sees_updates () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/live");
  Kernel.write_file k0 p0 "/live" "aaaa";
  ignore (World.settle w);
  let gf = gf_of k0 "/live" in
  let ow = Us.open_gf k0 gf Proto.Mode_modify in
  Us.write k0 ow ~off:0 "bbbb";
  (* A reader opening now is directed to the single SS and sees the
     uncommitted write (Unix shared-file semantics, section 3.2). *)
  let k2 = World.kernel w 2 in
  let orr = Us.open_gf k2 (gf_of k2 "/live") Proto.Mode_read in
  let data, _ = Us.read_page k2 orr 0 in
  check Alcotest.string "reader sees writer's data" "bbbb" (String.sub data 0 4);
  Us.close k2 orr;
  Us.commit k0 ow;
  Us.close k0 ow;
  ignore (World.settle w)

(* ---- pathname searching ---- *)

let test_nested_paths () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/a");
  ignore (Kernel.mkdir k0 p0 "/a/b");
  ignore (Kernel.mkdir k0 p0 "/a/b/c");
  ignore (Kernel.creat k0 p0 "/a/b/c/deep.txt");
  Kernel.write_file k0 p0 "/a/b/c/deep.txt" "treasure";
  ignore (World.settle w);
  let k4 = World.kernel w 4 and p4 = World.proc w 4 in
  check Alcotest.string "deep path from remote site" "treasure"
    (Kernel.read_file k4 p4 "/a/b/c/deep.txt");
  check Alcotest.string "dots" "treasure"
    (Kernel.read_file k4 p4 "/a/./b/c/../c/deep.txt");
  Kernel.chdir k4 p4 "/a/b";
  check Alcotest.string "relative" "treasure" (Kernel.read_file k4 p4 "c/deep.txt")

let test_enoent_and_enotdir () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/plain");
  Kernel.write_file k0 p0 "/plain" "x";
  ignore (World.settle w);
  (match Kernel.read_file k0 p0 "/missing" with
  | _ -> Alcotest.fail "expected ENOENT"
  | exception K.Error (Proto.Enoent, _) -> ());
  match Kernel.read_file k0 p0 "/plain/sub" with
  | _ -> Alcotest.fail "expected ENOTDIR"
  | exception K.Error (Proto.Enotdir, _) -> ()

(* ---- hidden directories (section 2.4.1) ---- *)

let setup_hidden w =
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/bin");
  ignore (Kernel.mkdir ~hidden:true k0 p0 "/bin/who");
  ignore (Kernel.creat k0 p0 "/bin/who/@vax");
  Kernel.write_file k0 p0 "/bin/who/@vax" "vax load module";
  ignore (Kernel.creat k0 p0 "/bin/who/@pdp11");
  Kernel.write_file k0 p0 "/bin/who/@pdp11" "pdp11 load module";
  ignore (World.settle w)

let hidden_world () =
  let base = World.default_config ~n_sites:4 () in
  let config =
    { base with World.machine_type = (fun s -> if s < 2 then "vax" else "pdp11") }
  in
  World.create ~config ()

let test_hidden_dir_context_selection () =
  let w = hidden_world () in
  setup_hidden w;
  let read_at site =
    Kernel.read_file (World.kernel w site) (World.proc w site) "/bin/who"
  in
  check Alcotest.string "vax site" "vax load module" (read_at 0);
  check Alcotest.string "pdp11 site" "pdp11 load module" (read_at 3)

let test_hidden_dir_escape () =
  let w = hidden_world () in
  setup_hidden w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  check Alcotest.string "escape to pdp11 from a vax site" "pdp11 load module"
    (Kernel.read_file k0 p0 "/bin/who/@pdp11");
  let entries = Kernel.readdir k0 p0 "/bin/who" in
  let names = List.map (fun (e : Dir.entry) -> e.Dir.name) entries in
  check Alcotest.(list string) "hidden entries visible via escape"
    [ "pdp11"; "vax" ] names

let test_hidden_dir_no_context_entry () =
  let w = hidden_world () in
  setup_hidden w;
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_context p0 [ "cray" ];
  match Kernel.read_file k0 p0 "/bin/who" with
  | _ -> Alcotest.fail "no entry for context should fail"
  | exception K.Error (Proto.Enoent, _) -> ()

(* ---- name-space operations ---- *)

let test_unlink () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/gone");
  Kernel.write_file k0 p0 "/gone" "bye";
  ignore (World.settle w);
  Kernel.unlink k0 p0 "/gone";
  ignore (World.settle w);
  (match Kernel.read_file k0 p0 "/gone" with
  | _ -> Alcotest.fail "unlinked file readable"
  | exception K.Error (Proto.Enoent, _) -> ());
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  match Kernel.read_file k3 p3 "/gone" with
  | _ -> Alcotest.fail "unlinked file readable remotely"
  | exception K.Error (Proto.Enoent, _) -> ()

let test_hard_link () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/orig");
  Kernel.write_file k0 p0 "/orig" "shared data";
  ignore (World.settle w);
  Kernel.link k0 p0 ~target:"/orig" ~path:"/alias";
  ignore (World.settle w);
  check Alcotest.string "alias reads" "shared data" (Kernel.read_file k0 p0 "/alias");
  let info = Kernel.stat k0 p0 "/alias" in
  check Alcotest.int "nlink" 2 info.Proto.i_nlink;
  Kernel.unlink k0 p0 "/orig";
  ignore (World.settle w);
  check Alcotest.string "alias survives" "shared data"
    (Kernel.read_file k0 p0 "/alias")

let test_rename () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/d1");
  ignore (Kernel.mkdir k0 p0 "/d2");
  ignore (Kernel.creat k0 p0 "/d1/file");
  Kernel.write_file k0 p0 "/d1/file" "moving";
  ignore (World.settle w);
  Kernel.rename k0 p0 ~from_path:"/d1/file" ~to_path:"/d2/renamed";
  ignore (World.settle w);
  check Alcotest.string "new name works" "moving" (Kernel.read_file k0 p0 "/d2/renamed");
  match Kernel.read_file k0 p0 "/d1/file" with
  | _ -> Alcotest.fail "old name should be gone"
  | exception K.Error (Proto.Enoent, _) -> ()

let test_readdir () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/list");
  ignore (Kernel.creat k0 p0 "/list/a");
  ignore (Kernel.creat k0 p0 "/list/b");
  ignore (World.settle w);
  let names =
    Kernel.readdir k0 p0 "/list" |> List.map (fun (e : Dir.entry) -> e.Dir.name)
  in
  check Alcotest.(list string) "entries" [ "."; ".."; "a"; "b" ] names

let test_create_eexist () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/dup");
  ignore (World.settle w);
  match Kernel.creat k0 p0 "/dup" with
  | _ -> Alcotest.fail "duplicate create should fail"
  | exception K.Error (Proto.Eexist, _) -> ()

(* ---- named pipes ---- *)

let test_named_pipe_across_sites () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkfifo k0 p0 "/fifo");
  ignore (World.settle w);
  Kernel.pipe_write k0 p0 "/fifo" "first ";
  let k3 = World.kernel w 3 and p3 = World.proc w 3 in
  Kernel.pipe_write k3 p3 "/fifo" "second";
  check Alcotest.string "fifo order across sites" "first second"
    (Kernel.pipe_read k3 p3 "/fifo" ~max:100);
  check Alcotest.string "drained" "" (Kernel.pipe_read k0 p0 "/fifo" ~max:100)

(* ---- the reopen race of the close protocol (2.3.3 footnote) ---- *)

(* "The US could attempt to reopen the file before the CSS knew that the
   file was closed. Thus the responses were added." With the three-message
   close, an immediate reopen-for-modification always succeeds. *)
let test_close_reopen_race_free () =
  let w = asym_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  Kernel.set_ncopies p0 2;
  ignore (Kernel.creat k0 p0 "/racy");
  Kernel.write_file k0 p0 "/racy" "r";
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/racy" in
  for _ = 1 to 10 do
    (* Open for modification and close, then IMMEDIATELY reopen without
       letting any background events run: the close must have reached the
       CSS synchronously or this open bounces with EBUSY. *)
    let o = Us.open_gf k3 gf Proto.Mode_modify in
    Us.close k3 o
  done;
  (* And a different site can take the write lock right away too. *)
  let k4 = World.kernel w 4 in
  let o = Us.open_gf k4 (gf_of k4 "/racy") Proto.Mode_modify in
  Us.close k4 o;
  ignore (World.settle w)

(* A site that is not the CSS answers opens with ESTALE so the US can
   refresh its filegroup knowledge. *)
let test_stale_css_detected () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/s");
  ignore (World.settle w);
  let gf = gf_of k0 "/s" in
  let k3 = World.kernel w 3 in
  match
    k3.K.dispatch 0 (Proto.Open_req { gf; mode = Proto.Mode_read; us_vv = None; shared = false })
  with
  | Proto.R_err Proto.Estale -> ()
  | _ -> Alcotest.fail "non-CSS site should answer ESTALE"

(* ---- the incore-inode guess (2.3.3) ---- *)

let test_read_guess_hits () =
  let w = asym_world_nobulk () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.creat k0 p0 "/guessed");
  Kernel.write_file k0 p0 "/guessed" (String.make (4 * Storage.Page.size) 'g');
  ignore (World.settle w);
  let k3 = World.kernel w 3 in
  let gf = gf_of k3 "/guessed" in
  let o = Us.open_gf k3 gf Proto.Mode_read in
  let snap = Stats.snapshot (stats w) in
  for lpage = 0 to 3 do
    ignore (Us.read_page k3 o lpage)
  done;
  (* Every remote read carried a valid guess: the SS located the incore
     inode without a lookup. *)
  check Alcotest.bool "guess hits" true
    (Stats.delta_of (stats w) snap "ss.guess.hit" >= 4);
  check Alcotest.int "no guess misses" 0 (Stats.delta_of (stats w) snap "ss.guess.miss");
  Us.close k3 o;
  ignore (World.settle w)

(* ---- mailbox convenience ---- *)

let test_mailbox_deliver_read () =
  let w = full_world () in
  let k0 = World.kernel w 0 and p0 = World.proc w 0 in
  ignore (Kernel.mkdir k0 p0 "/mail");
  ignore (Kernel.creat ~ftype:Inode.Mailbox k0 p0 "/mail/root");
  ignore (World.settle w);
  Kernel.mailbox_deliver k0 ~path:"/mail/root" ~from:"system" ~body:"welcome";
  Kernel.mailbox_deliver (World.kernel w 2) ~path:"/mail/root" ~from:"s2" ~body:"hi";
  ignore (World.settle w);
  let msgs = Kernel.mailbox_read k0 p0 "/mail/root" in
  check Alcotest.int "two messages" 2 (List.length msgs)

let () =
  Alcotest.run "core"
    [
      ( "open-protocol",
        [
          Alcotest.test_case "all roles local" `Quick test_open_all_local;
          Alcotest.test_case "fully remote = 4 msgs" `Quick
            test_open_fully_remote_four_messages;
          Alcotest.test_case "US-is-SS optimization" `Quick
            test_open_us_is_ss_two_messages;
          Alcotest.test_case "CSS-is-SS optimization" `Quick test_open_css_is_ss;
        ] );
      ( "read",
        [
          Alcotest.test_case "2 msgs per remote page" `Quick
            test_remote_read_two_messages_per_page;
          Alcotest.test_case "readahead" `Quick test_readahead_fills_cache;
          Alcotest.test_case "cache keyed by version" `Quick test_cache_keyed_by_version;
          Alcotest.test_case "readahead on cache hit" `Quick test_readahead_on_cache_hit;
          Alcotest.test_case "cross-open retention" `Quick test_cross_open_cache_retention;
          Alcotest.test_case "0 US pages disables the tier" `Quick
            test_zero_us_pages_disables_tier;
          Alcotest.test_case "read_bytes zero fill" `Quick
            test_read_bytes_zero_fills_short_page;
        ] );
      ( "write-commit",
        [
          Alcotest.test_case "abort undoes" `Quick test_commit_visibility;
          Alcotest.test_case "single writer" `Quick test_single_writer_policy;
          Alcotest.test_case "reader sees live writes" `Quick
            test_concurrent_read_during_write_sees_updates;
        ] );
      ( "pathname",
        [
          Alcotest.test_case "nested paths" `Quick test_nested_paths;
          Alcotest.test_case "errors" `Quick test_enoent_and_enotdir;
          Alcotest.test_case "hidden dir context" `Quick test_hidden_dir_context_selection;
          Alcotest.test_case "hidden dir escape" `Quick test_hidden_dir_escape;
          Alcotest.test_case "hidden dir miss" `Quick test_hidden_dir_no_context_entry;
        ] );
      ( "namespace",
        [
          Alcotest.test_case "unlink" `Quick test_unlink;
          Alcotest.test_case "hard link" `Quick test_hard_link;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "readdir" `Quick test_readdir;
          Alcotest.test_case "create EEXIST" `Quick test_create_eexist;
        ] );
      ( "close-protocol",
        [
          Alcotest.test_case "reopen race free" `Quick test_close_reopen_race_free;
          Alcotest.test_case "stale css" `Quick test_stale_css_detected;
        ] );
      ( "guess",
        [ Alcotest.test_case "read guess hits" `Quick test_read_guess_hits ] );
      ( "ipc-objects",
        [
          Alcotest.test_case "named pipe" `Quick test_named_pipe_across_sites;
          Alcotest.test_case "mailbox" `Quick test_mailbox_deliver_read;
        ] );
    ]
