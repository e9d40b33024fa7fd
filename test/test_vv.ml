(* Unit + property tests for version vectors (Parker et al.). *)

module Vvec = Vv.Version_vector

let check = Alcotest.check

let order : Vvec.order Alcotest.testable =
  Alcotest.testable Vvec.pp_order ( = )

let test_zero () =
  check order "zero vs zero" Vvec.Equal (Vvec.compare_vv Vvec.zero Vvec.zero);
  check Alcotest.int "component of zero" 0 (Vvec.get Vvec.zero 3)

let test_bump () =
  let v = Vvec.bump (Vvec.bump Vvec.zero 1) 1 in
  check Alcotest.int "bumped twice" 2 (Vvec.get v 1);
  check order "bump dominates" Vvec.Dominates (Vvec.compare_vv v Vvec.zero);
  check order "zero dominated" Vvec.Dominated (Vvec.compare_vv Vvec.zero v)

let test_concurrent () =
  let a = Vvec.bump Vvec.zero 1 in
  let b = Vvec.bump Vvec.zero 2 in
  check order "concurrent" Vvec.Concurrent (Vvec.compare_vv a b);
  check Alcotest.bool "conflict" true (Vvec.conflict a b)

let test_merge_resolves () =
  let a = Vvec.bump Vvec.zero 1 in
  let b = Vvec.bump Vvec.zero 2 in
  let m = Vvec.merge a b in
  check Alcotest.bool "merge >= a" true (Vvec.dominates_or_equal m a);
  check Alcotest.bool "merge >= b" true (Vvec.dominates_or_equal m b)

let test_of_list_roundtrip () =
  let v = Vvec.of_list [ (3, 2); (1, 5); (7, 0) ] in
  check Alcotest.(list (pair int int)) "zeroes dropped, sorted"
    [ (1, 5); (3, 2) ] (Vvec.to_list v)

let test_paper_example () =
  (* Section 4.2: f modified at S1 only -> no conflict; modified at both ->
     conflict. *)
  let base = Vvec.bump Vvec.zero 1 in
  let f1 = Vvec.bump base 1 in
  check Alcotest.bool "f1 propagates cleanly" true (Vvec.dominates_or_equal f1 base);
  let f2 = Vvec.bump base 2 in
  check Alcotest.bool "independent updates conflict" true (Vvec.conflict f1 f2)

(* ---- properties ---- *)

let sites = QCheck.Gen.oneofl [ 0; 1; 2; 3; 4 ]

let gen_vv =
  QCheck.Gen.(
    list_size (int_bound 12) sites
    >|= fun bumps -> List.fold_left Vvec.bump Vvec.zero bumps)

let arb_vv = QCheck.make ~print:Vvec.to_string gen_vv

let prop_merge_commutative =
  QCheck.Test.make ~name:"merge commutative" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) -> Vvec.equal (Vvec.merge a b) (Vvec.merge b a))

let prop_merge_idempotent =
  QCheck.Test.make ~name:"merge idempotent" ~count:300 arb_vv (fun v ->
      Vvec.equal (Vvec.merge v v) v)

let prop_merge_associative =
  QCheck.Test.make ~name:"merge associative" ~count:300
    (QCheck.triple arb_vv arb_vv arb_vv)
    (fun (a, b, c) ->
      Vvec.equal (Vvec.merge a (Vvec.merge b c)) (Vvec.merge (Vvec.merge a b) c))

let prop_merge_dominates_both =
  QCheck.Test.make ~name:"merge dominates both" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      let m = Vvec.merge a b in
      Vvec.dominates_or_equal m a && Vvec.dominates_or_equal m b)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetric" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      match (Vvec.compare_vv a b, Vvec.compare_vv b a) with
      | Vvec.Equal, Vvec.Equal
      | Vvec.Dominates, Vvec.Dominated
      | Vvec.Dominated, Vvec.Dominates
      | Vvec.Concurrent, Vvec.Concurrent ->
        true
      | _ -> false)

let prop_bump_strictly_dominates =
  QCheck.Test.make ~name:"bump strictly dominates" ~count:300
    (QCheck.pair arb_vv (QCheck.make sites))
    (fun (v, s) -> Vvec.compare_vv (Vvec.bump v s) v = Vvec.Dominates)

let prop_conflict_iff_incomparable =
  QCheck.Test.make ~name:"conflict iff neither dominates" ~count:300
    (QCheck.pair arb_vv arb_vv)
    (fun (a, b) ->
      Vvec.conflict a b
      = ((not (Vvec.dominates_or_equal a b)) && not (Vvec.dominates_or_equal b a)))

(* Equal vectors whose maps were built in different orders have different
   tree shapes, so the map itself is no cache key; [Ktypes.vv_key] (the
   canonical component list) must coincide, and both spellings must hit
   the same using-site cache entry. *)
let test_cache_key_canonical () =
  let comps = List.init 7 (fun i -> (i + 1, i + 1)) in
  let up = Vvec.of_list comps and down = Vvec.of_list (List.rev comps) in
  let bumped =
    List.fold_left
      (fun v s -> List.fold_left (fun v _ -> Vvec.bump v s) v (List.init s Fun.id))
      Vvec.zero [ 4; 7; 1; 6; 2; 5; 3 ]
  in
  let module K = Locus_core.Ktypes in
  List.iter
    (fun (name, v) ->
      check Alcotest.bool (name ^ ": equal vectors") true (Vvec.equal up v);
      check Alcotest.(list (pair int int)) (name ^ ": same key") (K.vv_key up) (K.vv_key v);
      check Alcotest.int (name ^ ": same key hash") (Hashtbl.hash (K.vv_key up))
        (Hashtbl.hash (K.vv_key v)))
    [ ("reversed", down); ("bumped", bumped) ];
  let w = Locus.World.create ~config:(Locus.World.default_config ~n_sites:2 ()) () in
  let k = Locus.World.kernel w 1 in
  let gf = Catalog.Gfile.make ~fg:0 ~ino:99 in
  Storage.Cache.insert k.K.us_cache (gf, 0, K.vv_key up) (Storage.Page.of_string "page");
  (match Storage.Cache.find k.K.us_cache (gf, 0, K.vv_key down) with
  | Some p ->
    check Alcotest.string "hit through the other spelling" "page"
      (String.sub (Storage.Page.to_string p) 0 4)
  | None -> Alcotest.fail "equal vector missed the US cache");
  Storage.Cache.insert k.K.us_cache (gf, 0, K.vv_key bumped) (Storage.Page.of_string "page");
  check Alcotest.int "one entry, not three" 1
    (List.length
       (List.filter (fun (g, _, _) -> Catalog.Gfile.equal g gf) (Storage.Cache.keys_mru k.K.us_cache)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_commutative;
      prop_merge_idempotent;
      prop_merge_associative;
      prop_merge_dominates_both;
      prop_compare_antisymmetric;
      prop_bump_strictly_dominates;
      prop_conflict_iff_incomparable;
    ]

let () =
  Alcotest.run "vv"
    [
      ( "unit",
        [
          Alcotest.test_case "zero" `Quick test_zero;
          Alcotest.test_case "bump" `Quick test_bump;
          Alcotest.test_case "concurrent" `Quick test_concurrent;
          Alcotest.test_case "merge resolves" `Quick test_merge_resolves;
          Alcotest.test_case "of_list" `Quick test_of_list_roundtrip;
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "cache key is canonical" `Quick test_cache_key_canonical;
        ] );
      ("properties", props);
    ]
