(* The directory representation against the reference codec
   ([Dir_reference]): a hash table printed with [Printf] and parsed by
   splitting lines. Directories are their own encoding now, so every
   property here is a byte-level comparison with that oracle. *)

module Dir = Catalog.Dir
module Ref = Dir_reference

(* ---- generators ---- *)

(* Names the codec must order by [String.compare]: bytes below '\t' sort
   before the field separator, "." and ".." before letters, and the
   reconciliation's conflict spelling. *)
let gen_name =
  QCheck.Gen.(
    oneof
      [
        oneofl [ "."; ".."; "a"; "a\001"; "a\b"; "ab"; "\001"; "x"; "x!conflict!7"; "b\255" ];
        string_size ~gen:(oneofl [ 'a'; 'b'; '\001'; '\b'; '.'; '!'; '\200' ]) (int_range 1 4);
      ])

let gen_stamp =
  QCheck.Gen.(
    oneof
      [
        map float_of_int (int_bound 1000);
        float;
        oneofl [ 0.; -0.; 5e-324; 1e-310; Float.min_float; Float.max_float; 0.1; 1e300 ];
      ])

type op = Ins of string * int * float * int | Rem of string * float * int

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map (fun (n, i, s, o) -> Ins (n, i, s, o))
          (quad gen_name (int_range (-3) 1_000_000) gen_stamp (int_range 0 70));
        map (fun (n, s, o) -> Rem (n, s, o)) (triple gen_name gen_stamp (int_range 0 70));
      ])

let print_op = function
  | Ins (n, i, s, o) -> Printf.sprintf "ins %S %d %h %d" n i s o
  | Rem (n, s, o) -> Printf.sprintf "rem %S %h %d" n s o

let arb_ops =
  QCheck.make ~print:QCheck.Print.(list print_op) QCheck.Gen.(list_size (int_bound 40) gen_op)

let apply ops =
  let d = Dir.empty () and r = Ref.empty () in
  List.iter
    (function
      | Ins (name, ino, stamp, origin) ->
        Dir.insert d ~name ~ino ~stamp ~origin;
        Ref.insert r ~name ~ino ~stamp ~origin
      | Rem (name, stamp, origin) ->
        let a = Dir.remove d ~name ~stamp ~origin in
        let b = Ref.remove r ~name ~stamp ~origin in
        if a <> b then QCheck.Test.fail_reportf "remove %S: %b vs reference %b" name a b)
    ops;
  (d, r)

(* Entries compared by their printed form, so nan stamps compare equal. *)
let show_entries l =
  List.map
    (fun (e : Dir.entry) ->
      Printf.sprintf "%S %d %s %h %d" e.name e.ino
        (match e.status with Dir.Live -> "L" | Dir.Tombstone -> "T")
        e.stamp e.origin)
    l

(* ---- properties ---- *)

let prop_encode_matches =
  QCheck.Test.make ~name:"encode after insert/remove equals the reference" ~count:500 arb_ops
    (fun ops ->
      let d, r = apply ops in
      String.equal (Dir.encode d) (Ref.encode r)
      && show_entries (Dir.all_entries d) = show_entries (Ref.all_entries r)
      && List.for_all
           (function
             | Ins (n, _, _, _) | Rem (n, _, _) -> Dir.lookup d n = Ref.lookup r n)
           ops)

let prop_decode_canonical =
  QCheck.Test.make ~name:"decode of a canonical body keeps its bytes" ~count:300 arb_ops
    (fun ops ->
      let d, _ = apply ops in
      let body = Dir.encode d in
      let d' = Dir.decode body in
      String.equal (Dir.encode d') body
      && Dir.equal d d'
      && List.for_all
           (function
             | Ins (n, _, _, _) | Rem (n, _, _) ->
               Dir.lookup d' n = Dir.lookup d n
               && Option.map (fun e -> show_entries [ e ]) (Dir.find_entry d' n)
                  = Option.map (fun e -> show_entries [ e ]) (Dir.find_entry d n))
           ops)

let prop_of_entries =
  QCheck.Test.make ~name:"of_entries equals inserting in order" ~count:300 arb_ops (fun ops ->
      let d, _ = apply ops in
      let entries = Dir.all_entries d in
      let shuffled = List.rev entries @ entries in
      String.equal (Dir.encode (Dir.of_entries shuffled)) (Dir.encode d))

let prop_copy_independent =
  QCheck.Test.make ~name:"copy is unaffected by updates to the original" ~count:200
    QCheck.(pair arb_ops arb_ops)
    (fun (ops, more) ->
      let d, _ = apply ops in
      let before = Dir.encode d in
      let c = Dir.copy d in
      List.iter
        (function
          | Ins (name, ino, stamp, origin) -> Dir.insert d ~name ~ino ~stamp ~origin
          | Rem (name, stamp, origin) -> ignore (Dir.remove d ~name ~stamp ~origin))
        more;
      String.equal (Dir.encode c) before)

let specials =
  [ 0.; -0.; 1.; -1.; 0.1; 1.5; 5e-324; -5e-324; 1e-310; 2.2250738585072009e-308;
    Float.min_float; Float.max_float; -.Float.max_float; Float.epsilon; 1024.;
    Float.infinity; Float.neg_infinity; Float.nan; -.Float.nan ]

let prop_stamp_format =
  QCheck.Test.make ~name:"stamp formatter equals Printf %h" ~count:2000
    QCheck.(make ~print:(Printf.sprintf "%h") Gen.(oneof [ float; oneofl specials;
      map Int64.float_of_bits ui64 ]))
    (fun x ->
      let d = Dir.empty () in
      Dir.insert d ~name:"a" ~ino:2 ~stamp:x ~origin:0;
      String.equal (Dir.encode d) (Printf.sprintf "a\t2\tL\t%h\t0\n" x))

(* Bodies the library never writes: lines out of order, repeated names,
   blank lines, a missing final newline, other spellings of numbers. *)
let odd_numbers =
  [ "007"; "+5"; "-0"; "0x1F"; "1_000"; "0o17"; "00" ]

let odd_stamps =
  [ "1.5"; "0x1.80p+0"; "0X1P+0"; "0x1p0"; "0x1p+00"; "0x1p-0"; "0x2p+0"; "0x1p+1024";
    "0x0p-1022"; "0x0.8p-1021"; "1e3"; "nan"; "infinity"; "-infinity"; "-0x0p+0";
    "0x1.fffffffffffff8p+0" ]

let gen_line =
  QCheck.Gen.(
    let* name = gen_name in
    let* ino = oneof [ oneofl odd_numbers; map string_of_int (int_bound 99) ] in
    let* status = oneofl [ "L"; "T" ] in
    let* stamp = oneof [ oneofl odd_stamps; map (Printf.sprintf "%h") gen_stamp ] in
    let+ origin = oneofl [ "0"; "3"; "12"; "007" ] in
    String.concat "\t" [ name; ino; status; stamp; origin ])

let gen_odd_body =
  QCheck.Gen.(
    map
      (fun (lines, (blank, trailing)) ->
        let lines = if blank then "" :: lines @ [ "" ] else lines in
        String.concat "\n" lines ^ if trailing then "\n" else "")
      (pair (list_size (int_bound 12) gen_line) (pair bool bool)))

let decode_outcome f s = match f s with d -> Ok d | exception Failure _ -> Error ()

let agree s =
  match (decode_outcome Dir.decode s, decode_outcome Ref.decode s) with
  | Ok d, Ok r ->
    String.equal (Dir.encode d) (Ref.encode r)
    && show_entries (Dir.all_entries d) = show_entries (Ref.all_entries r)
  | Error (), Error () -> true
  | Ok _, Error () -> QCheck.Test.fail_reportf "decode accepted what the reference rejects"
  | Error (), Ok _ -> QCheck.Test.fail_reportf "decode rejected what the reference accepts"

let prop_decode_odd =
  QCheck.Test.make ~name:"decode of a non-canonical body equals the reference" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") gen_odd_body)
    agree

(* Random byte edits of a canonical body: decode fails exactly when the
   reference does, and otherwise re-encodes to the reference's bytes. *)
let gen_mangled =
  QCheck.Gen.(
    gen_op |> list_size (int_range 1 12)
    >>= fun ops ->
    let d, _ = apply ops in
    let body = Dir.encode d in
    list_size (int_range 1 3)
      (triple (int_bound 1000) (int_bound 2)
         (oneofl [ '\t'; '\n'; 'L'; 'T'; 'x'; '0'; '1'; '-'; '.'; 'p'; '+'; 'a'; 'Z'; ' ' ]))
    >|= fun edits ->
    List.fold_left
      (fun s (pos, kind, c) ->
        let n = String.length s in
        if n = 0 then String.make 1 c
        else
          let pos = pos mod n in
          match kind with
          | 0 -> String.mapi (fun i x -> if i = pos then c else x) s
          | 1 -> String.sub s 0 pos ^ String.sub s (pos + 1) (n - pos - 1)
          | _ -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (n - pos))
      body edits)

let prop_decode_mangled =
  QCheck.Test.make ~name:"decode fails exactly when the reference fails" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_mangled)
    agree

(* ---- unit cases ---- *)

let check = Alcotest.check

let test_empty_and_blank () =
  check Alcotest.string "empty" "" (Dir.encode (Dir.empty ()));
  check Alcotest.string "blank lines only" "" (Dir.encode (Dir.decode "\n\n\n"));
  check Alcotest.int "no entries" 0 (Dir.cardinal (Dir.decode ""))

let test_unsorted_body_is_canonicalised () =
  let body = "b\t3\tL\t0x1p+0\t0\na\t2\tT\t0x1p+1\t1\nb\t4\tL\t0x1p+0\t0" in
  let d = Dir.decode body in
  check Alcotest.string "sorted, last b wins, newline added"
    "a\t2\tT\t0x1p+1\t1\nb\t4\tL\t0x1p+0\t0\n" (Dir.encode d);
  check Alcotest.(option int) "b" (Some 4) (Dir.lookup d "b");
  check Alcotest.(option int) "a is a tombstone" None (Dir.lookup d "a");
  (* Sorted and well spelled, but a name repeats: not canonical either. *)
  let twice = "a\t2\tL\t0x1p+0\t0\na\t3\tL\t0x1p+0\t0\n" in
  check Alcotest.string "repeated name: last line wins" "a\t3\tL\t0x1p+0\t0\n"
    (Dir.encode (Dir.decode twice))

let test_malformed () =
  List.iter
    (fun body ->
      match Dir.decode body with
      | _ -> Alcotest.failf "%S should not decode" body
      | exception Failure _ -> ())
    [ "a\t1\tL\t0x1p+0\n"; "a\t1\tX\t0x1p+0\t0\n"; "a\tone\tL\t0x1p+0\t0\n";
      "a\t1\tL\tsoon\t0\n"; "a\t1\tL\t0x1p+0\t0\t9\n" ]

let () =
  Alcotest.run "dircodec"
    [
      ( "reference",
        List.map QCheck_alcotest.to_alcotest
          [ prop_encode_matches; prop_decode_canonical; prop_of_entries; prop_copy_independent;
            prop_stamp_format; prop_decode_odd; prop_decode_mangled ] );
      ( "cases",
        [
          Alcotest.test_case "empty and blank bodies" `Quick test_empty_and_blank;
          Alcotest.test_case "unsorted body" `Quick test_unsorted_body_is_canonicalised;
          Alcotest.test_case "malformed bodies" `Quick test_malformed;
        ] );
    ]
