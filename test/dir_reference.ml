(* Test oracle: the directory codec as it was before directories became
   their own encoding — a hash table of entries, sorted and printed one
   [Printf] line per entry on encode, split and parsed on decode. The
   library's [Catalog.Dir] must agree with it byte for byte. *)

type entry = Catalog.Dir.entry

type t = (string, entry) Hashtbl.t

let empty () : t = Hashtbl.create 16

let insert t ~name ~ino ~stamp ~origin =
  Hashtbl.replace t name { Catalog.Dir.name; ino; status = Catalog.Dir.Live; stamp; origin }

let remove t ~name ~stamp ~origin =
  match Hashtbl.find_opt t name with
  | Some ({ Catalog.Dir.status = Catalog.Dir.Live; _ } as e) ->
    Hashtbl.replace t name { e with Catalog.Dir.status = Catalog.Dir.Tombstone; stamp; origin };
    true
  | Some _ | None -> false

let lookup t name =
  match Hashtbl.find_opt t name with
  | Some { Catalog.Dir.status = Catalog.Dir.Live; ino; _ } -> Some ino
  | Some _ | None -> None

let all_entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t []
  |> List.sort (fun (a : entry) (b : entry) -> String.compare a.name b.name)

let encode t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (e : entry) ->
      Buffer.add_string buf
        (Printf.sprintf "%s\t%d\t%c\t%h\t%d\n" e.name e.ino
           (match e.status with Catalog.Dir.Live -> 'L' | Catalog.Dir.Tombstone -> 'T')
           e.stamp e.origin))
    (all_entries t);
  Buffer.contents buf

let decode s =
  let t = empty () in
  List.iter
    (fun line ->
      if String.length line > 0 then begin
        match String.split_on_char '\t' line with
        | [ name; ino; status; stamp; origin ] ->
          let status =
            match status with
            | "L" -> Catalog.Dir.Live
            | "T" -> Catalog.Dir.Tombstone
            | _ -> failwith "Dir.decode: bad status"
          in
          Hashtbl.replace t name
            {
              Catalog.Dir.name;
              ino = int_of_string ino;
              status;
              stamp = float_of_string stamp;
              origin = int_of_string origin;
            }
        | _ -> failwith "Dir.decode: malformed entry"
      end)
    (String.split_on_char '\n' s);
  t
