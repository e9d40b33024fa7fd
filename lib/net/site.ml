type t = int

let compare = Int.compare

let equal = Int.equal

let pp ppf s = Format.fprintf ppf "s%d" s

let to_string s = Format.asprintf "%a" pp s

let pp_list ppf l =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp ppf l

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let set_of_list = Set.of_list
