type status = Live | Tombstone

type entry = { name : string; ino : int; status : status; stamp : float; origin : int }

(* A directory is its own encoding. [body] is the canonical byte form —
   one line per entry, "name\tino\tL|T\tstamp\torigin\n", sorted by name
   with no duplicates, integers in decimal and stamps in OCaml's "%h"
   hexadecimal — and the first [count] cells of [starts] hold the offset
   of every line, so lookups binary-search the name fields in place. An
   update replaces [body] and [starts], never mutates them: [copy] shares
   them. *)
type t = { mutable body : string; mutable starts : int array; mutable count : int }

let empty () = { body = ""; starts = [||]; count = 0 }

(* ---- formatting ---- *)

(* Decimal, as "%d" prints it. Digits come from the non-positive value,
   so [min_int] needs no special case. *)
let rec add_digits b neg =
  if neg <= -10 then add_digits b (neg / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (neg mod 10)))

let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

(* Hexadecimal float, byte-equal to [Printf.sprintf "%h"]: sign, "0x", the
   leading bit, the 52-bit fraction with trailing zero digits dropped, and
   a signed binary exponent; subnormals print as 0x0.<fraction>p-1022. *)
let add_stamp b x =
  let bits = Int64.bits_of_float x in
  if Int64.compare bits 0L < 0 then Buffer.add_char b '-';
  let e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7FF in
  let m = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
  if e = 0x7FF then Buffer.add_string b (if m = 0 then "infinity" else "nan")
  else begin
    Buffer.add_string b "0x";
    Buffer.add_char b (if e = 0 then '0' else '1');
    let exp = if e = 0 then if m = 0 then 0 else -1022 else e - 1023 in
    if m <> 0 then begin
      Buffer.add_char b '.';
      let rest = ref m and shift = ref 48 in
      while !rest <> 0 do
        Buffer.add_char b (hex_digit ((!rest lsr !shift) land 0xF));
        rest := !rest land ((1 lsl !shift) - 1);
        shift := !shift - 4
      done
    end;
    Buffer.add_char b 'p';
    if exp >= 0 then Buffer.add_char b '+';
    add_int b exp
  end

let add_line b ~name ~ino ~status ~stamp ~origin =
  Buffer.add_string b name;
  Buffer.add_char b '\t';
  add_int b ino;
  Buffer.add_char b '\t';
  Buffer.add_char b (match status with Live -> 'L' | Tombstone -> 'T');
  Buffer.add_char b '\t';
  add_stamp b stamp;
  Buffer.add_char b '\t';
  add_int b origin;
  Buffer.add_char b '\n'

(* ---- reading lines in place ---- *)

(* Every read below is inside the body: a line always ends with '\n',
   and fields are found by scanning for separators that are known to be
   there. *)
let get = String.unsafe_get

(* Offset of the tab ending the field that starts at [p]. *)
let rec field_end s p = if get s p = '\t' then p else field_end s (p + 1)

(* Sign of (name field starting at [p]) - [name], from byte [i] on. The
   field ends at its tab, so bytes below '\t' in names compare as
   [String.compare] says. *)
let rec compare_name s p name i =
  let c = get s (p + i) in
  if c = '\t' then if i = String.length name then 0 else -1
  else if i = String.length name then 1
  else
    let d = Char.code c - Char.code (get name i) in
    if d <> 0 then d else compare_name s p name (i + 1)

(* Sign of (name field at [p]) - (name field at [q]), both in [s]. *)
let rec compare_fields s p q =
  let c = get s p and d = get s q in
  if c = '\t' then if d = '\t' then 0 else -1
  else if d = '\t' then 1
  else if c <> d then Char.code c - Char.code d
  else compare_fields s (p + 1) (q + 1)

let rec search_in t name lo hi =
  if lo >= hi then lnot lo
  else
    let mid = (lo + hi) lsr 1 in
    let c = compare_name t.body t.starts.(mid) name 0 in
    if c = 0 then mid else if c < 0 then search_in t name (mid + 1) hi else search_in t name lo mid

(* Index of the line named [name], or [lnot] of its insertion point. *)
let search t name = search_in t name 0 t.count

(* Decimal integer ending at the tab or newline at or after [p]. *)
let rec parse_int_from s p acc neg =
  match get s p with
  | '0' .. '9' as c -> parse_int_from s (p + 1) ((acc * 10) + (Char.code c - 48)) neg
  | _ -> if neg then -acc else acc

let parse_int s p =
  if get s p = '-' then parse_int_from s (p + 1) 0 true
  else parse_int_from s p 0 false

(* Positions of the ino and status fields of line [i]. *)
let ino_pos t i = field_end t.body t.starts.(i) + 1

let status_pos t i = field_end t.body (ino_pos t i) + 1

let is_live t i = get t.body (status_pos t i) = 'L'

let entry_at t i =
  let s = t.body in
  let p0 = t.starts.(i) in
  let p1 = field_end s p0 in
  let ps = field_end s (p1 + 1) + 1 in
  let pt = ps + 2 in
  let po = field_end s pt + 1 in
  {
    name = String.sub s p0 (p1 - p0);
    ino = parse_int s (p1 + 1);
    status = (if s.[ps] = 'L' then Live else Tombstone);
    stamp = float_of_string (String.sub s pt (po - 1 - pt));
    origin = parse_int s po;
  }

let lookup t name =
  let i = search t name in
  if i >= 0 && is_live t i then Some (parse_int t.body (ino_pos t i)) else None

let find_entry t name =
  let i = search t name in
  if i >= 0 then Some (entry_at t i) else None

let fold_lines t f acc =
  let acc = ref acc in
  for i = t.count - 1 downto 0 do
    acc := f i !acc
  done;
  !acc

let all_entries t = fold_lines t (fun i acc -> entry_at t i :: acc) []

let live_entries t =
  fold_lines t (fun i acc -> if is_live t i then entry_at t i :: acc else acc) []

let cardinal t = fold_lines t (fun i n -> if is_live t i then n + 1 else n) 0

let names_of_ino t ino =
  fold_lines t
    (fun i acc ->
      if is_live t i && parse_int t.body (ino_pos t i) = ino then
        let p = t.starts.(i) in
        String.sub t.body p (field_end t.body p - p) :: acc
      else acc)
    []

(* ---- updates: one formatted line spliced into the body ---- *)

let scratch = Buffer.create 128

(* Replace lines [i, j) (j = i: insert before line i) by the line in
   [scratch]. *)
let splice t i j =
  let old = t.body in
  let lo = if i < t.count then t.starts.(i) else String.length old in
  let hi = if j < t.count then t.starts.(j) else String.length old in
  let len = Buffer.length scratch in
  let delta = len - (hi - lo) in
  let body = Bytes.create (String.length old + delta) in
  Bytes.blit_string old 0 body 0 lo;
  Buffer.blit scratch 0 body lo len;
  Bytes.blit_string old hi body (lo + len) (String.length old - hi);
  let n = t.count + 1 - (j - i) in
  let starts =
    Array.init n (fun k ->
        if k <= i then if k < t.count then t.starts.(k) else lo
        else t.starts.(k - 1 + (j - i)) + delta)
  in
  t.body <- Bytes.unsafe_to_string body;
  t.starts <- starts;
  t.count <- n

let valid_name name =
  String.length name > 0
  && String.for_all (fun c -> c <> '/' && c <> '\t' && c <> '\n') name

let insert t ~name ~ino ~stamp ~origin =
  if not (valid_name name) then invalid_arg "Dir.insert: invalid name";
  Buffer.clear scratch;
  add_line scratch ~name ~ino ~status:Live ~stamp ~origin;
  let i = search t name in
  if i >= 0 then splice t i (i + 1) else splice t (lnot i) (lnot i)

let remove t ~name ~stamp ~origin =
  let i = search t name in
  if i >= 0 && is_live t i then begin
    Buffer.clear scratch;
    add_line scratch ~name ~ino:(parse_int t.body (ino_pos t i)) ~status:Tombstone ~stamp
      ~origin;
    splice t i (i + 1);
    true
  end
  else false

(* ---- bulk construction ---- *)

(* Entries given newest first: sort by name, keep the first of each. *)
let of_newest_first entries =
  let sorted = List.stable_sort (fun a b -> String.compare a.name b.name) entries in
  let b = Buffer.create 4096 and starts = ref [] and prev = ref None in
  List.iter
    (fun e ->
      if not (Option.equal String.equal !prev (Some e.name)) then begin
        starts := Buffer.length b :: !starts;
        add_line b ~name:e.name ~ino:e.ino ~status:e.status ~stamp:e.stamp ~origin:e.origin;
        prev := Some e.name
      end)
    sorted;
  let starts = Array.of_list (List.rev !starts) in
  { body = Buffer.contents b; starts; count = Array.length starts }

let of_entries entries =
  List.iter
    (fun e ->
      if String.exists (fun c -> c = '\t' || c = '\n') e.name then
        invalid_arg "Dir.of_entries: invalid name")
    entries;
  of_newest_first (List.rev entries)

(* ---- decoding ---- *)

exception Not_canonical

(* The canonical-form checks below read [s] without bounds checks. They
   rely on one invariant, established first by [decode_canonical]: the
   body ends with '\n'. Every read is at the start of a line or just
   after a byte that was found not to be '\n', so it is in bounds. *)

let digit c = c >= '0' && c <= '9'

let hex c = digit c || (c >= 'a' && c <= 'f')

(* End of a decimal integer at [p] in "%d" form, followed by [stop]; at
   most 18 digits, so it cannot overflow. *)
let canonical_int s p stop =
  let neg = get s p = '-' in
  let p = if neg then p + 1 else p in
  let q = ref p in
  while digit (get s !q) do incr q done;
  let n = !q - p in
  if n = 0 || n > 18 || (get s p = '0' && (n > 1 || neg)) || get s !q <> stop then
    raise Not_canonical;
  !q

(* End of a finite stamp at [p] in the exact form {!add_stamp} prints. *)
let canonical_stamp s p =
  let p = if get s p = '-' then p + 1 else p in
  if get s p <> '0' || get s (p + 1) <> 'x' then raise Not_canonical;
  let lead = get s (p + 2) in
  if lead <> '0' && lead <> '1' then raise Not_canonical;
  let q = ref (p + 3) in
  let frac = get s !q = '.' in
  if frac then begin
    incr q;
    let f0 = !q in
    while hex (get s !q) do incr q done;
    let n = !q - f0 in
    if n = 0 || n > 13 || get s (!q - 1) = '0' then raise Not_canonical
  end;
  if get s !q <> 'p' then raise Not_canonical;
  let sign = get s (!q + 1) in
  if sign <> '+' && sign <> '-' then raise Not_canonical;
  let e0 = !q + 2 in
  if get s e0 = '-' then raise Not_canonical;
  let e1 = canonical_int s e0 '\t' in
  let exp = parse_int s e0 in
  let ok =
    if lead = '0' then if sign = '+' then (not frac) && exp = 0 else frac && exp = 1022
    else if sign = '+' then exp <= 1023
    else exp >= 1 && exp <= 1022
  in
  if not ok then raise Not_canonical;
  e1

(* End of the name field at [p]: its tab. *)
let rec name_end s p =
  match get s p with '\t' -> p | '\n' -> raise Not_canonical | _ -> name_end s (p + 1)

(* One pass over a body already in canonical form: check every line and
   the name order, and record the line starts. No per-entry allocation. *)
let decode_canonical s =
  let len = String.length s in
  if len > 0 && get s (len - 1) <> '\n' then raise Not_canonical;
  let starts = ref (Array.make ((len / 32) + 1) 0) and n = ref 0 in
  let p = ref 0 in
  while !p < len do
    let p0 = !p in
    let q = name_end s p0 in
    if !n > 0 && compare_fields s !starts.(!n - 1) p0 >= 0 then raise Not_canonical;
    let q = canonical_int s (q + 1) '\t' + 1 in
    let status = get s q in
    if (status <> 'L' && status <> 'T') || get s (q + 1) <> '\t' then raise Not_canonical;
    let q = canonical_stamp s (q + 2) + 1 in
    p := canonical_int s q '\n' + 1;
    if !n = Array.length !starts then begin
      let grown = Array.make (2 * !n) 0 in
      Array.blit !starts 0 grown 0 !n;
      starts := grown
    end;
    !starts.(!n) <- p0;
    incr n
  done;
  { body = s; starts = !starts; count = !n }

(* Any other body: parse every line, sort, and keep the last entry of a
   repeated name. Raises [Failure] on a malformed line. *)
let decode_any s =
  let entries =
    List.fold_left
      (fun acc line ->
        if String.length line = 0 then acc
        else
          match String.split_on_char '\t' line with
          | [ name; ino; status; stamp; origin ] ->
            let status =
              match status with
              | "L" -> Live
              | "T" -> Tombstone
              | _ -> failwith "Dir.decode: bad status"
            in
            {
              name;
              ino = int_of_string ino;
              status;
              stamp = float_of_string stamp;
              origin = int_of_string origin;
            }
            :: acc
          | _ -> failwith "Dir.decode: malformed entry")
      [] (String.split_on_char '\n' s)
  in
  of_newest_first entries

let decode s = try decode_canonical s with Not_canonical -> decode_any s

let encode t = t.body

let copy t = { body = t.body; starts = t.starts; count = t.count }

let equal a b = String.equal a.body b.body
