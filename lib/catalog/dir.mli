(** Directory contents.

    A directory is "a set of records, each one containing the character
    string comprising one element in the path name" plus the inode number it
    points at (§4.4). The two operations are insert and remove; removed
    entries leave *tombstones* carrying the time and site of the removal,
    which is exactly the deletion information the reconciliation rules of
    §4.4 require.

    A directory value is its own encoding: the canonical bytes written to
    the directory file's data pages (one line per entry, sorted by name)
    plus an index of line offsets. Decoding a canonical body only checks
    and indexes it; lookups binary-search the bytes in place; an update
    formats one line and splices it in. *)

type status = Live | Tombstone

type entry = {
  name : string;
  ino : int;           (** inode number within the directory's filegroup *)
  status : status;
  stamp : float;       (** simulated time of the last change to this entry *)
  origin : int;        (** site that performed the change *)
}

type t

val empty : unit -> t

val lookup : t -> string -> int option
(** Inode number bound to a live entry. *)

val find_entry : t -> string -> entry option
(** Entry, live or tombstone. *)

val insert : t -> name:string -> ino:int -> stamp:float -> origin:int -> unit
(** Add or resurrect a binding. Raises [Invalid_argument] on names
    containing the codec separators or "/" (or empty names). *)

val remove : t -> name:string -> stamp:float -> origin:int -> bool
(** Replace a live entry by a tombstone. Returns false if no live entry. *)

val live_entries : t -> entry list
(** Sorted by name. *)

val all_entries : t -> entry list
(** Live entries and tombstones, sorted by name. *)

val cardinal : t -> int
(** Number of live entries. *)

val names_of_ino : t -> int -> string list
(** All live names binding an inode (hard links). *)

val of_entries : entry list -> t
(** The directory obtained by inserting the entries (live or tombstone) in
    order into an empty one: a later entry for a name replaces an earlier
    one. Built in one pass, not one splice per entry. Names are taken as
    given (decoded names need not pass {!insert}'s check) but must not
    contain the codec separators; raises [Invalid_argument] if one does. *)

val encode : t -> string
(** The canonical body: "name\tino\tL|T\tstamp\torigin\n" per entry,
    sorted by name, stamps as [Printf "%h"] prints them. O(1). *)

val decode : string -> t
(** Inverse of {!encode}. A canonical body is checked and indexed in one
    pass; any other body (unsorted, repeated names, blank lines, other
    spellings of a number) is parsed, sorted and de-duplicated, the last
    line of a name winning. Raises [Failure] on malformed input. *)

val copy : t -> t
(** O(1): updates never modify a value in place. *)

val equal : t -> t -> bool
(** Same live bindings and same tombstones (the same canonical bytes). *)
