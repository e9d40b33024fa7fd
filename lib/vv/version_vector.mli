(** Version vectors, after Parker et al. [PARK 83], "Detection of Mutual
    Inconsistency in Distributed Systems".

    Each replicated file copy carries one vector; component [s] counts the
    updates originated (committed) at site [s]. Comparing two vectors tells
    whether one copy subsumes the other or whether the copies were updated
    concurrently in different partitions — the paper's sole conflict
    detection mechanism (§2.2.2, §4.2). *)

type t

type site = int

val zero : t
(** The vector of a freshly created, never-committed file. *)

val of_list : (site * int) list -> t

val to_list : t -> (site * int) list
(** Non-zero components, sorted by site: the canonical form, equal for
    equal vectors however they were built. Use it (not [t]) wherever a
    vector is compared with (=) or hashed. *)

val get : t -> site -> int

val bump : t -> site -> t
(** [bump v s] records one more update committed at site [s]. *)

val merge : t -> t -> t
(** Pointwise maximum: the vector of a copy that has seen both histories. *)

type order =
  | Equal       (** identical histories *)
  | Dominates   (** left has seen everything right has, and more *)
  | Dominated   (** right strictly subsumes left *)
  | Concurrent  (** conflicting updates in different partitions *)

val compare_vv : t -> t -> order

val dominates_or_equal : t -> t -> bool

val conflict : t -> t -> bool
(** [conflict a b] iff [compare_vv a b = Concurrent]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val pp_order : Format.formatter -> order -> unit

val to_string : t -> string
