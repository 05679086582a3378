(** An ordered list of named dimensions.

    Every polyhedron and affine expression lives in a space.  Dimension names
    are unique within a space; co-access polyhedra use statement-qualified
    names (e.g. ["s1.i"]) so that product spaces never collide. *)

type t

val of_names : string list -> t
(** @raise Invalid_argument on duplicate names. *)

val sub : t -> int list -> t
(** The dimensions at the given indices, in the given order (which must not
    repeat an index). *)

val dim : t -> int
val names : t -> string list
val name : t -> int -> string

val index : t -> string -> int
(** @raise Not_found if the name is absent. *)

val index_opt : t -> string -> int option
val mem : t -> string -> bool

val concat : t -> t -> t
(** Product space; names must stay unique. *)

val append : t -> string list -> t

val union : t -> t -> t
(** Dimensions of the first space followed by those of the second not already
    present (used to align spaces sharing parameter dimensions). *)

val remove : t -> string list -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
