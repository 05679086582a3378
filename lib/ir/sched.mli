(** Multidimensional affine schedules.

    A statement schedule is an array of affine rows over the statement's
    space; evaluating the rows at an instance yields its multidimensional
    execution time, ordered lexicographically.  Time vectors of different
    lengths compare with implicit zero padding. *)

type t = Riot_poly.Aff.t array

type program_sched = (string * t) list
(** One schedule per statement, keyed by statement name. *)

val time_of : t -> (string -> int) -> int array

val over : Riot_poly.Space.t -> t -> t
(** The rows re-expressed over [space] (rows already over it are kept as
    they are), so that {!time_of_vec} can read points of that space.
    @raise Invalid_argument if a row uses a dimension [space] lacks. *)

val time_of_vec : t -> int array -> int array
(** {!time_of} at a point given as a vector over the rows' space (see
    {!over} and {!Stmt.point}): the same time, with no name looked
    up. *)

val lex_compare : int array -> int array -> int
(** Lexicographic comparison with zero padding of the shorter vector. *)

val lex_lt : int array -> int array -> bool

val rows : t -> int

val find : program_sched -> string -> t
(** @raise Not_found for an unknown statement. *)

val pp : Format.formatter -> t -> unit
