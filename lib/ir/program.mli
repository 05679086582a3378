(** Whole programs: statements, arrays, parameters, parameter context, and
    the original schedule. *)

type t = {
  name : string;
  params : string list;
  context : Riot_poly.Poly.t;  (** over the parameter space *)
  arrays : Array_info.t list;
  stmts : Stmt.t list;
  original : Sched.program_sched;
}

val find_stmt : t -> string -> Stmt.t
(** @raise Not_found *)

val find_array : t -> string -> Array_info.t
(** @raise Not_found *)

val max_depth : t -> int
(** d-tilde: the deepest loop nest. *)

val writes_to : t -> string -> (Stmt.t * Access.t) list
(** All write accesses to the named array. *)

val instances : t -> Stmt.t -> params:(string * int) list -> (string * int) list list
(** Concrete statement instances (assignments of the qualified loop
    variables) at the given parameter values. *)

val validate : t -> unit
(** Check statements, array references and schedule coverage.
    @raise Invalid_argument on malformed programs. *)

val pp : Format.formatter -> t -> unit
