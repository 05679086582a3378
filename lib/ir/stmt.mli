(** Statements of a static-control program.

    A statement's space is its qualified loop variables (outer to inner,
    named ["<stmt>.<var>"]) followed by the program parameters; its iteration
    domain is a polyhedron over that space.  Each statement has at most one
    write access (the paper's assumption). *)

type t = {
  name : string;
  loop_vars : string list;  (** unqualified, outer to inner *)
  space : Riot_poly.Space.t;
  domain : Riot_poly.Poly.t;
  accesses : Access.t list;
  kernel : Kernel.t;
}

val qualify : string -> string -> string
(** [qualify stmt_name var] is ["stmt.var"]. *)

val qualified_vars : t -> string list
val depth : t -> int

val point : t -> params:(string * int) list -> (string * int) list -> int array
(** An instance (qualified loop variable values) as a vector over the
    statement's space, parameters taken from [params].
    @raise Not_found if a dimension is in neither. *)

val write_access : t -> Access.t option

val operand_reads : t -> Access.t list
(** Read accesses whose map differs from the write access (kernel operands,
    in declaration order). *)

val access_domain : t -> Access.t -> Riot_poly.Poly.t
(** The statement domain intersected with the access restriction. *)

val validate : t -> unit
(** @raise Invalid_argument if the statement is malformed (more than one
    write access, or an access map over the wrong space). *)

val pp : Format.formatter -> t -> unit
