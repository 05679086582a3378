(** Co-accesses and their extent polyhedra (Definition 1 of the paper).

    The extent of a co-access [a -> a'] lives in the product space of the two
    statements' iteration domains (dimensions prefixed ["src."] and ["dst."])
    together with the shared program parameters.  It contains the pairs
    [(x, x')] such that both instances access the same array block and [x]
    executes strictly before [x'] under the original schedule - a union of
    basic polyhedra because "executes before" is a disjunction over depths. *)

type t = {
  array : string;
  src_stmt : string;
  src_acc : int;  (** index into the source statement's access list *)
  dst_stmt : string;
  dst_acc : int;
  src_typ : Riot_ir.Access.typ;
  dst_typ : Riot_ir.Access.typ;
  space : Riot_poly.Space.t;
  src_vars : string list;  (** space dims of the source instance, outer first *)
  dst_vars : string list;
  params : string list;
  extent : Riot_poly.Union.t;
}

val src_prefix : string
val dst_prefix : string

val rename_into :
  Riot_poly.Space.t -> prefix:string -> stmt:Riot_ir.Stmt.t -> Riot_poly.Aff.t -> Riot_poly.Aff.t
(** Re-express an affine form over a statement's space (qualified loop vars +
    params) in a co-access-style product space, prefixing loop variables. *)

val order_union :
  ?micro:int * int ->
  Riot_poly.Space.t ->
  src_rows:Riot_poly.Aff.t array ->
  dst_rows:Riot_poly.Aff.t array ->
  Riot_poly.Poly.t list
(** The "src executes strictly before dst" condition as a disjunction over
    depths, with zero padding of the shorter schedule.  [micro], when given,
    appends constant access-level ranks [(src_rank, dst_rank)] as a final
    time dimension, refining the order within a statement instance (reads
    before the write). *)

val make :
  Riot_ir.Program.t ->
  src:Riot_ir.Stmt.t * int ->
  dst:Riot_ir.Stmt.t * int ->
  t
(** Build the co-access with its full extent (before any pruning). *)

val is_dependence : t -> bool
(** Type R->W, W->R or W->W. *)

val is_sharing : t -> bool
(** Type W->R, W->W or R->R. *)

val is_self : t -> bool

val restrict_extent : t -> Riot_poly.Union.t -> t

val pairs_at : t -> params:(string * int) list -> ((string * int) list * (string * int) list) list
(** Concrete (source instance, target instance) pairs at the given parameter
    values; instances are assignments of the statements' qualified loop
    variables. *)

val label : t -> string
(** Human-readable label like ["s1.W.C -> s2.R.C"].  Not necessarily unique:
    a statement can access one array through several maps. *)

val key : t -> string
(** Unique identifier (label plus the access indices). *)

val pp : Format.formatter -> t -> unit
