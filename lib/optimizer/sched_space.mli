(** The space of unknown schedule coefficients for one schedule row, and the
    translation of dependences and sharing opportunities into polyhedral
    constraints over it (Section 5.2 of the paper).

    For each statement [s] there is one unknown per dimension of [s]'s space
    (loop variables and parameters) plus one for the constant; a point of the
    space is one affine schedule row for every statement simultaneously.
    Because the optimizer works depth by depth, the same space and the same
    translated constraints are reused at every depth, so each co-access is
    run through the Farkas machinery once and cached. *)

type t

val make : Riot_ir.Program.t -> t

val space : t -> Riot_poly.Space.t
(** The unknown-coefficient space. *)

val loop_coeff_names : t -> stmt:string -> string list
(** Unknowns for the loop-variable coefficients only, outer to inner. *)

val row_of_point : t -> stmt:Riot_ir.Stmt.t -> (string * int) list -> Riot_poly.Aff.t
(** Decode a sampled point of the space into an affine schedule row for the
    statement (over the statement's own space). *)

val weak : t -> Riot_analysis.Coaccess.t -> Riot_poly.Poly.t
(** Constraints making [theta' x' - theta x >= 0] on the whole extent
    (cached). *)

val strong : t -> Riot_analysis.Coaccess.t -> Riot_poly.Poly.t
(** [theta' x' - theta x >= 1] on the whole extent (cached). *)

val equal_zero : t -> Riot_analysis.Coaccess.t -> Riot_poly.Poly.t
(** [theta' x' - theta x = 0] on the whole extent (cached). *)

val equal_const : t -> delta:int -> Riot_analysis.Coaccess.t -> Riot_poly.Poly.t
(** [theta' x' - theta x = delta] on the whole extent (cached). *)

val prefill : t -> deps:Riot_analysis.Coaccess.t list -> sharing:Riot_analysis.Coaccess.t list -> unit
(** Populate the Farkas cache with every form the schedule search uses —
    {!weak}/{!strong} for each dependence, {!equal_zero} and
    [equal_const ~delta:(+-1)] for each sharing opportunity — then freeze
    it.  After [prefill] the value is safe to share read-only across
    domains: a miss (none is expected) recomputes without inserting. *)
