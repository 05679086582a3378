(** Basic (convex) integer polyhedra: conjunctions of affine equalities and
    inequalities over a {!Space}.

    The implementation is built on Fourier–Motzkin elimination with integer
    tightening, plus recursive bound-descent for exact integer sampling and
    enumeration.  Projections are rational relaxations (standard for
    polyhedral dependence analysis); sampling and enumeration are exact. *)

type t

val space : t -> Space.t
val universe : Space.t -> t
val of_constraints : Space.t -> eqs:Aff.t list -> ges:Aff.t list -> t
val eqs : t -> Aff.t list
val ges : t -> Aff.t list

val add_eq : t -> Aff.t -> t
(** Constrain [aff = 0]. *)

val add_ge : t -> Aff.t -> t
(** Constrain [aff >= 0]. *)

val add_gt : t -> Aff.t -> t
(** Constrain [aff >= 1] (strict inequality on integers). *)

val intersect : t -> t -> t
(** Same space. *)

val cast : Space.t -> t -> t
(** Inject into a superspace (new dimensions unconstrained). *)

val simplify : ?tighten:bool -> t -> t
(** Normalise constraints, drop duplicates and syntactic redundancies.
    [tighten] (default [true]) applies integer tightening to inequalities.

    Normalisation contract.  The result is a function of the rows and
    their order, and {!memo} keys, samples and plans depend on it:
    - each row is divided by the gcd of its coefficients (with [tighten],
      an inequality's constant is rounded down; without it, the constant
      joins the gcd); a row already in lowest terms is kept as it is.  An
      equality's first non-zero coefficient is made positive;
    - equalities keep their first occurrence, in input order;
    - inequalities keep, per coefficient vector (direction), the first row
      of smallest constant, in input order;
    - a kept direction whose opposite direction's kept constant is exactly
      its negation becomes an equality: the earlier of the two rows is
      normalised as an equality, and these promoted equalities follow the
      others, latest first;
    - a trivially true row is dropped; a trivially false one yields the
      canonical empty polyhedron.
    Arithmetic is checked: a row whose negation does not fit an [int]
    raises {!Riot_base.Checked.Overflow}. *)

val compact : t -> t
(** Lightweight redundancy elimination: drop syntactically duplicate
    constraints and inequalities dominated by an identical-coefficient row
    with a weaker (larger) constant.  No normalisation, no emptiness checks;
    run after every Fourier–Motzkin step to curb constraint blowup in
    repeated projections.  It keeps rows as {!simplify} does: the first
    copy of each equality and the first strongest row of each direction,
    in input order. *)

val is_obviously_empty : t -> bool
(** Syntactic check after simplification (a constant constraint failed). *)

val eliminate : ?tighten:bool -> t -> string list -> t
(** Fourier–Motzkin elimination of the named dimensions (existential
    projection; rational relaxation).  The space is unchanged; eliminated
    dimensions become unconstrained.  [tighten] (default [true]) applies
    integer tightening, valid when remaining dimensions are integers. *)

val drop_dims : t -> string list -> t
(** [eliminate] followed by removing the dimensions from the space. *)

val fix_dims : t -> (string * int) list -> t
(** Substitute integer values for dimensions and remove them from the space. *)

val rename : t -> (string * string) list -> t
(** Rename dimensions ([mapping] entries are [(old, new)]; unlisted
    dimensions keep their name).  The renamed names must stay pairwise
    distinct — constraints keep their positional coefficient layout, so a
    collision would silently merge two dimensions.
    @raise Invalid_argument when the mapping collides two dimensions. *)

val renamed_names : who:string -> Space.t -> (string * string) list -> string list
(** The post-rename dimension names of [space] under [mapping], validated for
    collisions ([who] labels the raised error; shared with {!Union.rename}).
    @raise Invalid_argument when the mapping collides two dimensions. *)

val split_components : t -> t list
(** Split into independent sub-polyhedra over the connected components of the
    constraint graph (dimensions linked by a common constraint); constraints
    mentioning no dimension form their own component over the empty space,
    listed first.  Dimensions in no constraint belong to no component: they
    are unconstrained, so any value (e.g. 0) extends a point of the
    components.  Components are ordered by their smallest dimension index
    and list their dimensions in decreasing space order.  Emptiness and
    sampling factorise over the result. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed on a system exactly as given: its dimension names and the
    coefficients of every constraint, in order.  Two keys are equal only when
    every answer this module gives about them is the same. *)

type memo
(** Emptiness verdicts of connected components, keyed as in {!Tbl}.  A
    verdict depends on that key alone, so sharing a memo never changes an
    answer; it only saves repeating Fourier–Motzkin on a component seen
    before.  Domain-safe: lookups and inserts take the memo's lock, and the
    elimination itself runs outside it, so one memo can serve every domain of
    a search. *)

val memo : unit -> memo
(** A fresh, empty memo.  It holds everything it has decided until dropped:
    scope one to a unit of work (e.g. one schedule search). *)

val memo_size : memo -> int
(** Components decided through the memo so far (each counted once). *)

val memo_giveups : memo -> int
(** Of those, the components whose elimination passed the inequality budget
    and were answered "non-empty" by that give-up. *)

val is_rationally_empty : ?memo:memo -> t -> bool
(** No rational points (exact over the rationals; checked per connected
    component, consulting and filling [memo] when given).  A component whose
    elimination would pass an internal inequality budget counts as
    non-empty. *)

val is_integrally_empty :
  ?range:int -> ?on_truncate:(string -> unit) -> t -> bool
(** No integer points.

    Truncation contract: the verdict "non-empty" is always exact.  The
    verdict "empty" is exact only when every dimension is two-side bounded at
    every search level; a dimension with a one-sided or absent bound is only
    searched within a window of [2*range + 1] values (default [range] 64),
    and [on_truncate] fires with its name — a "true" under a truncation
    means "no point found in the window", i.e. the search gave up, not that
    the set is empty. *)

val sample :
  ?range:int ->
  ?prefer:(int -> int list -> int list) ->
  ?on_truncate:(string -> unit) ->
  ?fm_budget:int ->
  t ->
  (string * int) list option
(** An integer point, as an assignment for every dimension of the space.
    [prefer dimindex candidates] may reorder candidate values per dimension
    (default: nearest-zero first).  [range] bounds the search on dimensions
    without two-side bounds (default 64); [on_truncate] fires with the
    dimension name whenever such a window cap is applied, so [None] can be
    told apart from "gave up" (see {!is_integrally_empty}).  [fm_budget],
    when given, caps the inequality count of any intermediate
    Fourier-Motzkin level of the bound cascade; overflowing it surrenders
    the whole search ([None] plus [on_truncate "<fm-budget>"]) instead of
    risking a double-exponential constraint blow-up.  Exactness-sensitive
    callers should omit it (the default is unlimited). *)

val enumerate : ?max_points:int -> t -> (string * int) list list
(** All integer points.  Every dimension must be two-side bounded — a
    one-sided bound is rejected rather than silently truncated.
    @raise Failure if a dimension is unbounded (including one-sided) or
    [max_points] (default 1_000_000) is exceeded. *)

val mem : t -> (string -> int) -> bool
(** Does the assignment satisfy every constraint? *)

val subtract : t -> t -> t list
(** [subtract p q] is a list of disjoint basic polyhedra whose union is
    [p \ q] (over the integers). *)

val pp : Format.formatter -> t -> unit
