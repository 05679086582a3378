(** A deliberately-dumb reference implementation of the polyhedral
    operations, for differential testing of {!Poly}, {!Union}, {!Farkas} and
    {!Count}.

    Everything here reduces to two primitives: direct constraint evaluation
    (membership) and dense enumeration of an explicit bounding {!type-box}.
    No simplification, no Fourier–Motzkin, no sharing of code with the
    production kernel beyond the [Aff]/[Space] data types themselves — so a
    bug in the clever code cannot hide in the oracle.

    Soundness argument: every generated test polyhedron carries its box
    bounds as explicit constraints, so its integer points — and those of
    anything derived from it by intersection, projection onto the same
    dimensions, or difference — all lie inside the box.  Within the box,
    integer semantics is decidable by brute force, and that is all the
    oracle does.  See DESIGN.md, "Differential oracle for the polyhedral
    kernel". *)

type box = (string * int * int) list
(** [(dim, lo, hi)] per dimension, both bounds inclusive. *)

val box_space : box -> Space.t
val box_poly : box -> Poly.t
(** The box itself as a polyhedron ([lo <= d <= hi] for every dimension). *)

val grid : box -> (string * int) list list
(** Every integer assignment of the box, lexicographically in box order. *)

val sat : Poly.t -> (string * int) list -> bool
(** Direct evaluation of every constraint — the oracle's membership test.
    The assignment must cover every dimension of the polyhedron's space. *)

val sat_union : Union.t -> (string * int) list -> bool

val points : box -> Poly.t -> (string * int) list list
(** The integer points of the polyhedron inside the box, by dense
    enumeration.  Exhaustive when the polyhedron includes its box bounds.
    @raise Invalid_argument if a space dimension is missing from the box. *)

val union_points : box -> Union.t -> (string * int) list list

val canon : (string * int) list list -> (string * int) list list
(** Canonical form for comparing point sets from different sources. *)

(** Differential checks.  Each returns [None] when the production kernel
    agrees with the oracle and [Some message] describing the first
    discrepancy otherwise. *)
module Check : sig
  val simplify : box -> Poly.t -> string option
  (** [simplify], [simplify ~tighten:false] and [compact] preserve the
      integer point set. *)

  val eliminate_sound : box -> Poly.t -> string list -> string option
  (** No integer point of the polyhedron is lost by projection (valid for
      arbitrary coefficients: Fourier–Motzkin is a rational relaxation, so
      it may only over-approximate). *)

  val eliminate_exact : box -> Poly.t -> string -> string option
  (** Projection equals the oracle's integer shadow.  Only valid when every
      constraint's coefficient on the eliminated dimension is in [{-1,0,1}]
      (the class where Fourier–Motzkin is integrally exact); the caller's
      generator must guarantee that. *)

  val subtract : box -> Poly.t -> Poly.t -> string option
  (** The pieces of [Poly.subtract p q] are pairwise disjoint, each is a
      subset of [p], and their union is exactly [p \ q]. *)

  val search : box -> Poly.t -> string option
  (** [mem], [sample], [enumerate], [is_integrally_empty] agree with brute
      force; [is_rationally_empty] never contradicts a found integer
      point. *)

  val emptiness_memo : ?memo:Poly.memo -> Random.State.t -> Poly.t list -> string option
  (** [is_rationally_empty] through one memo shared by all the systems,
      each queried twice, as given, with its constraints shuffled and with
      one inequality's constant tightened (choices drawn from the state),
      returns exactly the memo-less verdict of each query.  [memo] (default
      a fresh one) may already hold verdicts, or be filled by other domains
      at the same time. *)

  val union_ops : box -> Union.t -> Union.t -> string option
  (** [union], [intersect], [subtract], [mem], [is_empty] against oracle set
      algebra; [enumerate] is duplicate-free and complete. *)

  val farkas : box -> Poly.t -> string option
  (** Certificate soundness over a 2-d polyhedron on dims [i], [j]: every
      integer point of [nonneg_on] (resp. [zero_on]) with unknowns
      [(a, b, c)] in [-2..2]^3 makes [a*i + b*j + c] non-negative (resp.
      zero) on every oracle point. *)

  val count_exact : box -> Poly.t -> string option
  (** When [Count.count] over all dimensions returns a polynomial, it is
      constant and equals the oracle's point count. *)

  val count_parametric :
    box -> Poly.t -> over:string list -> param:string -> values:int list -> string option
  (** Parametric count evaluated at each concrete [param] value against the
      oracle, on the contract's validity region (concretely non-empty). *)

  val rename : box -> Poly.t -> string option
  (** A permutation of the dimension names maps the point set accordingly;
      a colliding mapping raises [Invalid_argument]. *)
end

(** Seeded random generation of small boxed polyhedra, unions and affine
    constraints (self-contained so the bench harness can run campaigns
    without QCheck). *)
module Gen : sig
  type state = Random.State.t

  val make : int -> state
  val int_in : state -> int -> int -> int
  val box : state -> string list -> side:int -> box

  val poly : ?units:bool -> state -> box -> nges:int -> neqs:int -> Poly.t
  (** The box constraints plus [nges] random inequalities and [neqs] random
      equalities (coefficients in [-2..2], or [-1..1] with [units]). *)

  val union_ : state -> box -> Union.t
  (** One or two random disjuncts over the box. *)
end

type campaign = {
  cases : int;  (** total cases executed *)
  per_class : (string * int) list;  (** cases per operation class *)
  discrepancies : (string * string) list;
      (** (class, message); capped at 50 retained entries *)
}

val campaign : seed:int -> count:int -> campaign
(** Run [count] seeded random cases of every operation class.  Deterministic
    for a given [(seed, count)]. *)
