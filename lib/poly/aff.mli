(** Affine expressions with integer coefficients over a {!Space}.

    An expression is [sum_i coeffs.(i) * dim_i + const].  All arithmetic is
    overflow-checked. *)

type t = { space : Space.t; coeffs : int array; const : int }

val zero : Space.t -> t
val const : Space.t -> int -> t
val dim : Space.t -> string -> t
(** The expression that is just the named dimension. *)

val of_assoc : Space.t -> ?const:int -> (string * int) list -> t

val coeff : t -> string -> int
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val neg : t -> t
val add_const : t -> int -> t

val combine : int -> t -> int -> t -> t
(** [combine k1 a k2 b] is [add (scale k1 a) (scale k2 b)], built in one
    array; it raises [Overflow] exactly when that expression does.
    @raise Invalid_argument if [a] and [b] live in different spaces. *)

val is_constant : t -> bool
val is_zero : t -> bool
val equal : t -> t -> bool

val eval : t -> (string -> int) -> int
(** Evaluate with a full assignment of dimensions. *)

val eval_vec : t -> int array -> int
(** [eval] at the point whose [i]-th entry is the value of dimension [i]:
    the same value, with no name looked up. *)

val eval_q : t -> (string -> Riot_base.Q.t) -> Riot_base.Q.t

val cast : Space.t -> t -> t
(** Re-express in another space. Every dimension with a non-zero coefficient
    must exist in the target space.
    @raise Invalid_argument otherwise. *)

val subst : t -> string -> t -> t
(** [subst e x r] replaces dimension [x] by expression [r] (same space).
    Exact only when it is: the caller must ensure [r]'s denominator-free form;
    here [r] is affine with integer coefficients so substitution is exact. *)

val subst_at : t -> int -> t -> t
(** [subst] of the dimension at an index.
    @raise Invalid_argument if [e] and [r] live in different spaces. *)

val fix_dims : t -> (string * int) list -> t
(** Substitute integer values for dimensions; the result stays in the same
    space with those coefficients zeroed into the constant. *)

val content_gcd : t -> int
(** gcd of all coefficients (not the constant); 0 for a constant expression. *)

val pp : Format.formatter -> t -> unit
