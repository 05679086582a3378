(** Computation tags attached to statements.

    The optimizer only needs the I/O pattern; kernels matter to the execution
    engine (which blocks to combine how) and to the CPU cost model.  Operand
    blocks are the statement's read accesses whose map differs from the write
    access, in declaration order. *)

type t =
  | Assign_add  (** W = R1 + R2, element-wise *)
  | Assign_sub  (** W = R1 - R2, element-wise *)
  | Gemm_acc of { ta : bool; tb : bool }
      (** W += op(R1) * op(R2); the written block is zero-initialised at the
          first accumulating instance that touches it. [ta]/[tb] transpose
          the operands (BLAS-style flags). *)
  | Invert  (** W = R1^-1 (single-block Gauss-Jordan) *)
  | Rss_acc  (** W += column-wise residual sums of squares of R1 *)
  | Copy  (** W = R1 *)
  | Filter
      (** Pig-style FILTER over a blocked table: keep elements satisfying the
          predicate (positive values), zero-pad the rest *)
  | Foreach  (** Pig-style FOREACH: per-element transform (2x + 1) *)
  | Join_nl
      (** block nested-loop join: W[i,j] combines the i-th block of the outer
          table with the j-th block of the inner table (outer-product match
          scores) *)
  | Opaque of string  (** I/O pattern only; no computation *)

val is_accumulating : t -> bool

val is_elementwise : t -> bool
(** The kernels a fused chain interior may run: add, sub, copy, filter,
    foreach.  Each is pointwise over the tile. *)

val chain_arity : t -> int option
(** The operand count of a kernel that may take part in a fused chain (the
    element-wise kernels, plus [Rss_acc] as a chain terminal); [None] for
    every other kernel. *)

val name : t -> string
val pp : Format.formatter -> t -> unit
