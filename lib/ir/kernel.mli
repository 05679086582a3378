(** Computation tags attached to statements, and the one table of what each
    tag means.

    The optimizer only needs the I/O pattern; kernels matter to the execution
    engine (which blocks to combine how) and to the CPU cost model.  Operand
    blocks are the statement's read accesses whose map differs from the write
    access, in declaration order.  Each fact about a kernel (name, arity,
    accumulation, chain role, operator text) is written once, in {!info}, and
    its CPU cost once, in {!cost}; the cost model, fusion legality, plan
    verification, code generation and the executor all read them here. *)

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

type role =
  | Elementwise
      (** pointwise over the tile: add, sub, copy, filter, foreach.  A fused
          chain may start, pass through or end at such a step. *)
  | Terminal  (** may only end a chain, consuming its last tile: [Rss_acc] *)

type info = {
  name : string;  (** as printed in traces, errors and plans *)
  arity : int option;
      (** the operand count the kernel has a shape for; [None] for [Opaque],
          which takes any count *)
  accumulating : bool;
      (** adds into its written block, which is zero-initialised at the
          first accumulating instance that touches it *)
  chain : role option;  (** [None]: the kernel never joins a fused chain *)
  op : string;
      (** the text that joins the operand names in a generated statement's
          comment: [" + "], [" - "], [" * "], else [", "] *)
}

val info : t -> info
(** The kernel table: every fact about a kernel that the optimizer, the
    plan layer and the executor must agree on.  The executor's mapping to
    [Riot_kernels.Dense] is the one other [match] on kernels
    ([Riot_exec.Vexec]), because this library cannot depend on the kernels
    library. *)

val cost : t -> write:Config.layout -> operand:Config.layout option -> float * float
(** [(flops, bytes moved)] of one instance, from the layouts of its written
    block and of its first operand block ([None] when it has none).  The CPU
    cost model charges flops at the gemm rate and bytes moved at the
    element-wise bandwidth ([Riot_plan.Cplan.cpu_seconds]). *)

val pp : Format.formatter -> t -> unit
