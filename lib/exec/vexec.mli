(** Plan compilation: the one executor behind every {!Engine.run}.

    Each step's statement, kernel, operand accesses and block layouts are
    resolved once per (program, plan) pair, leaving closures the engine calls
    with raw float buffers.  This module holds the engine's only kernel
    dispatch table.  With [fuse] (the default) it also consumes
    {!Riot_plan.Fuse.analyze}'s legality verdict and collapses each fusable
    run of element-wise steps into a single {!Riot_kernels.Dense.chain} that
    makes one pass over the tile, so the run's intermediate (link) blocks
    never materialize in the buffer pool at all.  The protocol itself is
    {!Riot_plan.Cplan.lower}'s program; this module supplies the payload of
    its [Kernel] ops.

    Compilation never raises on a malformed step: arity mismatches compile to
    closures that raise {!Arity} when invoked, so a run fails at the
    offending step (after the preceding steps' effects), not at compile
    time. *)

exception
  Arity of { step : int; stmt : string; kernel : string; operands : int }
(** Raised (lazily, from a compiled kernel closure) when a statement's
    operand count does not match its kernel.  The engine rewraps it as
    [Engine.Kernel_arity]. *)

type operand =
  | Slot of int  (** the buffer the unit's reads captured in this slot *)
  | Pool of int
      (** a block id the step does not read; resolved from the pool at call
          time, with a residency check *)
  | Absent of Riot_plan.Cplan.block
      (** a block the plan never reads, writes or pins, so never resident *)

type kernel = {
  operands : operand array;
  run : float array array -> float array -> unit;
      (** [run operands write_buf]; [write_buf] is [[||]] when the unit has
          no write *)
}
(** A unit's compiled kernel: one step's closure from the kernel table, or
    a fused chain's single pass over the tile. *)

type compiled = {
  program : Riot_plan.Cplan.program;  (** the plan's lowering, fused or not *)
  kernels : kernel array;
      (** by the first step of each unit: the payload of its [Kernel] op *)
  n_fused : int;  (** number of multi-step units (diagnostics) *)
}

val compile : ?fuse:bool -> Riot_plan.Cplan.t -> compiled
(** [fuse] (default true) lowers each fusable run as one chain unit; with
    [fuse = false] every step is its own unit and [n_fused = 0]. *)

val compiled_for : ?fuse:bool -> Riot_plan.Cplan.t -> compiled
(** [compiled_for ~fuse plan] is [compile ~fuse plan] memoized on the plan's
    physical identity and [fuse] in a small domain-local cache.  Compiling
    costs about as much as executing the plan once, so repeated runs of one
    plan value —
    best-of-N benchmarking, crash/restart recovery, differential testing —
    should use this entry point.  The cache is domain-local because a
    [compiled] owns mutable scratch (each fused chain's tile) and must not
    be shared across domains; within a domain sequential reuse is safe
    because every chain stage writes its tile before reading it. *)
