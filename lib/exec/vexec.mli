(** Plan compilation: the one executor behind every {!Engine.run}.

    Each step's statement, kernel, operand accesses and block layouts are
    resolved once per (program, plan) pair, leaving closures the engine calls
    with raw float buffers.  This module holds the engine's only kernel
    dispatch table.  With [fuse] (the default) it also consumes
    {!Riot_plan.Fuse.analyze}'s legality verdict and collapses each fusable
    run of element-wise steps into a single {!Riot_kernels.Dense.chain} that
    makes one pass over the tile, so the run's intermediate (link) blocks
    never materialize in the buffer pool at all.  Without it every step
    compiles to a {!Single} carrying the plan's own pins and drops.

    Compilation never raises on a malformed step: arity mismatches compile to
    closures that raise {!Arity} when invoked, so a run fails at the
    offending step (after the preceding steps' effects), not at compile
    time. *)

exception
  Arity of { step : int; stmt : string; kernel : string; operands : int }
(** Raised (lazily, from a compiled kernel closure) when a statement's
    operand count does not match its kernel.  The engine rewraps it as
    [Engine.Kernel_arity]. *)

type op_src =
  | Rd of int  (** operand aliases the step's i-th read buffer *)
  | Pool of Riot_plan.Cplan.block
      (** operand is a block the step does not read; resolved from the pool
          at call time (with a residency check) *)

type single = {
  s_step : int;
  s_stmt : string;
  s_instance : (string * int) list;
  s_reads : (Riot_plan.Cplan.block * Riot_plan.Cplan.read_src) array;
  s_write : (Riot_plan.Cplan.block * Riot_plan.Cplan.write_dst) option;
      (** first write, the one the kernel produces (at most one by the IR's
          single-write assumption) *)
  s_fill : bool;
      (** accumulating kernel with no self-read at this instance: the write
          buffer must be zeroed before the kernel runs *)
  s_ops : op_src array;
  s_drops : Riot_plan.Cplan.block array;
      (** [Cplan.sweep] of the step; fused groups filter their link blocks
          out, which are never resident *)
  s_kernel : float array array -> float array -> unit;
      (** [kernel operands write_buf]; [write_buf] is [[||]] when the step
          has no write *)
}

type terminal =
  | Ew  (** chain ends in an element-wise write: one fused pass lands
            directly in the destination buffer *)
  | Rss of { rows : int; cols : int }
      (** chain feeds an [Rss_acc]: the fused pass produces the scratch tile,
          then the accumulation consumes it *)

type fused = {
  f_lo : int;
  f_hi : int;  (** plan step range [lo, hi], inclusive *)
  f_steps : single array;
      (** per-step compilation of every step in the range, used to replay
          the per-step events *)
  f_prev_read : int array;
      (** per step offset, the index in that step's [s_reads] of the incoming
          link block (the one the chain keeps in the scratch tile), or -1 *)
  f_links : Riot_plan.Cplan.block array;
      (** the skipped intermediate blocks, [f_hi - f_lo] of them *)
  f_chain : Riot_kernels.Dense.chain;
  f_binds : (int * int) array;
      (** chain-global operand table: slot [i] of the chain's [Buf i] sources
          is the [(step offset, read index)] buffer *)
  f_captured : float array array array;
      (** per-step captured-read scratch, reused across runs (a [compiled] is
          domain-confined, so runs on it are sequential); only slots the
          current run's read phase fills are ever consumed via [f_binds] *)
  f_terminal : terminal;
}

type op = Single of single | Fused of fused

type compiled = {
  ops : op array;  (** in plan-step order; ranges partition the steps *)
  n_fused : int;  (** number of multi-step groups (diagnostics) *)
  pins : Riot_plan.Cplan.pin_index;
      (** [Cplan.pin_index] with the fused groups' link pins filtered out *)
}

val compile : ?fuse:bool -> Riot_plan.Cplan.t -> compiled
(** [fuse] (default true) collapses fusable runs into {!Fused} groups; with
    [fuse = false] every step is a {!Single} and [n_fused = 0]. *)

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
