(** Fusion legality over concrete plans.

    A tile-vectorized executor merges runs of adjacent element-wise steps
    into one fused pass per tile, so the intermediates linking them never
    round-trip through the buffer pool.  This module decides, from the
    plan's own dependence information (memory-serviced reads, elided writes
    and pin intervals — all derived from the realized sharing set), which
    runs are legal.

    The boundary between steps [i] and [i + 1] may be fused over block [b]
    exactly when:

    - step [i] runs an element-wise kernel and its single write is the
      {e elided} write of [b] — the block's only write in the whole plan;
    - the plan's only read of [b] is a memory-serviced read at step [i + 1],
      whose kernel has a chain role in the kernel table
      ({!Riot_ir.Kernel.info}): element-wise, or a terminal;
    - every pin of [b] lies inside [[i, i + 1]];
    - both steps have exactly one write and the table's operand count, and
      every kernel operand appears in the step's own read list (so the
      executor can bind operands statically).

    Under these conditions [b] is invisible outside the pair: it never
    touches disk (elided write, memory read), never appears in a journal
    undo list (those hold blocks overwritten {e on disk}), and its pins
    open and close inside the fused run.  Maximal runs are built greedily;
    chain interiors additionally share one tile size so a single scratch
    buffer carries the intermediate values. *)

type group = {
  lo : int;  (** first step of the run *)
  hi : int;  (** last step; [lo = hi] for an unfused singleton *)
  links : int list;
      (** [hi - lo] skipped block ids: the block written at step [lo + k]
          and consumed at step [lo + k + 1] *)
}

val analyze : Cplan.t -> group list
(** Partition the plan's steps into maximal fusable runs, in step order
    (every step appears in exactly one group, groups are contiguous and
    ascending). *)

val fused_groups : group list -> int
(** Number of multi-step groups (convenience for benchmarks and tests). *)
