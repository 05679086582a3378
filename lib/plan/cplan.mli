(** Concrete executable plans.

    A plan is the lexicographically-ordered list of statement instances of a
    schedule at concrete configuration parameters, annotated with the I/O
    behaviour of every block access under the realized sharing opportunities:
    which reads are serviced from memory, which writes are elided (W->W
    sharing, and intermediate blocks whose every subsequent read is serviced
    from memory - the paper's footnote 8), and which blocks must stay pinned
    in memory over which step intervals.

    The same structure drives the cost model (Section 5.4) and the execution
    engine, so predicted and actual I/O agree by construction up to the disk
    model - exactly the property the paper demonstrates.  {!events} spells
    that agreement out as the predicted event stream a run must narrate. *)

type block = { array : string; index : int list }

type read_src = From_disk | From_memory
type write_dst = To_disk | Elided

type step = {
  stmt : string;
  instance : (string * int) list;  (** qualified loop variables *)
  time : int array;
  reads : (Riot_ir.Access.t * block * read_src) list;
  writes : (Riot_ir.Access.t * block * write_dst) list;
}

type t = {
  prog : Riot_ir.Program.t;
  config : Riot_ir.Config.t;
  sched : Riot_ir.Sched.program_sched;
  realized : Riot_analysis.Coaccess.t list;
  steps : step array;
  pins : (block * int * int) list;
      (** blocks that must stay resident over [start, stop] step indices *)
  read_bytes : int;
  write_bytes : int;
  read_ops : int;
  write_ops : int;
  peak_memory : int;  (** bytes: the resident high-water mark of {!events} *)
  flops : float;
  moved_bytes : float;  (** element-wise kernel traffic *)
}

type cache
(** The schedule-independent half of plan costing, built once per program
    and configuration and shared by every plan costed under them: each
    statement instance with its accesses resolved (restrictions applied,
    blocks computed and checked against the grid), blocks and instances
    interned to dense integer ids, per-block sizes, and the concrete extent
    pairs of sharing opportunities as instance-id pairs.

    A cache passed to {!build} is treated as strictly read-only, so one cache
    may be shared by plan costings running concurrently on several domains.
    Extent pairs for coaccesses outside the prefill set are recomputed
    locally on a miss instead of being inserted; prefill with every sharing
    opportunity of the program (see [coaccesses]) to make the parallel path
    miss-free. *)

val cache :
  ?coaccesses:Riot_analysis.Coaccess.t list ->
  Riot_ir.Program.t ->
  config:Riot_ir.Config.t ->
  cache
(** [coaccesses] eagerly materialises the concrete extent pairs of the given
    coaccesses (typically the analysis' full sharing list, a superset of
    every plan's realized set) at the configuration's parameters.  Never
    raises on an out-of-grid access: {!build} does, when it reaches it. *)

val cache_fits : cache -> Riot_ir.Program.t -> config:Riot_ir.Config.t -> bool
(** Whether the cache was built for this (physically same) program and an
    equal configuration; {!build} ignores a cache that does not fit. *)

type instance = private {
  i_stmt : Riot_ir.Stmt.t;
  i_vars : (string * int) list;  (** the instance's qualified loop variables *)
  i_reads : int array;
      (** blocks of its active reads, merged: one per distinct block, in
          first-appearance order *)
  i_read_accs : (Riot_ir.Access.t * int list) array;
      (** per merged read: its first access, and the indices (in the
          statement's access list) of every access merged into it *)
  i_writes : int array;  (** blocks of its active writes, in access order *)
  i_write_accs : (Riot_ir.Access.t * int) array;  (** each write's access and index *)
  i_blocks : int array;  (** the block of every access by index, active or not *)
  i_base : int;  (** offset of its access 0 in per-access flag arrays *)
  i_error : exn option;  (** the first out-of-grid active access, raised by {!build} *)
  i_flops : float;  (** kernel flops of the instance *)
  i_moved : float;  (** element-wise kernel bytes moved *)
}
(** One resolved statement instance of a cache.  Ids are dense: instances in
    program statement order, then enumeration order; blocks in first
    resolution order. *)

val cache_instances : cache -> instance array
(** Every statement instance, indexed by instance id. *)

val cache_block : cache -> int -> block
(** The block of a block id. *)

val cache_block_count : cache -> int
(** Block ids run from 0 to [cache_block_count c - 1]. *)

val cache_order : cache -> Riot_ir.Sched.program_sched -> int array
(** Instance ids in the schedule's execution order: the step order of
    {!build}.  Ties keep id order. *)

val cache_pairs : cache -> Riot_analysis.Coaccess.t -> (int * int) array
(** The concrete (src, dst) pairs of a coaccess's extent as instance ids
    ([-1] for an instance outside its statement's instance set); served
    from the prefill when available, recomputed (without inserting)
    otherwise.  Read-only, so safe from any domain. *)

val build :
  ?cache:cache ->
  Riot_ir.Program.t ->
  config:Riot_ir.Config.t ->
  sched:Riot_ir.Sched.program_sched ->
  realized:Riot_analysis.Coaccess.t list ->
  t
(** @raise Invalid_argument when an access falls outside the configured block
    grid (configuration/program mismatch). *)

val block_bytes : t -> block -> int

val predicted_io_seconds : Machine.t -> t -> float
(** The optimizer's linear I/O-volume model. *)

val actual_io_seconds : Machine.t -> t -> float
(** Simulated-disk time: volume plus per-request overhead. *)

val cpu_seconds : ?vectorized:bool -> Machine.t -> t -> float
(** Kernel time (flops and moved bytes) plus per-step dispatch overhead:
    [steps * dispatch_vector] by default (the engine's default, fused
    mode), [steps * dispatch_interp] with [~vectorized:false] (unfused). *)

val total_predicted_seconds : Machine.t -> t -> float
(** I/O + CPU (the program is executed phase by phase, as in the paper's
    breakdown). *)

(** {2 The protocol program}

    The engine's step protocol (read, allocate, pin, compute, write, unpin,
    drop, journal) written out once, as a flat op array over dense block
    ids.  The engine runs it, {!events} narrates it, {!build} takes its
    totals and peak from it, and the journal and prefetch analyses fold
    over it. *)

type op =
  | Step_begin of int
  | Read of { id : int; src : read_src; slot : int }
      (** bring the block in (from disk or the pool) and keep its buffer
          in capture slot [slot] of the running unit; [-1] for a link *)
  | Alloc of { id : int; fill : bool }
      (** resolve the write buffer; [fill]: zero it first ({!zero_fill}) *)
  | Pin of int
  | Kernel of { lo : int; hi : int }
      (** run the unit over steps [lo..hi]: one step, or a fused chain *)
  | Write of { id : int; dst : write_dst }
  | Unpin of int
  | Drop of int  (** release the block if it is resident and unpinned *)
  | Mark of { lo : int; hi : int }
      (** the unit's journal point: a watermark at its latest safe step *)
  | Step_end of int

type program = {
  ops : op array;
  blocks : block array;  (** by id: reads and writes in step order, then pins *)
  keys : (string * int list) array;  (** each id's buffer-pool key *)
  link : bool array;
      (** ids a fused chain carries in its scratch tile: their reads and
          writes are narrated only, and they are never allocated, pinned or
          dropped *)
  starts : int array;
      (** [starts.(i)]: index in [ops] of step [i]'s [Step_begin];
          [starts.(n)] is the length of [ops] *)
  heads : int array;
      (** [heads.(i)]: the last step of the unit step [i] opens, or [-1]
          when step [i] lies inside a fused chain *)
  slots : int;  (** capture slots the largest unit needs *)
}
(** Per step: [Step_begin]; each [Read]; at the unit's last step, the
    write's [Alloc]; the [Pin]s opening there; at the unit's last step, its
    [Kernel]; the [Write]; each closing pin's [Unpin] and [Drop]; the
    dead-block sweep's [Drop]s (the elided write, the reads, the writes,
    each id once);
    at the unit's last step, its [Mark]; [Step_end].  Unfused, every unit
    is one step and capture slot [j] is the step's [j]-th read. *)

val operand_blocks : t -> int -> block list
(** The blocks step [i]'s kernel takes as operands, in operand order.  An
    operand need not be among the step's reads: a restriction may have
    deactivated its read. *)

val zero_fill : t -> int -> bool
(** Whether step [i]'s kernel accumulates into a write buffer none of its
    reads brings in, so that buffer must be zeroed before the kernel runs. *)

val lower : ?fused:(int * int) list -> t -> program
(** The plan's protocol program.  [fused] (default none) lists the step
    ranges run as single chains, [Fuse.analyze]'s multi-step groups: each
    range is one unit, whose links are the writes of all but its last step,
    and whose accumulator zero-fill belongs to the chain kernel. *)

val narrate : t -> block array -> step:int -> op -> Trace.event option
(** The trace event of [op] run at step [step], its blocks named by
    [blocks] (a program's): the one narration of the engine and of
    {!events}.  [None] for [Alloc], [Kernel] and [Mark].  A [Drop]'s event
    stands only when the drop releases its block. *)

val events : t -> Trace.event Seq.t
(** The predicted trace (persistent, computed in full when first
    traversed): the unfused protocol {!narrate}d against a simulated pool,
    where a [Drop] releases its block when it is resident and unpinned.
    [peak_memory] is the stream's resident high-water mark and
    [read_*]/[write_*] its totals. *)

type divergence = {
  d_step : int;  (** step of the first differing event *)
  d_predicted : Trace.event option;  (** [None]: the prediction ended *)
  d_measured : Trace.event option;  (** [None]: the run's trace ended *)
}

val diff_trace : ?links:block list -> t -> Trace.event Seq.t -> divergence option
(** The first point where a run's trace departs from {!events}, or [None].
    On DAF storage, with the pool capped at [peak_memory], an unfused run
    must narrate {!events} exactly.  A fused run never materializes its
    [links] ([Fuse.group.links]), so their [Pin_open], [Pin_close] and
    [Drop] events are removed from both sides first. *)

val pp_divergence : Format.formatter -> divergence -> unit

val summary : t -> string
