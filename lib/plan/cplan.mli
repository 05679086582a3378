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

(** {2 The predicted protocol stream} *)

type pin_index = {
  pin_start : block list array;  (** pins opening at each step *)
  pin_stop : block list array;  (** pins closing at each step *)
}

val pin_index : t -> pin_index
(** [pins] indexed by step, the one index {!events}, the compiled executor
    and the prefetch schedule read.  Derived from [pins] on each call, so a
    plan rebuilt with other pins stays consistent.  Malformed intervals are
    left out ([Plan_verify] reports them as RS005). *)

val sweep : step -> block list
(** The end-of-step dead-block sweep, in order: the elided write's block,
    the reads, the writes; each is dropped if still resident and unpinned. *)

val events : t -> Trace.event Seq.t
(** The predicted trace (persistent, computed as it is traversed): the
    engine's unfused step protocol simulated from [steps] and [pins] alone.
    Per step: [Step_begin]; each [Read]; the [Pin_open]s starting there;
    the [Write]; each [Pin_close], then its [Drop] if the block is now
    unpinned; the {!sweep}'s [Drop]s; [Step_end].  As in the engine, the
    write buffer is resident before the pins open.  [peak_memory] is the
    stream's resident high-water mark and [read_*]/[write_*] its totals. *)

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
