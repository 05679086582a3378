(** The execution engine: run a concrete plan against the storage engine.

    This plays the role of the paper's generated C code plus the injected
    I/O and buffer-management actions: the plan's lexicographic instance
    order is followed exactly; memory-serviced reads are satisfied from
    pinned pool buffers; writes go through the pool (write-through for
    materialised writes, memory-only for elided ones); pin intervals open
    and close at the plan's step boundaries.  Every run is one loop over the
    plan's protocol program ({!Riot_plan.Cplan.lower}, compiled by {!Vexec}
    with one kernel table), whatever the mode. *)

type error =
  | Missing_block of {
      step : int;
      stmt : string;
      array : string;
      index : int list;
      phase : [ `Read | `Operand ];
          (** [`Read]: a plan step declared the block memory-serviced but the
              pool does not hold it; [`Operand]: a kernel input block was
              never brought in.  Either way the plan, not the data, is at
              fault. *)
    }
  | Kernel_arity of {
      step : int;
      stmt : string;
      kernel : string;
      operands : int;
    }  (** The kernel was handed an operand list it has no shape for. *)

exception Error of error
(** Execution failed on a malformed or mis-costed plan.  Carries the step,
    statement and block context so an optimizer bug is reported as such
    rather than as a bare string.  Registered with {!Printexc}, so an
    uncaught [Error] still prints readably. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

type mode =
  | Interpret
      (** unfused: run the compiled plan one step at a time, every step with
          the plan's own pins and drops *)
  | Vector
      (** fused: like [Interpret], but runs of element-wise steps collapse
          into single passes over the tile ({!Vexec}), so their link blocks
          never materialize *)

type result = {
  wall_seconds : float;
  virtual_io_seconds : float;  (** simulated backend's clock *)
  reads : int;
  writes : int;
  bytes_read : int;
  bytes_written : int;
  pool_peak_bytes : int;
  per_array : Riot_plan.Cost_check.actual list;
      (** physical I/O per array (sorted by name, zero-traffic arrays
          omitted), measured from the backend's per-stream counters and
          mapped back to array names through the stores' stream names *)
}

val verify :
  ?cap_bytes:int -> Riot_plan.Cplan.t -> Riot_plan.Plan_verify.report
(** Statically verify the plan with every invariant family enabled,
    including journal safety: the watermark data handed to
    {!Riot_plan.Plan_verify.check} is exactly what a journalled run of this
    engine will act on ({!Journal.analyze}).  [cap_bytes] defaults to the
    plan's own [peak_memory]. *)

val verify_exn : ?cap_bytes:int -> Riot_plan.Cplan.t -> unit
(** Like {!verify} but raises {!Riot_plan.Plan_verify.Rejected} on any
    [Error]-severity diagnostic. *)

val run :
  ?compute:bool ->
  ?stores:(string * Riot_storage.Block_store.t) list ->
  ?trace:Riot_plan.Trace.sink ->
  ?journal:bool ->
  ?resume:bool ->
  ?mode:mode ->
  Riot_plan.Cplan.t ->
  backend:Riot_storage.Backend.t ->
  format:Riot_storage.Block_store.format ->
  mem_cap:int ->
  result
(** Execute the plan.  [compute] (default true) runs the kernels (requires a
    data-retaining backend); with [compute = false] the pool runs in phantom
    mode and only I/O and memory are exercised - full-scale simulation.

    @raise Riot_storage.Buffer_pool.Insufficient_memory if [mem_cap] is
    below the plan's requirement.
    Pass [stores] when the arrays were loaded through existing store handles
    (the LAB-tree keeps its meta page cached, so every writer/reader must
    share one handle per array).
    @raise Invalid_argument, before any storage is touched, if [stores]
    lacks an array of the plan's configuration.

    Buffer residency follows the plan exactly: blocks not pinned by a
    realized sharing opportunity are dropped when their step ends, so
    physical I/O equals the plan's prediction - the property Figure 3(b) of
    the paper demonstrates.  (A conventional opportunistic LRU pool would do
    fewer reads on some plans; RIOTShare's engine executes what the
    optimizer costed.)

    @raise Error if a memory-serviced read or kernel operand finds its block
    missing, or a kernel receives an operand list of the wrong shape (either
    would indicate an optimizer bug).

    With [trace], every engine action emits a {!Riot_plan.Trace.event} into
    the sink (step boundaries, block reads/writes, pin opens/closes, drops
    and evictions); without it no event is constructed.  An unfused run on
    DAF storage within the plan's [peak_memory] narrates exactly
    [Riot_plan.Cplan.events]; a fused run narrates it minus its link blocks'
    pins and drops.

    [journal] (default false) persists a completed-step watermark into the
    backend stream {!Journal.stream}, with [sync] barriers after each
    journalled step's write-through traffic, at every boundary the static
    analysis proves safe to resume from.  [resume] (default false) recovers
    that watermark before executing: completed steps up to the analysis'
    restart point are skipped, blocks pinned across the restart point are
    reloaded and re-pinned, and execution continues to completion - a run
    killed at any point (mid-step included) re-run with [~resume:true]
    produces byte-identical output.  See {!Journal} for the format and the
    safety argument.  Both default off and then cost nothing.  Both need
    the DAF format: a LAB-tree insert is three writes (payload, leaf page,
    meta page), and a crash between them breaks its index.
    @raise Invalid_argument, before any storage is touched, on [Lab_format].

    [mode] (default {!Vector}) selects whether the compiled plan fuses.  A
    [compute = false] run never fuses (there are no buffers for a chain to
    work on); it runs the unfused plan without resolving operands or calling
    kernels.  A resume whose restart point falls strictly inside a fused
    group also runs unfused.  The two modes are differentially equivalent
    by contract: byte-identical array contents, identical physical I/O
    (request and byte counts, virtual time, per-array breakdown) and
    identical journal images, whenever [mem_cap] is at least the plan's
    [peak_memory] (so neither mode evicts).  They intentionally differ in
    pool-internal accounting: a fused run services chain intermediates from
    a scratch tile instead of pool buffers, so pool hit/miss counters,
    [pool_peak_bytes] and the pin/drop trace events of skipped link blocks
    are lower, and it journals one watermark per fused run (at the latest
    safe boundary in the range) instead of one per safe step.  Resume
    composes across modes: a journal written under either mode restarts
    correctly under either, because watermark records are plan-based and
    every fused watermark is also an unfused one.

    As each unit of the program (a step, or a fused chain) begins, a
    computing run issues {!Riot_storage.Block_store.prefetch} hints for the
    [From_disk] reads up to two steps past the unit, where {!Riot_plan.Prefetch} proves them ordered
    after any pending write-back of the block.  They overlap reads with
    computation under {!Riot_storage.Backend.async}, are no-ops on
    synchronous backends, and never change the physical requests. *)

val run_opportunistic :
  Riot_plan.Cplan.t ->
  backend:Riot_storage.Backend.t ->
  format:Riot_storage.Block_store.format ->
  mem_cap:int ->
  result
(** Ablation baseline: execute the plan's instance order but ignore its
    sharing annotations entirely - every read goes through a plain LRU
    buffer pool of [mem_cap] bytes, every write is written through, nothing
    is pinned.  This is the database buffer-pool approach the paper's
    related-work section contrasts with: low-level, opportunistic, and
    sensitive to the replacement policy, capturing only reuses whose
    distance fits the pool.  Runs in phantom mode (no computation). *)

val stores_for :
  Riot_storage.Backend.t ->
  format:Riot_storage.Block_store.format ->
  config:Riot_ir.Config.t ->
  (string * Riot_storage.Block_store.t) list
(** One store per configured array (exposed for data loading in tests,
    examples and benchmarks). *)

val check_cost : result -> Riot_plan.Cplan.t -> Riot_plan.Cost_check.report
(** [check_cost result plan] diffs the plan's predicted per-array I/O
    against what [result] measured — the Figure 3(b) cross-validation.
    Convenience for [Cost_check.check plan ~actual:result.per_array]. *)
