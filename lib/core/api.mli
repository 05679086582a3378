(** RIOTShare: the end-to-end I/O-sharing optimizer.

    The one-stop API over the layered libraries: describe a blocked-array
    program (with {!Riot_ops.Op} or {!Riot_ir.Build}), pick a size
    configuration, then

    + {!optimize} - extract dependences and sharing opportunities, enumerate
      legal plans (Apriori over opportunity subsets), cost each plan (I/O
      volume, peak memory, CPU);
    + {!best} - select the cheapest plan that fits the memory cap;
    + {!execute} - run a plan through the buffer-managed storage engine
      (real files, or the simulated full-scale disk).

    {[
      let prog = Riot_ops.Programs.add_mul () in
      let opt = Api.optimize prog ~config:Riot_ops.Programs.table2 in
      let best = Api.best ~mem_cap_bytes:(8 * 1024 * 1024 * 1024) opt in
      Format.printf "%a@." Api.pp_costed best
    ]} *)

type costed_plan = {
  plan : Riot_optimizer.Search.plan;
  cplan : Riot_plan.Cplan.t;
  predicted_io_seconds : float;
  predicted_cpu_seconds : float;
  memory_bytes : int;
}

type t = {
  program : Riot_ir.Program.t;
  config : Riot_ir.Config.t;
  machine : Riot_plan.Machine.t;
  analysis : Riot_analysis.Deps.result;
  plans : costed_plan list;
  search_stats : Riot_optimizer.Search.stats;
  verified : (Riot_plan.Cplan.t * int) option;
      (** The physical plan and cap {!optimize} statically verified (its
          presumptive winner), which {!best} does not verify again. *)
}

val optimize :
  ?machine:Riot_plan.Machine.t ->
  ?max_size:int ->
  ?verify:bool ->
  ?jobs:int ->
  ?prune:bool ->
  ?budget:float ->
  ?opt_stats:Riot_optimizer.Opt_stats.t ->
  Riot_ir.Program.t ->
  config:Riot_ir.Config.t ->
  t
(** Analyse and enumerate all costed plans for the program under the
    configuration's parameters.  [machine] defaults to the paper's
    measurements; [max_size] caps the opportunity-subset size; [verify]
    (default true) re-checks every schedule concretely.  [jobs] (default
    {!Riot_base.Pool.default_jobs}, i.e. [RIOT_JOBS] or the machine's domain
    count) sizes the domain pool that runs the schedule search and the plan
    costings; any [jobs] yields the same plans, costs and order as
    [jobs = 1].

    The search and the costing are one walk,
    {!Riot_optimizer.Search.branch_and_bound}: without [prune] it runs
    under {!Riot_optimizer.Search.never_prune} and costs every feasible
    plan.  [prune] (default false) gives the walk the I/O lower bound of
    {!Riot_plan.Cost_bound} instead: [plans] then contains only the candidates
    whose I/O lower bound could beat the incumbent — always including the
    exhaustive search's best plan, bit-identically — so {!best} is
    unchanged while {!distinct_cost_points} sees the surviving subset only,
    and {!recost} rejects the result if anything was pruned.  [budget]
    (seconds) implies [prune] and makes the search anytime: the best
    verified plan found within the budget is returned
    ([search_stats.complete] = false when the deadline struck), and Plan 0
    is always costed first so a plan exists at any budget.  [opt_stats]
    accumulates the walk's profiling counters, with or without [prune].
    A negative [max_size] raises [Invalid_argument].

    The presumptive winner ({!best} with no cap) is statically verified
    before returning: a plan with [Error]-severity diagnostics raises
    {!Riot_plan.Plan_verify.Rejected} — a planner bug dies at plan time, not
    in the buffer pool.  The result records that verification in
    [verified], so a following {!best} that selects the same plan skips
    it. *)

val recost : ?jobs:int -> t -> config:Riot_ir.Config.t -> t
(** Re-evaluate every plan under different sizes without repeating the
    schedule search (the paper's Section 5.4 remark: schedules are
    parameter-independent, so "should the parameters change, we can simply
    plug the new values in instead of performing optimization all over
    again").  The sharing realized by each plan is re-derived at the new
    parameters from the same symbolic extents.
    @raise Invalid_argument when [t] is a pruned or budget-cut result
    ([search_stats.bound_pruned > 0] or [complete = false]): its plans are
    the survivors at the old sizes, and the best plan at the new ones may
    be among those it cut.  Re-run {!optimize} instead. *)

val best : ?mem_cap_bytes:int -> t -> costed_plan
(** The plan with the least predicted I/O among those whose peak memory fits
    the cap (default: unlimited).  Ties break toward less memory.  The
    selected plan is statically verified ({!Riot_exec.Engine.verify_exn}
    with [cap_bytes] = its own peak) before being returned, unless it is
    physically the plan recorded in [verified] at that same cap.
    @raise Not_found if no plan fits.
    @raise Riot_plan.Plan_verify.Rejected if the winner is malformed. *)

val original : t -> costed_plan
(** The unoptimized original-schedule plan (Plan 0). *)

val distinct_cost_points : t -> costed_plan list
(** One representative per distinct (memory, I/O) point - the paper's plan
    scatter plots collapse behaviourally identical subsets. *)

val execute :
  ?compute:bool ->
  ?stores:(string * Riot_storage.Block_store.t) list ->
  ?trace:Riot_plan.Trace.sink ->
  ?mode:Riot_exec.Engine.mode ->
  ?jobs:int ->
  costed_plan ->
  backend:Riot_storage.Backend.t ->
  format:Riot_storage.Block_store.format ->
  Riot_exec.Engine.result
(** Run the plan with a memory cap equal to its computed requirement.
    [trace] streams execution events (see {!Riot_plan.Trace}); [mode]
    selects the executor (default tile-vectorized, see
    {!Riot_exec.Engine.mode} for the differential contract); [jobs] (default
    {!Riot_base.Pool.default_jobs}) is how many domains a large gemm splits
    its rows across, with bit-identical results ({!Riot_exec.Engine.run}). *)

val check_cost : costed_plan -> Riot_exec.Engine.result -> Riot_plan.Cost_check.report
(** Cross-validate the plan's predicted per-array I/O against a run's
    measured counters (the paper's Figure 3(b) property). *)

val simulated_backend : ?retain_data:bool -> Riot_plan.Machine.t -> Riot_storage.Backend.t
(** A simulated disk matching the machine model. *)

val pp_costed : Format.formatter -> costed_plan -> unit
val pp_summary : Format.formatter -> t -> unit
