(** Apriori-like plan enumeration (Algorithm 2), as one lattice walk.

    A set of k sharing opportunities is only attempted if all its subsets of
    size k-1 were feasible; feasibility is decided by {!Find_schedule.find}
    and double-checked by the concrete verifier.  Returns one plan per
    feasible opportunity subset of size at most [max_size] (including the
    empty set under the original schedule — the paper's Plan 0; with
    [max_size = 0], Plan 0 alone).  A negative [max_size] raises
    [Invalid_argument] before any work.

    One walk serves both searches: {!branch_and_bound} runs it with an I/O
    lower bound that may cut candidates, and {!enumerate} runs it with
    {!never_prune}, which cuts nothing.

    The candidate attempts within one Apriori level are independent and run
    across a {!Riot_base.Pool} of domains; all domains share one frozen
    {!Sched_space.t} Farkas cache and one frozen concrete {!Verify.checker},
    both fully prefilled before any fan-out (a frozen cache is never written,
    so no locking is needed on the hot path), and one
    {!Find_schedule.memo} that they fill under its lock and that is dropped
    when the search returns.  The parallel search is
    deterministic: for any [jobs], the returned plan list — sets, schedules
    and index order — and every [stats] field but [elapsed] are identical to
    the sequential ones. *)

type plan = {
  index : int;
  q : Riot_analysis.Coaccess.t list;  (** realized sharing opportunities *)
  sched : Riot_ir.Sched.program_sched;
}

type stats = {
  candidates_tried : int;  (** candidate sets attempted ({!Find_schedule.find} invocations) *)
  feasible : int;
  pruned : int;  (** subsets never attempted thanks to the Apriori property *)
  bound_pruned : int;
      (** candidates (and costings) cut by the I/O lower bound; 0 under
          {!never_prune} *)
  verify_rejected : int;
      (** attempted candidates with no schedule / failed concrete check *)
  complete : bool;  (** false iff a [?budget] stopped the search early *)
  elapsed : float;  (** seconds *)
}

val enumerate :
  ?verify:bool ->
  ?max_size:int ->
  ?pool:Riot_base.Pool.t ->
  ?jobs:int ->
  Riot_ir.Program.t ->
  analysis:Riot_analysis.Deps.result ->
  ref_params:(string * int) list ->
  plan list * stats
(** The exhaustive search: {!branch_and_bound} under {!never_prune}, with
    no costing.  [verify] (default true) re-checks every found schedule
    concretely at [ref_params] (legality, injectivity, realization) and
    drops schedules that fail; [max_size] caps the opportunity-subset size.
    [pool] reuses an existing domain pool; otherwise a fresh pool of [jobs]
    domains (default {!Riot_base.Pool.default_jobs}) serves this call.
    For the walk's work counters, call {!branch_and_bound} with
    {!never_prune} and an [opt_stats]. *)

val never_prune : (int list -> float) * (int -> float)
(** A [bound] and [saving] for {!branch_and_bound} that cut nothing: the
    bound is [neg_infinity] and every saving is 0, so the walk attempts
    every Apriori candidate and costs every feasible one. *)

(** {2 Branch and bound}

    The walk runs over the Apriori subset lattice level by level.  A size-k
    candidate [S] is generated only when every immediate subset is feasible
    {e and} survived pruning — a pruned set poisons its whole upward cone —
    and is attempted only if its {e cone bound} — [bound S] minus the top
    [max_size - |S|] standalone savings of opportunities outside [S] — does
    not exceed the committed incumbent.  Because [bound] is monotone
    non-increasing and subadditive in the realized set, the cone bound
    lower-bounds every superset of [S], so a cone-pruned candidate may be
    dropped together with all its supersets, exactly as an infeasible set
    would be.  Feasible candidates are costed (skipped, soundly, when even
    [bound S] exceeds the incumbent).

    Each level runs in fixed-size batches independent of the pool size; the
    incumbent is committed only between batches, so pruning decisions never
    read racy values: results and every stats counter are deterministic and
    identical at every [jobs].

    Soundness: [bound] must satisfy [bound s <= predicted io of every legal
    plan realizing s], be monotone non-increasing under set extension, and
    [saving i >= bound s - bound (s + {i})] for every [s] (subadditivity;
    {!Riot_plan.Cost_bound} provides all three).  Every candidate a pruning
    walk attempts, the never-pruning walk attempts too, and every skipped
    set is strictly worse than the incumbent at prune time — so the
    returned list is a sublist of {!enumerate}'s, in the same canonical
    (size, lex) order, and always contains the exhaustive best plan
    bit-identically, including tie-breaks.

    [budget] (seconds) makes the search anytime: Plan 0 is costed before the
    deadline is ever consulted, in-flight work past the deadline is skipped,
    and the best verified plan so far is returned with [complete = false].
    Costs never increase as the budget grows. *)

val branch_and_bound :
  ?verify:bool ->
  ?max_size:int ->
  ?pool:Riot_base.Pool.t ->
  ?jobs:int ->
  ?budget:float ->
  ?opt_stats:Opt_stats.t ->
  bound:(int list -> float) ->
  saving:(int -> float) ->
  cost:(q:Riot_analysis.Coaccess.t list -> sched:Riot_ir.Sched.program_sched -> 'c * float) ->
  Riot_ir.Program.t ->
  analysis:Riot_analysis.Deps.result ->
  ref_params:(string * int) list ->
  (plan * 'c) list * stats
(** [bound]/[saving] take indices into [analysis.sharing] (sorted
    ascending); [cost] builds the caller's costed representation and returns
    it with the plan's predicted I/O seconds (the incumbent metric).  [bound]
    and [cost] run inside pool batches and must be domain-safe. *)
