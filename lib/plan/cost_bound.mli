(** Admissible I/O lower bounds for branch-and-bound plan search.

    [eval t s] lower-bounds [Cplan.predicted_io_seconds] of every legal plan
    realizing exactly the opportunity set [s] (indices into the [coaccesses]
    list given to {!make}), without scheduling: reads outside the union of
    [s]'s pinned blocks all hit the disk, a pinned never-written block still
    pays one cold read, non-intermediate blocks keep their last write and
    elide earlier ones only under a W->W source in [s], and intermediate
    blocks pay the writes Plan 0 keeps — those whose value some later read
    takes from the disk — unless pinned (footnote 8 elision).
    Savings are counted once per block across the union, so [eval] is
    monotone non-increasing in [s] and subadditive against the standalone
    per-opportunity {!saving} — the properties the search's subtree bound
    [eval s -. top-k remaining savings] relies on.

    A value is immutable after {!make} and [eval] allocates only local
    scratch, so one bound may be shared read-only across domains. *)

type t

val make :
  ?cache:Cplan.cache ->
  Machine.t ->
  Riot_ir.Program.t ->
  config:Riot_ir.Config.t ->
  coaccesses:Riot_analysis.Coaccess.t list ->
  t
(** [make ?cache machine prog ~config ~coaccesses] analyses the block-access
    counts once, reading Plan 0's resolved accesses and the extent pairs
    from [cache] when it fits ({!Cplan.cache_fits}), else from a fresh
    one.  [coaccesses] fixes the opportunity indexing used by
    {!eval} and {!saving}. *)

val eval : t -> int list -> float
(** Lower bound (modelled seconds) on the predicted I/O time of any plan
    realizing exactly the given opportunity set.  Reads [t] only, so any
    domain may call it. *)

val base : t -> float
(** [eval t []] — the sharing-free I/O time (Plan 0's exact predicted
    cost). *)

val saving : t -> int -> float
(** Upper bound on the I/O-time reduction opportunity [i] can contribute to
    any set: [base t -. eval t [i]] (precomputed). *)
