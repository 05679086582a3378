(** A small fixed-size pool of OCaml 5 domains for embarrassingly parallel
    batches (the optimizer's per-candidate schedule searches and per-plan
    costings, and the executor's row chunks of a large gemm).

    A pool of [jobs] workers runs batches with [jobs - 1] spawned domains plus
    the calling domain; the spawned domains persist across batches, so one
    pool can serve every Apriori level of a search and the subsequent plan
    costings.  Each batch's index space is split into one contiguous chunk
    per pool member, dispatched once per domain; owners drain their chunk
    from the front while members that finish early steal single items from
    the back of surviving chunks (a work-stealing deque over chunks), so
    ragged batches — a few pathologically slow items — cannot idle the other
    domains.  Per-item claim flags (one CAS each) guarantee exactly-once
    execution at owner/thief boundaries, and results land in a per-index
    slot, so the output order always equals the input order regardless of
    interleaving.

    Determinism contract: for a pure [f], [map pool f xs] returns exactly
    [List.map f xs] — same elements, same order — for every pool size.  With
    [jobs = 1] no domain is ever spawned and [map] short-circuits to
    [List.map], so single-threaded behaviour is bit-identical to the
    sequential code path.

    Batches must not be nested: [f] must not itself call [map]/[filter_map]
    on any pool (the workers of the outer batch would starve the inner one).
    Exceptions raised by [f] are re-raised in the caller after the batch
    drains; which item's exception wins is unspecified when several fail.

    {2 Domain-safety contract}

    The pool itself synchronises only through its per-chunk atomic cursors
    and per-item claim flags, the
    per-index result slots (each written by exactly one worker, read after
    the batch's join barrier) and the batch handoff mutex; [f] must bring
    its own discipline for anything else it touches.  The audit of what the
    optimizer actually runs under a pool, kept current as call sites are
    added:

    - {e Shared read-only state} — [Cplan.cache] (resolved instances,
      interned block and instance ids, and extent pairs, eagerly prefilled
      before the batch starts), the search's [Cost_bound.t] and the
      program/analysis values are built before fan-out and only read by
      workers.  Safe by immutability-in-practice; never write to a cache
      from inside a batch.
    - {e Domain-confined mutable state} — [Io_stats] counters and the
      buffer pool belong to a backend, and every backend is confined to
      the domain that runs the engine; worker domains cost plans
      symbolically and perform no I/O, so those plain [mutable] fields need
      no atomics.  Running two engines on one backend from two domains is
      out of contract.
    - {e Cross-domain counters} — anything genuinely incremented from
      multiple domains must be an [Atomic.t] ([Riot_exec.Journal]'s nonce
      counter is the one such case today).
    - {e Global registries} — [Failpoint]'s table is mutated only from the
      single engine domain (arming happens before a run); do not arm
      failpoints from inside a pool batch.
    - {e The executor's gemm chunks} — [Riot_exec.Engine.run] splits a
      gemm above [Dense.gemm_grain] into row-pair chunks of [c] and runs
      them through {!parallel_for}.  A chunk writes only its own rows of
      [c]: the chunks' element ranges are disjoint, and the batch's join
      orders every write before the caller reads [c].  [a] and [b] are
      shared read-only; the caller finished writing them before the
      dispatch.  The packing panels a chunk copies operands into are its
      domain's own ([Domain.DLS]), never another chunk's.  The pool lives
      only as long as the run: it is spawned at the run's first split
      kernel and shut down when the run returns or raises.  It must not
      outlive the run: every minor collection is a stop-the-world barrier
      across all running domains, so a pool left idle through the
      optimizer's allocation-heavy search slows every collection there.

    The pool/parallel suites run under OCaml 5's ThreadSanitizer via the
    [runtest-tsan] alias (see test/run_tsan.sh) to keep this contract
    honest on instrumented switches. *)

type t

val default_jobs : unit -> int
(** The pool size used when [?jobs] is omitted: [RIOT_JOBS] if set to a
    positive integer, otherwise {!Domain.recommended_domain_count}. *)

val create : ?jobs:int -> ?spin:bool -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains ([jobs] defaults to
    {!default_jobs}; values < 1 raise [Invalid_argument]).

    With [spin] (default false) a worker spins for up to 2 ms after each
    batch before it blocks, and the caller spins as long on a batch's
    completion, so batches that follow each other closely (the executor's
    gemm calls) never wait on an OS wake-up.  Without it a worker woken
    from sleep can be placed on the caller's core and start only when the
    caller blocks, after its own share of the batch.  The price is up to
    2 ms of each worker's core per batch.  A batch posted after a longer
    pause still wakes the worker that way.

    In either mode the caller waits only for the workers that joined a
    batch.  When its own runner returns every item has been claimed, so it
    closes the batch: a worker that has not joined yet (one still waiting
    for a core, say) skips it and never runs a body after
    {!parallel_for} has returned. *)

val jobs : t -> int
(** The pool's fixed size (worker domains + the calling domain). *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent; the pool must not be used after. *)

val with_pool : ?jobs:int -> ?spin:bool -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and guarantees {!shutdown},
    also on exceptions. *)

val spawned : unit -> int
(** Worker domains spawned by every {!create} in this process so far; a
    test reads it before and after a call to check the call spawned none. *)

val parallel_for : t -> n:int -> (int -> unit) -> unit
(** [parallel_for t ~n body] runs [body 0] ... [body (n - 1)], each exactly
    once, across the pool, and returns once all have finished.  It builds
    no list.  With [jobs = 1] it is the plain [for] loop on the calling
    domain, in order.  If a [body] raises, items not yet started are
    skipped and the exception is re-raised in the caller after the batch
    drains (which one, when several raise, is unspecified).
    @raise Invalid_argument if [n < 0]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel [List.map] across the pool's domains. *)

val filter_map : t -> ('a -> 'b option) -> 'a list -> 'b list
(** Order-preserving parallel [List.filter_map]. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** One-shot convenience: [with_pool ?jobs (fun p -> map p f xs)]. *)

val parallel_filter_map : ?jobs:int -> ('a -> 'b option) -> 'a list -> 'b list
(** One-shot convenience for {!filter_map}. *)
