(** The crash-consistency and transient-fault campaign behind
    [test_faults] and [bench faultfuzz].

    For each randomly generated program (even seeds draw from
    {!Riot_ops.Rand_prog.gen}'s opaque-nest distribution, odd seeds from
    {!Riot_ops.Rand_prog.gen_ew}'s element-wise chains, whose fusable runs
    put crash points inside fused steps)
    and a handful of its distinct legal plans, the campaign:

    - statically verifies the plan ({!Riot_exec.Engine.verify}) before any
      execution — an [Error]-severity diagnostic is a planner or verifier
      bug, either way a find, and lands in [mismatches];
    - runs the plan cleanly and unfused ([Interpret]) and snapshots every
      array stream (the reference) - every fused run below is thereby also
      a standing unfused-vs-fused differential check;
    - probes the run's backend-operation count with a never-firing crash
      failpoint, checking along the way that a journalled fused run is
      byte-identical to the unfused one;
    - for crash points spread across the whole operation schedule: arms
      ["backend.crash"] at the n-th operation, runs until the simulated
      process dies (possibly mid-write, leaving a torn block, or
      mid-journal-append, leaving a torn record), then restarts with
      [Engine.run ~resume:true] on the surviving "disk" and asserts the
      final array streams are byte-identical to the reference.  The
      crashing incarnation alternates modes with the crash point and
      the restart always runs the other one, so a journal written under
      either mode is proven to resume under either;
    - runs once more (fused) with transient read/write faults and a
      short read armed under the retry wrapper, asserting the output is
      still byte-identical, that every injected fault was absorbed by
      exactly one retry, and that the read/write/byte counters equal the
      unfused clean run's (no double counting - and physical I/O is
      mode-invariant);
    - repeats the transient run and a thinned crash sweep through the
      asynchronous storage tier ({!Riot_storage.Backend.with_async}):
      identity and I/O totals are checked on the raw disk after the queue
      drained, and crashes that fire on the I/O domain (between an issued
      prefetch and its consumption, or inside a deferred write-behind)
      must still journal-recover byte-identically.

    Everything derives from [seed], so a campaign is reproducible;
    failures are collected into [mismatches] rather than raised. *)

val load_inputs :
  Riot_ir.Program.t ->
  Riot_ir.Config.t ->
  (string * Riot_storage.Block_store.t) list ->
  unit
(** Write deterministic contents (a hash of array name, block index and
    element index) into every block of every [Input]-kind array.
    Intermediate and Output arrays start empty - never-written blocks read
    as zeroes identically in every incarnation. *)

val snapshot :
  Riot_storage.Backend.t ->
  (string * Riot_storage.Block_store.t) list ->
  (string * bytes) list
(** Full contents of each listed array's stream, sorted by array name (the
    journal stream is not an array and never appears). *)

val select_plans :
  int -> Riot_optimizer.Search.plan list -> Riot_optimizer.Search.plan list
(** Up to [k] well-spread plans: always the base schedule, then evenly
    through the enumeration (richer realized sets come later).  Shared with
    the differential executor tests. *)

type result = {
  programs : int;
  plans : int;  (** (program, plan) pairs exercised *)
  verified_plans : int;
      (** plans that passed static verification ({!Riot_exec.Engine.verify})
          before being crash-tested; a shortfall against [plans] shows up in
          [mismatches].  Opaque-nest programs may warn [DF003] (reads of
          never-written blocks are part of that distribution's zeros
          contract); element-wise chains must verify fully clean. *)
  crash_cases : int;  (** (program, plan, crash-point) cases that crashed *)
  recoveries : int;  (** crash cases whose resumed output matched the reference *)
  complete_cases : int;  (** crash points past the schedule end: ran clean *)
  transient_cases : int;
  vector_cases : int;
      (** runs executed in [Vector] mode and compared byte-for-byte against
          the unfused reference (journalled probes, cross-mode resumes,
          transient runs) *)
  async_cases : int;
      (** runs routed through {!Riot_storage.Backend.with_async}: a
          transient-fault run per plan whose raw-disk snapshot and physical
          I/O totals must equal the synchronous clean run's, plus a crash
          sweep whose crashes fire on the I/O domain (between an issued
          prefetch and its consuming read, or inside a deferred
          write-behind) and must still recover byte-identically *)
  faults_injected : int;  (** over all fault-armed runs *)
  retries : int;  (** over all transient runs *)
  mismatches : string list;  (** human-readable failure descriptions *)
}

val campaign :
  ?seed:int ->
  ?min_crash_cases:int ->
  ?plans_per_program:int ->
  ?crash_points:int ->
  unit ->
  result
(** Iterate program seeds [seed, seed+1, ...] until at least
    [min_crash_cases] (default 200) crash cases ran, taking up to
    [plans_per_program] (default 2) plans from [Search.enumerate
    ~max_size:2] and sweeping [crash_points] (default 12) operation indices
    per plan.  A correct engine yields [mismatches = []],
    [recoveries = crash_cases] and [retries > 0]. *)
