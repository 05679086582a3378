(** Storage backends: where bytes live.

    A backend exposes positional reads and writes over named byte streams
    ("files").  Two implementations:

    - {!file}: real files under a root directory via [Unix] positional I/O -
      used at reduced scale to validate that plans compute correct results
      and that counted I/Os match the model;
    - {!sim}: a simulated disk with the paper's bandwidth model - used at
      full scale, where datasets are tens of GB.  It advances a virtual
      clock by [bytes/bandwidth + request overhead] and can optionally
      retain data in memory (for small correctness runs without touching
      the filesystem). *)

type io_op = Read | Write | Sync

val op_name : io_op -> string

exception
  Io_error of {
    op : io_op;
    stream : string;
    off : int;
    len : int;
        (** for a short read, the number of bytes that actually arrived *)
    transient : bool;
        (** transient errors are worth retrying; fatal ones are not *)
  }
(** A single I/O request failed.  Raised by {!faulty} (and by nothing else
    today - real [Unix] errors surface as [Unix.Unix_error]); {!retrying}
    absorbs the transient ones. *)

exception Crash of { op : io_op; stream : string }
(** The simulated process died mid-request.  Once a {!faulty} backend has
    crashed, every subsequent request raises [Crash] - the run must be
    abandoned and restarted (see [Engine.run ~resume:true]). *)

type t = {
  pread : name:string -> off:int -> len:int -> bytes;
      (** Positional read into a fresh buffer that the caller owns (block
          stores hand it on without copying).  {b End-of-stream contract}:
          reading at or past the current end of a stream is {e not} an
          error and is {e not} a short read - the missing suffix is
          zero-filled, so [pread] always returns exactly [len] bytes and
          never changes the stream's size.
          Both implementations obey this (the file backend by zeroing the
          unread suffix, the simulated one by construction); block stores rely
          on it to read never-written blocks as zeroes.

          {b Accounting}: the {e file} backend charges {!Io_stats} with the
          bytes the disk actually served, so the zero-filled suffix of an
          EOF-short read costs nothing — counting the full request would
          overstate measured I/O against the cost model.  The {e simulated}
          backend deliberately keeps charging the full requested [len]:
          phantom full-scale runs read streams that were never materialised
          (their simulated size is 0), and their accounted I/O must still
          equal the plan's prediction. *)
  pwrite : name:string -> off:int -> data:bytes -> unit;
      (** Positional write.  [data] belongs to the caller again as soon as
          the call returns: implementations must not retain it un-copied
          (the async wrapper copies before queueing). *)
  read_discard : name:string -> off:int -> len:int -> unit;
      (** Perform/account the read without materialising the bytes (the
          simulated backend only advances counters; the file backend reads
          into a small domain-local scratch buffer).  Used by phantom
          execution at full scale, where a block can be gigabytes.
          Accounting: {e every} backend charges the full requested [len]
          here, even past EOF — [read_discard] models the {e cost} of a
          read for phantom cost-validation runs, which routinely target
          regions that were never materialised (empty input files, blocks
          the phantom run never really wrote), and their accounted I/O
          must still equal the plan's prediction.  Only data-bearing
          [pread] charges actual bytes moved. *)
  write_discard : name:string -> off:int -> len:int -> unit;
      (** Write [len] zero bytes without the caller allocating them (the
          file backend really writes zeroes; the simulated one only
          accounts them). *)
  prefetch : name:string -> off:int -> len:int -> unit;
      (** Read-ahead {e hint}: the region will be [pread] with exactly this
          (name, off, len) soon.  Never observable in results — a backend
          may ignore it entirely, and the synchronous ones do.  {!async}
          starts the read on its I/O domain so the later demand [pread]
          finds the bytes already in flight or resident. *)
  size : name:string -> int;
  sync : unit -> unit;
  close : unit -> unit;
  stats : Io_stats.t;
}

val file : root:string -> t
(** Files live under [root] (created if missing). *)

val sim :
  ?retain_data:bool ->
  ?sleep_factor:float ->
  read_bw:float ->
  write_bw:float ->
  request_overhead:float ->
  unit ->
  t
(** [retain_data] (default true) keeps written bytes in memory so reads
    return real data; with [false] reads return zeroes and only the clock
    and counters advance (full-scale mode).

    [sleep_factor] (default 0) makes every request additionally block the
    calling domain for [virtual-time delta * sleep_factor] wall seconds —
    a physically slow disk at an adjustable speed.  The iolap benchmark
    uses it to measure how much simulated I/O time an {!async} wrapper
    actually hides behind compute. *)

(** {2 Fault injection}

    {!faulty} wraps any backend and consults the {!Riot_base.Failpoint}
    registry before each request; when nothing is armed the wrapper is a
    cheap pass-through.  The failpoint names: *)

val fp_read_error : string  (** ["backend.read.error"] - transient read failure *)

val fp_read_fatal : string  (** ["backend.read.fatal"] - non-retryable read failure *)

val fp_read_short : string
(** ["backend.read.short"] - a short read: only a prefix of the request
    arrived (reported as a transient {!Io_error} whose [len] is the prefix
    length, so the retry layer re-issues the whole request) *)

val fp_write_error : string  (** ["backend.write.error"] *)

val fp_sync_error : string  (** ["backend.sync.error"] *)

val fp_crash : string
(** ["backend.crash"] - simulated process death: the current request raises
    {!Crash} (a crashing write first leaves a torn half-written prefix on
    the disk) and the wrapper stays dead forever after. *)

val faulty : t -> t
(** Fault-injecting wrapper.  Shares the inner backend's {!Io_stats} and
    counts every injected fault in [faults_injected].  Faults fire {e
    before} the inner request runs, so a failed attempt adds nothing to the
    read/write and byte counters (no double counting under retry); only a
    crashing write's torn prefix reaches the inner backend. *)

type retry_policy = {
  attempts : int;  (** total attempts, including the first (>= 1) *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** exponential backoff factor *)
  max_delay : float;  (** backoff cap, seconds *)
  sleep : float -> unit;
      (** how to wait; tests inject a recording no-op here *)
}

val default_retry_policy : retry_policy
(** 5 attempts, 10 ms base delay, doubling, capped at 1 s, real sleep. *)

val retrying : ?policy:retry_policy -> t -> t
(** Retry wrapper: re-issues a request that raised a transient {!Io_error},
    sleeping [base_delay * multiplier^k] (capped) between attempts and
    counting each retry in {!Io_stats} ([retries], and per-stream
    [s_retries]).  Non-transient errors, {!Crash} and exhausted attempts
    propagate.  Layer it over {!faulty} to absorb injected transient faults
    invisibly. *)

(** {2 Asynchronous wrapper}

    {!async} moves every request of an inner backend onto one dedicated I/O
    domain behind a FIFO {!Io_queue}, giving:

    - {e write-behind}: [pwrite]/[write_discard] return immediately; FIFO
      order guarantees any later read or sync observes them.  [sync] is the
      group-commit point — it drains the queue, so all write-behind since
      the previous sync lands in one batch at the journal boundary that
      requested it.
    - {e read-ahead}: a [prefetch] hint starts the inner read on the I/O
      domain; the demand [pread] with the same (name, off, len) blocks only
      until that in-flight read completes, overlapping I/O with the
      caller's compute.  Duplicate or over-budget hints (beyond
      [max_prefetch] outstanding, default 64) are dropped, falling back to
      a demand read — the {e physical} request sequence reaching the inner
      backend is byte-for-byte the same set as under synchronous execution,
      so all Io_stats totals match the sync run exactly.

    A failed fire-and-forget request (write-behind, prefetch issue) has no
    caller on the stack; its exception is re-raised at the next blocking
    operation ([pread]/[size]/[sync]/close-time drain), and a failed
    prefetch surfaces at the demand read that consumes it.

    {b Domains and stats}: the wrapper shares [inner.stats].  All I/O
    counters are then mutated only on the I/O domain, pool counters only on
    the issuing domain, and end-of-run reads happen-after the final [sync]
    barrier — see io_stats.mli for the full ownership contract.  The inner
    backend itself is only ever touched from the I/O domain. *)

val async : ?max_prefetch:int -> t -> t
(** Asynchronous wrapper over [inner].  Its [close] drains the queue, joins
    the I/O domain and then closes the inner backend. *)

val with_async : ?max_prefetch:int -> t -> (t -> 'a) -> 'a
(** [with_async inner f] runs [f] with an {!async} view of [inner], then
    drains the queue and joins the I/O domain — {e without} closing
    [inner], whose streams stay readable (crash-recovery harnesses resume
    on the same disk).  A deferred write-behind failure surfaces here on
    the success path; if [f] itself raised, that exception wins. *)
