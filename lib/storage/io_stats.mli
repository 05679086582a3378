(** Mutable I/O counters shared by a backend and everything above it.

    Besides the aggregate counters of the original design, a stats value now
    keeps a per-stream breakdown (one {!stream} per backend file name, i.e.
    per stored array) with request-size histograms, and the buffer-pool
    counters (hit/miss/eviction/flush) threaded in by {!Buffer_pool}.  The
    per-stream view is what lets predicted-vs-actual I/O divergence be
    attributed to a specific array (the Figure 3(b) property, checked per
    array by [Riot_plan.Cost_check]).

    [virtual_time] is advanced by the simulated backend according to its
    bandwidth model; the file backend leaves it at zero and wall-clock time
    is measured by the caller instead.

    Domain safety: these are plain [mutable] fields and the stream table is
    an unsynchronised [Hashtbl] — deliberately.  A stats value belongs to a
    backend; the optimizer's worker domains ([Riot_base.Pool]) cost plans
    symbolically and never touch a backend.  Under synchronous execution
    everything runs on the engine's domain.  Under [Backend.async] the
    ownership splits by field, with no field ever mutated from two domains:
    every I/O counter (reads/writes/bytes, [virtual_time], the stream
    table, retries and faults) is mutated only on the I/O domain — the
    async wrapper shares the inner backend's stats and all inner requests
    execute there — while the pool counters ([pool_*]) are mutated only on
    the engine's domain by {!Buffer_pool}.  End-of-run reads of the whole
    record happen-after the final [Backend.sync] (a queue drain through the
    queue mutex), so the engine observes settled values.  Sharing one
    backend between concurrently running engines on different domains
    remains out of contract (see the domain-safety section of pool.mli). *)

type stream = {
  mutable s_reads : int;
  mutable s_writes : int;
  mutable s_bytes_read : int;
  mutable s_bytes_written : int;
  mutable s_retries : int;
      (** requests against this stream retried after a transient fault;
          each retried attempt is counted here, never in [s_reads]/[s_writes]
          or the byte totals, so bytes-moved reflects successful traffic *)
  s_read_hist : int array;  (** request count per power-of-two size bucket *)
  s_write_hist : int array;
}

type counts = {
  c_reads : int;
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
}
(** An immutable snapshot of one stream's counters. *)

type t = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable virtual_time : float;  (** seconds *)
  streams : (string, stream) Hashtbl.t;
  mutable pool_hits : int;
  mutable pool_misses : int;
  mutable pool_evictions : int;
  mutable pool_flushes : int;
  mutable retries : int;
      (** attempts repeated by {!Backend.retrying} after a transient fault *)
  mutable faults_injected : int;
      (** faults raised by {!Backend.faulty}'s failpoints *)
}

val create : unit -> t

val reset : t -> unit
(** Zero every aggregate, per-stream and pool counter. *)

val add_read : ?stream:string -> t -> int -> unit
(** Count one read of [n] bytes; with [stream] also attribute it to that
    stream's counters and size histogram. *)

val add_write : ?stream:string -> t -> int -> unit

val add_retry : ?stream:string -> t -> unit
(** Count one retried request (aggregate, and per-stream when given).
    Retried attempts must {e not} be double-counted in the read/write or
    byte counters: the fault is injected before the underlying request is
    accounted, so only the attempt that succeeds adds to bytes moved. *)

val add_fault : t -> unit
(** Count one injected fault (transient error, short read or crash). *)

val stream_retries : t -> string -> int
(** Per-stream retry count (0 for unknown streams). *)

val pool_hit : t -> unit
val pool_miss : t -> unit
val pool_eviction : t -> unit
val pool_flush : t -> unit

val stream_counts : t -> (string * counts) list
(** Snapshot of every stream's counters, sorted by stream name. *)

val counts_delta :
  before:(string * counts) list -> after:(string * counts) list ->
  (string * counts) list
(** Per-stream difference [after - before]; streams absent from [before]
    count from zero.  Used to attribute the I/O of one engine run when the
    same backend already served earlier traffic (data loading). *)

val stream_read_hist : t -> string -> (int * int) list
(** [(bucket_floor_bytes, requests)] for each non-empty power-of-two request
    size bucket of the stream ([] for unknown streams). *)

val pp : Format.formatter -> t -> unit
