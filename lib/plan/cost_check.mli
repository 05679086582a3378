(** Cost-model cross-validation: predicted vs actual physical I/O, per array.

    The paper's Figure 3(b) claim is that the executed plan's physical I/O
    equals the optimizer's prediction.  {!predict} folds the plan's
    predicted event stream ({!Cplan.events}) into, for every array, the
    plan's predicted physical reads and writes (block counts and bytes),
    i.e. the per-array decomposition of
    [Cplan.read_ops]/[read_bytes]/[write_ops]/[write_bytes]; {!check} diffs
    that prediction against the per-array counters measured by a run
    ([Riot_exec.Engine.result.per_array], fed from the backend's per-stream
    [Io_stats]) and reports every divergence with its array and counter, so
    a misbehaving plan points at the exact sharing opportunity or engine
    path that broke.

    Exact equality is the contract on block-addressed storage (the DAF
    format, any backend).  On the LAB-tree format the stream also carries
    index-page I/O, so divergences there quantify the format's metadata
    overhead instead of indicating a bug.  [Cplan.diff_trace] holds a run
    to the prediction event for event, which totals cannot. *)

type expected = {
  e_array : string;
  e_reads : int;  (** physical block reads ([From_disk]) *)
  e_read_bytes : int;
  e_mem_reads : int;  (** reads serviced from memory (no physical I/O) *)
  e_writes : int;  (** physical block writes ([To_disk]) *)
  e_write_bytes : int;
  e_elided : int;  (** elided writes (no physical I/O) *)
}

type actual = {
  a_array : string;
  a_reads : int;
  a_read_bytes : int;
  a_writes : int;
  a_write_bytes : int;
}

type divergence = {
  d_array : string;
  d_counter : string;
      (** ["reads"], ["bytes_read"], ["writes"] or ["bytes_written"] *)
  d_predicted : int;
  d_actual : int;
}

type report = {
  rows : (expected * actual) list;  (** one row per array, sorted by name *)
  divergences : divergence list;
  ok : bool;  (** no divergence on any physical counter of any array *)
}

val predict : Cplan.t -> expected list
(** Per-array predicted I/O of the plan, sorted by array name: a fold over
    {!Cplan.events}.  Arrays the configuration declares but the plan never
    touches appear with zeros.  [riotshare optimize --explain] prints these
    rows. *)

val check : Cplan.t -> actual:actual list -> report
(** Diff prediction against measurement.  Arrays missing on either side
    count as zero there, so phantom arrays with unexpected traffic (or
    predicted traffic that never happened) still surface as divergences. *)

val pp_report : Format.formatter -> report -> unit
