(** Optimizer profiling counters, safe to update from every pool domain.

    Integer counters are plain atomics; phase/per-domain second accumulators
    use a CAS loop.  A single value is threaded through one search and read
    after it finishes; [waves] and [wall] are written only by the search
    driver (single domain), everything else may be bumped concurrently. *)

type t = {
  tried : int Atomic.t;  (** candidate sets examined, including pruned ones *)
  pruned_bound : int Atomic.t;  (** cut by the I/O lower bound *)
  pruned_apriori : int Atomic.t;  (** cut by an infeasible immediate subset *)
  rejected_verify : int Atomic.t;  (** no schedule found / concrete check failed *)
  costed : int Atomic.t;  (** full [Cplan] builds *)
  fm_components : int Atomic.t;
      (** distinct components whose emptiness Fourier–Motzkin decided: the
          search memo's size when the search ends *)
  fm_giveups : int Atomic.t;
      (** of [fm_components], those whose elimination passed the inequality
          budget and were answered "not provably empty" *)
  samples_drawn : int Atomic.t;
      (** distinct (component, sampling window) integer samples drawn *)
  bound_s : float Atomic.t;
  find_s : float Atomic.t;
  verify_s : float Atomic.t;
  cost_s : float Atomic.t;
  domain_busy : float Atomic.t array;
  mutable waves : int;
  mutable wall : float;
}

val create : unit -> t

type phase = Bound | Find | Verify | Cost

val time : t -> phase -> (unit -> 'a) -> 'a
(** Run the thunk, crediting its wall time to the phase accumulator and to
    the calling domain's busy slot. *)

val add_float : float Atomic.t -> float -> unit

val utilization : t -> float list
(** Busy-fraction per active domain (descending), against [wall]. *)

val pp : Format.formatter -> t -> unit
