(** Static read-ahead schedule extracted from a concrete plan.

    The plan's step array is the exact future access sequence, so every
    [From_disk] read can be announced to an asynchronous backend before the
    step that performs it — no heuristics, no mispredictions.  Each hint
    carries the {e earliest step at which issuing it is safe}: under a FIFO
    async backend a hint enqueued at step [i] for a read at step [t]
    observes only the writes enqueued before [i], so the hint must come
    after the block's last write, last residency (a dirty flush lands where
    residency ends — the last touch step or the pin-stop step), and last
    pin release before [t].  Reads whose safe window is empty are simply
    left to demand fetching. *)

type t

val make : Cplan.t -> t
(** Extract the hint schedule: one hint per distinct block read
    [From_disk] at each step, annotated with its target and earliest safe
    issue step.  Mode-independent — fused and unfused execution perform the
    same physical reads. *)

val issue : t -> now:int -> horizon:int -> (Cplan.block -> unit) -> unit
(** [issue t ~now ~horizon f] calls [f] on every not-yet-issued hint whose
    target step lies in [now, horizon] and whose earliest safe issue step
    is [<= now], marking them issued.  Call it at each dispatch boundary
    [now] with [horizon] = last step of the dispatch unit plus the desired
    read-ahead depth; hints that were not safe yet are retried at later
    boundaries and fall back to demand reads if their window closes. *)

val length : t -> int
(** Number of plan steps. *)

val hint_count : t -> int
(** Total number of hints in the schedule (issued or not). *)

val hints_at : t -> int -> (Cplan.block * int) list
(** The blocks whose hints target the given step, each with its earliest
    safe issue step (exposed for tests). *)
