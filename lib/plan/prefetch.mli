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

val of_program : Cplan.program -> t
(** {!make} over a lowering the caller already holds, fused or not: a
    chain's links are never read from disk, so both give the same
    schedule. *)

val issue : t -> now:int -> horizon:int -> (int -> unit) -> unit
(** [issue t ~now ~horizon f] calls [f] on the block id of every
    not-yet-issued hint whose target step lies in [now, horizon] and whose
    earliest safe issue step is [<= now], marking them issued.  Call it as each unit of the program
    begins at [now], with [horizon] = the unit's last step plus the desired
    read-ahead depth; hints that were not safe yet are retried at later
    boundaries and fall back to demand reads if their window closes. *)

val length : t -> int
(** Number of plan steps. *)

val hints_at : t -> int -> (int * int) list
(** The block ids whose hints target the given step, each with its
    earliest safe issue step (exposed for tests). *)
