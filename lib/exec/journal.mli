(** Crash–restart journal: a completed-step watermark plus before-images of
    blocks about to be overwritten, persisted through the backend, and the
    static plan analysis that makes resuming from them sound.

    {2 Format}

    The journal lives in its own backend stream {!stream} and is written
    with [sync] barriers, so a watermark record is durable only after the
    step's dirty blocks are.  Layout (all integers little-endian int64):

    {v
    header (32 bytes):  magic "RIOTJRN2" | plan fingerprint | nonce | checksum
    record:             seq | kind | step | payload_len | checksum | payload
    v}

    Records are appended sequentially ([seq] = 0, 1, ...) and come in two
    kinds: {e step-complete} (empty payload; the watermark is the highest
    such step among valid records) and {e before-image} (payload = array
    name, block index and the block's data as it was when a read at [step]
    observed it).  A fresh run rewrites the header with a new random nonce,
    which invalidates any stale records left over from a longer previous run
    (their checksums no longer match); a torn header or torn trailing record
    fails its checksum and is ignored, along with everything after it.

    {2 Why a watermark alone is not enough}

    Three engine behaviours make naive "skip completed steps" wrong:

    - {e Elided writes} live only in pool memory.  A memory-serviced read
      of such a value cannot be satisfied after a restart that skips its
      producer, so the restart point moves back to the latest step that no
      elided value's (producer, read] window contains
      ({!resume_plan}[.restart]): the replay re-runs every producer whose
      value it reads from memory.
    - {e Anti-dependences across the crash}: a replayed read of block [b]
      observes [b]'s {e current} disk version, which a [To_disk] write at or
      after the reading step may already have clobbered.  Boundaries where
      re-execution alone provably cannot observe such a future version are
      marked [safe] and journalled; for every other crash point the
      before-images repair the disk first: each read in
      {!resume_plan}[.undo] journals the block's pre-clobber bytes (captured
      from the pool - no extra data-stream read), and {!restore_plan} picks,
      per block, the oldest image at or after the restart point.  Any state
      between that image and a replayed read is regenerated by the replayed
      writes themselves.
    - {e Accumulator chains} need no special case: re-execution restarts at
      the chain's first instance, which re-initialises the accumulator, and
      chain-interior boundaries whose partials hit the disk are rejected by
      the anti-dependence rule (a same-step read/write pair counts). *)

val stream : string
(** ["__journal__"] - reserved stream name; not an array. *)

val fingerprint : Riot_plan.Cplan.t -> int64
(** Structural hash of the plan's steps, accesses and pins.  A journal is
    only replayed against the plan that wrote it. *)

type resume_plan = {
  safe : bool array;
      (** [safe.(i)]: the boundary after step [i] may be journalled as a
          watermark without before-image repair *)
  restart : int array;
      (** [restart.(i)]: first step to re-execute when resuming from
          watermark [i]: the latest [r <= i + 1] such that no
          memory-serviced read at a step [s >= r] takes an elided value
          produced at a step [t < r].  It is [< i + 1] exactly when elided
          values must be regenerated, and does not depend on the order of
          the plan's reads. *)
  undo : int list array;
      (** [undo.(i)]: ids of the blocks read by step [i] that a step
          [t >= i] overwrites on disk; a journalled run must append a
          before-image of each at step [i], before the kernel runs *)
}

val analyze : Riot_plan.Cplan.t -> resume_plan
(** Static safe-boundary, restart-point and before-image analysis (see
    above).  The last boundary is always safe; [restart] is meaningful for
    any watermark. *)

val of_program : Riot_plan.Cplan.program -> resume_plan
(** {!analyze} over the plan's unfused lowering ([Cplan.lower] with no
    fused ranges) the caller already holds, such as the program of
    [Vexec.compiled_for ~fuse:false]: [analyze plan] is
    [of_program (Cplan.lower plan)].  A fused lowering is out of contract:
    its links' pins and drops are missing. *)

type image = {
  im_step : int;
  im_array : string;
  im_index : int list;
  im_data : float array;
}

type recovered = {
  watermark : int;  (** highest valid recorded step; [-1] if none *)
  nonce : int64;
  records : int;  (** number of valid records *)
  bytes : int;  (** end offset of the valid prefix (continuation appends here) *)
  images : image list;  (** valid before-images, in append order *)
}

val recover : Riot_storage.Backend.t -> fingerprint:int64 -> recovered option
(** Scan the journal stream; [None] when there is no journal, the header is
    invalid or torn, or it belongs to a different plan. *)

val restore_plan : recovered -> start_step:int -> image list
(** The before-images a resume restarting at [start_step] must write back
    to the data streams before re-executing: per block, the oldest image
    with [im_step >= start_step]. *)

type writer

val start : Riot_storage.Backend.t -> fingerprint:int64 -> writer
(** Begin a fresh journal: write and sync a new header (fresh nonce),
    invalidating any previous incarnation's records. *)

val continuation : Riot_storage.Backend.t -> recovered -> writer
(** Keep appending to a recovered journal under its existing nonce. *)

val append : writer -> step:int -> unit
(** Record that every step up to [step] has completed, then [sync].  The
    caller must sync the data streams first. *)

val append_image :
  writer -> step:int -> array:string -> index:int list -> data:float array -> unit
(** Append a before-image of one block as observed by a read at [step].  Not
    synced: the clobbering write necessarily reaches the backend later, so
    ordering alone guarantees the image is on disk first. *)
