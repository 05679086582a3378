(** Static whole-plan invariant verification.

    The polyhedral timeline makes a concrete plan's entire I/O future
    statically known, so every property the engine relies on at run time can
    be proved before a single byte moves.  [check] analyses a {!Cplan.t}
    without executing it and reports typed diagnostics across four invariant
    families, each with a stable code:

    {b Dataflow well-formedness} (DF...): every memory-serviced read has a
    dominating producer or loader ([DF001]); every realized sharing pair is
    marked consistently with the schedule order — the later-scheduled read
    endpoint carries [From_memory], and a W->R pair runs write-first
    ([DF002], the historical [Cplan.build] bug class); reads of never-written
    non-input blocks are reported ([DF003], warning: the storage contract
    defines them as zeroes); steps appear in lexicographic schedule order
    ([DF004]); no disk read observes a block whose dominating write was
    elided — the bytes were never materialised ([DF005]).

    {b Residency safety} (RS...): a fold over the plan's predicted protocol
    stream ({!Cplan.events}), tracking residency from its own [Read],
    [Write] and [Drop] events, proving no memory-serviced read of a
    non-resident block ([RS001]), no pin of a non-resident block ([RS002]),
    the stream's peak resident bytes within the buffer-pool capacity
    ([RS003]) and no pin still open at the plan end ([RS004]); a pre-check
    rejects malformed pin intervals ([RS005]).

    {b Journal safety} (JR...): an independent re-derivation of the
    crash-restart analysis, diffed against the watermark data the engine
    will actually journal: every claimed-safe step-complete boundary must be
    safe — no replayed disk-sourced read can observe a future disk version
    ([JR001]); no restart point may strand a consumer of an elided value
    produced before it ([JR002]); every anti-dependence read must appear in
    its step's before-image (undo) set ([JR003]); the watermark arrays must
    match the plan shape ([JR004]).

    {b Fusion legality} (FU...): an independent re-derivation of the
    per-boundary link-legality predicate, diffed against the groups the
    tile-vectorized executor will fuse: every fused boundary must be legal
    and tile-uniform ([FU001]); a legal fusable junction left unfused is
    reported ([FU002], warning); the groups must partition the steps
    contiguously ([FU003]).

    The verifier is a static differential oracle: it mirrors the dynamic
    Interpret/Vector differential contract, but catches planner bugs at plan
    time instead of corrupting state at run time.  [mutate] provides seeded
    plan mutations proving each family actually catches its violations. *)

type severity = Error | Warning

type diag = {
  code : string;  (** stable diagnostic code, e.g. ["DF002"] *)
  severity : severity;
  step : int;  (** step index the diagnostic anchors to, or [-1] *)
  stmt : string;  (** statement name, or [""] when not step-specific *)
  block : Cplan.block option;
  message : string;
}

type watermarks = {
  wm_safe : bool array;  (** claimed-safe step-complete boundaries *)
  wm_restart : int array;  (** claimed restart point per watermark *)
  wm_undo : (string * int list) list array;
      (** claimed before-image (undo) block set per step *)
}
(** The journal data the engine will act on, in plan-shape arrays (one entry
    per step).  [Riot_exec.Engine.verify] fills this from
    [Riot_exec.Journal.analyze]; the verifier re-derives each property
    independently and diffs. *)

type report = {
  diags : diag list;  (** sorted by (step, code) *)
  steps : int;
  families : string list;  (** invariant families actually checked *)
}

val check :
  ?cap_bytes:int ->
  ?watermarks:watermarks ->
  ?groups:Fuse.group list ->
  Cplan.t ->
  report
(** Statically verify the plan.  [cap_bytes] is the buffer-pool capacity the
    residency family checks against (default: the plan's own
    [peak_memory], so a plan that under-states its requirement is caught).
    [watermarks] enables the journal family (omitted: skipped — the journal
    analysis lives above this library).  [groups] is the fusion partition to
    cross-check (default: [Fuse.analyze plan], exactly what the vectorized
    executor consumes). *)

val errors : report -> int
val warnings : report -> int

val ok : report -> bool
(** No [Error]-severity diagnostics (warnings allowed). *)

val is_clean : report -> bool
(** No diagnostics at all. *)

exception Rejected of report
(** Raised by {!check_exn} on a plan with [Error]-severity diagnostics.
    Registered with [Printexc], so an uncaught rejection prints its
    diagnostics readably. *)

val check_exn :
  ?cap_bytes:int ->
  ?watermarks:watermarks ->
  ?groups:Fuse.group list ->
  Cplan.t ->
  unit
(** Like {!check} but raises {!Rejected} unless {!ok}. *)

val pp_diag : Format.formatter -> diag -> unit
val pp_report : Format.formatter -> report -> unit

(** {2 Seeded plan-mutation harness}

    Each mutation plants one violation of a known invariant family; a
    verifier that fails to flag the mutated plan with one of the expected
    codes is broken.  Mutations are pure: the input plan is never altered. *)

type mutation =
  | Flip_read_src
      (** remark a realized sharing pair's later read endpoint [From_disk]
          (the historical bug shape) — expect DF002/DF005 *)
  | Forge_mem_read
      (** mark an unpinned disk read [From_memory] — expect DF001/RS001 *)
  | Drop_pin  (** remove a pin some consumer relies on — expect RS001 *)
  | Reorder_step
      (** swap two adjacent steps against schedule order — expect DF004 *)
  | Move_watermark
      (** corrupt the journal data: claim an unsafe boundary safe, raise a
          restart point past an elided dependency, or drop an undo entry —
          expect JR001/JR002/JR003 (requires [watermarks]) *)
  | Forge_fusion
      (** merge two adjacent groups across an illegal boundary — expect
          FU001 *)

type mutated = {
  m_plan : Cplan.t;
  m_watermarks : watermarks option;
      (** overriding journal data, when the mutation corrupts it *)
  m_groups : Fuse.group list option;
      (** overriding fusion partition, when the mutation forges it *)
  m_expect : string list;  (** diagnostic codes that prove the catch *)
  m_descr : string;
}

val mutation_name : mutation -> string
val all_mutations : mutation list

val mutate :
  ?seed:int -> ?watermarks:watermarks -> mutation -> Cplan.t -> mutated option
(** Apply one seeded mutation.  [None] when the plan offers no site for it
    (e.g. no realized sharing to flip, or [Move_watermark] without
    [watermarks]).  The mutated plan, passed to {!check} together with any
    [m_watermarks]/[m_groups] overrides, must report at least one diagnostic
    whose code is in [m_expect]. *)
