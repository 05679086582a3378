(** Named failpoints with deterministic, seeded triggers.

    A failpoint is a named site in the code (e.g. ["backend.read.error"])
    that asks the registry, on every hit, whether it should fail this time.
    Triggers make the schedule reproducible:

    - [Always]: fire on every hit;
    - [Nth n]: fire on the [n]-th hit only (1-based) - the workhorse of the
      crash-consistency harness, which sweeps [n] across a run's whole I/O
      schedule;
    - [Every k]: fire on hits [k], [2k], [3k], ...;
    - [Prob (p, seed)]: fire with probability [p] per hit, from a dedicated
      PRNG seeded with [seed] so two runs with the same spec see the same
      schedule.

    The registry is global and intentionally simple: when nothing is armed,
    {!should_fail} is a single integer comparison, so instrumented code pays
    nothing in production.  Not thread-safe; arm failpoints before spawning
    domains. *)

type trigger =
  | Always
  | Nth of int  (** fire on exactly the n-th hit (1-based) *)
  | Every of int  (** fire on every k-th hit *)
  | Prob of float * int  (** probability per hit, with its own PRNG seed *)

val arm : string -> trigger -> unit
(** Register (or re-register, resetting counters) a failpoint. *)

val disarm : string -> unit
val reset : unit -> unit
(** Disarm everything and forget all counters. *)

val armed : unit -> bool
(** [true] iff at least one failpoint is armed (O(1)). *)

val is_armed : string -> bool

val should_fail : string -> bool
(** Ask whether the named site should fail on this hit.  Increments the
    site's hit counter (and fired counter when it fires).  Always [false]
    for unarmed names; free when the registry is empty. *)

val hits : string -> int
(** Times {!should_fail} was consulted for the name (0 if unarmed). *)

val fired : string -> int
(** Times the trigger actually fired. *)

val total_fired : unit -> int
(** Sum of {!fired} over all armed failpoints. *)

val list : unit -> (string * trigger * int * int) list
(** [(name, trigger, hits, fired)] for every armed failpoint, sorted by
    name - for logging and for reconciling injected-fault counts against
    {!Io_stats} in tests. *)

val trigger_to_string : trigger -> string

val parse_spec : string -> (string * trigger) list
(** Parse a spec of the form
    ["name=TRIG,name2=TRIG"] (also [';']-separated) where [TRIG] is one of
    [always], [nth:N], [every:K], [prob:P] or [prob:P:SEED].
    Example: ["backend.read.error=every:100,backend.crash=nth:3"].
    @raise Invalid_argument on a malformed spec. *)

val arm_spec : string -> unit
(** [parse_spec] then {!arm} each entry. *)

val env_var : string
(** ["RIOT_FAILPOINTS"]. *)

val env_spec : unit -> string option
(** [$RIOT_FAILPOINTS] if set and non-empty. *)

val arm_from_env : unit -> bool
(** Arm from [$RIOT_FAILPOINTS] if set and non-empty; returns whether
    anything was armed.  @raise Invalid_argument on a malformed spec. *)
