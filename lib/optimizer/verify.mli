(** Independent, concrete verification of schedules.

    FindSchedule is correct by construction (Farkas), but the combination of
    rational projections and greedy choices deserves an independent check:
    these functions enumerate statement instances at concrete parameters and
    test legality, injectivity and sharing realization directly. *)

val times :
  Riot_ir.Program.t ->
  sched:Riot_ir.Sched.program_sched ->
  params:(string * int) list ->
  (string * (string * int) list * int array) list
(** All (statement, instance, time vector) triples. *)

val legal :
  Riot_ir.Program.t ->
  sched:Riot_ir.Sched.program_sched ->
  params:(string * int) list ->
  bool
(** Every ground-truth dependence pair maps to lexicographically increasing
    times. *)

val injective :
  Riot_ir.Program.t ->
  sched:Riot_ir.Sched.program_sched ->
  params:(string * int) list ->
  bool
(** No two statement instances share an execution time. *)

val realizes :
  Riot_ir.Program.t ->
  sched:Riot_ir.Sched.program_sched ->
  params:(string * int) list ->
  Riot_analysis.Coaccess.t ->
  bool
(** The Table-1 condition of the opportunity holds for every concrete pair
    of its extent. *)

(** {2 Cached checker}

    Instance sets, ground-truth dependence pairs and extent pairs depend on
    the program and parameters only; when verifying thousands of plans the
    checker computes them once.  It holds each instance as an integer vector
    over its statement's space and each pair as two instance ids, so a check
    evaluates the schedule once per instance, with no name looked up, and
    compares times by id.  Every verdict equals the name-based one above.
    An opportunity must pair instances of its statements' instance sets, as
    those of [Deps.extract] on the same program do; otherwise a check
    raises [Invalid_argument]. *)

type checker

(** [checker ?coaccesses prog ~params] builds the cached checker.
    [?coaccesses] prefills the extent-pair table for those opportunities and
    freezes the checker, making it safe to share read-only across domains
    (an unexpected miss recomputes locally without inserting).  Without it
    the checker fills the table lazily and must stay domain-confined. *)
val checker :
  ?coaccesses:Riot_analysis.Coaccess.t list ->
  Riot_ir.Program.t ->
  params:(string * int) list ->
  checker

val check_legal : checker -> Riot_ir.Sched.program_sched -> bool
val check_injective : checker -> Riot_ir.Sched.program_sched -> bool
val check_realizes : checker -> Riot_analysis.Coaccess.t -> Riot_ir.Sched.program_sched -> bool

val check : checker -> q:Riot_analysis.Coaccess.t list -> Riot_ir.Sched.program_sched -> bool
(** [check_legal && check_injective && check_realizes] of every opportunity
    in [q], evaluating the schedule once for all of them. *)
