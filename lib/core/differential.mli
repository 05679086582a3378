(** The one differential harness: every engine equivalence contract over
    the configuration product (DESIGN.md, "The differential harness").
    Each plan runs unfused, sync, on DAF and a simulated disk (the
    reference), as a phantom run (also on a real file when a requested DAF
    point uses one), fused, and at the requested {!point}s, checking static
    verification; every array against the reference and [Output] arrays
    across plans; on DAF, per-array I/O against {!Riot_plan.Cost_check.predict}
    and the trace against {!Riot_plan.Cplan.events}; fused, async and
    transient I/O against the unfused sync clean run on the same format
    and disk; and a crash at backend operation [k],
    resumed in the other fused mode, against the reference output. *)

val load_inputs :
  Riot_ir.Program.t -> Riot_ir.Config.t -> (string * Riot_storage.Block_store.t) list -> unit
(** Deterministic contents (a hash of array name, block and element index)
    in every block of every [Input] array; other arrays start empty. *)

val snapshot : (string * Riot_storage.Block_store.t) list -> (string * bytes) list
(** Every block of every array, sorted by name: independent of the format. *)

val select_plans : int -> 'a list -> 'a list
(** Up to [k] well-spread elements, always the first. *)

type disk = Sim | File
type fault = Clean | Crash of int  (** at this backend operation *) | Transient

type point = {
  fused : bool;
  async : bool;
  format : Riot_storage.Block_store.format;
  disk : disk;
  fault : fault;
}

val product : int -> Riot_plan.Cplan.t -> point list
(** Every legal point: the 16 base points (fused × async × format × disk)
    each [Clean] and [Transient], and the 8 DAF ones crashing at [n]
    operations spread over the plan's journalled run. *)

type case = {
  name : string;
  prog : Riot_ir.Program.t;
  config : Riot_ir.Config.t;
  opaque : bool;  (** [DF003] tolerated *)
  plans : Riot_plan.Cplan.t list;
}

val case_of_seed : int -> case
(** {!Riot_ops.Rand_prog}'s program (opaque nests on even seeds,
    element-wise chains on odd ones) under the original schedule with none,
    the write-rooted and all of its sharing realized; on every tenth seed
    also two plans of [Search.enumerate ~max_size:2]. *)

type tally = {
  mutable programs : int;
  mutable plans : int;
  mutable verified_plans : int;  (** plans that passed the static contract *)
  mutable crash_cases : int;
  mutable recoveries : int;  (** crashes whose resume left the reference output *)
  mutable faults_injected : int;
  mutable retries : int;
  mutable runs : (string * int) list;
      (** per {!point} kind (["fused/async/daf/file/crash"]) and phantom disk *)
  mutable mismatches : string list;  (** broken contracts, naming case, plan and point *)
}

val tally : unit -> tally

val check_case : tally -> case -> (int -> Riot_plan.Cplan.t -> point list) -> unit
(** Check every plan [i] of the case, also at [points i plan]. *)

val campaign :
  ?seed:int -> ?min_crash_cases:int -> ?plans_per_program:int -> ?crash_points:int -> unit -> tally
(** Cases [seed, seed+1, ...], up to [plans_per_program] (default 2) plans
    each, over the {!product} with [crash_points] (default 12), until
    [min_crash_cases] (default 200) crashes ran. *)
