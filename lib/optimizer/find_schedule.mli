(** FindSchedule (Algorithm 3): a greedy, depth-by-depth search for a legal
    schedule realizing a candidate set of sharing opportunities.

    Each depth intersects (cached) Farkas-translated constraint polyhedra:
    weak satisfaction of the remaining dependences, the sharing-opportunity
    constraints of Table 1, the dimensionality constraints (Algorithm 1,
    via exact rational row-space/null-space reasoning), then greedily
    strengthens as many dependences as possible and samples one schedule row
    per statement.  The final constant dimension comes from a topological
    sort of the statements. *)

type memo
(** What one schedule search has decided about its polyhedra: the
    Fourier–Motzkin emptiness verdict of every component it tested and,
    per component and sampling window, the integer sample drawn with the
    sampling fuel that draw spent.  A hit charges that fuel again, so a
    candidate runs out of fuel exactly where it would without the memo: the
    answers of {!find} never depend on what the memo holds.  Domain-safe:
    every domain of a search shares one. *)

val memo : unit -> memo
(** A fresh, empty memo; drop it with the search it served. *)

val fm_components : memo -> int
(** Components whose emptiness was decided (each counted once). *)

val fm_giveups : memo -> int
(** Of those, the components answered "non-empty" because their
    elimination passed Fourier–Motzkin's inequality budget. *)

val samples_drawn : memo -> int
(** Distinct (component, sampling window) draws recorded. *)

val find :
  ?memo:memo ->
  Sched_space.t ->
  prog:Riot_ir.Program.t ->
  q:Riot_analysis.Coaccess.t list ->
  deps:Riot_analysis.Coaccess.t list ->
  Riot_ir.Sched.program_sched option
(** [find ?memo ss ~prog ~q ~deps] returns a schedule realizing every
    opportunity in [q] while respecting every dependence in [deps], or
    [None].  [memo] (default: a fresh one for this call) is consulted and
    filled; the result is the same whatever it holds. *)

(**/**)

exception Out_of_fuel

val budgeted_sample :
  memo:memo -> fuel:int ref -> range:int -> Riot_poly.Poly.t -> (string * int) list option
(** One component's budgeted draw, through [memo]; exposed for tests.
    @raise Out_of_fuel when the draw spends more than [!fuel]. *)
