(** Structured execution traces.

    The engine can narrate a run as a stream of events: step boundaries,
    every block access with how it was serviced (disk or memory, written
    through or elided), pin interval opens/closes, buffer drops, and pool
    evictions.  Events flow into a {!sink}; when the engine is given no sink
    it constructs no events at all, so tracing is free when off.

    The same vocabulary describes the run before it happens:
    [Cplan.events] derives the predicted stream from the plan alone, and on
    block-addressed storage a run whose plan fits the pool must narrate it
    event for event ([Cplan.diff_trace]).

    Two serialisations ship with this module: a human-oriented text form
    and a line-per-event JSON form ({!to_json}/{!of_json} round-trip, so
    traces can be post-processed by external tools and re-read by tests). *)

type src = Disk | Memory

type event =
  | Step_begin of { step : int; stmt : string; instance : (string * int) list }
  | Step_end of { step : int }
  | Read of { step : int; array : string; index : int list; src : src }
  | Write of { step : int; array : string; index : int list; elided : bool }
  | Pin_open of { step : int; array : string; index : int list }
  | Pin_close of { step : int; array : string; index : int list }
  | Drop of { step : int; array : string; index : int list }
      (** the buffer left the pool at the plan's direction (dead block) *)
  | Evict of { step : int; array : string; index : int list; flushed : bool }
      (** the pool evicted the buffer under memory pressure *)

val step_of : event -> int
(** The step an event belongs to. *)

type sink = { emit : event -> unit }

val collector : unit -> sink * (unit -> event list)
(** A sink that records events in order, and a function returning what has
    been collected so far (for tests and in-process analysis). *)

val tee : sink -> sink -> sink

val text : Format.formatter -> sink
(** One human-readable line per event. *)

val pp_event : Format.formatter -> event -> unit

val jsonl : (string -> unit) -> sink
(** Calls the supplied writer with one JSON object (no newline) per event. *)

val to_json : event -> string

exception Parse_error of string

val of_json : string -> event
(** Inverse of {!to_json}.  @raise Parse_error on malformed input. *)
