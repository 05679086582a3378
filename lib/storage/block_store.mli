(** Uniform view over the two storage formats, keyed by array name. *)

type format = Daf_format | Lab_format

type t

val create :
  Backend.t -> format:format -> name:string -> layout:Riot_ir.Config.layout -> t

val name : t -> string
val layout : t -> Riot_ir.Config.layout
val block_bytes : t -> int

val read_block : t -> int list -> bytes
val write_block : t -> int list -> bytes -> unit

val touch_read : t -> int list -> unit
(** Account the block read without materialising bytes (phantom mode). *)

val touch_write : t -> int list -> unit

val prefetch : t -> int list -> unit
(** Read-ahead hint for an imminent [read_block] of this subscript; a no-op
    on synchronous backends (see [Backend.t.prefetch]). *)

val read_floats : t -> int list -> float array
val write_floats : t -> int list -> float array -> unit
(** Payloads as double-precision arrays (the element type used throughout
    the experiments). *)

val get_floats : bytes -> off:int -> int -> float array
(** [get_floats b ~off n] decodes the [n] little-endian IEEE doubles at
    byte offset [off], bit for bit (NaN payloads and signed zeros kept).
    The block codec of {!read_floats}; one loop, no per-element boxing.
    @raise Invalid_argument if the range runs past the end of [b]. *)

val set_floats : bytes -> off:int -> float array -> unit
(** [set_floats b ~off a] encodes [a] at byte offset [off]; the inverse of
    {!get_floats} and the codec of {!write_floats}.
    @raise Invalid_argument if [b] is too short. *)

val stream_name : t -> string
(** The backend stream (file name) this store reads and writes, the key of
    its per-stream [Io_stats] counters. *)
