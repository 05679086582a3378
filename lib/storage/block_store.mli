(** Uniform view over the two storage formats, keyed by array name. *)

type format = Daf_format | Lab_format

type t

val create :
  Backend.t -> format:format -> name:string -> layout:Riot_ir.Config.layout -> t

val name : t -> string
val layout : t -> Riot_ir.Config.layout
val block_bytes : t -> int

val read_block : t -> int list -> bytes

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

(** {2 Block codec}

    A block's bytes are its doubles' IEEE 754 bits, little-endian, with no
    header.  Both directions are one bulk copy in a C stub: a [memcpy] on a
    little-endian host, a per-element byte swap on a big-endian one.  The
    stub needs flat float arrays (a switch configured with
    [--disable-flat-float-array] does not build it).  The copy is bit for
    bit: NaN payloads, signed zeros and subnormals keep their bits.  Ranges
    are checked in full before any byte moves, and byte offsets need no
    alignment. *)

val get_floats : bytes -> off:int -> int -> float array
(** [get_floats b ~off n] decodes the [n] doubles at byte offset [off] of
    [b] into a fresh array.  The codec of {!read_floats}.
    @raise Invalid_argument if [off] or [n] is negative or the range runs
    past the end of [b]. *)

val set_floats : bytes -> off:int -> float array -> unit
(** [set_floats b ~off a] encodes [a] at byte offset [off] of [b]; the
    inverse of {!get_floats} and the codec of {!write_floats}.
    @raise Invalid_argument if [off] is negative or [b] is too short; [b]
    is then left untouched. *)

val stream_name : t -> string
(** The backend stream (file name) this store reads and writes, the key of
    its per-stream [Io_stats] counters. *)
