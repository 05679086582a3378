(** In-core dense kernels on row-major [float array] blocks.

    This is the execution engine's substitute for GotoBLAS2: gemm with
    transposition, element-wise ops, Gauss-Jordan inversion and residual
    sums of squares.  Only {!gemm} is packed and register-tiled, and only
    it can split across domains ({!gemm_par}); the rest are plain loops.  The cost model accounts for full-scale CPU time separately
    ({!Riot_plan.Machine}), at the paper's modeled gemm rate rather than
    this kernel's. *)

val gemm :
  accumulate:bool ->
  ta:bool ->
  tb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:float array ->
  b:float array ->
  c:float array ->
  unit
(** [c (m x n) += op(a) * op(b)] with [op] transposing when the flag is set;
    [a] is [m x k] ([k x m] when [ta]), [b] is [k x n] ([n x k] when [tb]).
    With [accumulate = false] [c] is first set to [+0.].  Only the leading
    [m*k], [k*n] and [m*n] elements of [a], [b] and [c] are used; [c] must
    not share storage with [a] or [b].

    Summation order (the contract): each [c.(i,j)] starts from its prior
    value and adds [a(i,l) *. b(l,j)] for [l] ascending, one rounding per
    multiply and per add.  A term whose [a(i,l)] is zero ([+0.] or [-0.])
    is skipped, as in reference BLAS, so [0 * inf] and [0 * nan] never
    reach [c]; a NaN [a(i,l)] is not skipped.  The result is therefore
    bit-identical (NaN, infinities and signed zeros included) to the plain
    [i]-[l]-[j] triple loop, and to every revision of this kernel.

    Design: operands are packed into contiguous panels, as in GotoBLAS
    (Goto and van de Geijn, TOMS 2008), and the tile loop is C
    (gemm_stubs.c), one call per row chunk.  op(a)'s rows are copied once
    per call (per chunk, under {!gemm_par}) in groups of four, interleaved
    by [l]; each 8-column panel of op(b) is copied before its tiles run,
    eight values per [l].  A 4-row x 8-column tile of [c] is held in
    registers across the whole [l] loop, so each loaded [a] value feeds
    eight multiply-adds and each [b] value four.  [-O3] vectorises the
    tile's column loop once per ISA ({!isa}): for the target's baseline
    (two doubles per instruction on x86-64) and, on x86-64, for AVX2 (four
    doubles), with no [-march] and no [-ffast-math].  The widest tile the
    CPU runs is chosen once per process from cpuid.  The choice cannot
    change a bit of the result: each vector lane is one IEEE multiply or
    add, as a scalar instruction is, so a wider vector changes how many
    elements are in flight, never an element's operation sequence; FMA is
    not enabled for any tile; and a tile with a NaN operand runs the one
    scalar loop described below on every ISA.  The panels pad the last
    rows and columns with [+0.]: a padded row's zero [a] is skipped by the
    rule above, and a padded column's sums are computed and thrown away, so
    every element of [c], edges included, runs through the same tile.  The
    packing absorbs the transposes.  Packing moves values, never an
    element's operation sequence.  The file is compiled with
    [-ffp-contract=off], so the compiler never fuses a multiply and its add
    into one fused multiply-add, which rounds once and would change the low
    bits of every inexact product.

    NaN payloads: when both operands of a multiply or an add are NaNs, x86
    returns the first one's (quieted), and a C compiler may put either
    operand of [+] or [*] first.  The packing notes whether the chunk's rows
    of op(a), a panel of op(b) or a tile of [c] holds a NaN.  A tile with no
    NaN operand runs the vectorised loop: every NaN that arises there is
    the hardware's default NaN, the same bits in either order.  A tile with
    one runs a scalar loop that picks explicitly, as the triple loop does:
    the accumulator's NaN, then [a]'s, then [b]'s.

    The panel buffers belong to the calling domain ([Domain.DLS]) and are
    grown on the OCaml side; the C kernel allocates nothing.  Calls on
    different domains never share one, and a domain's buffers only grow, to
    the largest [(rows rounded up to 4) * k] and [8 * k] it has seen, so a
    call allocates nothing once that shape has been seen.  The buffers
    outlive the call but hold nothing a later call reads before overwriting
    it.  The tiles read [a] and [b] from copies taken before [c] is written,
    so if [c] shared storage with either, a write to [c] would not reach the
    operand values later tiles use and the result would differ from the
    triple loop's: hence the no-aliasing precondition above.  The kernel
    reads and writes through raw pointers, made sound by the shape check
    below.

    @raise Invalid_argument if [m], [n] or [k] is negative or [a], [b] or
    [c] is shorter than its shape needs.  The message names the short
    operand and the dimensions.  The check runs before anything is written,
    so [c] is unchanged on the raise. *)

(** {2 Tiles by ISA}

    The NaN-free tile is compiled once per instruction set.  Every tile
    meets the contract above bit for bit; they differ only in speed. *)

type isa =
  | Baseline  (** the target's default ISA: SSE2 on x86-64 *)
  | Avx2  (** x86-64 AVX2, built only by GCC and Clang *)

val isa_name : isa -> string
(** ["baseline"], ["avx2"]. *)

val all_isas : isa list
(** Every tile this library knows, narrowest first. *)

val supported_isas : isa list
(** The tiles this build has and this CPU runs, narrowest first; always
    starts with [Baseline].  Read from cpuid once per process. *)

val isa : isa
(** The tile {!gemm} and {!gemm_par} run: the last of {!supported_isas}. *)

(** {2 Row-split gemm}

    {!gemm_par} runs the same kernel split by rows of [c] across a
    caller-supplied parallel-for.  Rows are cut into [chunks] contiguous
    runs of whole row pairs (the last run also takes an odd last row), and
    each chunk is the packed kernel restricted to its rows: it packs those
    rows of op(a) and its own op(b) panels into its domain's buffers, and
    reads and writes only its rows of [c].  No element of [c] is touched by
    two chunks, and each element keeps exactly the operation sequence of the
    contract above, so the result is bit-identical to {!gemm} for every
    chunk count and every interleaving of the chunks.  The shape check and
    the [accumulate = false] zero-fill run once, on the caller, before any
    chunk is dispatched; a shape error therefore leaves [c] unchanged and
    runs no chunk.

    The split pays only when a chunk's work dwarfs the cost of waking a
    domain, so by default a call splits only when its [2mnk] flops reach
    {!gemm_grain}: about 0.3 ms of one core's work, against tens of
    microseconds per dispatch.  Each extra chunk re-packs op(b), [n * k]
    copies against [2 * (m / chunks) * n * k] flops. *)

type par = {
  jobs : int;  (** the domains [run] spreads its bodies over *)
  run : n:int -> (int -> unit) -> unit;
      (** [run ~n body] calls [body 0] ... [body (n - 1)], each exactly
          once, possibly concurrently, and returns once all have; a
          body's exception is re-raised in the caller *)
}
(** A parallel-for, supplied by the caller (the engine passes its run's
    domain pool); this library spawns no domain itself. *)

val sequential : par
(** [jobs = 1]: the bodies run in order on the calling domain. *)

val gemm_grain : int
(** Flops ([2mnk]) below which {!gemm_par} does not split by default: one
    million. *)

val gemm_chunks : jobs:int -> m:int -> n:int -> k:int -> int
(** The default chunk count: [1] when [jobs <= 1] or the call's flops fall
    below {!gemm_grain}, else [min jobs (m / 2)] (at least [1]). *)

val gemm_par :
  ?chunks:int ->
  ?isa:isa ->
  par ->
  accumulate:bool ->
  ta:bool ->
  tb:bool ->
  m:int ->
  n:int ->
  k:int ->
  a:float array ->
  b:float array ->
  c:float array ->
  unit
(** {!gemm}, split into [chunks] row chunks run through [par]; [chunks]
    defaults to [gemm_chunks ~jobs:par.jobs ~m ~n ~k].  With one chunk [par]
    is never called.  [isa] (default {!isa}) picks the tile; the tests and
    the kernel benchmark use it to run every supported tile.
    Bit-identical to {!gemm} (see above).
    @raise Invalid_argument as {!gemm} does, if [chunks < 1], or if [isa]
    is not in {!supported_isas}. *)

val add : float array -> float array -> float array -> unit
(** [c.(i) = a.(i) + b.(i)]. *)

val sub : float array -> float array -> float array -> unit
val copy : src:float array -> dst:float array -> unit
val scale : float -> float array -> unit
val fill : float array -> float -> unit

val invert : n:int -> float array -> float array -> unit
(** [dst = src^-1] for an [n x n] row-major matrix, by Gauss-Jordan with
    partial pivoting.  Singularity is judged relative to the matrix's own
    magnitude, so uniformly tiny but well-conditioned matrices invert.
    @raise Failure on a singular matrix. *)

val rss_acc : rows:int -> cols:int -> e:float array -> acc:float array -> unit
(** [acc.(j) += sum_i e.(i,j)^2]: column-wise residual sums of squares,
    accumulated into the first [cols] entries of [acc]. *)

val filter_pos : src:float array -> dst:float array -> unit
(** Pig FILTER: [dst.(i) = if src.(i) > 0. then src.(i) else 0.]. *)

val foreach_affine : src:float array -> dst:float array -> unit
(** Pig FOREACH: [dst.(i) = 2 * src.(i) + 1]. *)

val join_scores :
  rows:int -> cols:int -> l:float array -> r:float array -> out:float array -> unit
(** Block nested-loop join: [out.(i,j) = l.(i) * r.(j)] over the first
    [rows] elements of [l] and [cols] of [r] (outer-product match scores). *)

(** {2 Fused element-wise chains}

    A chain runs a sequence of element-wise stages over one tile, keeping
    every intermediate in a private scratch buffer instead of a pool block.
    Stages are compiled once and reused across blocks: each is one closure
    call per stage per tile into the standalone kernel ({!add}, {!sub},
    {!copy}, {!filter_pos}, {!foreach_affine}), none per element.  Each
    element-wise loop exists once, so chain outputs are bit-identical to
    running the kernels one step at a time through separate buffers — the
    property the differential executor harness asserts.

    All stages are pointwise at the same index, so aliasing is safe: a
    stage's output may alias [Prev] or any operand (each element is read
    before it is written). *)

type fsrc =
  | Prev  (** the previous stage's output tile *)
  | Buf of int  (** slot [i] of the caller-supplied operand table *)

type fstage =
  | Fadd of fsrc * fsrc
  | Fsub of fsrc * fsrc
  | Fcopy of fsrc
  | Ffilter of fsrc  (** {!filter_pos} *)
  | Fforeach of fsrc  (** {!foreach_affine} *)

type chain
(** A compiled chain owns its scratch tile, so one chain value must not run
    concurrently from several domains; compile per executor instance. *)

val compile_chain : tile:int -> fstage array -> chain
(** Compile the stages over a scratch tile of [tile] elements.  The first
    stage must not reference [Prev].
    @raise Invalid_argument on an empty stage array. *)

val stage_count : chain -> int

val run_chain : chain -> bufs:float array array -> dst:float array -> unit
(** Run all stages; every stage but the last writes the scratch tile, the
    last writes [dst] (looping over [Array.length dst] elements, exactly as
    the standalone kernel would). *)

val run_stages : chain -> bufs:float array array -> float array
(** Run all stages into the scratch tile and return it (borrowed — valid
    until the next run).  Used when a non-element-wise terminal (e.g. an
    RSS accumulation) consumes the chain's final tile. *)
