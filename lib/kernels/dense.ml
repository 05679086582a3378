(* Packed, register-tiled gemm; the contract and the design are in dense.mli,
   the tile loop in gemm_stubs.c.  Packing and tiling change only where
   operands are read from and which elements of c are in flight together,
   never an element's operation sequence, so the result is bit-identical to
   the plain i-l-j triple loop.  The C kernel's raw accesses are sound
   because [gemm_check] runs first, and it runs before c is touched, so a
   shape error leaves c intact.  A row split hands each chunk the same
   kernel over its own rows, so it moves no element's operation sequence
   either. *)

let gemm_check ~m ~n ~k ~a ~b ~c =
  if m < 0 || n < 0 || k < 0 then
    invalid_arg
      (Printf.sprintf "Dense.gemm: negative dimension (m=%d n=%d k=%d)" m n k);
  (* [rows * cols <= len], without overflowing the product. *)
  let fits len rows cols = rows = 0 || cols <= len / rows in
  List.iter
    (fun (name, len, rows, cols) ->
      if not (fits len rows cols) then
        invalid_arg
          (Printf.sprintf
             "Dense.gemm: %s has %d elements, needs %d x %d (m=%d n=%d k=%d)"
             name len rows cols m n k))
    [ ("a", Array.length a, m, k);
      ("b", Array.length b, k, n);
      ("c", Array.length c, m, n) ]

(* The packing panels of the calling domain: [pa] holds the rows of op(a)
   being computed, [pb] one tile-wide column panel of op(b).  They only
   grow, so a domain's gemm calls allocate nothing once its largest shape
   has been seen; the C kernel allocates nothing at all. *)
type panels = { mutable pa : float array; mutable pb : float array }

let panels_key =
  Domain.DLS.new_key (fun () -> { pa = [||]; pb = [||] })

(* The C kernel's tile height and width (MR and NR in gemm_stubs.c). *)
let tile_rows = 4
let tile_cols = 8

(* The constructors' numbers are the C side's tile numbers. *)
type isa = Baseline | Avx2

let isa_name = function Baseline -> "baseline" | Avx2 -> "avx2"
let all_isas = [ Baseline; Avx2 ]

external tile_supported : isa -> bool = "riot_gemm_tile_supported" [@@noalloc]

(* Asked once per process; the widest tile the CPU runs is the default. *)
let supported_isas = List.filter tile_supported all_isas
let isa = List.nth supported_isas (List.length supported_isas - 1)

external gemm_tiles :
  isa -> bool -> bool -> int -> int -> int -> float array -> float array ->
  float array -> float array -> float array -> int -> int -> unit
  = "riot_gemm_rows_byte" "riot_gemm_rows"
[@@noalloc]

(* Rows [lo, hi) of c, by the packed kernel.  Only those rows of c are read
   or written, and the panels hold only those rows of op(a), so chunks of
   one call may run on different domains at once. *)
let gemm_rows ~isa ~ta ~tb ~m ~n ~k ~a ~b ~c ~lo ~hi =
  if hi > lo && n > 0 && k > 0 then begin
    let p = Domain.DLS.get panels_key in
    let rows = tile_rows * ((hi - lo + tile_rows - 1) / tile_rows) in
    if Array.length p.pa < rows * k then p.pa <- Array.create_float (rows * k);
    if Array.length p.pb < tile_cols * k then p.pb <- Array.create_float (tile_cols * k);
    gemm_tiles isa ta tb m n k a b c p.pa p.pb lo hi
  end

type par = { jobs : int; run : n:int -> (int -> unit) -> unit }

let sequential = { jobs = 1; run = (fun ~n body -> for i = 0 to n - 1 do body i done) }

let gemm_grain = 1_000_000

let gemm_chunks ~jobs ~m ~n ~k =
  if jobs <= 1 || 2 * m * n * k < gemm_grain then 1 else max 1 (min jobs (m / 2))

let gemm_par ?chunks ?(isa = isa) par ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c =
  gemm_check ~m ~n ~k ~a ~b ~c;
  if not (List.mem isa supported_isas) then
    invalid_arg
      (Printf.sprintf "Dense.gemm: this CPU does not run the %s tile" (isa_name isa));
  let chunks =
    match chunks with
    | Some q when q < 1 -> invalid_arg (Printf.sprintf "Dense.gemm: %d chunks" q)
    | Some q -> q
    | None -> gemm_chunks ~jobs:par.jobs ~m ~n ~k
  in
  if not accumulate then Array.fill c 0 (m * n) 0.;
  if chunks = 1 then gemm_rows ~isa ~ta ~tb ~m ~n ~k ~a ~b ~c ~lo:0 ~hi:m
  else begin
    (* Chunk [q] takes row pairs [q*pairs/chunks, (q+1)*pairs/chunks); the
       last one also takes an odd last row. *)
    let pairs = m / 2 in
    let bound q = if q = chunks then m else 2 * (q * pairs / chunks) in
    par.run ~n:chunks (fun q ->
        gemm_rows ~isa ~ta ~tb ~m ~n ~k ~a ~b ~c ~lo:(bound q) ~hi:(bound (q + 1)))
  end

let gemm ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c =
  gemm_par ~chunks:1 sequential ~accumulate ~ta ~tb ~m ~n ~k ~a ~b ~c

let add a b c =
  for i = 0 to Array.length c - 1 do
    c.(i) <- a.(i) +. b.(i)
  done

let sub a b c =
  for i = 0 to Array.length c - 1 do
    c.(i) <- a.(i) -. b.(i)
  done

let copy ~src ~dst = Array.blit src 0 dst 0 (Array.length dst)

let scale s a =
  for i = 0 to Array.length a - 1 do
    a.(i) <- s *. a.(i)
  done

let fill a v = Array.fill a 0 (Array.length a) v

let invert ~n src dst =
  (* Gauss-Jordan on [src | I], with partial pivoting.  Singularity is
     judged against the matrix's own magnitude: an absolute cutoff would
     reject well-conditioned matrices of tiny scale (e.g. 1e-13 * I). *)
  let a = Array.copy src in
  let mag = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0. a in
  let tiny = 1e-12 *. mag in
  for i = 0 to (n * n) - 1 do
    dst.(i) <- 0.
  done;
  for i = 0 to n - 1 do
    dst.((i * n) + i) <- 1.
  done;
  for col = 0 to n - 1 do
    (* Pivot. *)
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if abs_float a.((r * n) + col) > abs_float a.((!piv * n) + col) then piv := r
    done;
    if abs_float a.((!piv * n) + col) <= tiny then
      failwith "Dense.invert: singular matrix";
    if !piv <> col then begin
      for j = 0 to n - 1 do
        let t = a.((col * n) + j) in
        a.((col * n) + j) <- a.((!piv * n) + j);
        a.((!piv * n) + j) <- t;
        let t = dst.((col * n) + j) in
        dst.((col * n) + j) <- dst.((!piv * n) + j);
        dst.((!piv * n) + j) <- t
      done
    end;
    let d = a.((col * n) + col) in
    for j = 0 to n - 1 do
      a.((col * n) + j) <- a.((col * n) + j) /. d;
      dst.((col * n) + j) <- dst.((col * n) + j) /. d
    done;
    for r = 0 to n - 1 do
      if r <> col then begin
        let f = a.((r * n) + col) in
        if f <> 0. then
          for j = 0 to n - 1 do
            a.((r * n) + j) <- a.((r * n) + j) -. (f *. a.((col * n) + j));
            dst.((r * n) + j) <- dst.((r * n) + j) -. (f *. dst.((col * n) + j))
          done
      end
    done
  done

let rss_acc ~rows ~cols ~e ~acc =
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      let v = e.((i * cols) + j) in
      acc.(j) <- acc.(j) +. (v *. v)
    done
  done

let filter_pos ~src ~dst =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (if src.(i) > 0. then src.(i) else 0.)
  done

let foreach_affine ~src ~dst =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- (2. *. src.(i)) +. 1.
  done

let join_scores ~rows ~cols ~l ~r ~out =
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      out.((i * cols) + j) <- l.(i) *. r.(j)
    done
  done

(* --- Fused element-wise chains ---------------------------------------------

   A chain is a compiled sequence of element-wise stages whose intermediate
   tiles never leave a private scratch buffer.  Each stage is one closure
   call per tile into the standalone kernel's own full-tile loop, never one
   per element; [Prev] names the previous stage's output and [Buf i] a slot
   in the caller-supplied operand table.

   Every stage is pointwise at the same index, so a single scratch tile
   suffices: a stage may read [Prev] (== the scratch it writes) or an
   operand aliasing its output, and each element is read before it is
   written.  Every stage runs the standalone kernel's loop itself, so a
   chain's output is bit-identical to running the stages one kernel at a
   time through separate buffers. *)

type fsrc = Prev | Buf of int

type fstage =
  | Fadd of fsrc * fsrc
  | Fsub of fsrc * fsrc
  | Fcopy of fsrc
  | Ffilter of fsrc
  | Fforeach of fsrc

type chain = {
  c_stages : (float array array -> float array -> float array -> unit) array;
      (* operand table, previous tile, output tile *)
  c_scratch : float array;
}

let compile_stage st =
  let get src bufs prev = match src with Prev -> prev | Buf i -> bufs.(i) in
  match st with
  | Fadd (x, y) -> fun bufs prev out -> add (get x bufs prev) (get y bufs prev) out
  | Fsub (x, y) -> fun bufs prev out -> sub (get x bufs prev) (get y bufs prev) out
  | Fcopy x -> fun bufs prev out -> copy ~src:(get x bufs prev) ~dst:out
  | Ffilter x -> fun bufs prev out -> filter_pos ~src:(get x bufs prev) ~dst:out
  | Fforeach x -> fun bufs prev out -> foreach_affine ~src:(get x bufs prev) ~dst:out

let compile_chain ~tile stages =
  if Array.length stages = 0 then invalid_arg "Dense.compile_chain: no stages";
  { c_stages = Array.map compile_stage stages; c_scratch = Array.make tile 0. }

let stage_count ch = Array.length ch.c_stages

let run_chain ch ~bufs ~dst =
  let n = Array.length ch.c_stages in
  let s = ch.c_scratch in
  for i = 0 to n - 2 do
    ch.c_stages.(i) bufs s s
  done;
  ch.c_stages.(n - 1) bufs s dst

let run_stages ch ~bufs =
  let s = ch.c_scratch in
  Array.iter (fun stage -> stage bufs s s) ch.c_stages;
  s

let max_abs_diff a b =
  let m = ref 0. in
  Array.iteri
    (fun i v ->
      let d = abs_float (v -. b.(i)) in
      if d > !m then m := d)
    a;
  !m
