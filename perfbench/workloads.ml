(* The benchmark's workloads: program text, sizes, search settings, seeded
   inputs and plain-loop reference outputs.

   Each workload is chosen so that one layer dominates its job; [why]
   records which.  Sizes are the paper's grids with block contents shrunk
   (Programs.scale_down) so that a run holds several jobs. *)

module Config = Riot_ir.Config
module Program = Riot_ir.Program
module Array_info = Riot_ir.Array_info
module Programs = Riot_ops.Programs
module Parse = Riot_frontend.Parse

type io_mode = Sync | Async

let io_mode_name = function Sync -> "sync" | Async -> "async"

(* A whole array as one row-major matrix. *)
type mat = { rows : int; cols : int; data : float array }

type t = {
  name : string;
  why : string;
  source : string option;
      (** Mini-Clan text; [None] when the grammar cannot express the program *)
  builder : unit -> Program.t;  (** the [Programs] builder of the same program *)
  config : Config.t;
  prune : bool;
  max_size : int option;
  io : io_mode;
  exact : bool;  (** bit-exact output comparison, else 1e-9 relative *)
  reference : (string -> mat) -> (string * (int -> int -> float array)) list;
      (** the blocks of each output array from the input arrays, by plain
          loops; everything but the last per-block step runs up front *)
}

(* The program a job starts from: parsed text, or the builder for a program
   the grammar cannot express. *)
let front w () =
  match w.source with
  | Some src -> Parse.program ~name:w.name src
  | None -> w.builder ()

(* --- Plain-loop reference kernels (independent of Riot_kernels) --------- *)

let zeros rows cols = { rows; cols; data = Array.make (rows * cols) 0. }
let get m i j = m.data.((i * m.cols) + j)

(* op(a) * op(b), with [ta] reading [a] transposed. *)
let matmul ?(ta = false) a b =
  let m = if ta then a.cols else a.rows and k = if ta then a.rows else a.cols in
  assert (k = b.rows);
  let c = zeros m b.cols in
  for i = 0 to m - 1 do
    for kk = 0 to k - 1 do
      let x = if ta then get a kk i else get a i kk in
      let row = kk * b.cols and out = i * b.cols in
      for j = 0 to b.cols - 1 do
        c.data.(out + j) <- c.data.(out + j) +. (x *. b.data.(row + j))
      done
    done
  done;
  c

(* Gauss-Jordan inversion with partial pivoting. *)
let invert a =
  let n = a.rows in
  let w = Array.init n (fun i -> Array.init (2 * n) (fun j ->
      if j < n then get a i j else if j - n = i then 1. else 0.)) in
  for col = 0 to n - 1 do
    let piv = ref col in
    for r = col + 1 to n - 1 do
      if abs_float w.(r).(col) > abs_float w.(!piv).(col) then piv := r
    done;
    let tmp = w.(col) in
    w.(col) <- w.(!piv);
    w.(!piv) <- tmp;
    let p = w.(col).(col) in
    if p = 0. then failwith "reference: singular matrix";
    for j = 0 to (2 * n) - 1 do
      w.(col).(j) <- w.(col).(j) /. p
    done;
    for r = 0 to n - 1 do
      if r <> col then begin
        let f = w.(r).(col) in
        if f <> 0. then
          for j = 0 to (2 * n) - 1 do
            w.(r).(j) <- w.(r).(j) -. (f *. w.(col).(j))
          done
      end
    done
  done;
  { rows = n; cols = n; data = Array.init (n * n) (fun e -> w.(e / n).(n + (e mod n))) }

let map2 f a b = { a with data = Array.mapi (fun e x -> f x b.data.(e)) a.data }

(* Block [bi; bj] of a whole matrix, in the engine's row-major block layout. *)
let block config name m bi bj =
  let l = Config.layout config name in
  let br = l.Config.block_elems.(0) and bc = l.Config.block_elems.(1) in
  Array.init (br * bc) (fun e -> get m ((bi * br) + (e / bc)) ((bj * bc) + (e mod bc)))

let iter_blocks config name f =
  let l = Config.layout config name in
  for bi = 0 to l.Config.grid.(0) - 1 do
    for bj = 0 to l.Config.grid.(1) - 1 do
      f bi bj
    done
  done

(* Whole reference matrices, served block by block. *)
let by_block config reference input =
  List.map (fun (name, m) -> (name, block config name m)) (reference input)

(* --- Workloads ------------------------------------------------------------ *)

let linreg_source =
  {|
  param n;
  input X[n][1], Y[n][1];
  intermediate U[1][1], V[1][1], W[1][1], Yh[n][1], E[n][1];
  output Bh[1][1], R[1][1];

  for (i = 0; i < 1; i++)
    for (j = 0; j < 1; j++)
      for (k = 0; k < n; k++)
        U[i,j] += X'[k,i] * X[k,j];
  for (i = 0; i < 1; i++)
    for (j = 0; j < 1; j++)
      for (k = 0; k < n; k++)
        V[i,j] += X'[k,i] * Y[k,j];
  W[0,0] = inv(U[0,0]);
  for (i = 0; i < 1; i++)
    for (j = 0; j < 1; j++)
      for (k = 0; k < 1; k++)
        Bh[i,j] += W[i,k] * V[k,j];
  for (i = 0; i < n; i++)
    for (j = 0; j < 1; j++)
      for (k = 0; k < 1; k++)
        Yh[i,j] += X[i,k] * Bh[k,j];
  for (i = 0; i < n; i++)
    for (j = 0; j < 1; j++)
      E[i,j] = Y[i,j] - Yh[i,j];
  for (i = 0; i < n; i++)
    for (j = 0; j < 1; j++)
      R[0,0] += rss(E[i,j]);
|}

let linreg_reference input =
  let x = input "X" and y = input "Y" in
  let bh = matmul (invert (matmul ~ta:true x x)) (matmul ~ta:true x y) in
  let e = map2 ( -. ) y (matmul x bh) in
  let r = zeros 1 e.cols in
  for i = 0 to e.rows - 1 do
    for j = 0 to e.cols - 1 do
      let v = get e i j in
      r.data.(j) <- r.data.(j) +. (v *. v)
    done
  done;
  [ ("Bh", bh); ("R", r) ]

let twomm_source =
  {|
  param n1, n2, n3, n4;
  input A[n1][n3], B[n3][n2], D[n3][n4];
  output C[n1][n2], E[n1][n4];

  for (i = 0; i < n1; i++)
    for (j = 0; j < n2; j++)
      for (k = 0; k < n3; k++)
        C[i,j] += A[i,k] * B[k,j];
  for (i = 0; i < n1; i++)
    for (j = 0; j < n4; j++)
      for (k = 0; k < n3; k++)
        E[i,j] += A[i,k] * D[k,j];
|}

let twomm_reference input =
  let a = input "A" in
  [ ("C", matmul a (input "B")); ("E", matmul a (input "D")) ]

let chain_source =
  {|
  param n1, n2;
  input A[n1][n2], B[n1][n2];
  intermediate T1[n1][n2], T2[n1][n2], T3[n1][n2];
  output OUT[n1][n2];

  for (i = 0; i < n1; i++)
    for (j = 0; j < n2; j++)
      T1[i,j] = A[i,j] + B[i,j];
  for (i = 0; i < n1; i++)
    for (j = 0; j < n2; j++)
      T2[i,j] = T1[i,j];
  for (i = 0; i < n1; i++)
    for (j = 0; j < n2; j++)
      T3[i,j] = T2[i,j] - B[i,j];
  for (i = 0; i < n1; i++)
    for (j = 0; j < n2; j++)
      OUT[i,j] = T3[i,j] + A[i,j];
|}

(* The chain's builder: the same four statements through the operator
   library, for the parity check. *)
let chain_builder () =
  let module Op = Riot_ops.Op in
  let ctx = Op.create ~name:"chain" in
  List.iter
    (fun (n, kind) -> Op.declare ctx n ~ndims:2 ~kind)
    [ ("A", Array_info.Input); ("B", Array_info.Input);
      ("T1", Array_info.Intermediate); ("T2", Array_info.Intermediate);
      ("T3", Array_info.Intermediate); ("OUT", Array_info.Output) ];
  let rows = Op.P "n1" and cols = Op.P "n2" in
  Op.add ctx ~c:"T1" ~a:"A" ~b:"B" ~rows ~cols;
  Op.copy ctx ~c:"T2" ~a:"T1" ~rows ~cols;
  Op.sub ctx ~c:"T3" ~a:"T2" ~b:"B" ~rows ~cols;
  Op.add ctx ~c:"OUT" ~a:"T3" ~b:"A" ~rows ~cols;
  Op.finish ctx

let chain_reference input =
  let a = input "A" and b = input "B" in
  let t3 = map2 ( -. ) (map2 ( +. ) a b) b in
  [ ("OUT", map2 ( +. ) t3 a) ]

(* F = FILTER T (keep positives); G = FOREACH F (2x + 1); block [i; j] of J
   is G's block i scaled by the first element of S's block j.  J is
   produced block by block, so the reference never holds all of it. *)
let pig_reference ~block_rows input =
  let t = input "T" and s = input "S" in
  let g = Array.map (fun x -> (2. *. (if x > 0. then x else 0.)) +. 1.) t.data in
  [ ( "J",
      fun bi bj ->
        let s0 = get s (bj * block_rows) 0 in
        Array.init block_rows (fun r -> g.((bi * block_rows) + r) *. s0) ) ]

let chain_config =
  let l = { Config.grid = [| 16; 16 |]; block_elems = [| 32; 32 |]; elem_size = 8 } in
  Config.make
    ~params:[ ("n1", 16); ("n2", 16) ]
    ~layouts:(List.map (fun a -> (a, l)) [ "A"; "B"; "T1"; "T2"; "T3"; "OUT" ])

let linreg_config = Programs.scale_down ~factor:50 Programs.table4
let twomm_config = Programs.scale_down ~factor:50 Programs.table3_config_a
let pig_config = Programs.scale_down ~factor:16 Programs.pig_config

let all =
  [ { name = "linreg-search";
      why =
        "Sec. 6.3 linear regression from Mini-Clan source with \
         branch-and-bound search at max_size 3: the optimizer dominates the \
         job";
      source = Some linreg_source;
      builder = Programs.linear_regression;
      config = linreg_config;
      prune = true;
      max_size = Some 3;
      io = Sync;
      exact = false;
      reference = by_block linreg_config linreg_reference };
    { name = "twomm-gemm";
      why =
        "Sec. 6.2 two matmuls from source on the Table 3 Config A grid: \
         Dense.gemm in the executor dominates the job";
      source = Some twomm_source;
      builder = Programs.two_matmuls;
      config = twomm_config;
      prune = false;
      max_size = None;
      io = Sync;
      exact = false;
      reference = by_block twomm_config twomm_reference };
    { name = "chain-fine";
      why =
        "4-statement element-wise chain over 1024 instances per statement: \
         plan costing and verification dominate the job";
      source = Some chain_source;
      builder = chain_builder;
      config = chain_config;
      prune = false;
      max_size = Some 3;
      io = Sync;
      exact = true;
      reference = by_block chain_config chain_reference };
    { name = "pig-io";
      why =
        "Sec. 7 Pig pipeline on the async storage tier with 1 MB requests: \
         the only async workload, heaviest in storage traffic";
      source = None;
      builder = Programs.pig_pipeline;
      config = pig_config;
      prune = false;
      max_size = None;
      io = Async;
      exact = true;
      reference =
        pig_reference ~block_rows:(Config.layout pig_config "T").Config.block_elems.(0) } ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- Seeded inputs --------------------------------------------------------- *)

(* Every input array of [prog], uniform in [-1, 1) from [seed]. *)
let inputs w prog ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash w.name |] in
  List.filter_map
    (fun (a : Array_info.t) ->
      if a.Array_info.kind <> Array_info.Input then None
      else
        let l = Config.layout w.config a.Array_info.name in
        let rows = l.Config.grid.(0) * l.Config.block_elems.(0)
        and cols = l.Config.grid.(1) * l.Config.block_elems.(1) in
        Some
          ( a.Array_info.name,
            { rows; cols;
              data = Array.init (rows * cols) (fun _ -> Random.State.float st 2. -. 1.) } ))
    prog.Program.arrays
