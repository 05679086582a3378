(* Source-to-bytes benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--dir DIR] [--commit ID]

   Each workload runs as a closed loop of jobs on one thread.  A job starts
   from program text and ends with the output arrays on a file-backed disk:
   Parse.program -> Api.optimize -> Api.best -> Api.execute.  Inputs are
   generated from the seed and loaded once; a plain-loop reference of the
   outputs is computed once, outside every timed region, and every job's
   outputs and per-array I/O are checked against it and the plan.

   --trace 0 times jobs through the Api alone and reports the end-to-end
   metrics.  --trace 1 alternates those jobs with a traced composition that
   calls each layer's public functions in the order Api makes them, recording
   spans; it reports per-layer metrics, prints a self-time table and writes
   the spans as Chrome trace events under DIR.

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it is the
   result row with run metadata and sample counts.  Exit code 1 when any job
   failed its checks. *)

module Api = Riotshare.Api
module Config = Riot_ir.Config
module Program = Riot_ir.Program
module Stmt = Riot_ir.Stmt
module Kernel = Riot_ir.Kernel
module Access = Riot_ir.Access
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Opt_stats = Riot_optimizer.Opt_stats
module Cplan = Riot_plan.Cplan
module Cost_bound = Riot_plan.Cost_bound
module Machine = Riot_plan.Machine
module Engine = Riot_exec.Engine
module Vexec = Riot_exec.Vexec
module Dense = Riot_kernels.Dense
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Io_stats = Riot_storage.Io_stats
module Pool = Riot_base.Pool
module W = Workloads

let format = Block_store.Daf_format
let now = Probe.now
let mib = 1048576.
let setups = 7
let min_jobs = 3

(* Every domain count is fixed here rather than read from RIOT_JOBS: the
   default Pool size a user gets on this machine. *)
let jobs = Domain.recommended_domain_count ()

(* --- Samples ---------------------------------------------------------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let record name v =
  Hashtbl.replace samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt samples name))

let median l =
  match List.sort compare l with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let med name = median (Option.value ~default:[] (Hashtbl.find_opt samples name))
let count name = List.length (Option.value ~default:[] (Hashtbl.find_opt samples name))

(* --- Set-up: seeded inputs loaded through Block_store ------------------------ *)

(* Input files are overwritten in place, never deleted: on some file systems
   unlinking freshly synced data costs seconds. *)
let setup (w : W.t) prog ~seed ~root =
  let t0 = now () in
  let inputs = W.inputs w prog ~seed in
  let backend = Backend.file ~root in
  let stores = Engine.stores_for backend ~format ~config:w.W.config in
  List.iter
    (fun (name, m) ->
      let st = List.assoc name stores in
      W.iter_blocks w.W.config name (fun bi bj ->
          Block_store.write_floats st [ bi; bj ] (W.block w.W.config name m bi bj)))
    inputs;
  backend.Backend.sync ();
  (now () -. t0, backend, stores, inputs)

(* --- Checks ------------------------------------------------------------------- *)

let same ~exact x y =
  if exact then Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  else abs_float (x -. y) <= 1e-9 *. Float.max 1. (abs_float y)

let outputs_match (w : W.t) stores reference =
  List.for_all
    (fun (name, want) ->
      let st = List.assoc name stores in
      let ok = ref true in
      W.iter_blocks w.W.config name (fun bi bj ->
          let got = Block_store.read_floats st [ bi; bj ] in
          if not (Array.for_all2 (same ~exact:w.W.exact) got (want bi bj)) then ok := false);
      !ok)
    reference

(* Parsed source and operator-library builder must expose the same sharing
   and dependence structure. *)
let source_parity (w : W.t) =
  match w.W.source with
  | None -> true
  | Some _ ->
      let labels prog =
        let r = Deps.extract prog ~ref_params:w.W.config.Config.params in
        ( List.sort_uniq compare (List.map Coaccess.label r.Deps.sharing),
          List.sort_uniq compare (List.map Coaccess.label r.Deps.dependences) )
      in
      labels (W.front w ()) = labels (w.W.builder ())

(* --- Untraced job: only the Api calls a library user makes --------------------- *)

let api_job (w : W.t) ~backend =
  let t0 = now () in
  let prog = W.front w () in
  let opt = Api.optimize ?max_size:w.W.max_size ~prune:w.W.prune ~jobs prog ~config:w.W.config in
  let best = Api.best opt in
  let t1 = now () in
  let res =
    match w.W.io with
    | W.Sync -> Api.execute best ~backend ~format
    | W.Async -> Backend.with_async backend (fun b -> Api.execute best ~backend:b ~format)
  in
  let t2 = now () in
  (best, res, t1 -. t0, t2 -. t1)

(* --- Traced job: the same calls, layer by layer ---------------------------------- *)

(* Api.best's selection rule: least predicted I/O, ties toward less memory. *)
let select (plans : Api.costed_plan list) =
  match
    List.sort
      (fun (a : Api.costed_plan) b ->
        compare
          (a.Api.predicted_io_seconds, a.Api.memory_bytes)
          (b.Api.predicted_io_seconds, b.Api.memory_bytes))
      plans
  with
  | [] -> None
  | p :: _ -> Some p

let costed machine plan cplan =
  { Api.plan;
    cplan;
    predicted_io_seconds = Cplan.predicted_io_seconds machine cplan;
    predicted_cpu_seconds = Cplan.cpu_seconds machine cplan;
    memory_bytes = cplan.Cplan.peak_memory }

type traced = {
  t_best : Api.costed_plan;
  t_res : Engine.result;
  t_search : Search.stats;
  t_opt : Opt_stats.t option;
  t_analysis : Deps.result;
  t_costed : int;
  t_fused : int;
  t_out : Probe.io_time;  (** engine side of the storage calls *)
  t_in : Probe.io_time;  (** inside the file backend (async: on the I/O domain) *)
  t_pool : int * int * int * int;  (** pool hits, misses, evictions; I/O retries *)
}

let pool_counters (b : Backend.t) =
  let s = b.Backend.stats in
  (s.Io_stats.pool_hits, s.Io_stats.pool_misses, s.Io_stats.pool_evictions, s.Io_stats.retries)

let traced_job r (w : W.t) ~backend =
  let span name f = Probe.span r name f in
  let machine = Machine.paper and config = w.W.config in
  let ref_params = config.Config.params in
  let io_out = Probe.io_time () and io_in = Probe.io_time () in
  let opt_stats = if w.W.prune then Some (Opt_stats.create ()) else None in
  let h0, m0, e0, r0 = pool_counters backend in
  let verify (p : Api.costed_plan) =
    span "plan.verify" (fun () -> Engine.verify_exn ~cap_bytes:p.Api.memory_bytes p.Api.cplan)
  in
  span "job" @@ fun () ->
  let prog = span "frontend.parse" (W.front w) in
  let analysis, plans, search_stats =
    span "optimizer.optimize" @@ fun () ->
    Pool.with_pool ~jobs @@ fun pool ->
    let analysis = span "analysis.extract" (fun () -> Deps.extract prog ~ref_params) in
    let sharing = analysis.Deps.sharing in
    let cache, bound =
      span "plan.cache" (fun () ->
          let cache = Cplan.cache ~coaccesses:sharing prog ~config in
          ( cache,
            if w.W.prune then Some (Cost_bound.make ~cache machine prog ~config ~coaccesses:sharing)
            else None ))
    in
    let build plan =
      Cplan.build ~cache prog ~config ~sched:plan.Search.sched ~realized:plan.Search.q
    in
    let plans, search_stats =
      match bound with
      | None ->
          let plans, st =
            span "optimizer.search" (fun () ->
                Search.enumerate ?max_size:w.W.max_size ~pool prog ~analysis ~ref_params)
          in
          ( span "plan.cost" (fun () ->
                Pool.map pool (fun p -> costed machine p (build p)) plans),
            st )
      | Some b ->
          let cost ~q ~sched =
            let cplan = Cplan.build ~cache prog ~config ~sched ~realized:q in
            (cplan, Cplan.predicted_io_seconds machine cplan)
          in
          let pairs, st =
            span "optimizer.search" (fun () ->
                Search.branch_and_bound ?max_size:w.W.max_size ~pool ?opt_stats
                  ~bound:(Cost_bound.eval b) ~saving:(Cost_bound.saving b) ~cost prog
                  ~analysis ~ref_params)
          in
          (List.map (fun (p, cplan) -> costed machine p cplan) pairs, st)
    in
    (* Api.optimize verifies its presumptive winner... *)
    Option.iter verify (select plans);
    (analysis, plans, search_stats)
  in
  (* ...and Api.best verifies it again. *)
  let best = match select plans with Some p -> p | None -> raise Not_found in
  verify best;
  let res, fused =
    span "exec.execute" @@ fun () ->
    let compiled = span "exec.compile" (fun () -> Vexec.compiled_for best.Api.cplan) in
    let run b =
      let res =
        span "exec.run" (fun () ->
            Engine.run best.Api.cplan ~backend:b ~format ~mem_cap:best.Api.memory_bytes)
      in
      Probe.add_child r ~parent:(Probe.last_id r) "storage.wait" ~seconds:io_out.Probe.wait;
      res
    in
    let res =
      match w.W.io with
      | W.Sync -> run (Probe.timed io_out backend)
      | W.Async ->
          span "io_queue.session" (fun () ->
              Backend.with_async (Probe.timed io_in backend) (fun b ->
                  run (Probe.timed io_out b)))
    in
    (res, compiled.Vexec.n_fused)
  in
  let h1, m1, e1, r1 = pool_counters backend in
  { t_best = best;
    t_res = res;
    t_search = search_stats;
    t_opt = opt_stats;
    t_analysis = analysis;
    t_costed = List.length plans;
    t_fused = fused;
    t_out = io_out;
    t_in = (if w.W.io = W.Sync then io_out else io_in);
    t_pool = (h1 - h0, m1 - m0, e1 - e0, r1 - r0) }

(* Layers of the self-time table, in call order; a span's layer is its name
   up to the first dot.  The root "job" span's self time is the glue between
   calls and belongs to no layer. *)
let layers = [ "frontend"; "analysis"; "optimizer"; "plan"; "exec"; "storage"; "io_queue" ]

let layer_of name =
  match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name

let layer_self r ~job =
  let selfs = Probe.self_times r ~job in
  List.map
    (fun l ->
      (l, List.fold_left (fun acc (n, s) -> if layer_of n = l then acc +. s else acc) 0. selfs))
    (layers @ [ "job" ])

(* --- Throughput outside the engine ----------------------------------------------- *)

(* The workload's largest gemm block shape (m, n, k), or a 128^3 square when
   it has no gemm statement. *)
let gemm_shape (w : W.t) prog =
  let elems name = (Config.layout w.W.config name).Config.block_elems in
  List.fold_left
    (fun best (s : Stmt.t) ->
      match (s.Stmt.kernel, Stmt.write_access s, Stmt.operand_reads s) with
      | Kernel.Gemm_acc { ta; _ }, Some c, a :: _ :: _ ->
          let ce = elems c.Access.array and ae = elems a.Access.array in
          let shape = (ce.(0), ce.(1), if ta then ae.(0) else ae.(1)) in
          let vol (m, n, k) = m * n * k in
          if vol shape > vol best then shape else best
      | _ -> best)
    (0, 0, 0) prog.Program.stmts
  |> function
  | 0, _, _ -> (128, 128, 128)
  | s -> s

(* Median rate of [work] units per second over at least 0.2 s and five
   samples; each sample repeats [f] for at least 2 ms, well above the
   clock's resolution. *)
let rate ~work f =
  let rates = ref [] and t_end = now () +. 0.2 in
  while now () < t_end || List.length !rates < 5 do
    let t0 = now () and reps = ref 0 in
    while now () -. t0 < 0.002 do
      f ();
      incr reps
    done;
    rates := (work *. float_of_int !reps /. (now () -. t0)) :: !rates
  done;
  median !rates

let gemm_gflops (m, n, k) =
  let st = Random.State.make [| m; n; k |] in
  let rand len = Array.init len (fun _ -> Random.State.float st 2. -. 1.) in
  let a = rand (m * k) and b = rand (k * n) and c = Array.make (m * n) 0. in
  rate ~work:(2e-9 *. float_of_int (m * n * k)) (fun () ->
      Dense.gemm ~accumulate:true ~ta:false ~tb:false ~m ~n ~k ~a ~b ~c)

(* Block_store encode + decode throughput (MB/s of payload) on the
   workload's largest block, over an in-memory backend: the codec cost the
   engine pays per block moved, outside the engine. *)
let codec_mb_s (w : W.t) =
  let layouts = List.map snd w.W.config.Config.layouts in
  let l =
    List.fold_left
      (fun a b -> if Config.block_bytes b > Config.block_bytes a then b else a)
      (List.hd layouts) layouts
  in
  let backend = Backend.sim ~read_bw:1. ~write_bw:1. ~request_overhead:0. () in
  let st = Block_store.create backend ~format ~name:"codec" ~layout:l in
  let data = Array.init (Config.block_elems_total l) float_of_int in
  let index = List.map (fun _ -> 0) (Array.to_list l.Config.grid) in
  rate ~work:(2. *. float_of_int (Config.block_bytes l) /. mib) (fun () ->
      Block_store.write_floats st index data;
      ignore (Block_store.read_floats st index : float array))

(* Per-layer metrics of one traced job. *)
let record_traced r ~gflops ~codec ~job t =
  let hits, misses, evictions, retries = t.t_pool in
  let total = Probe.total r ~job and calls = Probe.calls r ~job in
  let job_s = total "job" in
  let res = t.t_res and cplan = t.t_best.Api.cplan in
  let ss = t.t_search in
  record "traced_job_s" job_s;
  record "frontend.parse_s" (total "frontend.parse");
  record "analysis.extract_s" (total "analysis.extract");
  record "analysis.sharing" (float_of_int (List.length t.t_analysis.Deps.sharing));
  record "analysis.dependences" (float_of_int (List.length t.t_analysis.Deps.dependences));
  record "optimizer.search_s" (total "optimizer.search");
  let phase f = match t.t_opt with Some o -> Atomic.get (f o) | None -> 0. in
  record "optimizer.find_s" (phase (fun o -> o.Opt_stats.find_s));
  record "optimizer.verify_s" (phase (fun o -> o.Opt_stats.verify_s));
  record "optimizer.bound_s" (phase (fun o -> o.Opt_stats.bound_s));
  record "optimizer.domain_util"
    (match t.t_opt with
    | Some o -> (
        match Opt_stats.utilization o with
        | [] -> 0.
        | u -> List.fold_left ( +. ) 0. u /. float_of_int (List.length u))
    | None -> 0.);
  record "optimizer.tried" (float_of_int ss.Search.candidates_tried);
  record "optimizer.feasible" (float_of_int ss.Search.feasible);
  record "optimizer.bound_pruned" (float_of_int ss.Search.bound_pruned);
  record "optimizer.apriori_pruned" (float_of_int ss.Search.pruned);
  record "optimizer.feasible_ratio"
    (float_of_int ss.Search.feasible /. float_of_int (max 1 ss.Search.candidates_tried));
  record "plan.cache_s" (total "plan.cache");
  record "plan.cost_s"
    (match t.t_opt with
    | Some o -> Atomic.get o.Opt_stats.cost_s
    | None -> total "plan.cost");
  record "plan.costed"
    (float_of_int
       (match t.t_opt with Some o -> Atomic.get o.Opt_stats.costed | None -> t.t_costed));
  let vcalls = calls "plan.verify" in
  record "plan.verify_s" (total "plan.verify" /. float_of_int (max 1 vcalls));
  record "plan.verify_calls" (float_of_int vcalls);
  let steps = Array.length cplan.Cplan.steps in
  record "plan.steps" (float_of_int steps);
  record "plan.fused_runs" (float_of_int t.t_fused);
  record "plan.pred_io_s" t.t_best.Api.predicted_io_seconds;
  record "plan.pred_cpu_s" t.t_best.Api.predicted_cpu_seconds;
  let run_s = total "exec.run" in
  let wait = t.t_out.Probe.wait and service = t.t_in.Probe.wait in
  let self = run_s -. wait in
  record "plan.cpu_drift" (t.t_best.Api.predicted_cpu_seconds /. self);
  record "exec.compile_s" (total "exec.compile");
  record "exec.run_s" run_s;
  record "exec.self_s" self;
  record "exec.us_per_step" (run_s /. float_of_int (max 1 steps) *. 1e6);
  record "kernels.gflop" (cplan.Cplan.flops /. 1e9);
  record "kernels.gemm_gflops" gflops;
  record "kernels.gemm_model_ratio" (gflops *. 1e9 /. Machine.paper.Machine.gemm_flops);
  record "storage.wait_s" wait;
  record "storage.service_s" service;
  record "storage.sync_s" t.t_out.Probe.sync_wait;
  record "storage.reads" (float_of_int res.Engine.reads);
  record "storage.writes" (float_of_int res.Engine.writes);
  record "storage.mb_s"
    (float_of_int (res.Engine.bytes_read + res.Engine.bytes_written) /. mib /. service);
  record "storage.pool_hit_ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  record "storage.pool_evictions" (float_of_int evictions);
  record "storage.retries" (float_of_int retries);
  record "storage.codec_mb_s" codec;
  record "io_queue.hints" (float_of_int t.t_out.Probe.hints);
  record "io_queue.read_wait_s" t.t_out.Probe.read_wait;
  record "io_queue.overlap" (1. -. (wait /. service));
  List.iter
    (fun (l, s) -> if l <> "job" then record (l ^ ".self_share") (s /. job_s))
    (layer_self r ~job)

(* --- Output ---------------------------------------------------------------------- *)

let end_to_end =
  [ ("job_s", "s"); ("optimize_s", "s"); ("execute_s", "s"); ("setup_s", "s");
    ("read_mb", "MB"); ("write_mb", "MB"); ("pool_peak_mb", "MB"); ("rss_peak_mb", "MB") ]

let per_layer =
  [ ("frontend.parse_s", "s");
    ("analysis.extract_s", "s"); ("analysis.sharing", "count");
    ("analysis.dependences", "count");
    ("optimizer.search_s", "s"); ("optimizer.find_s", "s"); ("optimizer.verify_s", "s");
    ("optimizer.bound_s", "s"); ("optimizer.domain_util", "ratio");
    ("optimizer.tried", "count"); ("optimizer.feasible", "count");
    ("optimizer.bound_pruned", "count"); ("optimizer.apriori_pruned", "count");
    ("optimizer.feasible_ratio", "ratio");
    ("plan.cache_s", "s"); ("plan.cost_s", "s"); ("plan.costed", "count");
    ("plan.verify_s", "s"); ("plan.verify_calls", "count"); ("plan.steps", "count");
    ("plan.fused_runs", "count"); ("plan.pred_io_s", "s"); ("plan.pred_cpu_s", "s");
    ("plan.cpu_drift", "ratio");
    ("exec.compile_s", "s"); ("exec.run_s", "s"); ("exec.self_s", "s");
    ("exec.us_per_step", "us");
    ("kernels.gflop", "GFLOP"); ("kernels.gemm_gflops", "GFLOP/s");
    ("kernels.gemm_model_ratio", "ratio");
    ("storage.wait_s", "s"); ("storage.service_s", "s"); ("storage.sync_s", "s");
    ("storage.reads", "count"); ("storage.writes", "count"); ("storage.mb_s", "MB/s");
    ("storage.pool_hit_ratio", "ratio"); ("storage.pool_evictions", "count");
    ("storage.retries", "count"); ("storage.codec_mb_s", "MB/s");
    ("io_queue.hints", "count"); ("io_queue.read_wait_s", "s"); ("io_queue.overlap", "ratio");
    ("trace.overhead", "ratio"); ("trace.unaccounted", "ratio") ]
  @ List.map (fun l -> (l ^ ".self_share", "ratio")) layers

let json_metrics names =
  String.concat ", "
    (List.map
       (fun (n, u) ->
         let v = med n in
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           u)
       names)

let row_line (w : W.t) ~seed ~seconds ~trace ~commit ~attempted ~failed names =
  let sizes =
    String.concat "; "
      (List.map
         (fun (a, (l : Config.layout)) ->
           Printf.sprintf "%s %dx%d of %dx%d" a l.Config.grid.(0) l.Config.grid.(1)
             l.Config.block_elems.(0) l.Config.block_elems.(1))
         w.W.config.Config.layouts)
  in
  Printf.sprintf
    "{\"row\": {\"bench\": \"perfbench\", \"workload\": %S, \"why\": %S, \"seed\": %d, \
     \"seconds\": %d, \"trace\": %b, \"commit\": %S, \"nproc\": %d, \"ocaml\": %S, \"jobs\": %d, \"io_mode\": \
     %S, \"search\": %S, \"sizes\": %S, \"attempted\": %d, \"failed\": %d, \"failed_share\": \
     %.6g, \"metrics\": {%s}}}"
    w.W.name w.W.why seed seconds trace commit jobs Sys.ocaml_version jobs
    (W.io_mode_name w.W.io)
    (Printf.sprintf "%s, max_size %s"
       (if w.W.prune then "branch-and-bound" else "exhaustive")
       (match w.W.max_size with Some k -> string_of_int k | None -> "default"))
    sizes attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted))
    (String.concat ", "
       (List.map
          (fun (n, u) ->
            Printf.sprintf "%S: {\"median\": %.17g, \"unit\": %S, \"samples\": %d}" n (med n) u
              (count n))
          names))

(* --- Driver ------------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dir DIR] [--commit ID]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all));
  exit 2

let () =
  Gc.set { (Gc.get ()) with minor_heap_size = 1024 * 1024 };
  Riot_base.Failpoint.reset ();
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace opts (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let opt k = Hashtbl.find_opt opts k in
  let int_opt k = Option.bind (opt k) int_of_string_opt in
  let w, seed, seconds, trace =
    match (Option.bind (opt "workload") W.find, int_opt "seed", int_opt "seconds", int_opt "trace") with
    | Some w, Some seed, Some seconds, Some t when seconds >= 1 && (t = 0 || t = 1) ->
        (w, seed, seconds, t = 1)
    | _ -> usage ()
  in
  let dir = Option.value ~default:".perfbench" (opt "dir") in
  let commit = Option.value ~default:"unknown" (opt "commit") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let root = Filename.concat dir ("data-" ^ w.W.name) in
  let attempted = ref 0 and failed = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr failed;
        Printf.eprintf "perfbench %s: %s\n%!" w.W.name msg)
      fmt
  in
  (* Set-up, repeated so setup_s is a median; the last one is kept. *)
  let prog = w.W.builder () in
  let backend, stores, inputs =
    let rec go k =
      let s, backend, stores, inputs = setup w prog ~seed ~root in
      record "setup_s" s;
      if k = 1 then (backend, stores, inputs)
      else begin
        backend.Backend.close ();
        go (k - 1)
      end
    in
    go setups
  in
  let reference = w.W.reference (fun n -> List.assoc n inputs) in
  (match source_parity w with
  | true -> ()
  | false -> fail "parsed source and builder analyses differ"
  | exception e -> fail "parity check raised %s" (Printexc.to_string e));
  let check (best : Api.costed_plan) (res : Engine.result) =
    if not (Api.check_cost best res).Riot_plan.Cost_check.ok then
      fail "measured per-array I/O differs from the plan's prediction"
    else if not (outputs_match w stores reference) then fail "outputs differ from the reference"
  in
  let run_api () =
    incr attempted;
    match api_job w ~backend with
    | exception e ->
        fail "job raised %s" (Printexc.to_string e);
        None
    | best, res, t_opt, t_exec ->
        check best res;
        Some (best, res, t_opt, t_exec)
  in
  let record_api (_, (res : Engine.result), t_opt, t_exec) =
    record "job_s" (t_opt +. t_exec);
    record "optimize_s" t_opt;
    record "execute_s" t_exec;
    record "read_mb" (float_of_int res.Engine.bytes_read /. mib);
    record "write_mb" (float_of_int res.Engine.bytes_written /. mib);
    record "pool_peak_mb" (float_of_int res.Engine.pool_peak_bytes /. mib)
  in
  let r = Probe.recorder () in
  let traced_jobs = ref [] in
  let run_traced ~api_best =
    incr attempted;
    r.Probe.current <- !attempted;
    match traced_job r w ~backend with
    | exception e -> fail "traced job raised %s" (Printexc.to_string e)
    | t ->
        check t.t_best t.t_res;
        (* The traced composition must choose the Api path's plan. *)
        let p = t.t_best.Api.plan.Search.index in
        if p <> api_best.Api.plan.Search.index
           || t.t_best.Api.predicted_io_seconds <> api_best.Api.predicted_io_seconds
        then fail "traced composition chose plan %d, Api chose plan %d" p api_best.Api.plan.Search.index;
        traced_jobs := (!attempted, t) :: !traced_jobs
  in
  (* One warm-up job fills lazy state (page cache, heap) before timing. *)
  let warm = run_api () in
  let t_end = now () +. float_of_int seconds in
  let n = ref 0 in
  while now () < t_end || !n < min_jobs do
    incr n;
    Option.iter record_api (run_api ());
    match (trace, warm) with
    | true, Some (api_best, _, _, _) -> run_traced ~api_best
    | _ -> ()
  done;
  if trace then begin
    let gflops = gemm_gflops (gemm_shape w prog) and codec = codec_mb_s w in
    List.iter (fun (job, t) -> record_traced r ~gflops ~codec ~job t) !traced_jobs;
    let untraced = med "job_s" and traced = med "traced_job_s" in
    record "trace.overhead" ((traced /. untraced) -. 1.);
    (* Named layers' self times summed per traced job, against the untraced
       job time: what the spans leave unexplained. *)
    let accounted =
      median
        (List.map
           (fun (job, _) ->
             List.fold_left
               (fun acc (l, s) -> if l = "job" then acc else acc +. s)
               0. (layer_self r ~job))
           !traced_jobs)
    in
    record "trace.unaccounted" ((untraced -. accounted) /. untraced);
    (* Self-time table of the median traced job: its leaves sum to its
       job_s. *)
    let by_time =
      List.sort
        (fun (_, a) (_, b) -> compare a b)
        (List.map (fun (job, _) -> (job, Probe.total r ~job "job")) !traced_jobs)
    in
    (match List.nth_opt by_time (List.length by_time / 2) with
    | Some (job, job_s) ->
        Printf.printf "self time by layer, median traced job of %s (%d traced jobs):\n"
          w.W.name (List.length by_time);
        List.iter
          (fun (l, s) ->
            Printf.printf "  %-10s %10.4f s  %5.1f%%\n" (if l = "job" then "(glue)" else l) s
              (100. *. s /. job_s))
          (layer_self r ~job);
        Printf.printf "  %-10s %10.4f s  (untraced job_s %.4f s, kernels.gemm_gflops %.2f vs model %.1f)\n"
          "job_s" job_s untraced gflops (Machine.paper.Machine.gemm_flops /. 1e9)
    | None -> ());
    Probe.write_chrome r
      (Filename.concat dir (Printf.sprintf "trace-%s-%d.json" w.W.name seed))
  end;
  record "rss_peak_mb" (float_of_int (Probe.rss_peak_bytes ()) /. mib);
  backend.Backend.close ();
  let names = if trace then per_layer else end_to_end in
  let correct = !failed = 0 in
  print_endline
    (row_line w ~seed ~seconds ~trace ~commit ~attempted:!attempted ~failed:!failed names);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed (json_metrics names);
  exit (if correct then 0 else 1)
