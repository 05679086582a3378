module Cplan = Riot_plan.Cplan
module Machine = Riot_plan.Machine
module Engine = Riot_exec.Engine
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Buffer_pool = Riot_storage.Buffer_pool
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config
module Dense = Riot_kernels.Dense

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sim () = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0.001 ()

(* --- Full-matrix scatter/gather helpers ---------------------------------- *)

let full_dims (l : Config.layout) =
  (l.Config.grid.(0) * l.Config.block_elems.(0), l.Config.grid.(1) * l.Config.block_elems.(1))

let scatter store (l : Config.layout) full =
  let _, cols = full_dims l in
  let br = l.Config.block_elems.(0) and bc = l.Config.block_elems.(1) in
  for bi = 0 to l.Config.grid.(0) - 1 do
    for bj = 0 to l.Config.grid.(1) - 1 do
      let blk =
        Array.init (br * bc) (fun e ->
            let r = (bi * br) + (e / bc) and c = (bj * bc) + (e mod bc) in
            full.((r * cols) + c))
      in
      Block_store.write_floats store [ bi; bj ] blk
    done
  done

let gather store (l : Config.layout) =
  let rows, cols = full_dims l in
  let br = l.Config.block_elems.(0) and bc = l.Config.block_elems.(1) in
  let full = Array.make (rows * cols) 0. in
  for bi = 0 to l.Config.grid.(0) - 1 do
    for bj = 0 to l.Config.grid.(1) - 1 do
      let blk = Block_store.read_floats store [ bi; bj ] in
      Array.iteri
        (fun e v ->
          let r = (bi * br) + (e / bc) and c = (bj * bc) + (e mod bc) in
          full.((r * cols) + c) <- v)
        blk
    done
  done;
  full

let rand_full st (l : Config.layout) =
  let rows, cols = full_dims l in
  Array.init (rows * cols) (fun _ -> Random.State.float st 2. -. 1.)

let close ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> abs_float (x -. y) <= eps *. (1. +. abs_float x)) a b

(* --- Example 1 end to end -------------------------------------------------- *)

type ctx = {
  prog : Riot_ir.Program.t;
  config : Config.t;
  plans : Search.plan list;
}

let e1_ctx =
  lazy
    (let prog = Programs.add_mul () in
     let config = Programs.scale_down ~factor:100 Programs.table2 in
     let ref_params = config.Config.params in
     let analysis = Deps.extract prog ~ref_params in
     let plans, _ = Search.enumerate prog ~analysis ~ref_params in
     { prog; config; plans })

let plan_with ctx labels =
  List.find
    (fun (p : Search.plan) ->
      List.sort compare (List.map Coaccess.label p.Search.q) = List.sort compare labels)
    ctx.plans

let best_labels = [ "s1.W.C -> s2.R.C"; "s2.W.E -> s2.R.E"; "s2.W.E -> s2.W.E" ]

(* Execute one plan on fresh random inputs; returns (E result, engine result,
   concrete plan). *)
let run_e1 ?(format = Block_store.Daf_format) ctx plan =
  let st = Random.State.make [| 123 |] in
  let backend = sim () in
  let stores = Engine.stores_for backend ~format ~config:ctx.config in
  let layout name = Config.layout ctx.config name in
  let a_full = rand_full st (layout "A") in
  let b_full = rand_full st (layout "B") in
  let d_full = rand_full st (layout "D") in
  scatter (List.assoc "A" stores) (layout "A") a_full;
  scatter (List.assoc "B" stores) (layout "B") b_full;
  scatter (List.assoc "D" stores) (layout "D") d_full;
  Riot_storage.Io_stats.reset backend.Backend.stats;
  let cplan =
    Cplan.build ctx.prog ~config:ctx.config ~sched:plan.Search.sched
      ~realized:plan.Search.q
  in
  let result =
    Engine.run cplan ~stores ~backend ~format ~mem_cap:cplan.Cplan.peak_memory
  in
  let e_full = gather (List.assoc "E" stores) (layout "E") in
  (* Dense reference. *)
  let ra, ca = full_dims (layout "A") in
  let _, cd = full_dims (layout "D") in
  let c_full = Array.make (ra * ca) 0. in
  Dense.add a_full b_full c_full;
  let e_ref = Array.make (ra * cd) 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:ra ~n:cd ~k:ca ~a:c_full
    ~b:d_full ~c:e_ref;
  (e_full, e_ref, result, cplan)

let test_naive_plan_computes_correctly () =
  let ctx = Lazy.force e1_ctx in
  let e, e_ref, _, _ = run_e1 ctx (plan_with ctx []) in
  check_bool "E matches dense reference" true (close e e_ref)

let test_best_plan_computes_correctly () =
  let ctx = Lazy.force e1_ctx in
  let e, e_ref, _, _ = run_e1 ctx (plan_with ctx best_labels) in
  check_bool "E matches dense reference" true (close e e_ref)

let test_all_plans_compute_identically () =
  let ctx = Lazy.force e1_ctx in
  List.iter
    (fun (p : Search.plan) ->
      let e, e_ref, _, _ = run_e1 ctx p in
      check_bool (Printf.sprintf "plan %d correct" p.Search.index) true (close e e_ref))
    ctx.plans

let test_engine_io_matches_prediction () =
  let ctx = Lazy.force e1_ctx in
  List.iter
    (fun labels ->
      let p = plan_with ctx labels in
      let _, _, result, cplan = run_e1 ctx p in
      check_int "reads" cplan.Cplan.read_ops result.Engine.reads;
      check_int "writes" cplan.Cplan.write_ops result.Engine.writes;
      check_int "bytes read" cplan.Cplan.read_bytes result.Engine.bytes_read;
      check_int "bytes written" cplan.Cplan.write_bytes result.Engine.bytes_written)
    [ []; best_labels ]

let test_engine_respects_memory_cap () =
  let ctx = Lazy.force e1_ctx in
  let p = plan_with ctx best_labels in
  let cplan =
    Cplan.build ctx.prog ~config:ctx.config ~sched:p.Search.sched ~realized:p.Search.q
  in
  check_bool "pool peak within plan estimate" true
    (let backend = sim () in
     let r =
       Engine.run ~compute:false cplan ~backend ~format:Block_store.Daf_format
         ~mem_cap:cplan.Cplan.peak_memory
     in
     r.Engine.pool_peak_bytes <= cplan.Cplan.peak_memory);
  (* Starving the pool must raise. *)
  check_bool "raises under starvation" true
    (let backend = sim () in
     try
       ignore
         (Engine.run ~compute:false cplan ~backend ~format:Block_store.Daf_format
            ~mem_cap:(cplan.Cplan.peak_memory / 3));
       false
     with Buffer_pool.Insufficient_memory _ -> true)

let test_lab_format_executes () =
  let ctx = Lazy.force e1_ctx in
  let e, e_ref, _, _ = run_e1 ~format:Block_store.Lab_format ctx (plan_with ctx best_labels) in
  check_bool "LAB-tree execution correct" true (close e e_ref)

let test_phantom_matches_compute_io () =
  (* Full-scale phantom run counts exactly the same block I/O as the
     computing run at reduced scale (same grid). *)
  let ctx = Lazy.force e1_ctx in
  let p = plan_with ctx best_labels in
  let _, _, computed, _ = run_e1 ctx p in
  let full_cfg = Programs.table2 in
  let cplan =
    Cplan.build ctx.prog ~config:full_cfg ~sched:p.Search.sched ~realized:p.Search.q
  in
  let backend = sim () in
  let r =
    Engine.run ~compute:false cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:cplan.Cplan.peak_memory
  in
  check_int "same read ops" computed.Engine.reads r.Engine.reads;
  check_int "same write ops" computed.Engine.writes r.Engine.writes;
  check_bool "virtual time ~ predicted io" true
    (let m = Machine.paper in
     let predicted = Cplan.predicted_io_seconds m cplan in
     abs_float (r.Engine.virtual_io_seconds -. predicted) /. predicted < 0.05)

(* --- Linear regression end to end ----------------------------------------- *)

let test_linreg_end_to_end () =
  let prog = Programs.linear_regression () in
  let config = Programs.scale_down ~factor:1000 Programs.table4 in
  let ref_params = [ ("n", 4) ] in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate prog ~analysis ~ref_params ~max_size:3 in
  let st = Random.State.make [| 321 |] in
  let layout name = Config.layout config name in
  let x_full = rand_full st (layout "X") in
  let y_full = rand_full st (layout "Y") in
  (* Closed-form reference. *)
  let nobs, npred = full_dims (layout "X") in
  let _, nresp = full_dims (layout "Y") in
  let u = Array.make (npred * npred) 0. in
  Dense.gemm ~accumulate:false ~ta:true ~tb:false ~m:npred ~n:npred ~k:nobs ~a:x_full
    ~b:x_full ~c:u;
  let w = Array.make (npred * npred) 0. in
  Dense.invert ~n:npred u w;
  let v = Array.make (npred * nresp) 0. in
  Dense.gemm ~accumulate:false ~ta:true ~tb:false ~m:npred ~n:nresp ~k:nobs ~a:x_full
    ~b:y_full ~c:v;
  let beta_ref = Array.make (npred * nresp) 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:npred ~n:nresp ~k:npred ~a:w
    ~b:v ~c:beta_ref;
  let yh = Array.make (nobs * nresp) 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:nobs ~n:nresp ~k:npred ~a:x_full
    ~b:beta_ref ~c:yh;
  let e_ref = Array.make (nobs * nresp) 0. in
  Dense.sub y_full yh e_ref;
  let rss_ref = Array.make nresp 0. in
  Dense.rss_acc ~rows:nobs ~cols:nresp ~e:e_ref ~acc:rss_ref;
  (* Execute a handful of plans, including the original. *)
  let interesting =
    List.filteri (fun i _ -> i = 0 || i mod 7 = 0) plans
  in
  List.iter
    (fun (p : Search.plan) ->
      let backend = sim () in
      let stores =
        Engine.stores_for backend ~format:Block_store.Daf_format ~config
      in
      scatter (List.assoc "X" stores) (layout "X") x_full;
      scatter (List.assoc "Y" stores) (layout "Y") y_full;
      let cplan =
        Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q
      in
      ignore
        (Engine.run cplan ~stores ~backend ~format:Block_store.Daf_format
           ~mem_cap:cplan.Cplan.peak_memory);
      let beta = gather (List.assoc "Bh" stores) (layout "Bh") in
      let rss = gather (List.assoc "R" stores) (layout "R") in
      check_bool
        (Printf.sprintf "plan %d beta matches closed form" p.Search.index)
        true
        (close ~eps:1e-6 beta beta_ref);
      check_bool
        (Printf.sprintf "plan %d RSS matches" p.Search.index)
        true
        (close ~eps:1e-6 (Array.sub rss 0 nresp) rss_ref))
    interesting

(* A plan corrupted to claim a memory-serviced read on the very first step
   must fail with a typed engine error carrying the step/statement/block
   context, not a bare Failure. *)
let test_engine_missing_block_error () =
  let ctx = Lazy.force e1_ctx in
  let plan = plan_with ctx best_labels in
  let backend = sim () in
  let format = Block_store.Daf_format in
  let stores = Engine.stores_for backend ~format ~config:ctx.config in
  let layout name = Config.layout ctx.config name in
  let st = Random.State.make [| 123 |] in
  List.iter
    (fun a -> scatter (List.assoc a stores) (layout a) (rand_full st (layout a)))
    [ "A"; "B"; "D" ];
  let cplan =
    Cplan.build ctx.prog ~config:ctx.config ~sched:plan.Search.sched
      ~realized:plan.Search.q
  in
  let corrupt =
    { cplan with
      Cplan.steps =
        Array.mapi
          (fun i (s : Cplan.step) ->
            if i <> 0 then s
            else
              { s with
                Cplan.reads =
                  List.map
                    (fun (a, b, _) -> (a, b, Cplan.From_memory))
                    s.Cplan.reads
              })
          cplan.Cplan.steps
    }
  in
  match
    Engine.run corrupt ~stores ~backend ~format ~mem_cap:cplan.Cplan.peak_memory
  with
  | _ -> Alcotest.fail "corrupted plan executed"
  | exception Engine.Error (Engine.Missing_block { step; stmt; array; _ }) ->
      Alcotest.(check int) "failing step" 0 step;
      Alcotest.(check bool) "statement named" true (stmt <> "");
      Alcotest.(check bool) "array named" true (array <> "");
      Alcotest.(check bool) "message mentions the array" true
        (let msg =
           Engine.error_to_string
             (Engine.Missing_block
                { step; stmt; array; index = [ 0; 0 ]; phase = `Read })
         in
         String.length msg > 0)

(* A store list that lacks one of the plan's arrays is rejected up front:
   the output E is first touched at the last statement, so without the
   check the run would already have read inputs and written C. *)
let test_engine_missing_store_error () =
  let ctx = Lazy.force e1_ctx in
  let plan = plan_with ctx best_labels in
  let backend = sim () in
  let format = Block_store.Daf_format in
  let stores = Engine.stores_for backend ~format ~config:ctx.config in
  let layout name = Config.layout ctx.config name in
  let st = Random.State.make [| 123 |] in
  List.iter
    (fun a -> scatter (List.assoc a stores) (layout a) (rand_full st (layout a)))
    [ "A"; "B"; "D" ];
  Riot_storage.Io_stats.reset backend.Backend.stats;
  let cplan =
    Cplan.build ctx.prog ~config:ctx.config ~sched:plan.Search.sched
      ~realized:plan.Search.q
  in
  let stores = List.remove_assoc "E" stores in
  (match
     Engine.run cplan ~stores ~backend ~format ~mem_cap:cplan.Cplan.peak_memory
   with
  | _ -> Alcotest.fail "run with a missing store completed"
  | exception Invalid_argument msg ->
      check_bool "message names the array" true
        (String.ends_with ~suffix:" E" msg));
  check_int "no reads" 0 backend.Backend.stats.Riot_storage.Io_stats.reads;
  check_int "no writes" 0 backend.Backend.stats.Riot_storage.Io_stats.writes

let suite =
  ( "exec",
    [ Alcotest.test_case "naive plan computes" `Quick test_naive_plan_computes_correctly;
      Alcotest.test_case "best plan computes" `Quick test_best_plan_computes_correctly;
      Alcotest.test_case "all plans identical results" `Slow test_all_plans_compute_identically;
      Alcotest.test_case "engine io = prediction" `Quick test_engine_io_matches_prediction;
      Alcotest.test_case "memory cap respected" `Quick test_engine_respects_memory_cap;
      Alcotest.test_case "lab format executes" `Quick test_lab_format_executes;
      Alcotest.test_case "phantom matches compute" `Quick test_phantom_matches_compute_io;
      Alcotest.test_case "linear regression end to end" `Slow test_linreg_end_to_end;
      Alcotest.test_case "missing block typed error" `Quick test_engine_missing_block_error;
      Alcotest.test_case "missing store rejected up front" `Quick
        test_engine_missing_store_error ] )
