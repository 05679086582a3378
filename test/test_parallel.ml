(* Differential determinism of the parallel optimizer: running the search and
   the costing on N domains must give exactly the plans, order and costs of
   the sequential run — parallelism may only change wall time. *)

module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Config = Riot_ir.Config
module Cplan = Riot_plan.Cplan
module Trace = Riot_plan.Trace
module Engine = Riot_exec.Engine
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Differential = Riotshare.Differential
module Dense = Riot_kernels.Dense
module Pool = Riot_base.Pool

let check_bool = Alcotest.(check bool)

let search_signature (plans, (stats : Search.stats)) =
  (* Everything except [elapsed]. *)
  (plans, stats.Search.candidates_tried, stats.Search.pruned)

let opt_signature (o : Api.t) =
  List.map
    (fun (p : Api.costed_plan) ->
      ( p.Api.plan.Search.index,
        List.sort compare (List.map Coaccess.label p.Api.plan.Search.q),
        p.Api.predicted_io_seconds,
        p.Api.predicted_cpu_seconds,
        p.Api.memory_bytes ))
    o.Api.plans

let enumerate_jobs ?max_size prog ~ref_params jobs =
  let analysis = Deps.extract prog ~ref_params in
  search_signature (Search.enumerate ?max_size ~jobs prog ~analysis ~ref_params)

let test_enumerate_add_mul () =
  let prog = Programs.add_mul () in
  let ref_params = Programs.table2.Config.params in
  let seq = enumerate_jobs prog ~ref_params 1 in
  check_bool "jobs=3 = jobs=1" true (enumerate_jobs prog ~ref_params 3 = seq);
  check_bool "jobs=2 = jobs=1" true (enumerate_jobs prog ~ref_params 2 = seq)

let test_enumerate_two_matmuls () =
  let prog = Programs.two_matmuls () in
  let ref_params = Programs.table3_config_a.Config.params in
  check_bool "jobs=4 = jobs=1 (k<=2)" true
    (enumerate_jobs ~max_size:2 prog ~ref_params 4
    = enumerate_jobs ~max_size:2 prog ~ref_params 1)

let test_optimize_add_mul () =
  let prog = Programs.add_mul () in
  let seq = Api.optimize ~jobs:1 prog ~config:Programs.table2 in
  let par = Api.optimize ~jobs:3 prog ~config:Programs.table2 in
  check_bool "plan signatures identical" true
    (opt_signature seq = opt_signature par);
  check_bool "search stats identical" true
    (seq.Api.search_stats.Search.candidates_tried
     = par.Api.search_stats.Search.candidates_tried
    && seq.Api.search_stats.Search.pruned = par.Api.search_stats.Search.pruned)

let test_recost () =
  let prog = Programs.add_mul () in
  let o = Api.optimize ~jobs:1 prog ~config:Programs.table2 in
  let config = Programs.scale_down ~factor:10 Programs.table2 in
  check_bool "recost jobs=3 = jobs=1" true
    (opt_signature (Api.recost ~jobs:1 o ~config)
    = opt_signature (Api.recost ~jobs:3 o ~config))

(* --- Branch and bound ----------------------------------------------------- *)

let best_signature (o : Api.t) =
  let b = Api.best o in
  ( List.sort compare (List.map Coaccess.label b.Api.plan.Search.q),
    b.Api.predicted_io_seconds,
    b.Api.memory_bytes )

let bb_signature (o : Api.t) =
  (* Everything deterministic about a pruned run: surviving plans (canonical
     order), costs, and every pruning counter. *)
  ( opt_signature o,
    o.Api.search_stats.Search.candidates_tried,
    o.Api.search_stats.Search.pruned,
    o.Api.search_stats.Search.bound_pruned,
    o.Api.search_stats.Search.verify_rejected,
    o.Api.search_stats.Search.complete )

(* Uncapped, and capped at 0: both searches then return Plan 0 alone. *)
let test_bb_add_mul () =
  let prog = Programs.add_mul () in
  List.iter
    (fun max_size ->
      let what s =
        Printf.sprintf "%s (max_size %s)" s
          (match max_size with Some m -> string_of_int m | None -> "none")
      in
      let optimize ?prune ~jobs () =
        Api.optimize ?max_size ?prune ~jobs prog ~config:Programs.table2
      in
      let exhaustive = optimize ~jobs:1 () in
      let bb1 = optimize ~prune:true ~jobs:1 () in
      let bb2 = optimize ~prune:true ~jobs:2 () in
      check_bool (what "b&b best = exhaustive best (jobs=1)") true
        (best_signature bb1 = best_signature exhaustive);
      check_bool (what "b&b best = exhaustive best (jobs=2)") true
        (best_signature bb2 = best_signature exhaustive);
      check_bool (what "b&b deterministic: jobs=2 = jobs=1") true
        (bb_signature bb2 = bb_signature bb1);
      check_bool (what "b&b search completed") true bb1.Api.search_stats.Search.complete;
      (* Survivors are a subset of the exhaustive plan set with identical
         sets and costs (indices differ where pruning removed plans). *)
      let strip o =
        List.map
          (fun (_, labels, io, cpu, mem) -> (labels, io, cpu, mem))
          (opt_signature o)
      in
      check_bool (what "b&b plans are a sublist of exhaustive plans") true
        (List.for_all (fun p -> List.mem p (strip exhaustive)) (strip bb1));
      if max_size = Some 0 then
        List.iter
          (fun o ->
            check_bool (what "Plan 0 only") true
              (List.map (fun (p : Api.costed_plan) -> p.Api.plan.Search.q) o.Api.plans
              = [ [] ]))
          [ exhaustive; bb1; bb2 ])
    [ None; Some 0 ]

let test_bb_two_matmuls () =
  let prog = Programs.two_matmuls () in
  let config = Programs.table3_config_a in
  let exhaustive = Api.optimize ~max_size:2 ~jobs:1 prog ~config in
  let bb = Api.optimize ~prune:true ~max_size:2 ~jobs:2 prog ~config in
  check_bool "b&b best = exhaustive best (k<=2)" true
    (best_signature bb = best_signature exhaustive)

let test_budget_monotone () =
  let prog = Programs.add_mul () in
  let config = Programs.table2 in
  let io b = (Api.best b).Api.predicted_io_seconds in
  let b_zero = Api.optimize ~budget:0.0 ~jobs:1 prog ~config in
  let b_small = Api.optimize ~budget:0.25 ~jobs:1 prog ~config in
  let b_full = Api.optimize ~prune:true ~jobs:1 prog ~config in
  check_bool "budget 0 <= cost of plan 0" true
    (io b_zero = (Api.original b_zero).Api.predicted_io_seconds);
  check_bool "cost monotone: small budget <= zero budget" true
    (io b_small <= io b_zero);
  check_bool "cost monotone: full search <= small budget" true
    (io b_full <= io b_small)

let test_budget_interrupted_valid () =
  let prog = Programs.two_matmuls () in
  let config = Programs.table3_config_a in
  let o = Api.optimize ~budget:0.0 ~max_size:2 ~jobs:1 prog ~config in
  check_bool "interrupted search is marked incomplete" true
    (not o.Api.search_stats.Search.complete);
  check_bool "interrupted search still has Plan 0" true
    ((Api.original o).Api.plan.Search.q = []);
  (* [Api.best] statically verifies the winner (Engine.verify_exn): a
     non-raising call means the anytime result is a valid, verified plan. *)
  let b = Api.best o in
  check_bool "anytime best is no worse than Plan 0" true
    (b.Api.predicted_io_seconds
    <= (Api.original o).Api.predicted_io_seconds)

(* The I/O lower bound must never exceed the cost of a plan it bounds, and
   must equal Plan 0's cost exactly.  The pinned seeds generate programs
   whose intermediate blocks are read only inside their own writing
   instance: Plan 0 elides those writes, and a bound that charged one write
   per read block pruned the true best plan. *)
let test_bound_admissible () =
  let open Test_random_programs in
  List.iter
    (fun seed ->
      with_program seed (fun prog ->
          let config = config_for prog in
          let ex = Api.optimize ~max_size:2 ~jobs:1 prog ~config in
          let sharing = ex.Api.analysis.Deps.sharing in
          let bound =
            Riot_plan.Cost_bound.make Riot_plan.Machine.paper prog ~config
              ~coaccesses:sharing
          in
          let index ca =
            let rec go i = function
              | [] -> Alcotest.fail "realized opportunity not in the sharing list"
              | c :: rest -> if c = ca then i else go (i + 1) rest
            in
            go 0 sharing
          in
          List.iter
            (fun (p : Api.costed_plan) ->
              let b =
                Riot_plan.Cost_bound.eval bound
                  (List.map index p.Api.plan.Search.q)
              in
              check_bool
                (Printf.sprintf "seed %d plan %d: bound %g <= io %g" seed
                   p.Api.plan.Search.index b p.Api.predicted_io_seconds)
                true
                (b <= p.Api.predicted_io_seconds))
            ex.Api.plans;
          check_bool
            (Printf.sprintf "seed %d: bound of {} = Plan 0's io" seed)
            true
            (Riot_plan.Cost_bound.base bound
            = (Api.original ex).Api.predicted_io_seconds);
          let bb = Api.optimize ~prune:true ~max_size:2 ~jobs:1 prog ~config in
          check_bool
            (Printf.sprintf "seed %d: b&b best = exhaustive best" seed)
            true
            (best_signature bb = best_signature ex)))
    [ 26; 67; 145; 155; 190; 197; 65853 ]

let qcheck_bb =
  let open Test_random_programs in
  [ QCheck.Test.make
      ~name:"random programs: b&b best = exhaustive best (k<=2, jobs 1/2)"
      ~count:10 seed_gen (fun seed ->
        with_program seed (fun prog ->
            let config = config_for prog in
            let ex = Api.optimize ~max_size:2 ~jobs:1 prog ~config in
            let bb1 = Api.optimize ~prune:true ~max_size:2 ~jobs:1 prog ~config in
            let bb2 = Api.optimize ~prune:true ~max_size:2 ~jobs:2 prog ~config in
            best_signature ex = best_signature bb1
            && bb_signature bb1 = bb_signature bb2)) ]

let qcheck_parallel =
  let open Test_random_programs in
  [ QCheck.Test.make ~name:"random programs: enumerate jobs=3 = jobs=1" ~count:15
      seed_gen (fun seed ->
        with_program seed (fun prog ->
            enumerate_jobs ~max_size:2 prog ~ref_params 3
            = enumerate_jobs ~max_size:2 prog ~ref_params 1));
    QCheck.Test.make ~name:"random programs: optimize jobs=2 = jobs=1" ~count:10
      seed_gen (fun seed ->
        with_program seed (fun prog ->
            let config = config_for prog in
            opt_signature (Api.optimize ~max_size:2 ~jobs:2 prog ~config)
            = opt_signature (Api.optimize ~max_size:2 ~jobs:1 prog ~config)))
  ]

(* --- Row-split gemm in the executor ----------------------------------------

   Engine.run splits each gemm above Dense.gemm_grain across a pool of
   [jobs] domains that the run owns.  Every enumerated plan (k <= 2) of two
   matmuls and of linear regression, at block shapes above the grain, must
   give byte-identical arrays, identical I/O and an identical trace at
   jobs = 1 and jobs = 2.  Grids are small so each run takes milliseconds. *)

let layouts l =
  List.map
    (fun (name, br, bc, gr, gc) ->
      (name, { Config.grid = [| gr; gc |]; block_elems = [| br; bc |]; elem_size = 8 }))
    l

(* C += A*B and E += A*D on 100x100 by 100x60 blocks: 1.2 MFLOP each; with
   [small], 40x40 by 40x24 blocks, below the grain. *)
let twomm_split_config ~small =
  let d x = if small then x * 2 / 5 else x in
  Config.make
    ~params:[ ("n1", 2); ("n2", 2); ("n3", 2); ("n4", 2) ]
    ~layouts:
      (layouts
         [ ("A", d 100, d 100, 2, 2);
           ("B", d 100, d 60, 2, 2);
           ("C", d 100, d 60, 2, 2);
           ("D", d 100, d 60, 2, 2);
           ("E", d 100, d 60, 2, 2) ])

(* U += X'X on 40x40x600 blocks: 1.9 MFLOP. *)
let linreg_split_config =
  Config.make
    ~params:[ ("n", 3) ]
    ~layouts:
      (layouts
         [ ("X", 600, 40, 3, 1);
           ("Y", 600, 8, 3, 1);
           ("U", 40, 40, 1, 1);
           ("V", 40, 8, 1, 1);
           ("W", 40, 40, 1, 1);
           ("Bh", 40, 8, 1, 1);
           ("Yh", 600, 8, 3, 1);
           ("E", 600, 8, 3, 1);
           ("R", 1, 8, 1, 1) ])

(* One run of [cplan] on fresh simulated storage: the arrays it leaves, its
   result's I/O fields, its trace, and the worker domains it spawned. *)
let split_run ?(compute = true) prog config (p : Api.costed_plan) ~jobs =
  let backend = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. () in
  let format = Block_store.Daf_format in
  let stores = Engine.stores_for backend ~format ~config in
  if compute then Differential.load_inputs prog config stores;
  let sink, events = Trace.collector () in
  let spawned = Pool.spawned () in
  let r =
    Engine.run ~compute ~stores ~trace:sink ~jobs p.Api.cplan ~backend ~format
      ~mem_cap:p.Api.memory_bytes
  in
  let io =
    ( r.Engine.virtual_io_seconds,
      (r.Engine.reads, r.Engine.writes, r.Engine.bytes_read, r.Engine.bytes_written),
      r.Engine.pool_peak_bytes,
      r.Engine.per_array )
  in
  ( (if compute then Differential.snapshot stores else []),
    io,
    events (),
    Pool.spawned () - spawned )

let check_split_plans name prog config =
  let opt = Api.optimize ~max_size:2 ~jobs:1 prog ~config in
  List.iter
    (fun (p : Api.costed_plan) ->
      let what s = Printf.sprintf "%s plan %d: %s" name p.Api.plan.Search.index s in
      let data1, io1, trace1, spawned1 = split_run prog config p ~jobs:1 in
      let data2, io2, trace2, spawned2 = split_run prog config p ~jobs:2 in
      check_bool (what "arrays byte-identical") true (data1 = data2);
      check_bool (what "I/O identical") true (io1 = io2);
      check_bool (what "trace identical") true (trace1 = trace2);
      Alcotest.(check int) (what "jobs=1 spawns no domain") 0 spawned1;
      Alcotest.(check int) (what "jobs=2 spawns one pool, once") 1 spawned2)
    opt.Api.plans

let test_split_twomm () =
  check_split_plans "two_matmuls" (Programs.two_matmuls ())
    (twomm_split_config ~small:false)

let test_split_linreg () =
  check_split_plans "linear_regression" (Programs.linear_regression ())
    linreg_split_config

(* The pool is spawned only by a kernel that splits: never on a phantom
   run, never when every gemm falls below the grain. *)
let test_split_no_pool () =
  let prog = Programs.two_matmuls () in
  let big = twomm_split_config ~small:false
  and small = twomm_split_config ~small:true in
  let best config = Api.best (Api.optimize ~max_size:2 ~jobs:1 prog ~config) in
  check_bool "small blocks fall below the grain" true
    (Dense.gemm_chunks ~jobs:2 ~m:40 ~n:24 ~k:40 = 1);
  let _, _, _, phantom = split_run ~compute:false prog big (best big) ~jobs:2 in
  Alcotest.(check int) "phantom run spawns no domain" 0 phantom;
  let _, _, _, below = split_run prog small (best small) ~jobs:2 in
  Alcotest.(check int) "gemms below the grain spawn no domain" 0 below

(* The search's work counters are deterministic: the same counts on
   repeated runs and at every jobs, since a component is recorded once
   whichever domain decides it first.  Both the pruned and the exhaustive
   search report them.  The give-up count is where a changed elimination
   would first show: the budget is the one place its order can alter a
   verdict. *)
let test_work_counters () =
  let prog = Programs.linear_regression () in
  let config = Programs.table4 in
  List.iter
    (fun prune ->
      let counts jobs =
        let s = Riot_optimizer.Opt_stats.create () in
        ignore (Api.optimize ~prune ~max_size:2 ~jobs ~opt_stats:s prog ~config);
        ( Atomic.get s.Riot_optimizer.Opt_stats.fm_components,
          Atomic.get s.Riot_optimizer.Opt_stats.fm_giveups,
          Atomic.get s.Riot_optimizer.Opt_stats.samples_drawn )
      in
      let what s = Printf.sprintf "%s (prune=%b)" s prune in
      let ((fm, giveups, sampled) as c1) = counts 1 in
      check_bool (what "Fourier-Motzkin decided components") true (fm > 0);
      check_bool (what "give-ups are among them") true (giveups <= fm);
      check_bool (what "components were sampled") true (sampled > 0);
      List.iter
        (fun jobs ->
          Alcotest.(check (triple int int int))
            (what (Printf.sprintf "counts at jobs=%d = jobs=1" jobs))
            c1 (counts jobs))
        [ 1; 2; 4 ])
    [ true; false ]

let suite =
  ( "parallel-determinism",
    [ Alcotest.test_case "enumerate add_mul" `Quick test_enumerate_add_mul;
      Alcotest.test_case "enumerate two_matmuls" `Slow test_enumerate_two_matmuls;
      Alcotest.test_case "optimize add_mul" `Quick test_optimize_add_mul;
      Alcotest.test_case "recost" `Quick test_recost;
      Alcotest.test_case "b&b = exhaustive on add_mul" `Quick test_bb_add_mul;
      Alcotest.test_case "b&b = exhaustive on two_matmuls" `Slow
        test_bb_two_matmuls;
      Alcotest.test_case "budget monotonicity" `Quick test_budget_monotone;
      Alcotest.test_case "work counters identical across runs and jobs" `Quick
        test_work_counters;
      Alcotest.test_case "interrupted budget returns valid plan" `Quick
        test_budget_interrupted_valid;
      Alcotest.test_case "split gemm: two_matmuls jobs=2 = jobs=1" `Quick
        test_split_twomm;
      Alcotest.test_case "split gemm: linreg jobs=2 = jobs=1" `Quick
        test_split_linreg;
      Alcotest.test_case "split gemm: no pool without a split" `Quick
        test_split_no_pool ]
    @ List.map QCheck_alcotest.to_alcotest (qcheck_parallel @ qcheck_bb)
    @ [ Alcotest.test_case "bound admissible on pinned random programs" `Quick
          test_bound_admissible ] )
