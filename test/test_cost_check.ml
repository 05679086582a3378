(* Cost-model validation (the paper's Figure 3(b) property, sharpened to
   per-array granularity): for every example program the physical reads and
   writes the engine performs must exactly equal the optimizer's
   prediction, array by array, on both the simulated and the real-file
   backend.  Random programs are checked through Riotshare.Differential,
   whose DAF I/O contract is this property (test_differential.ml). *)

module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Parse = Riot_frontend.Parse
module Config = Riot_ir.Config
module Search = Riot_optimizer.Search
module Cplan = Riot_plan.Cplan
module Cost_check = Riot_plan.Cost_check
module Engine = Riot_exec.Engine
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store

let sim_backend () =
  Backend.sim ~retain_data:false ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:1e-3 ()

let with_file_backend f =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "riot_costcheck_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  let backend = Backend.file ~root in
  Fun.protect
    ~finally:(fun () ->
      backend.Backend.close ();
      if Sys.file_exists root then begin
        Array.iter (fun f -> Sys.remove (Filename.concat root f)) (Sys.readdir root);
        Sys.rmdir root
      end)
    (fun () -> f backend)

let divergences_msg (report : Cost_check.report) =
  String.concat "; "
    (List.map
       (fun (d : Cost_check.divergence) ->
         Printf.sprintf "%s.%s predicted %d actual %d" d.Cost_check.d_array
           d.Cost_check.d_counter d.Cost_check.d_predicted d.Cost_check.d_actual)
       report.Cost_check.divergences)

let check_run ~ctx (cplan : Cplan.t) backend =
  let r =
    Engine.run ~compute:false cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:cplan.Cplan.peak_memory
  in
  let report = Engine.check_cost r cplan in
  Alcotest.(check bool)
    (Printf.sprintf "%s: per-array I/O = prediction (%s)" ctx (divergences_msg report))
    true report.Cost_check.ok

(* predict's per-array rows must decompose the plan's aggregate counters. *)
let check_predict_totals ~ctx (cplan : Cplan.t) =
  let e = Cost_check.predict cplan in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 e in
  Alcotest.(check int) (ctx ^ ": sum of per-array reads") cplan.Cplan.read_ops
    (sum (fun r -> r.Cost_check.e_reads));
  Alcotest.(check int) (ctx ^ ": sum of per-array read bytes") cplan.Cplan.read_bytes
    (sum (fun r -> r.Cost_check.e_read_bytes));
  Alcotest.(check int) (ctx ^ ": sum of per-array writes") cplan.Cplan.write_ops
    (sum (fun r -> r.Cost_check.e_writes));
  Alcotest.(check int) (ctx ^ ": sum of per-array write bytes") cplan.Cplan.write_bytes
    (sum (fun r -> r.Cost_check.e_write_bytes))

(* --- The five example programs ---------------------------------------------- *)

let dsl_pipeline_source =
  {|
  param nr, nc, np;
  input M[nr][nc], N[nr][nc], T[nr][np];
  intermediate S[nr][nc];
  output G[nc][nc], P[nc][np];

  for (i = 0; i < nr; i++)
    for (j = 0; j < nc; j++)
      S[i,j] = M[i,j] + N[i,j];

  for (i = 0; i < nc; i++)
    for (j = 0; j < nc; j++)
      for (k = 0; k < nr; k++)
        G[i,j] += S'[k,i] * S[k,j];

  for (i = 0; i < nc; i++)
    for (j = 0; j < np; j++)
      for (k = 0; k < nr; k++)
        P[i,j] += S'[k,i] * T[k,j];
|}

let dsl_pipeline_config =
  Config.make ~params:[ ("nr", 8); ("nc", 2); ("np", 2) ] ~layouts:[]
  |> fun c ->
  let dims = [ ("M", 4); ("N", 4); ("S", 4); ("T", 2); ("G", 4); ("P", 2) ] in
  let grids = [ ("M", (8, 2)); ("N", (8, 2)); ("S", (8, 2)); ("T", (8, 2));
                ("G", (2, 2)); ("P", (2, 2)) ] in
  List.fold_left
    (fun c (name, bc) ->
      let gr, gc = List.assoc name grids in
      Config.matrix c name ~block_rows:4 ~block_cols:bc ~grid_rows:gr ~grid_cols:gc)
    c dims

(* Reduced-scale configurations keep file-backend runs to kilobytes while
   preserving every block count (scale_down divides block dims only). *)
let examples =
  [ ("add_mul", Programs.add_mul (), Programs.scale_down ~factor:1000 Programs.table2,
     None);
    ("two_matmuls", Programs.two_matmuls (),
     Programs.scale_down ~factor:1000 Programs.table3_config_a, None);
    ("linear_regression", Programs.linear_regression (),
     Programs.scale_down ~factor:1000 Programs.table4, Some 2);
    ("pig_pipeline", Programs.pig_pipeline (),
     Programs.scale_down ~factor:1000 Programs.pig_config, None);
    ("dsl_pipeline", Parse.program ~name:"dsl_pipeline" dsl_pipeline_source,
     dsl_pipeline_config, Some 3) ]

(* Every distinct cost point of every example program, on the simulated
   backend: the measured per-array physical I/O equals the prediction. *)
let test_examples_sim () =
  List.iter
    (fun (name, prog, config, max_size) ->
      let opt = Api.optimize ?max_size prog ~config in
      List.iter
        (fun (p : Api.costed_plan) ->
          let ctx = Printf.sprintf "%s plan %d (sim)" name p.Api.plan.Search.index in
          check_predict_totals ~ctx p.Api.cplan;
          check_run ~ctx p.Api.cplan (sim_backend ()))
        (Api.distinct_cost_points opt))
    examples

(* The original and best plan of every example on the real-file backend:
   the same per-array equality must hold when bytes actually hit disk. *)
let test_examples_file () =
  List.iter
    (fun (name, prog, config, max_size) ->
      let opt = Api.optimize ?max_size prog ~config in
      List.iter
        (fun (p : Api.costed_plan) ->
          with_file_backend (fun backend ->
              check_run
                ~ctx:(Printf.sprintf "%s plan %d (file)" name p.Api.plan.Search.index)
                p.Api.cplan backend))
        [ Api.original opt; Api.best opt ])
    examples

(* A divergence must actually be reported: feed check a falsified actual. *)
let test_detects_divergence () =
  let prog = Programs.add_mul () in
  let config = Programs.scale_down ~factor:1000 Programs.table2 in
  let opt = Api.optimize prog ~config in
  let best = Api.best opt in
  let backend = sim_backend () in
  let r =
    Engine.run ~compute:false best.Api.cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:best.Api.cplan.Cplan.peak_memory
  in
  let skewed =
    List.map
      (fun (a : Cost_check.actual) -> { a with Cost_check.a_reads = a.Cost_check.a_reads + 1 })
      r.Engine.per_array
  in
  let report = Cost_check.check best.Api.cplan ~actual:skewed in
  Alcotest.(check bool) "skewed actuals flagged" false report.Cost_check.ok;
  Alcotest.(check bool) "each touched array diverges on reads"
    true
    (List.for_all
       (fun (d : Cost_check.divergence) -> d.Cost_check.d_counter = "reads")
       report.Cost_check.divergences
    && report.Cost_check.divergences <> [])

(* --- Random programs (property) ---------------------------------------------- *)

(* Opaque nests: each plan's phantom and computing runs on the simulated
   disk, and with [File] also on a real file, must match [Cost_check.predict]
   array by array. *)
let prop_random_cost_check =
  QCheck.Test.make ~name:"random programs: per-array I/O = prediction" ~count:25
    Test_random_programs.seed_gen (fun seed -> Test_differential.(holds (2 * seed)))

let prop_random_cost_check_file =
  QCheck.Test.make ~name:"random programs: per-array I/O = prediction (file backend)"
    ~count:8 Test_random_programs.seed_gen (fun seed ->
      Test_differential.(holds ~points:(fun _ _ -> [ at ~disk:File () ]) (2 * seed)))

let suite =
  ( "cost-check",
    [ Alcotest.test_case "examples: per-array I/O = prediction (sim)" `Quick
        test_examples_sim;
      Alcotest.test_case "examples: per-array I/O = prediction (file)" `Quick
        test_examples_file;
      Alcotest.test_case "divergences are detected" `Quick test_detects_divergence ]
    @ List.map QCheck_alcotest.to_alcotest
        [ prop_random_cost_check; prop_random_cost_check_file ] )
