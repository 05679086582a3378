(* riotshare: command-line front door.

     riotshare analyze  (--program NAME | --source FILE)
     riotshare optimize (--program NAME | --source FILE) [--config NAME]
                        [--mem-cap MB] [--max-size N] [--jobs N]
                        [--prune] [--budget S] [--stats]
     riotshare run      --program NAME [--config NAME] [--scale N] [--format daf|lab]
                        [--jobs N] [--budget S]
     riotshare codegen  (--program NAME | --source FILE) [--original]
     riotshare blocksize --program NAME --mem-cap MB
     riotshare check    (--program NAME | --source FILE) [--config NAME]
                        [--all-plans] [--exhaustive] [--budget S] [--strict]

   Built-in programs: add_mul (Example 1 / Section 6.1), two_matmuls
   (Section 6.2), linear_regression (Section 6.3), pig_pipeline
   (Section 6.4), dsl_pipeline (the frontend example).  Built-in configs:
   table2, table2_bigblock, table3a, table3b, table4.  A --source file uses
   the mini-Clan grammar (see lib/frontend/parse.mli) and requires --block
   layout directives of the form NAME:BROWSxBCOLS:GROWSxGCOLS. *)

module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Parse = Riot_frontend.Parse
module Config = Riot_ir.Config
module Engine = Riot_exec.Engine
module Cplan = Riot_plan.Cplan
module Cost_check = Riot_plan.Cost_check
module Fuse = Riot_plan.Fuse
module Trace = Riot_plan.Trace
module Block_store = Riot_storage.Block_store
module Backend = Riot_storage.Backend
module Io_stats = Riot_storage.Io_stats
module Failpoint = Riot_base.Failpoint

open Cmdliner

(* The frontend example (examples/dsl_pipeline.ml) as a builtin, so runs and
   cost checks cover a parsed program too, not just the hand-built IR. *)
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
  let c = Config.matrix c "M" ~block_rows:4000 ~block_cols:4000 ~grid_rows:8 ~grid_cols:2 in
  let c = Config.matrix c "N" ~block_rows:4000 ~block_cols:4000 ~grid_rows:8 ~grid_cols:2 in
  let c = Config.matrix c "S" ~block_rows:4000 ~block_cols:4000 ~grid_rows:8 ~grid_cols:2 in
  let c = Config.matrix c "T" ~block_rows:4000 ~block_cols:2000 ~grid_rows:8 ~grid_cols:2 in
  let c = Config.matrix c "G" ~block_rows:4000 ~block_cols:4000 ~grid_rows:2 ~grid_cols:2 in
  Config.matrix c "P" ~block_rows:4000 ~block_cols:2000 ~grid_rows:2 ~grid_cols:2

let builtin_programs =
  [ ("add_mul", (Programs.add_mul, Some Programs.table2));
    ("two_matmuls", (Programs.two_matmuls, Some Programs.table3_config_a));
    ("linear_regression", (Programs.linear_regression, Some Programs.table4));
    ("pig_pipeline", (Programs.pig_pipeline, Some Programs.pig_config));
    ("dsl_pipeline",
      ((fun () -> Parse.program ~name:"dsl_pipeline" dsl_pipeline_source),
        Some dsl_pipeline_config)) ]

let builtin_configs =
  [ ("table2", Programs.table2);
    ("table2_bigblock", Programs.table2_bigblock);
    ("table3a", Programs.table3_config_a);
    ("table3b", Programs.table3_config_b);
    ("table4", Programs.table4) ]

let parse_block_spec spec =
  (* NAME:BRxBC:GRxGC *)
  match String.split_on_char ':' spec with
  | [ name; b; g ] ->
      let dims s =
        match String.split_on_char 'x' s with
        | [ r; c ] -> (int_of_string r, int_of_string c)
        | _ -> failwith ("bad dims in --block " ^ spec)
      in
      let br, bc = dims b and gr, gc = dims g in
      (name, br, bc, gr, gc)
  | _ -> failwith ("bad --block spec " ^ spec)

let load_program ~program ~source =
  match (program, source) with
  | Some name, None -> (
      match List.assoc_opt name builtin_programs with
      | Some (f, cfg) -> (f (), cfg)
      | None ->
          failwith
            (Printf.sprintf "unknown program %s (have: %s)" name
               (String.concat ", " (List.map fst builtin_programs))))
  | None, Some file ->
      let ic = open_in file in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      (Parse.program ~name:(Filename.remove_extension (Filename.basename file)) src, None)
  | _ -> failwith "exactly one of --program or --source is required"

let resolve_config ~default ~config ~params ~blocks =
  match (config, blocks) with
  | Some name, [] -> (
      match List.assoc_opt name builtin_configs with
      | Some c -> c
      | None -> failwith ("unknown config " ^ name))
  | None, [] -> (
      match default with
      | Some c -> c
      | None -> failwith "--config or --block layout required for this program")
  | None, blocks ->
      let layouts =
        List.map
          (fun spec ->
            let name, br, bc, gr, gc = parse_block_spec spec in
            let l = { Config.grid = [| gr; gc |]; block_elems = [| br; bc |]; elem_size = 8 } in
            (* [total_bytes] computes every size product of a layout, so
               it overflows whenever one of them would. *)
            (match Config.total_bytes l with
            | _ -> ()
            | exception Riot_base.Checked.Overflow ->
                failwith
                  (Printf.sprintf "--block %s: the size of array %s overflows an integer"
                     spec name));
            (name, l))
          blocks
      in
      Config.make ~params ~layouts
  | Some _, _ :: _ -> failwith "--config and --block are mutually exclusive"

(* --- Common options --------------------------------------------------------- *)

let program_arg =
  Arg.(value & opt (some string) None & info [ "program"; "p" ] ~doc:"Built-in program name.")

let source_arg =
  Arg.(value & opt (some file) None & info [ "source"; "s" ] ~doc:"Mini-Clan source file.")

let config_arg =
  Arg.(value & opt (some string) None & info [ "config"; "c" ] ~doc:"Built-in configuration name.")

let param_arg =
  Arg.(
    value
    & opt_all (pair ~sep:'=' string int) []
    & info [ "param" ] ~doc:"Parameter binding NAME=VALUE (with --block).")

let block_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "block" ] ~doc:"Array layout NAME:BRxBC:GRxGC (with --source).")

let max_size_arg =
  let non_negative =
    Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "expected a non-negative integer, got %S" s)),
        Format.pp_print_int )
  in
  Arg.(
    value
    & opt (some non_negative) None
    & info [ "max-size" ]
        ~doc:"Cap the sharing-opportunity subset size ($(b,0): the original plan only).")

let mem_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-cap" ] ~doc:"Memory cap in MB for plan selection.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ]
        ~doc:
          "Domains for the parallel plan search and costing, and for the \
           row chunks of each large gemm when $(b,run) executes the plan \
           (default: $(b,RIOT_JOBS) or the machine's core count). Any value \
           produces the same plans, costs and output as --jobs 1.")

let budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget" ]
        ~doc:
          "Optimization time budget in seconds (anytime search): implies the \
           branch-and-bound searcher and returns the best verified plan \
           found within the budget.  Plan 0 is always costed, so any budget \
           yields a valid plan; larger budgets never yield worse plans.")

let prune_arg =
  Arg.(
    value & flag
    & info [ "prune" ]
        ~doc:
          "Use the branch-and-bound searcher with I/O lower-bound pruning \
           instead of exhaustive enumeration.  The best plan is bit-identical \
           to the exhaustive one; dominated candidates are skipped.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print optimizer profiling counters (candidates tried / pruned by \
           bound / pruned by Apriori / rejected by verification, components \
           decided by Fourier-Motzkin and budget give-ups among them, \
           samples drawn, time per phase, per-domain utilization) for the \
           exhaustive or, with $(b,--prune), the pruned search.")

let with_opt_stats stats f =
  let opt_stats =
    if stats then Some (Riot_optimizer.Opt_stats.create ()) else None
  in
  let r = f opt_stats in
  Option.iter
    (fun s ->
      Format.printf "@.optimizer stats:@.%a@." Riot_optimizer.Opt_stats.pp s)
    opt_stats;
  r

let handle f =
  try `Ok (f ()) with
  | Failure msg | Parse.Error msg -> `Error (false, msg)
  | Engine.Error e -> `Error (false, Engine.error_to_string e)
  | Riot_plan.Plan_verify.Rejected r ->
      `Error (false, Format.asprintf "@[<v>%a@]" Riot_plan.Plan_verify.pp_report r)
  | Backend.Io_error { op; stream; off; len; transient } ->
      `Error
        ( false,
          Printf.sprintf "%s I/O error: %s on %s at %d (len %d)"
            (if transient then "transient" else "fatal")
            (Backend.op_name op) stream off len )
  | Backend.Crash { op; stream } ->
      `Error
        (false, Printf.sprintf "simulated crash: %s on %s" (Backend.op_name op) stream)

(* --- analyze ------------------------------------------------------------------ *)

let analyze program source params =
  handle (fun () ->
      let prog, _ = load_program ~program ~source in
      let ref_params =
        if params <> [] then params
        else List.map (fun p -> (p, 4)) prog.Riot_ir.Program.params
      in
      let r = Riot_analysis.Deps.extract prog ~ref_params in
      Format.printf "%a@.@." Riot_ir.Program.pp prog;
      Format.printf "== dependences (%d) ==@." (List.length r.Riot_analysis.Deps.dependences);
      List.iter
        (fun ca -> Format.printf "  %s@." (Riot_analysis.Coaccess.label ca))
        r.Riot_analysis.Deps.dependences;
      Format.printf "== sharing opportunities (%d) ==@."
        (List.length r.Riot_analysis.Deps.sharing);
      List.iter
        (fun ca -> Format.printf "  %s@." (Riot_analysis.Coaccess.label ca))
        r.Riot_analysis.Deps.sharing)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Extract dependences and sharing opportunities.")
    Term.(ret (const analyze $ program_arg $ source_arg $ param_arg))

(* --- optimize ------------------------------------------------------------------ *)

let optimize program source config params blocks max_size mem_cap jobs budget
    prune stats explain =
  handle (fun () ->
      let prog, default = load_program ~program ~source in
      let config = resolve_config ~default ~config ~params ~blocks in
      let opt =
        with_opt_stats stats (fun opt_stats ->
            Api.optimize ?max_size ?jobs ?budget ~prune
              ?opt_stats prog ~config)
      in
      if not opt.Api.search_stats.Riot_optimizer.Search.complete then
        Format.printf "(budget expired: best plan found so far)@.";
      Format.printf "%a@.@." Api.pp_summary opt;
      let mem_cap_bytes = Option.map (fun mb -> mb * 1024 * 1024) mem_cap in
      let plan0 = Api.original opt in
      let best = Api.best ?mem_cap_bytes opt in
      Format.printf "original: %a@." Api.pp_costed plan0;
      Format.printf "best:     %a@." Api.pp_costed best;
      Format.printf "I/O saving: %.1f%%@."
        (100.
        *. (plan0.Api.predicted_io_seconds -. best.Api.predicted_io_seconds)
        /. plan0.Api.predicted_io_seconds);
      if explain then begin
        Format.printf "@.per-array block accesses of the best plan:@.";
        Format.printf "%-8s %-11s %-11s %-8s %-8s@." "array" "disk reads" "mem reads"
          "writes" "elided";
        List.iter
          (fun (e : Cost_check.expected) ->
            Format.printf "%-8s %-11d %-11d %-8d %-8d@." e.Cost_check.e_array
              e.Cost_check.e_reads e.Cost_check.e_mem_reads e.Cost_check.e_writes
              e.Cost_check.e_elided)
          (Cost_check.predict best.Api.cplan)
      end)

let optimize_cmd =
  Cmd.v
    (Cmd.info "optimize" ~doc:"Enumerate, cost and rank I/O-sharing plans.")
    Term.(
      ret
        (const optimize $ program_arg $ source_arg $ config_arg $ param_arg $ block_arg
        $ max_size_arg $ mem_cap_arg $ jobs_arg $ budget_arg $ prune_arg $ stats_arg
        $ Arg.(value & flag & info [ "explain" ] ~doc:"Per-array I/O breakdown.")))

(* --- run ----------------------------------------------------------------------- *)

let run program source config params blocks max_size jobs budget scale format mode
    io_mode trace stats_per_array check_cost failpoints =
  handle (fun () ->
      let prog, default = load_program ~program ~source in
      let config = resolve_config ~default ~config ~params ~blocks in
      let config = if scale > 1 then Programs.scale_down ~factor:scale config else config in
      let opt = Api.optimize ?max_size ?jobs ?budget prog ~config in
      if not opt.Api.search_stats.Riot_optimizer.Search.complete then
        Format.printf "(budget expired: running best plan found so far)@.";
      let best = Api.best opt in
      let format =
        match format with
        | "daf" -> Block_store.Daf_format
        | "lab" -> Block_store.Lab_format
        | f -> failwith ("unknown format " ^ f)
      in
      let exec_mode =
        match mode with
        | "simulate" -> None
        | "interpret" -> Some Engine.Interpret
        | "vector" -> Some Engine.Vector
        | m -> failwith ("unknown mode " ^ m ^ " (simulate, interpret or vector)")
      in
      let trace =
        match trace with
        | None -> None
        | Some "text" -> Some (Trace.text Format.err_formatter)
        | Some "jsonl" -> Some (Trace.jsonl prerr_endline)
        | Some t -> failwith ("unknown trace format " ^ t ^ " (text or jsonl)")
      in
      (* The cost check also diffs the run's whole trace against the plan's
         predicted stream. *)
      let measured = if check_cost then Some (Trace.collector ()) else None in
      let trace =
        match (trace, measured) with
        | Some t, Some (c, _) -> Some (Trace.tee t c)
        | None, Some (c, _) -> Some c
        | t, None -> t
      in
      let backend =
        Api.simulated_backend ~retain_data:(exec_mode <> None) opt.Api.machine
      in
      (* Parsed now, so a malformed spec fails before the run; armed only
         once a computing run's inputs are loaded, so loading sees no fault. *)
      let faults =
        Failpoint.reset ();
        let parse spec =
          try Failpoint.parse_spec spec with Invalid_argument msg -> failwith msg
        in
        match failpoints with
        | Some spec -> parse spec
        | None -> Option.fold ~none:[] ~some:parse (Failpoint.env_spec ())
      in
      let injecting = faults <> [] in
      let backend =
        if injecting then Backend.retrying (Backend.faulty backend) else backend
      in
      let exec backend =
        (* A computing run reads its Input arrays: give them deterministic
           contents, through the store handles the run then uses. *)
        let stores =
          if exec_mode = None then None
          else begin
            let stores = Engine.stores_for backend ~format ~config in
            Riotshare.Differential.load_inputs prog config stores;
            backend.Backend.sync ();
            Some stores
          end
        in
        List.iter (fun (name, trigger) -> Failpoint.arm name trigger) faults;
        match exec_mode with
        | None -> Api.execute ~compute:false ?trace ?jobs best ~backend ~format
        | Some m -> Api.execute ~compute:true ?stores ~mode:m ?trace ?jobs best ~backend ~format
      in
      let result =
        match io_mode with
        | "sync" -> exec backend
        | "async" -> Backend.with_async backend exec
        | m -> failwith ("unknown io-mode " ^ m ^ " (sync or async)")
      in
      Format.printf "executed: %a@." Api.pp_costed best;
      Format.printf
        "block reads: %d (%.1f MB), block writes: %d (%.1f MB)@.simulated I/O time: %.1f s, pool peak: %.1f MB@."
        result.Engine.reads
        (float_of_int result.Engine.bytes_read /. 1048576.)
        result.Engine.writes
        (float_of_int result.Engine.bytes_written /. 1048576.)
        result.Engine.virtual_io_seconds
        (float_of_int result.Engine.pool_peak_bytes /. 1048576.);
      if injecting then
        Format.printf "faults injected: %d, retries: %d@."
          backend.Backend.stats.Io_stats.faults_injected
          backend.Backend.stats.Io_stats.retries;
      if stats_per_array then begin
        Format.printf "@.per-array physical I/O:@.";
        Format.printf "%-10s %-8s %-12s %-8s %-12s@." "array" "reads" "MB read"
          "writes" "MB written";
        List.iter
          (fun (a : Riot_plan.Cost_check.actual) ->
            Format.printf "%-10s %-8d %-12.1f %-8d %-12.1f@."
              a.Riot_plan.Cost_check.a_array a.Riot_plan.Cost_check.a_reads
              (float_of_int a.Riot_plan.Cost_check.a_read_bytes /. 1048576.)
              a.Riot_plan.Cost_check.a_writes
              (float_of_int a.Riot_plan.Cost_check.a_write_bytes /. 1048576.)
          )
          result.Engine.per_array
      end;
      Option.iter
        (fun (_, collected) ->
          let report = Api.check_cost best result in
          Format.printf "@.%a" Cost_check.pp_report report;
          (* A fused run never materializes its link blocks. *)
          let links =
            if exec_mode = Some Engine.Vector then
              List.concat_map
                (fun (g : Fuse.group) -> g.Fuse.links)
                (Fuse.analyze best.Api.cplan)
            else []
          in
          let events = collected () in
          let divergence =
            Cplan.diff_trace ~links best.Api.cplan (List.to_seq events)
          in
          (match divergence with
          | None -> Format.printf "trace check: OK (%d events)@." (List.length events)
          | Some d -> Format.printf "trace check: %a@." Cplan.pp_divergence d);
          if not report.Cost_check.ok then
            failwith "cost check failed: executed I/O diverges from the plan's prediction";
          if divergence <> None then
            failwith "cost check failed: executed trace diverges from the plan's predicted stream")
        measured)

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Execute the best plan on the simulated disk.")
    Term.(
      ret
        (const run $ program_arg $ source_arg $ config_arg $ param_arg $ block_arg
        $ max_size_arg $ jobs_arg $ budget_arg
        $ Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Divide block dims by N.")
        $ Arg.(value & opt string "daf" & info [ "format" ] ~doc:"daf or lab.")
        $ Arg.(
            value
            & opt string "simulate"
            & info [ "mode" ]
                ~doc:
                  "$(b,simulate) (default): phantom run, I/O and memory only. \
                   $(b,interpret) / $(b,vector): write deterministic values \
                   into every input array of a data-retaining simulated disk, \
                   then run the kernels through the compiled plan, one step at a time \
                   ($(b,interpret)) or with element-wise runs fused into \
                   single passes over the tile ($(b,vector)).  The two modes \
                   are differentially equivalent: byte-identical outputs and \
                   identical physical I/O.")
        $ Arg.(
            value
            & opt string "sync"
            & info [ "io-mode" ]
                ~doc:
                  "$(b,sync) (default): every block request blocks the engine. \
                   $(b,async): route storage through a dedicated I/O domain — \
                   plan-driven read-ahead and write-behind with group commit \
                   overlap I/O with computation; outputs and physical request \
                   totals are identical to $(b,sync) by construction.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "trace" ] ~doc:"Stream execution events to stderr (text or jsonl).")
        $ Arg.(
            value & flag
            & info [ "stats-per-array" ] ~doc:"Print measured physical I/O per array.")
        $ Arg.(
            value & flag
            & info [ "check-cost" ]
                ~doc:
                  "Cross-validate the run against the plan's prediction: per-array \
                   physical I/O, and the whole event trace against the predicted \
                   stream (first diverging step named); non-zero exit on either \
                   divergence.")
        $ Arg.(
            value
            & opt (some string) None
            & info [ "failpoints" ]
                ~doc:
                  "Inject I/O faults during the run: a comma-separated list of \
                   NAME=TRIGGER pairs, e.g. \
                   $(b,backend.read.error=every:100,backend.write.error=prob:0.01:7). \
                   Triggers: $(b,always), $(b,nth:N), $(b,every:K), \
                   $(b,prob:P[:SEED]).  Transient faults are absorbed by the retry \
                   layer and reported; a $(b,backend.crash) failpoint aborts the \
                   run.  Defaults to $(b,RIOT_FAILPOINTS) when set.")))

(* --- check --------------------------------------------------------------------- *)

let check program source config params blocks max_size mem_cap jobs budget
    all_plans exhaustive strict =
  handle (fun () ->
      let module PV = Riot_plan.Plan_verify in
      let prog, default = load_program ~program ~source in
      let config = resolve_config ~default ~config ~params ~blocks in
      (* Pruned search by default: the surviving plans (always including the
         best) are what execution would ever touch.  --exhaustive restores
         the full enumeration for audit-style sweeps. *)
      let opt =
        Api.optimize ?max_size ?jobs ?budget ~prune:(not exhaustive) prog ~config
      in
      if not opt.Api.search_stats.Riot_optimizer.Search.complete then
        Format.printf "(budget expired: checking plans found so far)@.";
      let mem_cap_bytes = Option.map (fun mb -> mb * 1024 * 1024) mem_cap in
      let targets =
        if all_plans then opt.Api.plans else [ Api.best ?mem_cap_bytes opt ]
      in
      let bad = ref 0 in
      List.iter
        (fun (p : Api.costed_plan) ->
          let r = Engine.verify ~cap_bytes:p.Api.memory_bytes p.Api.cplan in
          Format.printf "plan %d: @[<v>%a@]@."
            p.Api.plan.Riot_optimizer.Search.index PV.pp_report r;
          if (not (PV.ok r)) || (strict && not (PV.is_clean r)) then incr bad)
        targets;
      if !bad > 0 then
        failwith
          (Printf.sprintf "%d of %d plan(s) failed static verification" !bad
             (List.length targets)))

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically verify plans: dataflow well-formedness, residency \
          safety, journal safety and fusion legality.  Non-zero exit on any \
          Error-severity diagnostic.")
    Term.(
      ret
        (const check $ program_arg $ source_arg $ config_arg $ param_arg
        $ block_arg $ max_size_arg $ mem_cap_arg $ jobs_arg $ budget_arg
        $ Arg.(
            value & flag
            & info [ "all-plans" ]
                ~doc:
                  "Verify every surviving plan, not just the best one.  Uses \
                   the pruned enumerator unless $(b,--exhaustive) is given.")
        $ Arg.(
            value & flag
            & info [ "exhaustive" ]
                ~doc:
                  "Disable branch-and-bound pruning and verify the full \
                   exhaustive plan enumeration.")
        $ Arg.(
            value & flag
            & info [ "strict" ] ~doc:"Treat warnings as failures too.")))

(* --- codegen ------------------------------------------------------------------- *)

let codegen program source config params blocks max_size original =
  handle (fun () ->
      let prog, default = load_program ~program ~source in
      let sched =
        if original then prog.Riot_ir.Program.original
        else begin
          let config = resolve_config ~default ~config ~params ~blocks in
          let opt = Api.optimize ?max_size prog ~config in
          let best = Api.best opt in
          Format.printf "// best plan: %a@." Api.pp_costed best;
          best.Api.plan.Riot_optimizer.Search.sched
        end
      in
      let ast = Riot_codegen.Codegen.generate prog ~sched in
      print_string (Riot_codegen.Codegen.to_c prog ast))

let codegen_cmd =
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit transformed C-style loop code for a plan.")
    Term.(
      ret
        (const codegen $ program_arg $ source_arg $ config_arg $ param_arg $ block_arg
        $ max_size_arg
        $ Arg.(value & flag & info [ "original" ] ~doc:"Use the original schedule.")))

(* --- blocksize ------------------------------------------------------------------ *)

let blocksize program source config params blocks max_size mem_cap jobs =
  handle (fun () ->
      let prog, default = load_program ~program ~source in
      let base = resolve_config ~default ~config ~params ~blocks in
      let mem_cap_bytes =
        match mem_cap with
        | Some mb -> mb * 1024 * 1024
        | None -> failwith "--mem-cap is required for block-size selection"
      in
      let choices, winner =
        Riotshare.Block_select.jointly_optimize ?max_size ?jobs prog ~base ~mem_cap_bytes
      in
      List.iter
        (fun (c : Riotshare.Block_select.choice) ->
          Format.printf "factor %d: %a@." c.Riotshare.Block_select.factor Api.pp_costed
            c.Riotshare.Block_select.best)
        choices;
      match winner with
      | Some w ->
          Format.printf "winner: blocking factor %d@." w.Riotshare.Block_select.factor
      | None -> Format.printf "no blocking fits the cap@.")

let blocksize_cmd =
  Cmd.v
    (Cmd.info "blocksize"
       ~doc:"Jointly select the block size and the sharing plan under a memory cap.")
    Term.(
      ret
        (const blocksize $ program_arg $ source_arg $ config_arg $ param_arg $ block_arg
        $ max_size_arg $ mem_cap_arg $ jobs_arg))

let () =
  (* The search allocates heavily (rational arithmetic, Farkas tableaux);
     with several domains every minor collection is a stop-the-world
     barrier, so the default 256k-word minor heap makes --jobs > 1 pay a
     barrier every few ms.  1M words cuts the barrier rate ~4x and measures
     fastest in the opttime sweep (bigger heaps start thrashing cache). *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1024 * 1024 };
  let info = Cmd.info "riotshare" ~version:"1.0.0" ~doc:"Polyhedral I/O-sharing optimizer." in
  exit
    (Cmd.eval
       (Cmd.group info
          [ analyze_cmd; optimize_cmd; run_cmd; check_cmd; codegen_cmd;
            blocksize_cmd ]))
