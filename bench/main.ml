(* The experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6) and prints paper-vs-measured rows.

   Usage:
     dune exec bench/main.exe              (all experiments, then microbenches)
     dune exec bench/main.exe EXP [...]    (a subset: table2 fig3a fig3b sec61
                                            table3 fig4 fig5 table4 fig6
                                            opttime costcheck validate gemm
                                            micro)
     dune exec bench/main.exe fig6-fast    (fig6 with the subset size capped)

   Absolute numbers come from the machine model calibrated on the paper's
   hardware (96/60 MB/s disk, ~45 GFLOP/s gemm); the claims under test are
   the shapes: which plan wins, by what factor, where the crossovers are. *)

module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config
module Program = Riot_ir.Program
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Opt_stats = Riot_optimizer.Opt_stats
module Cplan = Riot_plan.Cplan
module Machine = Riot_plan.Machine
module Engine = Riot_exec.Engine
module Block_store = Riot_storage.Block_store
module Backend = Riot_storage.Backend
module Dense = Riot_kernels.Dense

let machine = Machine.paper
let mb b = float_of_int b /. 1048576.
let gib b = float_of_int b /. 1073741824.

let section title =
  Printf.printf "\n=====================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=====================================================================\n%!"

let labels (p : Api.costed_plan) =
  List.sort compare (List.map Coaccess.label p.Api.plan.Search.q)

let find_plan opt lbls =
  List.find
    (fun p -> labels p = List.sort compare lbls)
    opt.Api.plans

(* Simulated-disk "actual" I/O time of a costed plan (phantom execution at
   full scale; per-request overhead makes it differ slightly from the linear
   prediction, like the paper's measurements).  Every phantom run also
   cross-validates the measured per-array I/O against the plan's prediction,
   so a silently broken cost model cannot produce a plausible-looking
   figure. *)
let actual_io (p : Api.costed_plan) =
  let backend = Api.simulated_backend ~retain_data:false machine in
  let r =
    Engine.run ~compute:false p.Api.cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:p.Api.memory_bytes
  in
  let report = Engine.check_cost r p.Api.cplan in
  if not report.Riot_plan.Cost_check.ok then
    Printf.printf "[COST-CHECK FAIL] plan %d: %s\n%!" p.Api.plan.Search.index
      (String.concat "; "
         (List.map
            (fun (d : Riot_plan.Cost_check.divergence) ->
              Printf.sprintf "%s.%s predicted %d actual %d" d.Riot_plan.Cost_check.d_array
                d.Riot_plan.Cost_check.d_counter d.Riot_plan.Cost_check.d_predicted
                d.Riot_plan.Cost_check.d_actual)
            report.Riot_plan.Cost_check.divergences));
  r.Engine.virtual_io_seconds

let pct a b = 100. *. (a -. b) /. a

(* Cached optimizations (several experiments reuse them). *)
let opt_add_mul = lazy (Api.optimize (Programs.add_mul ()) ~config:Programs.table2)

let opt_2mm_a =
  lazy (Api.optimize (Programs.two_matmuls ()) ~config:Programs.table3_config_a)

let opt_2mm_b =
  lazy (Api.optimize (Programs.two_matmuls ()) ~config:Programs.table3_config_b)

let fig6_max_size = ref None
let opt_linreg = ref None

let get_opt_linreg () =
  match !opt_linreg with
  | Some o -> o
  | None ->
      let o =
        Api.optimize ?max_size:!fig6_max_size (Programs.linear_regression ())
          ~config:Programs.table4
      in
      opt_linreg := Some o;
      o

(* --- Size-configuration tables (Tables 2-4) -------------------------------- *)

let print_config_table caption config rows =
  section caption;
  Printf.printf "%-10s %-16s %-10s %-12s\n" "Matrix" "Block size" "# Blocks" "Total size";
  List.iter
    (fun names ->
      let l = Config.layout config (List.hd names) in
      Printf.printf "%-10s %-16s %-10s %-12s\n"
        (String.concat "," names)
        (Printf.sprintf "%d x %d" l.Config.block_elems.(0) l.Config.block_elems.(1))
        (Printf.sprintf "%d x %d" l.Config.grid.(0) l.Config.grid.(1))
        (Printf.sprintf "%.1f GB" (gib (Config.total_bytes l))))
    rows

let table2 () =
  print_config_table "Table 2: matrix addition and multiplication - matrix sizes"
    Programs.table2
    [ [ "A"; "B"; "C" ]; [ "D" ]; [ "E" ] ]

let table3 () =
  print_config_table "Table 3 (Config A): two matrix multiplications"
    Programs.table3_config_a
    [ [ "A" ]; [ "B"; "D" ]; [ "C"; "E" ] ];
  print_config_table "Table 3 (Config B): two matrix multiplications"
    Programs.table3_config_b
    [ [ "A" ]; [ "B" ]; [ "C" ]; [ "D" ]; [ "E" ] ]

let table4 () =
  print_config_table "Table 4: linear regression - matrix sizes" Programs.table4
    [ [ "X" ]; [ "Y"; "Yh"; "E" ]; [ "U"; "W" ]; [ "V"; "Bh" ]; [ "R" ] ]

(* --- Figure 3: matrix addition and multiplication --------------------------- *)

let fig3a () =
  section "Figure 3(a): add+mul plan space (memory footprint vs predicted I/O time)";
  let opt = Lazy.force opt_add_mul in
  Printf.printf "%d sharing opportunities -> %d plans (%d distinct cost points; paper: 8 plans)\n\n"
    (List.length opt.Api.analysis.Deps.sharing)
    (List.length opt.Api.plans)
    (List.length (Api.distinct_cost_points opt));
  Printf.printf "%-6s %-12s %-12s %s\n" "plan" "mem (MB)" "I/O (s)" "realized opportunities";
  List.iter
    (fun (p : Api.costed_plan) ->
      Printf.printf "%-6d %-12.1f %-12.1f {%s}\n" p.Api.plan.Search.index
        (mb p.Api.memory_bytes) p.Api.predicted_io_seconds
        (String.concat "; " (labels p)))
    (Api.distinct_cost_points opt);
  (* The club-suit point: spend the extra memory on bigger blocks instead. *)
  let prog = Programs.add_mul () in
  let club =
    Cplan.build prog ~config:Programs.table2_bigblock
      ~sched:prog.Program.original ~realized:[]
  in
  Printf.printf "%-6s %-12.1f %-12.1f %s\n" "club"
    (mb club.Cplan.peak_memory)
    (Cplan.predicted_io_seconds machine club)
    "(9000-row blocks, no sharing - paper's club-suit)";
  let plan0 = Api.original opt and best = Api.best opt in
  Printf.printf
    "\npaper:    plan 0 = 2394 s, best plan = 836 s, footprints ~600-800 MB\n";
  Printf.printf "measured: plan 0 = %.0f s, best plan = %.0f s, footprints %.0f-%.0f MB\n"
    plan0.Api.predicted_io_seconds best.Api.predicted_io_seconds
    (mb plan0.Api.memory_bytes) (mb best.Api.memory_bytes);
  Printf.printf "club-suit uses %.0f MB > best plan's %.0f MB yet costs %.1fx its I/O (paper: same shape)\n"
    (mb club.Cplan.peak_memory) (mb best.Api.memory_bytes)
    (Cplan.predicted_io_seconds machine club /. best.Api.predicted_io_seconds)

let fig3b () =
  section "Figure 3(b): add+mul predicted vs actual I/O, plus CPU";
  let opt = Lazy.force opt_add_mul in
  Printf.printf "%-6s %-14s %-14s %-10s %-12s\n" "plan" "predicted I/O" "actual I/O"
    "err %" "CPU (s)";
  let errs = ref [] in
  List.iter
    (fun (p : Api.costed_plan) ->
      let a = actual_io p in
      let e = 100. *. abs_float (a -. p.Api.predicted_io_seconds) /. a in
      errs := e :: !errs;
      Printf.printf "%-6d %-14.1f %-14.1f %-10.2f %-12.1f\n" p.Api.plan.Search.index
        p.Api.predicted_io_seconds a e p.Api.predicted_cpu_seconds)
    (Api.distinct_cost_points opt);
  let avg = List.fold_left ( +. ) 0. !errs /. float_of_int (List.length !errs) in
  Printf.printf "\npaper:    average prediction error 1.7%%; CPU equal across plans\n";
  Printf.printf "measured: average prediction error %.1f%%; CPU equal across plans\n" avg

let sec61 () =
  section "Section 6.1: headline numbers and modeled comparators";
  let opt = Lazy.force opt_add_mul in
  let plan0 = Api.original opt and best = Api.best opt in
  let total p = p.Api.predicted_io_seconds +. p.Api.predicted_cpu_seconds in
  Printf.printf "%-34s %-14s %-14s\n" "" "paper" "measured";
  Printf.printf "%-34s %-14s %-14.0f\n" "original I/O time (s)" "2394" plan0.Api.predicted_io_seconds;
  Printf.printf "%-34s %-14s %-14.0f\n" "best plan I/O time (s)" "836" best.Api.predicted_io_seconds;
  Printf.printf "%-34s %-14s %-14.0f\n" "original total (s)" "3180" (total plan0);
  Printf.printf "%-34s %-14s %-14.0f\n" "best total (s)" "1560" (total best);
  Printf.printf "%-34s %-14s %-14.1f\n" "total improvement (%)" "50.9" (pct (total plan0) (total best));
  (* Modeled comparators (see DESIGN.md): neither system shares I/O.
     Matlab-like: operator-at-a-time, blocked, buffered file I/O (no
     O_DIRECT) and extra copy passes -> I/O x1.45; its in-core math is
     slightly better than ours (x0.94 CPU). Manually implementing our best
     plan in Matlab gets the best plan's I/O with that same CPU edge.
     SciDB-like: operator-at-a-time with unoptimized kernels (no BLAS: a
     naive single-thread triple loop is ~x60 slower than multi-core
     GotoBLAS) and chunk-map overheads on I/O. *)
  let matlab = (1.45 *. plan0.Api.predicted_io_seconds) +. (0.94 *. plan0.Api.predicted_cpu_seconds) in
  let matlab_manual = best.Api.predicted_io_seconds +. (0.94 *. best.Api.predicted_cpu_seconds) in
  let scidb = (2.0 *. plan0.Api.predicted_io_seconds) +. (60. *. plan0.Api.predicted_cpu_seconds) in
  Printf.printf "%-34s %-14s %-14.2f (modeled)\n" "Matlab blocked / best" "2.65" (matlab /. total best);
  Printf.printf "%-34s %-14s %-14.2f (modeled)\n" "Matlab manual-best / best" "0.94" (matlab_manual /. total best);
  Printf.printf "%-34s %-14s %-14.2f (modeled)\n" "SciDB / best" "33.08" (scidb /. total best)

(* --- Figures 4-5: two matrix multiplications --------------------------------- *)

let mm_plan1 =
  [ "s1.W.C -> s1.R.C"; "s1.W.C -> s1.W.C"; "s2.W.E -> s2.R.E"; "s2.W.E -> s2.W.E" ]

let mm_plan2 = "s1.R.A -> s2.R.A" :: mm_plan1
let mm_plan3 = [ "s1.R.A -> s2.R.A"; "s1.R.B -> s1.R.B"; "s2.R.D -> s2.R.D" ]

let fig45 caption opt =
  section caption;
  Printf.printf "%d sharing opportunities -> %d plans (paper: 9 opportunities, 40 plans)\n\n"
    (List.length opt.Api.analysis.Deps.sharing)
    (List.length opt.Api.plans);
  Printf.printf "plan space (distinct cost points):\n";
  Printf.printf "%-6s %-12s %-12s\n" "plan" "mem (MB)" "I/O (s)";
  List.iter
    (fun (p : Api.costed_plan) ->
      Printf.printf "%-6d %-12.1f %-12.1f\n" p.Api.plan.Search.index
        (mb p.Api.memory_bytes) p.Api.predicted_io_seconds)
    (Api.distinct_cost_points opt);
  Printf.printf "\nselected plans (the paper's Plans 0-3):\n";
  Printf.printf "%-8s %-12s %-14s %-14s %-8s\n" "plan" "mem (MB)" "predicted I/O"
    "actual I/O" "err %";
  List.iteri
    (fun i lbls ->
      match (try Some (find_plan opt lbls) with Not_found -> None) with
      | None -> Printf.printf "Plan %d: (not found)\n" i
      | Some p ->
          let a = actual_io p in
          Printf.printf "Plan %-3d %-12.1f %-14.1f %-14.1f %-8.2f\n" i
            (mb p.Api.memory_bytes) p.Api.predicted_io_seconds a
            (100. *. abs_float (a -. p.Api.predicted_io_seconds) /. a))
    [ []; mm_plan1; mm_plan2; mm_plan3 ];
  let best = Api.best opt in
  Printf.printf "\nbest plan overall: %d with I/O %.0f s {%s}\n" best.Api.plan.Search.index
    best.Api.predicted_io_seconds
    (String.concat "; " (labels best))

let fig4 () = fig45 "Figure 4: two matmuls, Config A" (Lazy.force opt_2mm_a)
let fig5 () = fig45 "Figure 5: two matmuls, Config B" (Lazy.force opt_2mm_b)

let fig45_crossover () =
  section "Figures 4-5: configuration-dependent winner (paper's key observation)";
  let a = Lazy.force opt_2mm_a and b = Lazy.force opt_2mm_b in
  let io opt lbls = (find_plan opt lbls).Api.predicted_io_seconds in
  Printf.printf "Config A: Plan 2 = %.0f s vs Plan 3 = %.0f s -> Plan %s wins (paper: Plan 2)\n"
    (io a mm_plan2) (io a mm_plan3)
    (if io a mm_plan2 < io a mm_plan3 then "2" else "3");
  Printf.printf "Config B: Plan 2 = %.0f s vs Plan 3 = %.0f s -> Plan %s wins (paper: Plan 3)\n"
    (io b mm_plan2) (io b mm_plan3)
    (if io b mm_plan2 < io b mm_plan3 then "2" else "3")

(* --- Figure 6: linear regression ---------------------------------------------- *)

let linreg_plan1 =
  [ "s1.W.U -> s1.R.U"; "s1.W.U -> s1.W.U"; "s2.W.V -> s2.R.V"; "s2.W.V -> s2.W.V" ]

let fig6 () =
  section "Figure 6: linear regression plan space and selected plans";
  let opt = get_opt_linreg () in
  Printf.printf
    "%d sharing opportunities (paper: 16) -> %d plans; search: %d candidates in %.1f s%s\n\n"
    (List.length opt.Api.analysis.Deps.sharing)
    (List.length opt.Api.plans) opt.Api.search_stats.Search.candidates_tried
    opt.Api.search_stats.Search.elapsed
    (match !fig6_max_size with
    | None -> ""
    | Some k -> Printf.sprintf " (subset size capped at %d)" k);
  Printf.printf "plan space (distinct cost points):\n";
  Printf.printf "%-6s %-12s %-12s\n" "plan" "mem (MB)" "I/O (s)";
  List.iter
    (fun (p : Api.costed_plan) ->
      Printf.printf "%-6d %-12.1f %-12.1f\n" p.Api.plan.Search.index
        (mb p.Api.memory_bytes) p.Api.predicted_io_seconds)
    (Api.distinct_cost_points opt);
  let plan0 = Api.original opt in
  let plan1 =
    try Some (find_plan opt linreg_plan1) with Not_found -> None
  in
  let best = Api.best opt in
  Printf.printf "\nselected plans:\n";
  Printf.printf "%-8s %-12s %-14s %-14s %-8s\n" "plan" "mem (MB)" "predicted I/O"
    "actual I/O" "err %";
  List.iter
    (fun (name, po) ->
      match po with
      | None -> Printf.printf "%-8s (not found)\n" name
      | Some (p : Api.costed_plan) ->
          let a = actual_io p in
          Printf.printf "%-8s %-12.1f %-14.1f %-14.1f %-8.2f\n" name
            (mb p.Api.memory_bytes) p.Api.predicted_io_seconds a
            (100. *. abs_float (a -. p.Api.predicted_io_seconds) /. a))
    [ ("Plan 0", Some plan0); ("Plan 1", plan1); ("Plan 2", Some best) ];
  let total p = p.Api.predicted_io_seconds +. p.Api.predicted_cpu_seconds in
  Printf.printf "\npaper:    best plan uses +6.0%% memory, saves 43.8%% of I/O, 27.0%% of total\n";
  Printf.printf "measured: best plan uses %+.1f%% memory, saves %.1f%% of I/O, %.1f%% of total\n"
    (100.
    *. float_of_int (best.Api.memory_bytes - plan0.Api.memory_bytes)
    /. float_of_int plan0.Api.memory_bytes)
    (pct plan0.Api.predicted_io_seconds best.Api.predicted_io_seconds)
    (pct (total plan0) (total best));
  Printf.printf "best plan: {%s}\n" (String.concat "; " (labels best));
  Printf.printf "X-scan shared between X'X and X'Y: %b (the paper's explanation)\n"
    (List.mem "s1.R.X -> s2.R.X" (labels best))

(* --- Optimization time --------------------------------------------------------- *)

let jobs_flag = ref None

(* One optimization-time measurement: a fresh exhaustive sequential run (the
   correctness reference and the speedup baseline), then fresh branch-and-
   bound runs at each jobs setting.  The B&B best plan must be bit-identical
   to the exhaustive best at every jobs (labels, I/O cost, memory), and the
   full B&B result — surviving plans, costs and every pruning counter — must
   be identical across jobs; a mismatch fails the harness. *)
type opttime_row = {
  ot_name : string;
  ot_paper : string;
  ot_gated : bool;  (* a paper pipeline: counts toward the speedup/pruning gates *)
  ot_exhaustive : float;  (* exhaustive sequential wall seconds *)
  ot_bb : (int * float) list;  (* jobs -> branch-and-bound wall seconds *)
  ot_plans : int;  (* exhaustive plan count *)
  ot_survivors : int;  (* plans surviving the bound *)
  ot_tried : int;
  ot_bound_pruned : int;
  ot_apriori_pruned : int;
  ot_opps : int;
  ot_fm_components : int;  (* components Fourier-Motzkin decided, one B&B search *)
  ot_fm_giveups : int;  (* of those, answered by the inequality-budget give-up *)
  ot_samples_drawn : int;  (* (component, window) samples drawn, one B&B search *)
  ot_ex_fm_components : int;  (* the same three counters for the exhaustive search *)
  ot_ex_fm_giveups : int;
  ot_ex_samples_drawn : int;
  ot_alloc_words : float;  (* minor words of one warm jobs=1 B&B optimize *)
  ot_alloc_repeats : bool;  (* ... and the next call allocated exactly as much *)
  ot_identical : bool;
}

let plan_signature (opt : Api.t) =
  List.map
    (fun (p : Api.costed_plan) ->
      (p.Api.plan.Search.index, labels p, p.Api.predicted_io_seconds, p.Api.memory_bytes))
    opt.Api.plans

let best_signature (opt : Api.t) =
  let b = Api.best opt in
  (labels b, b.Api.predicted_io_seconds, b.Api.memory_bytes)

let bb_signature (opt : Api.t) =
  ( plan_signature opt,
    opt.Api.search_stats.Search.candidates_tried,
    opt.Api.search_stats.Search.pruned,
    opt.Api.search_stats.Search.bound_pruned,
    opt.Api.search_stats.Search.verify_rejected )

(* jobs=2 always runs (the gates are defined on it); --jobs N adds a run. *)
let opttime_jobs () =
  List.sort_uniq compare
    (match !jobs_flag with Some j -> [ 1; 2; 4; j ] | None -> [ 1; 2; 4 ])

(* The search's work counters: components decided, give-ups among them,
   samples drawn. *)
let work_counters s =
  ( Atomic.get s.Opt_stats.fm_components,
    Atomic.get s.Opt_stats.fm_giveups,
    Atomic.get s.Opt_stats.samples_drawn )

let opttime_measure ?max_size ~gated name paper prog config =
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let s_ex = Opt_stats.create () in
  let o_ex, t_ex =
    time (fun () -> Api.optimize ~jobs:1 ?max_size ~opt_stats:s_ex prog ~config)
  in
  let runs =
    List.map
      (fun j ->
        let s = Opt_stats.create () in
        let o, t =
          time (fun () ->
              Api.optimize ~prune:true ~jobs:j ?max_size ~opt_stats:s prog ~config)
        in
        (j, (o, work_counters s), t))
      (opttime_jobs ())
  in
  (* The work counters are deterministic, so they join the signature. *)
  let identical =
    List.for_all (fun (_, (o, _), _) -> best_signature o = best_signature o_ex) runs
    &&
    match runs with
    | (_, (o1, w1), _) :: rest ->
        List.for_all (fun (_, (o, w), _) -> bb_signature o = bb_signature o1 && w = w1) rest
    | [] -> true
  in
  let _, (o_bb, (fm, giveups, sampled)), _ = List.hd runs in
  let ex_fm, ex_giveups, ex_sampled = work_counters s_ex in
  (* Allocation of one jobs=1 search, warm after the runs above.  The minor
     word counter is per domain (OCaml 5), and jobs=1 runs the whole search
     on this one, so the count repeats exactly unless the search's work
     does not. *)
  let alloc () =
    let w0 = Gc.minor_words () in
    ignore (Api.optimize ~prune:true ~jobs:1 ?max_size prog ~config);
    Gc.minor_words () -. w0
  in
  let alloc_words = alloc () in
  let alloc_repeats = alloc () = alloc_words in
  { ot_name = name;
    ot_paper = paper;
    ot_gated = gated;
    ot_exhaustive = t_ex;
    ot_bb = List.map (fun (j, _, t) -> (j, t)) runs;
    ot_plans = List.length o_ex.Api.plans;
    ot_survivors = List.length o_bb.Api.plans;
    ot_tried = o_bb.Api.search_stats.Search.candidates_tried;
    ot_bound_pruned = o_bb.Api.search_stats.Search.bound_pruned;
    ot_apriori_pruned = o_bb.Api.search_stats.Search.pruned;
    ot_opps = List.length o_ex.Api.analysis.Deps.sharing;
    ot_fm_components = fm;
    ot_fm_giveups = giveups;
    ot_samples_drawn = sampled;
    ot_ex_fm_components = ex_fm;
    ot_ex_fm_giveups = ex_giveups;
    ot_ex_samples_drawn = ex_sampled;
    ot_alloc_words = alloc_words;
    ot_alloc_repeats = alloc_repeats;
    ot_identical = identical }

(* HEAD, suffixed "+dirty" when lib/ (the code every bench measures) has
   uncommitted changes, so a row measured before a commit is not filed under
   its parent. *)
let git_commit () =
  let first_line cmd =
    try
      let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some line
      | _ -> None
    with Unix.Unix_error _ | Sys_error _ -> None
  in
  match first_line "git rev-parse --short=12 HEAD" with
  | Some id when id <> "" -> (
      match first_line "git status --porcelain -- :/lib" with
      | Some "" -> id
      | Some _ -> id ^ "+dirty"
      | None -> id)
  | _ -> "unknown"

(* The fields every BENCH_*.json row opens with: bench, variant, commit,
   nproc, OCaml version and timestamp.  Metrics follow as
   [{"value": v, "unit": u}] objects. *)
let row_header ~bench ~variant =
  Printf.sprintf
    "\"bench\": %S, \"variant\": %S, \"commit\": %S, \"nproc\": %d, \"ocaml\": %S, \
     \"timestamp\": %.0f"
    bench variant (git_commit ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (Unix.time ())

let metric name value unit = Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name value unit

let opttime_json_file = "BENCH_opttime.json"

let opttime_speedup r jobs =
  match List.assoc_opt jobs r.ot_bb with
  | Some t when t > 0. -> Some (r.ot_exhaustive /. t)
  | _ -> None

(* Aggregate speedup over the gated (paper-pipeline) rows: total exhaustive
   wall over total B&B wall at the given jobs — the per-row ratios weighted
   by how long each search actually takes. *)
let opttime_aggregate rows jobs =
  let gated = List.filter (fun r -> r.ot_gated) rows in
  let ex = List.fold_left (fun a r -> a +. r.ot_exhaustive) 0. gated in
  let bb =
    List.fold_left
      (fun a r ->
        a +. match List.assoc_opt jobs r.ot_bb with Some t -> t | None -> 0.)
      0. gated
  in
  if bb > 0. then ex /. bb else 1.

let opttime_emit ~variant ~speedup_floor rows =
  Printf.printf
    "%-28s %-9s %-10s %-8s %-8s %-8s %-9s %-11s %-9s %-8s %-13s %-11s %-13s %-10s %s\n"
    "program" "paper(s)" "exhaust." "bb j=1" "bb j=2" "bb j=4" "speedup"
    "survivors" "bound-p" "apriori" "fm-comp/ex" "giveups/ex" "samples/ex" "alloc Mw"
    "identical";
  List.iter
    (fun r ->
      let bb j =
        match List.assoc_opt j r.ot_bb with
        | Some t -> Printf.sprintf "%.1f" t
        | None -> "-"
      in
      let pair a b = Printf.sprintf "%d/%d" a b in
      Printf.printf
        "%-28s %-9s %-10.1f %-8s %-8s %-8s %-9s %d/%-9d %-9d %-8d %-13s %-11s %-13s %-10s %s\n"
        r.ot_name r.ot_paper r.ot_exhaustive (bb 1) (bb 2) (bb 4)
        (match opttime_speedup r 2 with
        | Some s -> Printf.sprintf "%.2fx" s
        | None -> "-")
        r.ot_survivors r.ot_plans r.ot_bound_pruned r.ot_apriori_pruned
        (pair r.ot_fm_components r.ot_ex_fm_components)
        (pair r.ot_fm_giveups r.ot_ex_fm_giveups)
        (pair r.ot_samples_drawn r.ot_ex_samples_drawn)
        (Printf.sprintf "%.1f%s" (r.ot_alloc_words /. 1e6)
           (if r.ot_alloc_repeats then "" else " [FAIL]"))
        (if r.ot_identical then "yes" else "NO [FAIL]"))
    rows;
  let agg = opttime_aggregate rows 2 in
  Printf.printf
    "\naggregate speedup on the paper pipelines (jobs=2 vs exhaustive seq): %.2fx\n"
    agg;
  (* Machine-readable trajectory: each run appends one row in the common
     schema, so the file accumulates a cross-run history (one per line). *)
  let row_metrics r =
    let m key value unit = metric (r.ot_name ^ "." ^ key) value unit in
    let count key v = m key (string_of_int v) "count" in
    [ m "exhaustive_seconds" (Printf.sprintf "%.3f" r.ot_exhaustive) "s" ]
    @ List.map
        (fun (j, t) -> m (Printf.sprintf "bb_seconds_jobs%d" j) (Printf.sprintf "%.3f" t) "s")
        r.ot_bb
    @ [ m "speedup_jobs2"
          (match opttime_speedup r 2 with Some s -> Printf.sprintf "%.3f" s | None -> "null")
          "ratio";
        count "plans" r.ot_plans;
        count "survivors" r.ot_survivors;
        count "candidates_tried" r.ot_tried;
        count "bound_pruned" r.ot_bound_pruned;
        count "apriori_pruned" r.ot_apriori_pruned;
        count "fm_components" r.ot_fm_components;
        count "fm_giveups" r.ot_fm_giveups;
        count "samples_drawn" r.ot_samples_drawn;
        count "exhaustive_fm_components" r.ot_ex_fm_components;
        count "exhaustive_fm_giveups" r.ot_ex_fm_giveups;
        count "exhaustive_samples_drawn" r.ot_ex_samples_drawn;
        m "alloc_words_jobs1" (Printf.sprintf "%.0f" r.ot_alloc_words) "words";
        count "search_space" (1 lsl r.ot_opps) ]
  in
  let identical = List.for_all (fun r -> r.ot_identical) rows
  and alloc_repeats = List.for_all (fun r -> r.ot_alloc_repeats) rows
  and pruning = List.for_all (fun r -> (not r.ot_gated) || r.ot_bound_pruned > 0) rows in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 opttime_json_file
  in
  Printf.fprintf oc
    "{%s, \"programs\": {%s}, \"metrics\": {%s}, \"gates\": {\"identical_best\": %b, \
     \"alloc_repeats\": %b, \"bound_pruning\": %b, \"speedup_floor\": %b}}\n"
    (row_header ~bench:"opttime" ~variant)
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%S: {\"paper_seconds\": %s, \"gated\": %b}" r.ot_name r.ot_paper
              r.ot_gated)
          rows))
    (String.concat ", "
       (metric "aggregate_speedup_jobs2" (Printf.sprintf "%.3f" agg) "ratio"
       :: List.concat_map row_metrics rows))
    identical alloc_repeats pruning (agg >= speedup_floor);
  close_out oc;
  Printf.printf "(appended to %s)\n" opttime_json_file;
  (* Gates: best-plan bit-identity everywhere, a repeatable allocation
     count, pruning actually firing on the gated pipelines, and a
     wall-clock floor for the pruned search. *)
  if List.exists (fun r -> not r.ot_identical) rows then
    failwith "opttime: branch-and-bound result diverged from exhaustive";
  List.iter
    (fun r ->
      if not r.ot_alloc_repeats then
        failwith
          (Printf.sprintf "opttime: two warm jobs=1 searches of %s allocated differently"
             r.ot_name))
    rows;
  List.iter
    (fun r ->
      if r.ot_gated && r.ot_bound_pruned = 0 then
        failwith
          (Printf.sprintf "opttime: no bound-pruned candidates on %s" r.ot_name))
    rows;
  if agg < speedup_floor then
    failwith
      (Printf.sprintf
         "opttime: aggregate jobs=2 speedup %.2fx below the %.1fx gate" agg
         speedup_floor)

let opttime () =
  section "Optimization time (Section 6, 'A Note on Optimization Time')";
  let rows =
    [ opttime_measure ~gated:false "add+mul (6.1)" "0.6" (Programs.add_mul ())
        Programs.table2;
      opttime_measure ~gated:true "two matmuls (6.2)" "2.1"
        (Programs.two_matmuls ()) Programs.table3_config_a;
      (* k<=4 here, not the unbounded subset size: the paper itself prunes
         94% of this space before enumerating, and the cone bound only
         closes when few savings remain outside the candidate (at k=17 the
         complement allowance swallows every incumbent, so nothing prunes
         pre-Farkas and branch-and-bound degenerates to exhaustive plus
         overhead).  The unbounded space is what `--budget` is for.  The
         cap matches fig6-fast's. *)
      opttime_measure ~gated:true
        ~max_size:(Option.value ~default:4 !fig6_max_size)
        "linear regression (6.3, k<=4)" "156.7"
        (Programs.linear_regression ()) Programs.table4 ]
  in
  opttime_emit ~variant:"full" ~speedup_floor:1.5 rows;
  Printf.printf
    "\n(The paper prunes 94%% of the linear-regression search space; its optimizer\n";
  Printf.printf
    " is single-threaded Python, ours is OCaml, so wall times are comparable\n";
  Printf.printf " only in shape.)\n"

(* Fast pruning + determinism smoke for @runtest-quick: small search spaces
   only.  Asserts bound pruning fires on the regression pipeline and that
   branch-and-bound clears a modest aggregate speedup floor at smoke sizes. *)
let opttime_smoke () =
  section "Optimization time (smoke): branch-and-bound pruning and determinism";
  let rows =
    [ opttime_measure ~gated:false "add+mul (6.1)" "0.6" (Programs.add_mul ())
        Programs.table2;
      opttime_measure ~gated:true ~max_size:2 "two matmuls (6.2, k<=2)" "2.1"
        (Programs.two_matmuls ()) Programs.table3_config_a;
      opttime_measure ~gated:true ~max_size:2 "linear regression (6.3, k<=2)"
        "156.7" (Programs.linear_regression ()) Programs.table4 ]
  in
  opttime_emit ~variant:"smoke" ~speedup_floor:1.2 rows

(* --- Validation: real execution at reduced scale -------------------------------- *)

let validate () =
  section "Validation: reduced-scale real-data execution of every program";
  let sim_backend () =
    Backend.sim ~read_bw:machine.Machine.read_bw ~write_bw:machine.Machine.write_bw
      ~request_overhead:machine.Machine.request_overhead ()
  in
  (* add_mul at 1/100 scale: every plan must produce the dense reference. *)
  let prog = Programs.add_mul () in
  let config = Programs.scale_down ~factor:100 Programs.table2 in
  let opt = Api.optimize prog ~config in
  let st = Random.State.make [| 20120827 |] in
  let layout name = Config.layout config name in
  let full l =
    Array.init
      (l.Config.grid.(0) * l.Config.block_elems.(0) * l.Config.grid.(1) * l.Config.block_elems.(1))
      (fun _ -> Random.State.float st 2. -. 1.)
  in
  let a_full = full (layout "A") and b_full = full (layout "B") and d_full = full (layout "D") in
  let scatter stores name data =
    let l = layout name in
    let bc = l.Config.block_elems.(1) in
    let cols = l.Config.grid.(1) * bc in
    for bi = 0 to l.Config.grid.(0) - 1 do
      for bj = 0 to l.Config.grid.(1) - 1 do
        Block_store.write_floats (List.assoc name stores) [ bi; bj ]
          (Array.init
             (l.Config.block_elems.(0) * bc)
             (fun e ->
               let r = (bi * l.Config.block_elems.(0)) + (e / bc)
               and c = (bj * bc) + (e mod bc) in
               data.((r * cols) + c)))
      done
    done
  in
  let gather stores name =
    let l = layout name in
    let bc = l.Config.block_elems.(1) in
    let cols = l.Config.grid.(1) * bc in
    let out = Array.make (l.Config.grid.(0) * l.Config.block_elems.(0) * cols) 0. in
    for bi = 0 to l.Config.grid.(0) - 1 do
      for bj = 0 to l.Config.grid.(1) - 1 do
        Array.iteri
          (fun e v ->
            let r = (bi * l.Config.block_elems.(0)) + (e / bc)
            and c = (bj * bc) + (e mod bc) in
            out.((r * cols) + c) <- v)
          (Block_store.read_floats (List.assoc name stores) [ bi; bj ])
      done
    done;
    out
  in
  let la = layout "A" in
  let ra = la.Config.grid.(0) * la.Config.block_elems.(0) in
  let ca = la.Config.grid.(1) * la.Config.block_elems.(1) in
  let ld = layout "D" in
  let cd = ld.Config.grid.(1) * ld.Config.block_elems.(1) in
  let c_full = Array.make (ra * ca) 0. in
  Dense.add a_full b_full c_full;
  let e_ref = Array.make (ra * cd) 0. in
  Dense.gemm ~accumulate:false ~ta:false ~tb:false ~m:ra ~n:cd ~k:ca ~a:c_full
    ~b:d_full ~c:e_ref;
  let all_ok = ref true in
  let io_exact = ref true in
  List.iter
    (fun (p : Api.costed_plan) ->
      let backend = sim_backend () in
      let stores = Engine.stores_for backend ~format:Block_store.Daf_format ~config in
      scatter stores "A" a_full;
      scatter stores "B" b_full;
      scatter stores "D" d_full;
      Riot_storage.Io_stats.reset backend.Backend.stats;
      let r = Api.execute p ~stores ~backend ~format:Block_store.Daf_format in
      let e = gather stores "E" in
      let ok =
        Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-9 *. (1. +. abs_float x)) e e_ref
      in
      if not ok then all_ok := false;
      if r.Engine.reads <> p.Api.cplan.Cplan.read_ops
         || r.Engine.writes <> p.Api.cplan.Cplan.write_ops
         || not (Api.check_cost p r).Riot_plan.Cost_check.ok
      then io_exact := false)
    opt.Api.plans;
  Printf.printf
    "add_mul: %d plans executed on real data: results %s, I/O counts %s\n"
    (List.length opt.Api.plans)
    (if !all_ok then "all bit-identical to dense reference [PASS]" else "[FAIL]")
    (if !io_exact then "all equal to prediction, per array [PASS]" else "[FAIL]");
  (* LAB-tree format spot check. *)
  let backend = sim_backend () in
  let stores = Engine.stores_for backend ~format:Block_store.Lab_format ~config in
  scatter stores "A" a_full;
  scatter stores "B" b_full;
  scatter stores "D" d_full;
  let best = Api.best opt in
  ignore (Api.execute best ~stores ~backend ~format:Block_store.Lab_format);
  let e = gather stores "E" in
  let ok =
    Array.for_all2 (fun x y -> abs_float (x -. y) <= 1e-9 *. (1. +. abs_float x)) e e_ref
  in
  Printf.printf "add_mul best plan on LAB-tree storage: %s\n"
    (if ok then "[PASS]" else "[FAIL]")

(* --- Cost-model cross-validation (Figure 3(b) property, per array) ---------------- *)

let costcheck () =
  section "Cost-model cross-validation: predicted vs measured I/O, per array";
  Printf.printf
    "(Every distinct cost point of every benchmark program, phantom-executed at\n";
  Printf.printf
    " full scale; the executed physical I/O must equal the plan's prediction\n";
  Printf.printf " exactly, array by array - the paper's Figure 3(b) property.)\n\n";
  let suites =
    [ ("add_mul", Lazy.force opt_add_mul);
      ("two_matmuls A", Lazy.force opt_2mm_a);
      ("two_matmuls B", Lazy.force opt_2mm_b);
      ("linear_regression", get_opt_linreg ());
      ("pig_pipeline",
        Api.optimize (Programs.pig_pipeline ()) ~config:Programs.pig_config) ]
  in
  List.iter
    (fun (name, opt) ->
      let plans = Api.distinct_cost_points opt in
      let bad = ref 0 and arrays = ref 0 in
      List.iter
        (fun (p : Api.costed_plan) ->
          let backend = Api.simulated_backend ~retain_data:false machine in
          let r =
            Engine.run ~compute:false p.Api.cplan ~backend
              ~format:Block_store.Daf_format ~mem_cap:p.Api.memory_bytes
          in
          let report = Engine.check_cost r p.Api.cplan in
          arrays := !arrays + List.length report.Riot_plan.Cost_check.rows;
          if not report.Riot_plan.Cost_check.ok then incr bad)
        plans;
      Printf.printf "%-20s %3d plans, %4d per-array rows checked: %s\n" name
        (List.length plans) !arrays
        (if !bad = 0 then "all exact [PASS]"
         else Printf.sprintf "%d plans diverge [FAIL]" !bad))
    suites

(* --- Ablations (beyond the paper) ------------------------------------------------ *)

let ablation_lru () =
  section "Ablation: planned sharing vs an opportunistic LRU buffer pool";
  Printf.printf
    "(The paper's related work argues buffer pools are low-level and opportunistic;
";
  Printf.printf
    " here the original schedule runs over a plain LRU pool sized like the best plan.)

";
  let opt = Lazy.force opt_add_mul in
  let plan0 = Api.original opt and best = Api.best opt in
  let lru mem (p : Api.costed_plan) =
    let backend = Api.simulated_backend ~retain_data:false machine in
    Engine.run_opportunistic p.Api.cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:mem
  in
  let r_small = lru plan0.Api.memory_bytes plan0 in
  let r_big = lru best.Api.memory_bytes plan0 in
  Printf.printf "%-44s %-12s %-12s
" "executor (add+mul, Table 2 sizes)" "I/O (s)" "mem (MB)";
  Printf.printf "%-44s %-12.0f %-12.1f
" "original plan, exact (no caching)"
    plan0.Api.predicted_io_seconds (mb plan0.Api.memory_bytes);
  Printf.printf "%-44s %-12.0f %-12.1f
" "original plan + LRU pool (same memory)"
    r_small.Engine.virtual_io_seconds (mb plan0.Api.memory_bytes);
  Printf.printf "%-44s %-12.0f %-12.1f
" "original plan + LRU pool (best plan's memory)"
    r_big.Engine.virtual_io_seconds (mb best.Api.memory_bytes);
  Printf.printf "%-44s %-12.0f %-12.1f
" "RIOTShare best plan (planned sharing)"
    best.Api.predicted_io_seconds (mb best.Api.memory_bytes);
  Printf.printf
    "
LRU with the best plan's memory recovers %.0f%% of the optimizer's savings.
"
    (100.
    *. (plan0.Api.predicted_io_seconds -. r_big.Engine.virtual_io_seconds)
    /. (plan0.Api.predicted_io_seconds -. best.Api.predicted_io_seconds))

let ablation_blocksize () =
  section "Extension: joint block-size and sharing optimization (paper Section 7)";
  let prog = Programs.add_mul () in
  Printf.printf
    "(Refining blocks multiplies re-reads - bigger blocks amortise passes - but
";
  Printf.printf
    " divides per-block memory: under tight caps only refined blockings have any
";
  Printf.printf
    " feasible plan at all, and the optimizer picks the coarsest blocking that fits.)

";
  Printf.printf "%-12s %-10s %-14s %-12s %-30s
" "cap (MB)" "factor" "best I/O (s)"
    "mem (MB)" "realized";
  List.iter
    (fun cap_mb ->
      let cap = cap_mb * 1024 * 1024 in
      let choices, winner =
        Riotshare.Block_select.jointly_optimize prog ~base:Programs.table2
          ~mem_cap_bytes:cap ~max_factor:4
      in
      (match
         List.find_opt (fun (c : Riotshare.Block_select.choice) -> c.factor = 1) choices
       with
      | Some base ->
          Printf.printf "%-12d %-10d %-14.0f %-12.1f {%s}
" cap_mb 1
            base.best.Api.predicted_io_seconds (mb base.best.Api.memory_bytes)
            (String.concat "; " (labels base.best))
      | None -> Printf.printf "%-12d %-10s (no plan fits with base blocks)
" cap_mb "1");
      match winner with
      | Some (w : Riotshare.Block_select.choice) when w.factor <> 1 ->
          Printf.printf "%-12s %-10d %-14.0f %-12.1f {%s}
" "" w.factor
            w.best.Api.predicted_io_seconds (mb w.best.Api.memory_bytes)
            (String.concat "; " (labels w.best))
      | Some _ -> Printf.printf "%-12s %-10s (base blocking already optimal)
" "" "-"
      | None -> Printf.printf "%-12s %-10s (nothing fits)
" "" "-")
    [ 100; 200; 600; 850 ]

let extension_pig () =
  section "Extension: Pig-style FILTER -> FOREACH -> JOIN (paper Section 7)";
  let prog = Programs.pig_pipeline () in
  let opt = Api.optimize prog ~config:Programs.pig_config in
  let plan0 = Api.original opt and best = Api.best opt in
  Printf.printf "%d sharing opportunities -> %d plans\n"
    (List.length opt.Api.analysis.Deps.sharing)
    (List.length opt.Api.plans);
  Printf.printf "original: I/O %.1f s, mem %.1f MB\n" plan0.Api.predicted_io_seconds
    (mb plan0.Api.memory_bytes);
  Printf.printf "best:     I/O %.1f s, mem %.1f MB {%s}\n" best.Api.predicted_io_seconds
    (mb best.Api.memory_bytes)
    (String.concat "; " (labels best));
  Printf.printf
    "The optimizer rediscovers pipelined selection/projection and inner-table\n";
  Printf.printf "reuse for the block nested-loop join: %.1f%% less I/O.\n"
    (pct plan0.Api.predicted_io_seconds best.Api.predicted_io_seconds)

let extension_symbolic () =
  section "Section 5.4 remark: symbolic cost polynomials";
  Printf.printf
    "(Schedule search happens once per template; costs are polynomials in the\n";
  Printf.printf
    " parameters, re-evaluated as sizes change. Read-volume polynomials for the\n";
  Printf.printf " Example 1 plans, in units of blocks x their byte sizes:)\n\n";
  let prog = Programs.add_mul () in
  let opt = Lazy.force opt_add_mul in
  let block_bytes = function
    | "A" | "B" | "C" -> 6000 * 4000 * 8
    | "D" -> 4000 * 5000 * 8
    | "E" -> 6000 * 5000 * 8
    | _ -> 0
  in
  List.iter
    (fun (p : Api.costed_plan) ->
      match
        Riot_plan.Symbolic.analyse prog ~block_bytes ~realized:p.Api.plan.Search.q
      with
      | None -> Printf.printf "plan %d: (not box-decomposable)\n" p.Api.plan.Search.index
      | Some sym ->
          Printf.printf "plan %d reads(bytes) = %s\n" p.Api.plan.Search.index
            (Riot_poly.Polynomial.to_string sym.Riot_plan.Symbolic.read_bytes))
    (Api.distinct_cost_points opt);
  (* Check one evaluation against the exact concrete model. *)
  let best = Api.best opt in
  match
    Riot_plan.Symbolic.analyse prog ~block_bytes ~realized:best.Api.plan.Search.q
  with
  | None -> ()
  | Some sym ->
      let v =
        Riot_poly.Polynomial.eval_int_exn sym.Riot_plan.Symbolic.read_bytes
          (fun p -> Config.param Programs.table2 p)
      in
      Printf.printf
        "\nbest plan at (n1,n2,n3)=(12,12,1): symbolic %d bytes vs concrete %d bytes %s\n"
        v best.Api.cplan.Cplan.read_bytes
        (if v = best.Api.cplan.Cplan.read_bytes then "[exact]" else "[MISMATCH]")

(* --- Bechamel micro-benchmarks --------------------------------------------------- *)

let micro () =
  section "Bechamel micro-benchmarks (one per experiment family)";
  let open Bechamel in
  let prog_e1 = Programs.add_mul () in
  let prog_2mm = Programs.two_matmuls () in
  let prog_lr = Programs.linear_regression () in
  let params_e1 = Programs.table2.Config.params in
  let analysis_e1 = Deps.extract prog_e1 ~ref_params:params_e1 in
  let ss_e1 = Riot_optimizer.Sched_space.make prog_e1 in
  let best = Api.best (Lazy.force opt_add_mul) in
  let tests =
    [ Test.make ~name:"T2/F3 analyze add_mul"
        (Staged.stage (fun () -> ignore (Deps.extract prog_e1 ~ref_params:params_e1)));
      Test.make ~name:"F3 find best schedule"
        (Staged.stage (fun () ->
             ignore
               (Riot_optimizer.Find_schedule.find ss_e1 ~prog:prog_e1
                  ~q:analysis_e1.Deps.sharing ~deps:analysis_e1.Deps.dependences)));
      Test.make ~name:"F3 cost one plan"
        (Staged.stage (fun () ->
             ignore
               (Cplan.build prog_e1 ~config:Programs.table2
                  ~sched:prog_e1.Program.original ~realized:[])));
      Test.make ~name:"T3/F4/F5 analyze two_matmuls"
        (Staged.stage (fun () ->
             ignore
               (Deps.extract prog_2mm
                  ~ref_params:Programs.table3_config_a.Config.params)));
      Test.make ~name:"T4/F6 analyze linreg"
        (Staged.stage (fun () ->
             ignore (Deps.extract prog_lr ~ref_params:Programs.table4.Config.params)));
      Test.make ~name:"phantom-execute best plan"
        (Staged.stage (fun () ->
             let backend = Api.simulated_backend ~retain_data:false machine in
             ignore
               (Engine.run ~compute:false best.Api.cplan ~backend
                  ~format:Block_store.Daf_format ~mem_cap:best.Api.memory_bytes))) ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:(Some 100) () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      (* Analyze with ordinary least squares against run count. *)
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let res = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ t ] -> Printf.printf "%-34s %12.3f ms/run\n" name (t /. 1e6)
          | _ -> Printf.printf "%-34s (no estimate)\n" name)
        res)
    tests

(* --- Differential fuzz campaign against the dumb polyhedral oracle ----------------- *)

module Oracle = Riot_poly.Poly_oracle

let polyfuzz_run ~seed ~count =
  let t0 = Unix.gettimeofday () in
  let c = Oracle.campaign ~seed ~count in
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf
    "\n=== polyfuzz: %d cases (%d per class, seed %d) in %.1f s (%.0f cases/s) ===\n"
    c.Oracle.cases count seed dt
    (float_of_int c.Oracle.cases /. dt);
  List.iter
    (fun (cls, n) -> Printf.printf "  %-18s %6d cases\n" cls n)
    c.Oracle.per_class;
  match c.Oracle.discrepancies with
  | [] -> Printf.printf "  zero discrepancies\n"
  | ds ->
      List.iter
        (fun (cls, msg) -> Printf.printf "  DISCREPANCY [%s] %s\n" cls msg)
        ds;
      failwith
        (Printf.sprintf "polyfuzz: %d discrepancies survived" (List.length ds))

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
  | None -> default

let polyfuzz () =
  polyfuzz_run
    ~seed:(env_int "RIOT_POLYFUZZ_SEED" 2012)
    ~count:(env_int "RIOT_POLYFUZZ_COUNT" 2000)

let polyfuzz_smoke () = polyfuzz_run ~seed:2012 ~count:150

(* --- Differential campaign: crash, transient-fault and every other engine contract - *)

module Differential = Riotshare.Differential

let faultfuzz_json_file = "BENCH_faultfuzz.json"

let faultfuzz_run ~seed ~min_crash_cases =
  let t0 = Unix.gettimeofday () in
  let r = Differential.campaign ~seed ~min_crash_cases () in
  let dt = Unix.gettimeofday () -. t0 in
  (* Runs whose point name has [v] as its [i]-th component. *)
  let runs i v =
    List.fold_left
      (fun n (p, k) -> if List.nth_opt (String.split_on_char '/' p) i = Some v then n + k else n)
      0 r.Differential.runs
  in
  let vector_cases = runs 0 "fused" and async_cases = runs 1 "async" in
  let transient_cases = runs 4 "transient" in
  let complete_cases = runs 4 "crash" - r.Differential.crash_cases in
  Printf.printf
    "\n=== faultfuzz: %d programs, %d plans, seed %d in %.1f s ===\n"
    r.Differential.programs r.Differential.plans seed dt;
  Printf.printf "  verified plans     %6d (static Plan_verify before running)\n"
    r.Differential.verified_plans;
  Printf.printf "  crash cases        %6d (crash points past the end: %d ran clean)\n"
    r.Differential.crash_cases complete_cases;
  Printf.printf "  recoveries         %6d (resumed output byte-identical)\n"
    r.Differential.recoveries;
  Printf.printf "  transient runs     %6d\n" transient_cases;
  Printf.printf "  vectorized runs    %6d (compared against the unfused reference)\n"
    vector_cases;
  Printf.printf "  async runs         %6d (through Backend.with_async)\n"
    async_cases;
  Printf.printf "  faults injected    %6d\n" r.Differential.faults_injected;
  Printf.printf "  retries            %6d\n" r.Differential.retries;
  List.iter (fun (p, n) -> Printf.printf "  %-30s %6d runs\n" p n) r.Differential.runs;
  let oc = open_out faultfuzz_json_file in
  Printf.fprintf oc
    "{\"seed\": %d, \"programs\": %d, \"plans\": %d, \"verified_plans\": %d, \
     \"crash_cases\": %d, \
     \"recoveries\": %d, \"complete_cases\": %d, \"transient_cases\": %d, \
     \"vector_cases\": %d, \"async_cases\": %d, \"faults_injected\": %d, \
     \"retries\": %d, \
     \"mismatches\": %d, \"seconds\": %.1f, \"runs\": {%s}}\n"
    seed r.Differential.programs r.Differential.plans r.Differential.verified_plans
    r.Differential.crash_cases
    r.Differential.recoveries complete_cases transient_cases
    vector_cases async_cases r.Differential.faults_injected
    r.Differential.retries
    (List.length r.Differential.mismatches) dt
    (String.concat ", "
       (List.map (fun (p, n) -> Printf.sprintf "\"%s\": %d" p n) r.Differential.runs));
  close_out oc;
  Printf.printf "  (wrote %s)\n" faultfuzz_json_file;
  (match r.Differential.mismatches with
  | [] -> Printf.printf "  zero mismatches\n"
  | ms ->
      List.iter (fun m -> Printf.printf "  MISMATCH %s\n" m) ms;
      failwith
        (Printf.sprintf "faultfuzz: %d mismatches survived" (List.length ms)));
  if r.Differential.recoveries <> r.Differential.crash_cases then
    failwith "faultfuzz: some crash cases did not recover";
  if r.Differential.retries = 0 then failwith "faultfuzz: no retries exercised";
  if async_cases = 0 then
    failwith "faultfuzz: no async-tier cases exercised";
  if r.Differential.verified_plans <> r.Differential.plans then
    failwith "faultfuzz: some plans failed static verification"

let faultfuzz () =
  faultfuzz_run
    ~seed:(env_int "RIOT_FAULTFUZZ_SEED" 0)
    ~min_crash_cases:(env_int "RIOT_FAULTFUZZ_CASES" 200)

let faultfuzz_smoke () = faultfuzz_run ~seed:0 ~min_crash_cases:25

(* --- CPU-bound dispatch benchmark: interpret vs tile-vectorized -------------------- *)

(* A deep element-wise chain (add -> foreach/filter alternation -> sub)
   over a fine block grid: per-block kernel work is a few dozen flops, so
   the run is bounded by per-step dispatch — exactly the regime ROADMAP
   item 3 describes.  The chain is deliberately long (12 statements): each
   fused run still performs the plan's physical I/O (two input reads, one
   output write), which both executors share by contract, so the depth is
   what separates the per-step interpreter overhead being measured from
   that common floor.  The plan realizes the chain's W->R sharing directly
   under the original schedule (no Farkas search needed; see test_vexec.ml),
   which elides every intermediate write and lets the fusion pass merge all
   twelve steps into one pass per block. *)

module Build = Riot_ir.Build
module Array_info = Riot_ir.Array_info
module Access = Riot_ir.Access
module Kernel = Riot_ir.Kernel
module Fuse = Riot_plan.Fuse

let cpubound_json_file = "BENCH_cpubound.json"

let cpubound_depth = 12

let cpubound_tmp k = Printf.sprintf "T%d" k

let cpubound_prog () =
  let n_tmp = cpubound_depth - 1 in
  let arrays =
    Array_info.make ~kind:Array_info.Input "A" ~ndims:2
    :: Array_info.make ~kind:Array_info.Input "B" ~ndims:2
    :: Array_info.make ~kind:Array_info.Output "OUT" ~ndims:2
    :: List.init n_tmp (fun k ->
           Array_info.make ~kind:Array_info.Intermediate (cpubound_tmp (k + 1))
             ~ndims:2)
  in
  let ids = [ Build.var "v0"; Build.var "v1" ] in
  let stmt k =
    let name = Printf.sprintf "s%d" k in
    if k = 1 then
      Build.stmt name ~kernel:Kernel.Assign_add
        ~accs:
          [ (Access.Write, cpubound_tmp 1, ids, []);
            (Access.Read, "A", ids, []);
            (Access.Read, "B", ids, []) ]
    else if k = cpubound_depth then
      Build.stmt name ~kernel:Kernel.Assign_sub
        ~accs:
          [ (Access.Write, "OUT", ids, []);
            (Access.Read, cpubound_tmp (k - 1), ids, []);
            (Access.Read, "B", ids, []) ]
    else
      Build.stmt name
        ~kernel:(if k mod 2 = 0 then Kernel.Foreach else Kernel.Filter)
        ~accs:
          [ (Access.Write, cpubound_tmp k, ids, []);
            (Access.Read, cpubound_tmp (k - 1), ids, []) ]
  in
  Build.program ~name:"cpubound" ~params:[ "n" ] ~arrays
    [ Build.for_ "v0" ~lo:(Build.cst 0) ~hi:(Build.var "n")
        [ Build.for_ "v1" ~lo:(Build.cst 0) ~hi:(Build.var "n")
            (List.init cpubound_depth (fun k -> stmt (k + 1))) ] ]

let cpubound_config ~grid ~block =
  Config.make
    ~params:[ ("n", grid) ]
    ~layouts:
      (List.map
         (fun nm ->
           ( nm,
             { Config.grid = [| grid; grid |];
               block_elems = [| block; block |];
               elem_size = 8 } ))
         ("A" :: "B" :: "OUT"
         :: List.init (cpubound_depth - 1) (fun k -> cpubound_tmp (k + 1))))

let cpubound_run ~variant ~grid ~block ~reps ~gate =
  section
    (Printf.sprintf
       "CPU-bound dispatch benchmark (%s): unfused vs fused" variant);
  let prog = cpubound_prog () in
  let config = cpubound_config ~grid ~block in
  let analysis = Deps.extract prog ~ref_params:[ ("n", grid) ] in
  let realized =
    List.filter
      (fun (c : Coaccess.t) -> c.Coaccess.src_typ = Access.Write)
      analysis.Deps.sharing
  in
  let cplan =
    Cplan.build prog ~config ~sched:prog.Program.original ~realized
  in
  let n_steps = Array.length cplan.Cplan.steps in
  let fused = Fuse.fused_groups (Fuse.analyze cplan) in
  if fused = 0 then failwith "cpubound: fusion did not fire";
  let tc0 = Unix.gettimeofday () in
  ignore (Riot_exec.Vexec.compile cplan);
  let compile_seconds = Unix.gettimeofday () -. tc0 in
  Printf.printf
    "%d x %d grid of %d x %d blocks: %d steps, %d fused runs, %d elided \
     writes, compile %.4f s\n"
    grid grid block block n_steps fused
    (n_steps - cplan.Cplan.write_ops)
    compile_seconds;
  let time_run mode =
    let best = ref infinity and snap = ref None in
    for _ = 1 to reps do
      let backend =
        Backend.sim ~read_bw:machine.Machine.read_bw
          ~write_bw:machine.Machine.write_bw ~request_overhead:0. ()
      in
      let stores =
        Engine.stores_for backend ~format:Block_store.Daf_format ~config
      in
      Differential.load_inputs prog config stores;
      let t0 = Unix.gettimeofday () in
      ignore
        (Engine.run ~compute:true ~stores ~mode cplan ~backend
           ~format:Block_store.Daf_format ~mem_cap:cplan.Cplan.peak_memory);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      snap := Some (Differential.snapshot stores)
    done;
    (!best, Option.get !snap)
  in
  let ti, si = time_run Engine.Interpret in
  let tv, sv = time_run Engine.Vector in
  let identical = si = sv in
  (* Reported, not gated: wall-clock ratios are not correctness gates. *)
  let speedup = ti /. tv in
  let pred_i = Cplan.cpu_seconds ~vectorized:false machine cplan in
  let pred_v = Cplan.cpu_seconds machine cplan in
  let drift_i = pred_i /. ti and drift_v = pred_v /. tv in
  Printf.printf "%-14s %-12s %-12s %-14s %-10s\n" "executor" "wall (s)"
    "us/step" "predicted (s)" "drift";
  Printf.printf "%-14s %-12.4f %-12.2f %-14.4f %-10.2f\n" "unfused" ti
    (1e6 *. ti /. float_of_int n_steps)
    pred_i drift_i;
  Printf.printf "%-14s %-12.4f %-12.2f %-14.4f %-10.2f\n" "fused" tv
    (1e6 *. tv /. float_of_int n_steps)
    pred_v drift_v;
  Printf.printf "\nfusion speedup %.2fx (best of %d run(s) each); outputs %s\n" speedup
    reps
    (if identical then "byte-identical [PASS]" else "DIVERGED [FAIL]");
  let oc = open_out cpubound_json_file in
  Printf.fprintf oc
    "{\"variant\": %S, \"grid\": %d, \"block\": %d, \"steps\": %d, \
     \"fused_runs\": %d, \"reps\": %d, \"unfused_seconds\": %.6f, \
     \"fused_seconds\": %.6f, \"fusion_speedup\": %.3f, \
     \"unfused_us_per_step\": %.3f, \"fused_us_per_step\": %.3f, \
     \"predicted_cpu_unfused\": %.6f, \"predicted_cpu_fused\": %.6f, \
     \"drift_unfused\": %.3f, \"drift_fused\": %.3f, \"identical\": %b}\n"
    variant grid block n_steps fused reps ti tv speedup
    (1e6 *. ti /. float_of_int n_steps)
    (1e6 *. tv /. float_of_int n_steps)
    pred_i pred_v drift_i drift_v identical;
  close_out oc;
  Printf.printf "(wrote %s)\n" cpubound_json_file;
  if not identical then
    failwith "cpubound: unfused and fused outputs diverged";
  if gate then
    List.iter
      (fun (name, d) ->
        if d < 0.1 || d > 10. then
          failwith
            (Printf.sprintf
               "cpubound: %s cost-model drift %.2fx outside [0.1, 10] — \
                re-calibrate Machine.dispatch_* (EXPERIMENTS.md)"
               name d))
      [ ("unfused", drift_i); ("fused", drift_v) ]

let cpubound () = cpubound_run ~variant:"full" ~grid:48 ~block:8 ~reps:3 ~gate:true

let cpubound_smoke () =
  cpubound_run ~variant:"smoke" ~grid:6 ~block:4 ~reps:1 ~gate:false

(* --- checkverify: static verification sweep over the paper pipelines ------- *)

let checkverify_json_file = "BENCH_checkverify.json"

(* Every enumerated plan of the paper's pipelines must verify fully clean —
   zero diagnostics, warnings included — with the journal family enabled.
   [linreg_max_size] caps the linear-regression subset size (its full
   enumeration is the slow fig6 workload; 4 already yields hundreds of
   plans). *)
let checkverify_run ~variant ~linreg_max_size =
  let module PV = Riot_plan.Plan_verify in
  let t0 = Unix.gettimeofday () in
  section
    (Printf.sprintf "checkverify (%s): Plan_verify over all enumerated plans"
       variant);
  let cases =
    [ ("add_mul/table2", Lazy.force opt_add_mul);
      ("two_matmuls/table3a", Lazy.force opt_2mm_a);
      ("two_matmuls/table3b", Lazy.force opt_2mm_b);
      ( "linear_regression/table4",
        Api.optimize ~max_size:linreg_max_size (Programs.linear_regression ())
          ~config:Programs.table4 ) ]
  in
  let plans = ref 0 and dirty = ref 0 in
  List.iter
    (fun (name, opt) ->
      let before = !dirty in
      List.iter
        (fun (p : Api.costed_plan) ->
          incr plans;
          let r = Engine.verify ~cap_bytes:p.Api.memory_bytes p.Api.cplan in
          if not (PV.is_clean r) then begin
            incr dirty;
            Format.printf "  DIRTY %s plan %d: @[<v>%a@]@." name
              p.Api.plan.Search.index PV.pp_report r
          end)
        opt.Api.plans;
      Printf.printf "  %-26s %4d plans %s\n" name (List.length opt.Api.plans)
        (if !dirty = before then "all clean" else "DIAGNOSTICS"))
    cases;
  let dt = Unix.gettimeofday () -. t0 in
  Printf.printf "  total: %d plans verified, %d with diagnostics, %.1f s\n"
    !plans !dirty dt;
  let oc = open_out checkverify_json_file in
  Printf.fprintf oc
    "{\"variant\": %S, \"plans\": %d, \"dirty\": %d, \"seconds\": %.1f}\n"
    variant !plans !dirty dt;
  close_out oc;
  Printf.printf "  (wrote %s)\n" checkverify_json_file;
  if !dirty > 0 then
    failwith
      (Printf.sprintf "checkverify: %d plan(s) reported diagnostics" !dirty)

let checkverify () = checkverify_run ~variant:"full" ~linreg_max_size:4
let checkverify_smoke () = checkverify_run ~variant:"smoke" ~linreg_max_size:2

(* --- iolap: async storage tier, overlap of I/O with computation ------------------- *)

let iolap_json_file = "BENCH_iolap.json"

(* The read-heavy paper pipeline (add_mul on a reduced table2) on the
   simulated 96/60 MB/s disk, with the simulator's virtual seconds turned
   into real [Unix.sleepf] stalls.  The sleep factor is self-calibrated so
   the plan's simulated I/O wall equals its measured compute wall — the
   regime where overlap pays the most and a synchronous run costs
   compute + I/O while a perfectly overlapped one costs max(compute, I/O).
   The async tier must (a) produce byte-identical streams and identical
   per-array physical I/O, and (b) hide enough of the I/O wall behind the
   kernels to clear the gate. *)
let iolap_run ~variant ~scale ~reps ~gate =
  section
    (Printf.sprintf
       "iolap (%s): sync vs async storage on the read-heavy paper pipeline"
       variant);
  let prog = Programs.add_mul () in
  let config = Programs.scale_down ~factor:scale Programs.table2 in
  let opt = Api.optimize prog ~config in
  let best = Api.best opt in
  let cplan = best.Api.cplan in
  let mem_cap = best.Api.memory_bytes in
  let one ~sleep_factor ~async =
    let inner =
      Backend.sim ~read_bw:machine.Machine.read_bw
        ~write_bw:machine.Machine.write_bw
        ~request_overhead:machine.Machine.request_overhead ~sleep_factor ()
    in
    let exec b =
      let stores = Engine.stores_for b ~format:Block_store.Daf_format ~config in
      Differential.load_inputs prog config stores;
      b.Backend.sync ();
      let t0 = Unix.gettimeofday () in
      let r =
        Engine.run ~compute:true ~stores ~mode:Engine.Vector cplan ~backend:b
          ~format:Block_store.Daf_format ~mem_cap
      in
      (Unix.gettimeofday () -. t0, r)
    in
    let wall, r =
      if async then Backend.with_async inner exec else exec inner
    in
    (* The async queue has drained and shut down: snapshot the raw disk. *)
    let stores =
      Engine.stores_for inner ~format:Block_store.Daf_format ~config
    in
    (wall, r, Differential.snapshot stores)
  in
  let repeat ~sleep_factor ~async =
    let best_wall = ref infinity and out = ref None in
    for _ = 1 to reps do
      let wall, r, snap = one ~sleep_factor ~async in
      if wall < !best_wall then best_wall := wall;
      out := Some (r, snap)
    done;
    let r, snap = Option.get !out in
    (!best_wall, r, snap)
  in
  (* Calibration: no sleeping — compute wall and the plan's virtual I/O. *)
  let compute_wall, r0, _ = repeat ~sleep_factor:0. ~async:false in
  let vio = r0.Engine.virtual_io_seconds in
  if vio <= 0. then failwith "iolap: plan performed no I/O";
  let factor = compute_wall /. vio in
  let io_wall = vio *. factor in
  Printf.printf
    "add_mul @ table2/%d: %d steps, %d reads, %d writes; compute %.3f s, \
     virtual I/O %.3f s, sleep factor %.3g (I/O wall %.3f s)\n"
    scale
    (Array.length cplan.Cplan.steps)
    r0.Engine.reads r0.Engine.writes compute_wall vio factor io_wall;
  let t_sync, r_sync, s_sync = repeat ~sleep_factor:factor ~async:false in
  let t_async, r_async, s_async = repeat ~sleep_factor:factor ~async:true in
  let identical = s_sync = s_async in
  let same_io = r_sync.Engine.per_array = r_async.Engine.per_array in
  let speedup = t_sync /. t_async in
  (* Fraction of the I/O wall hidden behind the kernels. *)
  let overlap = (t_sync -. t_async) /. io_wall in
  Printf.printf "%-14s %-12s %-14s\n" "io-mode" "wall (s)" "vs sync";
  Printf.printf "%-14s %-12.3f %-14s\n" "sync" t_sync "1.00x";
  Printf.printf "%-14s %-12.3f %-14s\n" "async" t_async
    (Printf.sprintf "%.2fx" speedup);
  Printf.printf
    "\noverlap ratio %.2f (I/O hidden behind compute; best of %d run(s)); \
     outputs %s, per-array I/O %s\n"
    overlap reps
    (if identical then "byte-identical [PASS]" else "DIVERGED [FAIL]")
    (if same_io then "identical [PASS]" else "DIVERGED [FAIL]");
  let oc = open_out iolap_json_file in
  Printf.fprintf oc
    "{\"variant\": %S, \"scale\": %d, \"reps\": %d, \"steps\": %d, \
     \"reads\": %d, \"writes\": %d, \"compute_seconds\": %.6f, \
     \"virtual_io_seconds\": %.6f, \"sleep_factor\": %.6g, \
     \"io_wall_seconds\": %.6f, \"sync_seconds\": %.6f, \
     \"async_seconds\": %.6f, \"speedup\": %.3f, \"overlap_ratio\": %.3f, \
     \"identical\": %b, \"same_per_array_io\": %b}\n"
    variant scale reps
    (Array.length cplan.Cplan.steps)
    r0.Engine.reads r0.Engine.writes compute_wall vio factor io_wall t_sync
    t_async speedup overlap identical same_io;
  close_out oc;
  Printf.printf "(wrote %s)\n" iolap_json_file;
  if not identical then failwith "iolap: sync and async outputs diverged";
  if not same_io then
    failwith "iolap: async changed the physical per-array request set";
  if overlap <= 0. then
    failwith "iolap: async run no faster than sync (no overlap)";
  if gate && speedup < 1.3 then
    failwith (Printf.sprintf "iolap: speedup %.2fx below the 1.3x gate" speedup)

let iolap () =
  iolap_run ~variant:"full"
    ~scale:(env_int "RIOT_IOLAP_SCALE" 25)
    ~reps:(env_int "RIOT_IOLAP_REPS" 3)
    ~gate:true

let iolap_smoke () = iolap_run ~variant:"smoke" ~scale:50 ~reps:1 ~gate:false

(* --- gemm: in-core kernel throughput against the CPU cost model ---------------

   Dense.gemm GFLOP/s at the block shapes the source-to-bytes benchmark's
   workloads execute (perfbench/workloads.ml: Table 3 Config A and Table 4
   with block contents shrunk 50x), next to Machine.paper's modeled
   gemm_flops — the CPU half of the cost model checked the way Fig. 3(b)
   checks the I/O half.  Each shape runs through Dense.gemm_par on a pool of
   [jobs] domains, as the executor runs it: shapes below Dense.gemm_grain
   stay on one domain, the others split their rows.  Throughput is
   reported, never gated: a wall-clock figure depends on the host.  The
   pool spins between batches, as the executor's does.  The row's gates
   record that every result was finite, that two calls agreed bit for bit,
   that a forced row split across the pool matched the one-domain
   Dense.gemm bit for bit, and that on operands salted with NaNs of two
   payloads and both signs, infinities, signed zeros and subnormals every
   tile this CPU runs (Dense.supported_isas, listed as "isas") matched the
   plain triple loop bit for bit; the run fails if any does not hold.  The
   timed calls run the tile dispatch picks, named in the row as "isa".
   The full run appends one row at jobs = 1 and one at the default jobs to
   BENCH_gemm.json; the smoke run uses tiny shapes and gates only the
   identities. *)

let gemm_json_file = "BENCH_gemm.json"

(* (label, m, n, k, ta, tb) *)
let gemm_shapes =
  [ ("twomm C+=A*B", 160, 60, 140, false, false);
    ("linreg U+=X'X", 80, 80, 1200, true, false);
    ("linreg V+=X'Y", 80, 8, 1200, true, false);
    ("linreg Bh+=W*V", 80, 8, 80, false, false);
    ("linreg Yh+=X*Bh", 1200, 8, 80, false, false) ]

let gemm_smoke_shapes =
  List.map
    (fun (ta, tb) -> (Printf.sprintf "smoke ta=%b tb=%b" ta tb, 7, 9, 5, ta, tb))
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The plain i-l-j triple loop Dense.gemm's contract is written against:
   c(i,j) += a(i,l) * b(l,j) for l ascending, skipping a zero a(i,l). *)
let plain_gemm ~ta ~tb ~m ~n ~k ~a ~b ~c =
  for i = 0 to m - 1 do
    for l = 0 to k - 1 do
      let av = if ta then a.((l * m) + i) else a.((i * k) + l) in
      if av <> 0. then
        for j = 0 to n - 1 do
          let bv = if tb then b.((j * k) + l) else b.((l * n) + j) in
          c.((i * n) + j) <- c.((i * n) + j) +. (av *. bv)
        done
    done
  done

let gemm_specials =
  [| Int64.float_of_bits 0x7FF8_0000_0000_0001L; Int64.float_of_bits 0xFFF8_0000_0000_0001L;
     Int64.float_of_bits 0x7FF8_0000_0000_BEEFL; Int64.float_of_bits 0xFFF8_0000_0000_BEEFL;
     Float.infinity; Float.neg_infinity; 0.; -0.; 1e-310; -1e-310 |]

(* One in ten elements special, the rest in [-1, 1). *)
let salted st len =
  Array.init len (fun _ ->
      if Random.State.int st 10 = 0 then
        gemm_specials.(Random.State.int st (Array.length gemm_specials))
      else Random.State.float st 2. -. 1.)

let gemm_run ~variant ~jobs ~shapes ~min_seconds ~trials =
  section (Printf.sprintf "Dense.gemm throughput (%s, jobs=%d)" variant jobs);
  let st = Random.State.make [| 2012 |] in
  (* Its own stream, so the timed operands stay those of earlier rows. *)
  let salt = Random.State.make [| 2013 |] in
  let model = machine.Machine.gemm_flops in
  Printf.printf "tile: %s (supported: %s)\n" (Dense.isa_name Dense.isa)
    (String.concat ", " (List.map Dense.isa_name Dense.supported_isas));
  Printf.printf "%-24s %-16s %-6s %-7s %-10s %-10s %s\n" "shape" "m x n x k" "op" "chunks"
    "GFLOP/s" "model" "ratio";
  let rows =
    List.map
      (fun (label, m, n, k, ta, tb) ->
        let a = Array.init (m * k) (fun _ -> Random.State.float st 2. -. 1.)
        and b = Array.init (k * n) (fun _ -> Random.State.float st 2. -. 1.) in
        (* A fresh pool per shape, used at once, as a run's pool is. *)
        Riot_base.Pool.with_pool ~jobs ~spin:true @@ fun pool ->
        let par = { Dense.jobs; run = (fun ~n body -> Riot_base.Pool.parallel_for pool ~n body) } in
        let once ?chunks par =
          let c = Array.make (m * n) 0. in
          Dense.gemm_par ?chunks par ~accumulate:false ~ta ~tb ~m ~n ~k ~a ~b ~c;
          c
        in
        let c1 = once par in
        let bits c = Array.map Int64.bits_of_float c in
        let finite = Array.for_all Float.is_finite c1
        and deterministic = bits (once par) = bits c1
        and split_identical =
          bits (once ~chunks:(max 2 jobs) par) = bits (once Dense.sequential)
        and seq_identical =
          let a = salted salt (m * k) and b = salted salt (k * n)
          and c0 = salted salt (m * n) in
          let c_ref = Array.copy c0 in
          plain_gemm ~ta ~tb ~m ~n ~k ~a ~b ~c:c_ref;
          List.for_all
            (fun isa ->
              let c = Array.copy c0 in
              Dense.gemm_par ~isa par ~accumulate:true ~ta ~tb ~m ~n ~k ~a ~b ~c;
              bits c = bits c_ref)
            Dense.supported_isas
        in
        (* Median over trials; each trial repeats the call until it has run
           [min_seconds]. *)
        let c = Array.make (m * n) 0. in
        let trial () =
          let t0 = Unix.gettimeofday () and reps = ref 0 in
          while Unix.gettimeofday () -. t0 < min_seconds || !reps = 0 do
            Dense.gemm_par par ~accumulate:true ~ta ~tb ~m ~n ~k ~a ~b ~c;
            incr reps
          done;
          2. *. float_of_int (m * n * k * !reps) /. (Unix.gettimeofday () -. t0)
        in
        let rates = List.sort compare (List.init trials (fun _ -> trial ())) in
        let flops = List.nth rates (trials / 2) in
        let op = (if ta then "A'" else "A") ^ (if tb then "B'" else "B") in
        let dims = Printf.sprintf "%dx%dx%d" m n k in
        Printf.printf "%-24s %-16s %-6s %-7d %-10.2f %-10.1f %.4f\n" label dims op
          (Dense.gemm_chunks ~jobs ~m ~n ~k)
          (flops /. 1e9) (model /. 1e9) (flops /. model);
        ( label,
          Printf.sprintf "%s %s" dims op,
          flops,
          (finite, deterministic, split_identical, seq_identical) ))
      shapes
  in
  let all f = List.for_all (fun (_, _, _, g) -> f g) rows in
  let finite = all (fun (f, _, _, _) -> f)
  and deterministic = all (fun (_, d, _, _) -> d)
  and split_identical = all (fun (_, _, i, _) -> i)
  and seq_identical = all (fun (_, _, _, q) -> q) in
  let metrics (label, _, flops, _) =
    [ metric (label ^ ".gflops") (Printf.sprintf "%.3f" (flops /. 1e9)) "GFLOP/s";
      metric (label ^ ".model_ratio") (Printf.sprintf "%.4f" (flops /. model)) "ratio" ]
  in
  let row =
    Printf.sprintf
      "{%s, \"jobs\": %d, \"isa\": %S, \"isas\": [%s], \"grain_flops\": %d, \
       \"trials\": %d, \"min_seconds\": %g, \"shapes\": {%s}, \"metrics\": {%s}, \
       \"gates\": {\"finite\": %b, \"deterministic\": %b, \"split_identical\": %b, \
       \"seq_identical\": %b}}"
      (row_header ~bench:"gemm" ~variant)
      jobs (Dense.isa_name Dense.isa)
      (String.concat ", "
         (List.map (fun isa -> Printf.sprintf "%S" (Dense.isa_name isa)) Dense.supported_isas))
      Dense.gemm_grain trials min_seconds
      (String.concat ", "
         (List.map (fun (label, shape, _, _) -> Printf.sprintf "%S: %S" label shape) rows))
      (String.concat ", "
         (metric "model_gflops" (Printf.sprintf "%.1f" (model /. 1e9)) "GFLOP/s"
         :: List.concat_map metrics rows))
      finite deterministic split_identical seq_identical
  in
  print_endline row;
  List.iter
    (fun (label, _, _, (f, d, i, q)) ->
      if not (f && d && i && q) then
        failwith
          (Printf.sprintf "gemm: %s result on %s"
             (if not f then "non-finite"
              else if not d then "nondeterministic"
              else if not i then "split differs from the one-domain"
              else "kernel differs from the plain triple loop")
             label))
    rows;
  row

(* jobs = 1, then the default jobs the executor uses. *)
let gemm () =
  let rows =
    List.map
      (fun jobs ->
        gemm_run ~variant:"full" ~jobs ~shapes:gemm_shapes ~min_seconds:0.2 ~trials:5)
      (List.sort_uniq compare [ 1; Riot_base.Pool.default_jobs () ])
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 gemm_json_file in
  List.iter (fun row -> output_string oc (row ^ "\n")) rows;
  close_out oc;
  Printf.printf "(appended to %s)\n" gemm_json_file

(* Identity gates only, no speed ratio: the smoke shapes fall below the
   grain, so the forced split is what crosses the domains, on two of them
   at least. *)
let gemm_smoke () =
  List.iter
    (fun jobs ->
      ignore
        (gemm_run ~variant:"smoke" ~jobs ~shapes:gemm_smoke_shapes ~min_seconds:0.01
           ~trials:1))
    (List.sort_uniq compare [ 1; max 2 (Riot_base.Pool.default_jobs ()) ])

(* --- plancost: milliseconds per Cplan.build ------------------------------------ *)

(* Plan costing in isolation: every enumerated plan of the four paper
   pipelines and of perfbench's four-statement element-wise chain (a 16x16
   block grid), each built with [Cplan.build] against one shared cache
   prefilled with the program's sharing list, as [Api.optimize] does.  The
   figure is the median milliseconds per build over [reps] timed passes,
   on one domain, after an untimed warm-up pass.  The pipelines run at
   perfbench's sizes (block contents shrunk; the grids, hence the step
   counts, are the paper's).  Costs must be identical when the plans are
   built on two domains; a digest of every plan (steps, pins, I/O totals,
   peak memory, flops, bytes moved) is printed so two commits can be
   compared.  Never gated on time; writes one row to BENCH_plancost.json. *)

let plancost_json_file = "BENCH_plancost.json"

let plancost_chain () =
  let module Op = Riot_ops.Op in
  let module Array_info = Riot_ir.Array_info in
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

let plancost_chain_config =
  let l = { Config.grid = [| 16; 16 |]; block_elems = [| 32; 32 |]; elem_size = 8 } in
  Config.make
    ~params:[ ("n1", 16); ("n2", 16) ]
    ~layouts:(List.map (fun a -> (a, l)) [ "A"; "B"; "T1"; "T2"; "T3"; "OUT" ])

(* Everything a plan's cost is made of, accesses named by their position in
   the statement and blocks by their records (read through the plan's
   table), so the digest is independent of physical sharing and of block id
   numbering. *)
let plancost_digest (c : Cplan.t) =
  let acc_index stmt (a : Riot_ir.Access.t) =
    let s = Program.find_stmt c.Cplan.prog stmt in
    let rec find i = function
      | [] -> -1
      | x :: rest -> if x == a then i else find (i + 1) rest
    in
    find 0 s.Riot_ir.Stmt.accesses
  in
  let block k = c.Cplan.blocks.(k) in
  let steps =
    Array.map
      (fun (st : Cplan.step) ->
        ( st.Cplan.stmt,
          st.Cplan.instance,
          st.Cplan.time,
          List.map (fun (a, k, src) -> (acc_index st.Cplan.stmt a, block k, src)) st.Cplan.reads,
          List.map (fun (a, k, dst) -> (acc_index st.Cplan.stmt a, block k, dst)) st.Cplan.writes
        ))
      c.Cplan.steps
  in
  Digest.string
    (Marshal.to_string
       ( steps,
         List.map (fun (k, a, b) -> (block k, a, b)) c.Cplan.pins,
         (c.Cplan.read_bytes, c.Cplan.write_bytes, c.Cplan.read_ops, c.Cplan.write_ops),
         c.Cplan.peak_memory,
         Int64.bits_of_float c.Cplan.flops,
         Int64.bits_of_float c.Cplan.moved_bytes )
       [ Marshal.No_sharing ])

let plancost_cases () =
  [ ("add_mul", Programs.add_mul (), Programs.table2, None);
    ( "two_matmuls",
      Programs.two_matmuls (),
      Programs.scale_down ~factor:50 Programs.table3_config_a,
      None );
    ( "linear_regression",
      Programs.linear_regression (),
      Programs.scale_down ~factor:50 Programs.table4,
      Some 3 );
    ("pig", Programs.pig_pipeline (), Programs.scale_down ~factor:16 Programs.pig_config, None);
    ("chain", plancost_chain (), plancost_chain_config, Some 3) ]

(* A case's enumerated plans and their builder, against one shared cache. *)
let plancost_plans (prog, config, max_size) =
  let ref_params = config.Config.params in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate ?max_size ~jobs:1 prog ~analysis ~ref_params in
  let cache = Cplan.cache ~coaccesses:analysis.Deps.sharing prog ~config in
  let build (p : Search.plan) =
    Cplan.build ~cache prog ~config ~sched:p.Search.sched ~realized:p.Search.q
  in
  (plans, build)

let plancost_combined digests = Digest.to_hex (Digest.string (String.concat "" digests))

let plancost_run ~variant ~reps =
  section (Printf.sprintf "plancost (%s): ms per Cplan.build, one domain" variant);
  Printf.printf "%-18s %6s %6s %10s %10s  %s\n" "program" "plans" "steps" "ms/build"
    "jobs=2" "digest";
  let rows =
    List.map
      (fun (name, prog, config, max_size) ->
        let plans, build = plancost_plans (prog, config, max_size) in
        let digests = List.map (fun p -> plancost_digest (build p)) plans in
        let times = ref [] in
        for _ = 1 to reps do
          List.iter
            (fun p ->
              let t0 = Unix.gettimeofday () in
              ignore (Sys.opaque_identity (build p));
              times := (Unix.gettimeofday () -. t0) :: !times)
            plans
        done;
        let sorted = Array.of_list (List.sort compare !times) in
        let ms = 1000. *. sorted.(Array.length sorted / 2) in
        let parallel =
          Riot_base.Pool.parallel_map ~jobs:2 (fun p -> plancost_digest (build p)) plans
        in
        let identical = parallel = digests in
        let digest = plancost_combined digests in
        let steps =
          match plans with p :: _ -> Array.length (build p).Cplan.steps | [] -> 0
        in
        Printf.printf "%-18s %6d %6d %10.3f %10s  %s\n%!" name (List.length plans) steps ms
          (if identical then "identical" else "DIFFERS")
          digest;
        (name, List.length plans, steps, ms, identical, digest))
      (plancost_cases ())
  in
  let identical = List.for_all (fun (_, _, _, _, id, _) -> id) rows in
  let metrics (name, plans, steps, ms, _, _) =
    [ metric (name ^ ".ms_per_build") (Printf.sprintf "%.4f" ms) "ms";
      metric (name ^ ".plans") (string_of_int plans) "count";
      metric (name ^ ".steps") (string_of_int steps) "count" ]
  in
  let row =
    Printf.sprintf
      "{%s, \"reps\": %d, \"metrics\": {%s}, \"digests\": {%s}, \
       \"gates\": {\"jobs2_identical\": %b}}"
      (row_header ~bench:"plancost" ~variant)
      reps
      (String.concat ", " (List.concat_map metrics rows))
      (String.concat ", "
         (List.map (fun (name, _, _, _, _, d) -> Printf.sprintf "%S: %S" name d) rows))
      identical
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 plancost_json_file in
  output_string oc (row ^ "\n");
  close_out oc;
  Printf.printf "(appended to %s)\n" plancost_json_file;
  if not identical then failwith "plancost: costs differ between jobs=1 and jobs=2"

let plancost () = plancost_run ~variant:"full" ~reps:3

(* One untimed pass over the plancost programs: fails unless each program's
   digest equals the one in the last row of BENCH_plancost.json.  Appends
   nothing. *)
let plancost_smoke () =
  section "plancost (smoke): plan digests = the last committed row";
  let last =
    let ic = open_in plancost_json_file in
    let rec go last =
      match input_line ic with
      | l -> go (if l = "" then last else l)
      | exception End_of_file -> last
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go "")
  in
  (* The 32 hex digits that follow the program's key in the row. *)
  let committed name =
    let key = Printf.sprintf "%S: \"" name in
    let n = String.length key in
    let rec find i =
      if i + n + 32 > String.length last then "missing"
      else if String.sub last i n = key then String.sub last (i + n) 32
      else find (i + 1)
    in
    find 0
  in
  let differ =
    List.filter
      (fun (name, prog, config, max_size) ->
        let plans, build = plancost_plans (prog, config, max_size) in
        let digest = plancost_combined (List.map (fun p -> plancost_digest (build p)) plans) in
        let want = committed name in
        Printf.printf "%-18s %6d  %s  %s\n%!" name (List.length plans) digest
          (if digest = want then "= committed" else "DIFFERS from committed " ^ want);
        digest <> want)
      (plancost_cases ())
  in
  if differ <> [] then failwith "plancost-smoke: plan digests differ from the last committed row"


(* --- codec: block bytes <-> float array throughput ------------------------------

   Block_store.get_floats (decode) and set_floats (encode) in MB/s at the
   largest block each source-to-bytes workload moves (the configs of
   perfbench/workloads.ml), next to Bytes.copy of the same bytes as the
   host's memory-copy reference.  Every block read and write of the engine,
   the buffer pool and the journal goes through this codec.  Throughput is
   reported, never gated.  The row's gate records that decoding returned
   exactly the stored bits (checked against Bytes.get_int64_le, with signed
   zero, a subnormal and NaN payloads planted in random bytes) and that
   encoding at an unaligned offset wrote the source bytes back; the run
   fails if it does not hold.  The full run appends its row to
   BENCH_codec.json; the smoke run only checks the gate. *)

let codec_json_file = "BENCH_codec.json"

let codec_workloads =
  [ ("linreg-search", Programs.scale_down ~factor:50 Programs.table4);
    ("twomm-gemm", Programs.scale_down ~factor:50 Programs.table3_config_a);
    ("chain-fine", plancost_chain_config);
    ("pig-io", Programs.scale_down ~factor:16 Programs.pig_config) ]

let codec_run ~variant ~min_seconds ~trials =
  section (Printf.sprintf "Block codec throughput (%s)" variant);
  Printf.printf "%-14s %10s %12s %12s %12s  %s\n" "workload" "block B" "decode MB/s"
    "encode MB/s" "copy MB/s" "bit-exact";
  let st = Random.State.make [| 2012 |] in
  (* Median over trials of MB/s; each trial repeats [f] for [min_seconds]. *)
  let rate bytes f =
    let trial () =
      let t0 = Unix.gettimeofday () and reps = ref 0 in
      while Unix.gettimeofday () -. t0 < min_seconds || !reps = 0 do
        f ();
        incr reps
      done;
      float_of_int (bytes * !reps) /. (Unix.gettimeofday () -. t0) /. 1e6
    in
    List.nth (List.sort compare (List.init trials (fun _ -> trial ()))) (trials / 2)
  in
  let rows =
    List.map
      (fun (name, config) ->
        let bytes =
          List.fold_left
            (fun m (_, l) -> max m (Config.block_bytes l))
            0 config.Config.layouts
        in
        let n = bytes / 8 in
        let src = Bytes.init bytes (fun _ -> Char.chr (Random.State.int st 256)) in
        List.iteri
          (fun i v -> Bytes.set_int64_le src (8 * i) v)
          [ 0x8000000000000000L; 0x0000000000000001L; 0x7ff4000000abcdefL;
            0xfff80000deadbeefL ];
        let a = Block_store.get_floats src ~off:0 n in
        let decoded = ref true in
        Array.iteri
          (fun i x ->
            if Int64.bits_of_float x <> Bytes.get_int64_le src (8 * i) then decoded := false)
          a;
        let dst = Bytes.make (bytes + 3) '\000' in
        Block_store.set_floats dst ~off:3 a;
        let bit_exact = !decoded && Bytes.equal (Bytes.sub dst 3 bytes) src in
        let decode =
          rate bytes (fun () ->
              ignore (Sys.opaque_identity (Block_store.get_floats src ~off:0 n)))
        and encode = rate bytes (fun () -> Block_store.set_floats dst ~off:0 a)
        and copy = rate bytes (fun () -> ignore (Sys.opaque_identity (Bytes.copy src))) in
        Printf.printf "%-14s %10d %12.0f %12.0f %12.0f  %b\n%!" name bytes decode encode copy
          bit_exact;
        (name, bytes, decode, encode, copy, bit_exact))
      codec_workloads
  in
  let bit_exact = List.for_all (fun (_, _, _, _, _, ok) -> ok) rows in
  let metrics (name, bytes, decode, encode, copy, _) =
    [ metric (name ^ ".block_bytes") (string_of_int bytes) "B";
      metric (name ^ ".decode_mb_s") (Printf.sprintf "%.1f" decode) "MB/s";
      metric (name ^ ".encode_mb_s") (Printf.sprintf "%.1f" encode) "MB/s";
      metric (name ^ ".copy_mb_s") (Printf.sprintf "%.1f" copy) "MB/s" ]
  in
  let row =
    Printf.sprintf
      "{%s, \"trials\": %d, \"min_seconds\": %g, \"metrics\": {%s}, \
       \"gates\": {\"bit_exact\": %b}}"
      (row_header ~bench:"codec" ~variant)
      trials min_seconds
      (String.concat ", " (List.concat_map metrics rows))
      bit_exact
  in
  print_endline row;
  List.iter
    (fun (name, _, _, _, _, ok) ->
      if not ok then failwith (Printf.sprintf "codec: not bit-exact on %s" name))
    rows;
  row

let codec () =
  let row = codec_run ~variant:"full" ~min_seconds:0.2 ~trials:5 in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 codec_json_file in
  output_string oc (row ^ "\n");
  close_out oc;
  Printf.printf "(appended to %s)\n" codec_json_file

let codec_smoke () = ignore (codec_run ~variant:"smoke" ~min_seconds:0.01 ~trials:1)

(* --- Driver ------------------------------------------------------------------------ *)

let experiments =
  [ ("table2", table2);
    ("fig3a", fig3a);
    ("fig3b", fig3b);
    ("sec61", sec61);
    ("table3", table3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("crossover", fig45_crossover);
    ("table4", table4);
    ("fig6", fig6);
    ("opttime", opttime);
    ("opttime-smoke", opttime_smoke);
    ("ablation", ablation_lru);
    ("blocksize", ablation_blocksize);
    ("pig", extension_pig);
    ("symbolic", extension_symbolic);
    ("costcheck", costcheck);
    ("validate", validate);
    ("polyfuzz", polyfuzz);
    ("polyfuzz-smoke", polyfuzz_smoke);
    ("faultfuzz", faultfuzz);
    ("faultfuzz-smoke", faultfuzz_smoke);
    ("cpubound", cpubound);
    ("cpubound-smoke", cpubound_smoke);
    ("checkverify", checkverify);
    ("checkverify-smoke", checkverify_smoke);
    ("iolap", iolap);
    ("iolap-smoke", iolap_smoke);
    ("gemm", gemm);
    ("gemm-smoke", gemm_smoke);
    ("plancost", plancost);
    ("plancost-smoke", plancost_smoke);
    ("codec", codec);
    ("codec-smoke", codec_smoke);
    ("micro", micro) ]

let () =
  (* Same minor-heap setting as the CLI: the optimizer's allocation rate
     makes multi-domain minor collections (stop-the-world barriers) the
     dominant --jobs overhead at the default 256k words. *)
  Gc.set { (Gc.get ()) with minor_heap_size = 1024 * 1024 };
  let args = List.tl (Array.to_list Sys.argv) in
  (* Pull out --jobs N (domains for the parallel optimizer runs; default
     RIOT_JOBS, then Domain.recommended_domain_count). *)
  let rec strip_jobs = function
    | [] -> []
    | "--jobs" :: n :: rest | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            jobs_flag := Some j;
            strip_jobs rest
        | _ -> failwith (Printf.sprintf "--jobs: bad value %S" n))
    | a :: rest -> a :: strip_jobs rest
  in
  let args = strip_jobs args in
  let args =
    List.filter
      (fun a ->
        if a = "fig6-fast" then begin
          fig6_max_size := Some 4;
          false
        end
        else true)
      args
  in
  let args =
    if args = [] then
      List.filter
        (fun n ->
          n <> "opttime-smoke" && n <> "polyfuzz-smoke" && n <> "faultfuzz-smoke"
          && n <> "cpubound-smoke" && n <> "checkverify-smoke"
          && n <> "iolap-smoke" && n <> "gemm-smoke" && n <> "codec-smoke"
          && n <> "plancost-smoke")
        (List.map fst experiments)
    else args
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          (match name with
          | "fig6" -> ()
          | _ ->
              Printf.printf "unknown experiment %s (have: %s)\n" name
                (String.concat ", " (List.map fst experiments))))
    args;
  Printf.printf "\nTotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0)
