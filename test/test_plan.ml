module Cplan = Riot_plan.Cplan
module Machine = Riot_plan.Machine
module Cost_check = Riot_plan.Cost_check
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Search = Riot_optimizer.Search
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mb x = int_of_float (Machine.mb x)

let table2_plans =
  lazy
    (let prog = Programs.add_mul () in
     let config = Programs.table2 in
     let ref_params = config.Config.params in
     let analysis = Deps.extract prog ~ref_params in
     let plans, _ = Search.enumerate prog ~analysis ~ref_params in
     (prog, config, plans))

let build_plan (p : Search.plan) =
  let prog, config, _ = Lazy.force table2_plans in
  Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q

let find_plan_with labels =
  let _, _, plans = Lazy.force table2_plans in
  List.find
    (fun (p : Search.plan) ->
      List.sort compare (List.map Coaccess.label p.Search.q) = List.sort compare labels)
    plans

let best_labels = [ "s1.W.C -> s2.R.C"; "s2.W.E -> s2.R.E"; "s2.W.E -> s2.W.E" ]

let test_baseline_volumes () =
  let c = build_plan (find_plan_with []) in
  (* Original schedule, Table 2 sizes:
     reads: A (144 blocks) + B (144) + C in s2 (144) + D (144) + E (132);
     writes: C (144) + E (144). *)
  check_int "read ops" (144 + 144 + 144 + 144 + 132) c.Cplan.read_ops;
  check_int "write ops" (144 + 144) c.Cplan.write_ops;
  let blk_abc = 6000 * 4000 * 8 and blk_d = 4000 * 5000 * 8 and blk_e = 6000 * 5000 * 8 in
  check_int "read bytes" ((432 * blk_abc) + (144 * blk_d) + (132 * blk_e)) c.Cplan.read_bytes;
  check_int "write bytes" ((144 * blk_abc) + (144 * blk_e)) c.Cplan.write_bytes

let test_best_plan_volumes () =
  let c = build_plan (find_plan_with best_labels) in
  (* Best plan: read A and B once each; D once per (i,k); C pipelined (never
     written or read: n3 = 1, intermediate); E accumulated in memory and
     written once per block. *)
  check_int "read ops" (144 + 144 + 144) c.Cplan.read_ops;
  check_int "write ops" 12 c.Cplan.write_ops;
  let blk_abc = 6000 * 4000 * 8 and blk_d = 4000 * 5000 * 8 and blk_e = 6000 * 5000 * 8 in
  check_int "read bytes" ((288 * blk_abc) + (144 * blk_d)) c.Cplan.read_bytes;
  check_int "write bytes" (12 * blk_e) c.Cplan.write_bytes

let test_paper_headline_io_times () =
  let m = Machine.paper in
  let c0 = build_plan (find_plan_with []) in
  let cb = build_plan (find_plan_with best_labels) in
  let io0 = Cplan.predicted_io_seconds m c0 in
  let iob = Cplan.predicted_io_seconds m cb in
  (* Paper: 2394 s and 836 s. Our model reproduces them within a few %. *)
  check_bool (Printf.sprintf "plan0 io %.0fs ~ 2394s" io0) true (abs_float (io0 -. 2394.) < 120.);
  check_bool (Printf.sprintf "best io %.0fs ~ 836s" iob) true (abs_float (iob -. 836.) < 50.);
  (* CPU constant across plans. *)
  check_bool "cpu equal" true
    (abs_float (Cplan.cpu_seconds m c0 -. Cplan.cpu_seconds m cb) < 1e-9)

let test_memory_footprints () =
  let c0 = build_plan (find_plan_with []) in
  let cb = build_plan (find_plan_with best_labels) in
  (* Paper figure 3(a): footprints around 600 and 800 MB; pipelining C means
     s1 and s2 share one C buffer. *)
  check_bool "baseline below cap" true (c0.Cplan.peak_memory < mb 700.);
  check_bool "best plan larger" true (cb.Cplan.peak_memory > c0.Cplan.peak_memory);
  check_bool "best plan below 8 GB cap" true (cb.Cplan.peak_memory < mb 1000.)

let test_elision_safety () =
  (* Realizing only W->W on E must not elide writes whose value is still
     read from disk: no I/O savings over the baseline. *)
  let c0 = build_plan (find_plan_with []) in
  let cww = build_plan (find_plan_with [ "s2.W.E -> s2.W.E" ]) in
  check_int "same read bytes" c0.Cplan.read_bytes cww.Cplan.read_bytes;
  check_int "same write bytes" c0.Cplan.write_bytes cww.Cplan.write_bytes

let test_mem_reads_have_pins () =
  (* Every memory-serviced read must be covered by a pin interval that
     starts at or before its step. *)
  let c = build_plan (find_plan_with best_labels) in
  Array.iteri
    (fun i st ->
      List.iter
        (fun ((_ : Riot_ir.Access.t), blk, src) ->
          if src = Cplan.From_memory then
            check_bool
              (Printf.sprintf "pin covers step %d" i)
              true
              (List.exists
                 (fun (b, a, z) -> b = blk && a <= i && i <= z)
                 c.Cplan.pins))
        st.Cplan.reads)
    c.Cplan.steps

let test_actual_exceeds_predicted () =
  let m = Machine.paper in
  let c = build_plan (find_plan_with best_labels) in
  let p = Cplan.predicted_io_seconds m c and a = Cplan.actual_io_seconds m c in
  check_bool "actual > predicted" true (a > p);
  (* ... but within a few percent: the paper reports average error 1.7%. *)
  check_bool "error small" true ((a -. p) /. a < 0.05)

let test_bigblock_variant () =
  (* The club-suit experiment: bigger blocks, no sharing. More memory than
     the best plan, yet far more I/O. *)
  let prog = Programs.add_mul () in
  let config = Programs.table2_bigblock in
  let c =
    Cplan.build prog ~config ~sched:prog.Riot_ir.Program.original ~realized:[]
  in
  let cb = build_plan (find_plan_with best_labels) in
  let m = Machine.paper in
  check_bool "club mem > best mem" true (c.Cplan.peak_memory > cb.Cplan.peak_memory);
  check_bool "club io >> best io" true
    (Cplan.predicted_io_seconds m c > 1.8 *. Cplan.predicted_io_seconds m cb)

let test_scale_down_preserves_structure () =
  let prog = Programs.add_mul () in
  let small = Programs.scale_down ~factor:100 Programs.table2 in
  let c =
    Cplan.build prog ~config:small ~sched:prog.Riot_ir.Program.original ~realized:[]
  in
  check_int "same ops as full scale" (144 + 144 + 144 + 144 + 132) c.Cplan.read_ops

let test_symbolic_read_volume () =
  (* The Section 5.4 polynomials: one symbolic analysis per plan template,
     evaluated at several parameter settings, must equal the exact concrete
     read volumes. *)
  let prog = Programs.add_mul () in
  let block_bytes = function
    | "A" | "B" | "C" -> 6 * 4 * 8
    | "D" -> 4 * 5 * 8
    | "E" -> 6 * 5 * 8
    | a -> Alcotest.failf "unexpected array %s" a
  in
  let config_for n1 n2 n3 =
    let l rows cols grows gcols =
      { Config.grid = [| grows; gcols |]; block_elems = [| rows; cols |]; elem_size = 8 }
    in
    Config.make
      ~params:[ ("n1", n1); ("n2", n2); ("n3", n3) ]
      ~layouts:
        [ ("A", l 6 4 n1 n2); ("B", l 6 4 n1 n2); ("C", l 6 4 n1 n2);
          ("D", l 4 5 n2 n3); ("E", l 6 5 n1 n3) ]
  in
  (* Enumerate plans at generic parameters so every opportunity exists. *)
  let ref_params = [ ("n1", 3); ("n2", 3); ("n3", 2) ] in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Riot_optimizer.Search.enumerate prog ~analysis ~ref_params in
  List.iter
    (fun (p : Riot_optimizer.Search.plan) ->
      match
        Riot_plan.Symbolic.analyse prog ~block_bytes
          ~realized:p.Riot_optimizer.Search.q
      with
      | None -> Alcotest.failf "plan %d: not box-decomposable" p.Riot_optimizer.Search.index
      | Some sym ->
          List.iter
            (fun (n1, n2, n3) ->
              let config = config_for n1 n2 n3 in
              let c =
                Cplan.build prog ~config ~sched:p.Riot_optimizer.Search.sched
                  ~realized:p.Riot_optimizer.Search.q
              in
              let lookup = function
                | "n1" -> n1
                | "n2" -> n2
                | "n3" -> n3
                | v -> Alcotest.failf "unexpected var %s" v
              in
              check_int
                (Printf.sprintf "plan %d reads at (%d,%d,%d)" p.Riot_optimizer.Search.index
                   n1 n2 n3)
                c.Cplan.read_bytes
                (Riot_poly.Polynomial.eval_int_exn
                   sym.Riot_plan.Symbolic.read_bytes lookup);
              check_int "baseline writes"
                (let c0 =
                   Cplan.build prog ~config ~sched:prog.Riot_ir.Program.original
                     ~realized:[]
                 in
                 c0.Cplan.write_bytes)
                (Riot_poly.Polynomial.eval_int_exn
                   sym.Riot_plan.Symbolic.baseline_write_bytes lookup))
            [ (3, 3, 2); (2, 4, 3); (5, 2, 4) ])
    plans

let test_explain_breakdown () =
  let c = build_plan (find_plan_with best_labels) in
  let rows = Cost_check.predict c in
  let find a = List.find (fun (r : Cost_check.expected) -> r.e_array = a) rows in
  (* C is fully pipelined: never read from disk, every write elided. *)
  check_int "C disk reads" 0 (find "C").e_reads;
  check_int "C writes" 0 (find "C").e_writes;
  check_int "C elided" 144 (find "C").e_elided;
  (* E accumulates in memory: 12 final writes only. *)
  check_int "E writes" 12 (find "E").e_writes;
  check_int "E mem reads" 132 (find "E").e_mem_reads;
  (* Totals agree with the plan counters. *)
  check_int "total disk reads"
    c.Cplan.read_ops
    (List.fold_left (fun a (r : Cost_check.expected) -> a + r.e_reads) 0 rows);
  check_int "total writes"
    c.Cplan.write_ops
    (List.fold_left (fun a (r : Cost_check.expected) -> a + r.e_writes) 0 rows)

(* The sources of reads, on random programs: every memory-serviced read at
   step i lies inside a pin (blk, a, b) with a <= i <= b, and no
   disk-serviced read is covered by a pin with a < i <= b (the scan
   [Cplan.build] once ran per read, kept here as the oracle).  A build
   against the shared cache prefilled with the program's sharing list must
   equal a build with a private cache, field for field. *)
let prop_read_sources =
  let module Differential = Riotshare.Differential in
  let module Rand_prog = Riot_ops.Rand_prog in
  QCheck.Test.make ~name:"plan: read sources match pins on random programs" ~count:200
    (QCheck.make
       ~print:(fun s ->
         Printf.sprintf "%d (%s=%d)" s Rand_prog.seed_env_var (Rand_prog.master_seed ()))
       QCheck.Gen.(int_range 0 100000))
    (fun seed ->
      let case = Differential.case_of_seed seed in
      let prog = case.Differential.prog and config = case.Differential.config in
      let analysis = Deps.extract prog ~ref_params:config.Config.params in
      let cache = Cplan.cache ~coaccesses:analysis.Deps.sharing prog ~config in
      List.iteri
        (fun k (c : Cplan.t) ->
          Array.iteri
            (fun i (st : Cplan.step) ->
              List.iter
                (fun ((_ : Riot_ir.Access.t), blk, src) ->
                  let pinned lo =
                    List.exists (fun (b, a, z) -> b = blk && lo a && i <= z) c.Cplan.pins
                  in
                  match src with
                  | Cplan.From_memory ->
                      if not (pinned (fun a -> a <= i)) then
                        QCheck.Test.fail_reportf "plan %d step %d: memory read of %s without a pin"
                          k i c.Cplan.blocks.(blk).Cplan.array
                  | Cplan.From_disk ->
                      if pinned (fun a -> a < i) then
                        QCheck.Test.fail_reportf "plan %d step %d: pinned %s read from disk" k i
                          c.Cplan.blocks.(blk).Cplan.array)
                st.Cplan.reads)
            c.Cplan.steps;
          let shared =
            Cplan.build ~cache prog ~config ~sched:c.Cplan.sched ~realized:c.Cplan.realized
          in
          let fields (c : Cplan.t) =
            ( c.Cplan.steps,
              c.Cplan.pins,
              (c.Cplan.read_bytes, c.Cplan.write_bytes, c.Cplan.read_ops, c.Cplan.write_ops),
              c.Cplan.peak_memory,
              (c.Cplan.flops, c.Cplan.moved_bytes) )
          in
          if fields shared <> fields c then
            QCheck.Test.fail_reportf "plan %d: shared-cache build differs" k)
        case.Differential.plans;
      true)

let suite =
  ( "plan",
    [ Alcotest.test_case "baseline volumes" `Quick test_baseline_volumes;
      Alcotest.test_case "best plan volumes" `Quick test_best_plan_volumes;
      Alcotest.test_case "paper headline io times" `Quick test_paper_headline_io_times;
      Alcotest.test_case "memory footprints" `Quick test_memory_footprints;
      Alcotest.test_case "elision safety" `Quick test_elision_safety;
      Alcotest.test_case "mem reads have pins" `Quick test_mem_reads_have_pins;
      Alcotest.test_case "actual vs predicted" `Quick test_actual_exceeds_predicted;
      Alcotest.test_case "bigblock variant" `Quick test_bigblock_variant;
      Alcotest.test_case "scale down" `Quick test_scale_down_preserves_structure;
      Alcotest.test_case "symbolic cost polynomials" `Quick test_symbolic_read_volume;
      Alcotest.test_case "explain breakdown" `Quick test_explain_breakdown;
      QCheck_alcotest.to_alcotest prop_read_sources ] )
