(* The engine's equivalence contracts - unfused = fused, sync = async, DAF =
   LAB-tree, simulated = real-file disk, crash+resume = clean, transient
   faults = clean, and measured = predicted I/O - all checked by
   Riotshare.Differential over the configuration product (see
   differential.mli for the contracts and the point table).

   Each QCheck case is one seed: every plan runs the reference, the phantom
   run, the fused sync DAF sim point and a seed-rotated sample of the other
   points.  A coverage floor then asserts every point was reached, and a
   pinned `Quick case runs the full product.  The per-contract tests of
   the vexec, async, trace, cost-check and random-programs suites are thin
   calls into the same harness through [holds] and [pinned] below.  All
   seeds derive from RIOT_TEST_SEED (default 77). *)

module Differential = Riotshare.Differential
module Api = Riotshare.Api
module Programs = Riot_ops.Programs
module Rand_prog = Riot_ops.Rand_prog
module Cplan = Riot_plan.Cplan
module Engine = Riot_exec.Engine
module Backend = Riot_storage.Backend
module Block_store = Riot_storage.Block_store
module Io_stats = Riot_storage.Io_stats

let seed_gen =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d (%s=%d)" s Rand_prog.seed_env_var (Rand_prog.master_seed ()))
    QCheck.Gen.(int_range 0 100000)

let no_mismatches (t : Differential.tally) =
  List.iter (fun m -> Printf.printf "mismatch: %s\n" m) t.Differential.mismatches;
  Alcotest.(check (list string)) "no mismatches" [] t.Differential.mismatches

(* --- Thin calls: the per-contract tests of the other suites --------------- *)

(* A point by its differences from the reference (unfused, sync, DAF,
   simulated disk, no fault). *)
let at ?(fused = false) ?(async = false) ?(format = Block_store.Daf_format)
    ?(disk = Differential.Sim) () =
  { Differential.fused; async; format; disk; fault = Clean }

(* The fused sync DAF sim point's journalled run crashing at [n] operations
   spread over the plan. *)
let fused_crashes n cplan =
  List.filter
    (fun (p : Differential.point) ->
      p.fused && (not p.async) && p.disk = Sim
      && match p.fault with Crash _ -> true | _ -> false)
    (Differential.product n cplan)

(* Seeds of one distribution: element-wise chains, opaque nests without
   searched plans, and opaque nests with them. *)
let ew_seed s = (2 * s) + 1
let opaque_seed s = (10 * (s / 4)) + (2 * (1 + (s mod 4)))
let searched_seed s = 10 * s

(* [case_of_seed seed], every plan also at [points]: true, or a QCheck
   failure naming the first broken contract. *)
let holds ?(points = fun _ _ -> []) seed =
  let t = Differential.tally () in
  Differential.check_case t (Differential.case_of_seed seed) points;
  match t.Differential.mismatches with
  | [] -> true
  | m :: _ -> QCheck.Test.fail_reportf "%s" m

(* The same over pinned seeds (and any extra cases), as an Alcotest check. *)
let pinned ?(points = fun _ _ -> []) ?(cases = []) seeds =
  let t = Differential.tally () in
  List.iter
    (fun c -> Differential.check_case t c points)
    (List.map Differential.case_of_seed seeds @ cases);
  no_mismatches t

(* The paper programs' best plans, scaled down. *)
let paper_cases () =
  List.map
    (fun (name, prog, config, max_size) ->
      let config = Programs.scale_down ~factor:1000 config in
      let best = Api.best (Api.optimize ?max_size prog ~config) in
      { Differential.name; prog; config; opaque = false; plans = [ best.Api.cplan ] })
    [ ("add_mul", Programs.add_mul (), Programs.table2, None);
      ("two_matmuls", Programs.two_matmuls (), Programs.table3_config_a, None);
      ("linear_regression", Programs.linear_regression (), Programs.table4, Some 2);
      ("pig_pipeline", Programs.pig_pipeline (), Programs.pig_config, None) ]

(* [n] points of the product other than the three every plan runs,
   rotated by seed and plan index; a crash point kills the run at an
   operation the seed picks. *)
let sample ~seed ~plan n (cplan : Cplan.t) =
  let always (p : Differential.point) =
    p.fault = Clean && (not p.async) && p.format = Block_store.Daf_format && p.disk = Sim
  in
  let rest = List.filter (Fun.negate always) (Differential.product 1 cplan) in
  List.init n (fun j ->
      match List.nth rest (((seed * n) + (plan * 5) + j) mod List.length rest) with
      | { fault = Crash _; _ } as p ->
          let ops = 1 + cplan.read_ops + cplan.write_ops in
          { p with fault = Crash (1 + (((seed * 7919) + plan) mod ops)) }
      | p -> p)

let sampled = Differential.tally ()

let prop_sampled =
  QCheck.Test.make ~name:"differential: every contract at sampled points" ~count:1200
    seed_gen (fun seed ->
      let before = List.length sampled.Differential.mismatches in
      Differential.check_case sampled (Differential.case_of_seed seed) (fun plan cplan ->
          sample ~seed ~plan 1 cplan);
      match List.filteri (fun i _ -> i >= before) sampled.Differential.mismatches with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_reportf "%s" m)

(* Registered after the property (Alcotest runs a suite in order) and
   [`Slow] like it, so a `-q` run skips both. *)
let coverage_floor =
  Alcotest.test_case "sampled points cover the product" `Slow (fun () ->
      let runs = sampled.Differential.runs in
      List.iter (fun (p, n) -> Printf.printf "%-32s %6d runs\n" p n) runs;
      Alcotest.(check int) "every point ran (40 kinds, 2 phantom disks)" 42 (List.length runs);
      List.iter (fun (p, n) -> if n < 50 then Alcotest.failf "point %s ran %d times" p n) runs;
      Alcotest.(check bool) "crashes recovered" true
        (sampled.Differential.crash_cases > 0
        && sampled.Differential.recoveries = sampled.Differential.crash_cases))

(* The full product on pinned seeds (both distributions, a searched plan
   set on seed 0), plus the paper programs' best plans at the three
   always-run points. *)
let test_pinned_product () =
  let t = Differential.tally () in
  List.iter
    (fun seed ->
      Differential.check_case t (Differential.case_of_seed seed) (fun _ cplan ->
          Differential.product 2 cplan))
    [ 0; 1 ];
  List.iter (fun c -> Differential.check_case t c (fun _ _ -> [])) (paper_cases ());
  no_mismatches t;
  let kinds = List.sort_uniq compare (List.map fst t.Differential.runs) in
  Alcotest.(check int) "every point reached (40 kinds, 2 phantom disks)" 42 (List.length kinds);
  Alcotest.(check bool) "crashes ran and recovered" true
    (t.Differential.crash_cases > 0
    && t.Differential.recoveries = t.Differential.crash_cases)

(* Journal and resume reject the LAB-tree before touching storage. *)
let test_lab_journal_rejected () =
  Rand_prog.with_ew_program 3 (fun prog ->
      let config = Rand_prog.config_for prog in
      let cplan =
        Cplan.build prog ~config ~sched:prog.Riot_ir.Program.original ~realized:[]
      in
      List.iter
        (fun (journal, resume) ->
          let backend = Backend.sim ~read_bw:96e6 ~write_bw:60e6 ~request_overhead:0. () in
          (match
             Engine.run ~journal ~resume cplan ~backend ~format:Block_store.Lab_format
               ~mem_cap:cplan.Cplan.peak_memory
           with
          | (_ : Engine.result) -> Alcotest.fail "LAB-tree journal accepted"
          | exception Invalid_argument _ -> ());
          let s = backend.Backend.stats in
          Alcotest.(check (list int))
            "no I/O" [ 0; 0; 0; 0 ]
            [ s.Io_stats.reads; s.Io_stats.writes; s.Io_stats.bytes_read;
              s.Io_stats.bytes_written ])
        [ (true, false); (false, true) ])

let suite =
  ( "differential",
    [ Alcotest.test_case "full product on pinned seeds" `Quick test_pinned_product;
      Alcotest.test_case "LAB-tree journal is rejected" `Quick test_lab_journal_rejected;
      QCheck_alcotest.to_alcotest prop_sampled;
      coverage_floor ] )
