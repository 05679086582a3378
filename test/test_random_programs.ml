(* Property tests over randomly generated static-control programs: the
   analysis and optimizer invariants must hold for arbitrary loop programs,
   not just the paper's benchmarks.

   The generator lives in Riot_ops.Rand_prog (shared with
   Riotshare.Differential, which checks the engine contracts on the same
   distribution).  All programs derive from Rand_prog.master_seed, i.e. the
   RIOT_TEST_SEED environment variable (default 77); a failure prints both
   the case seed and the master seed, which together replay it exactly. *)

module Program = Riot_ir.Program
module Config = Riot_ir.Config
module Access = Riot_ir.Access
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Reduce = Riot_analysis.Reduce
module Search = Riot_optimizer.Search
module Verify = Riot_optimizer.Verify
module Find_schedule = Riot_optimizer.Find_schedule
module Sched_space = Riot_optimizer.Sched_space
module Aff = Riot_poly.Aff
module Cplan = Riot_plan.Cplan
module Engine = Riot_exec.Engine
module Rand_prog = Riot_ops.Rand_prog

let config_for = Rand_prog.config_for
let ref_params = Rand_prog.ref_params

let seed_gen =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d (%s=%d)" s Rand_prog.seed_env_var
        (Rand_prog.master_seed ()))
    QCheck.Gen.(int_range 0 100000)

let with_program = Rand_prog.with_program

let prop_sharing_one_one =
  QCheck.Test.make ~name:"random programs: sharing is one-one" ~count:40 seed_gen
    (fun seed ->
      with_program seed (fun prog ->
          let r = Deps.extract prog ~ref_params in
          List.for_all (fun ca -> Reduce.is_one_one ca ~ref_params) r.Deps.sharing))

let prop_deps_subset_of_ground_truth =
  QCheck.Test.make ~name:"random programs: polyhedral deps in ground truth" ~count:40
    seed_gen (fun seed ->
      with_program seed (fun prog ->
          let r = Deps.extract prog ~ref_params in
          let truth = Deps.concrete_dependence_pairs prog ~params:ref_params in
          let mem (s1, i1) (s2, i2) =
            List.exists
              (fun ((s1', i1'), (s2', i2')) ->
                s1 = s1' && s2 = s2'
                && List.sort compare i1 = List.sort compare i1'
                && List.sort compare i2 = List.sort compare i2')
              truth
          in
          List.for_all
            (fun (ca : Coaccess.t) ->
              List.for_all
                (fun (src, dst) ->
                  mem (ca.Coaccess.src_stmt, src) (ca.Coaccess.dst_stmt, dst))
                (Coaccess.pairs_at ca ~params:ref_params))
            r.Deps.dependences))

let prop_sharing_pairs_share_blocks =
  QCheck.Test.make ~name:"random programs: sharing pairs touch one block" ~count:40
    seed_gen (fun seed ->
      with_program seed (fun prog ->
          let r = Deps.extract prog ~ref_params in
          List.for_all
            (fun (ca : Coaccess.t) ->
              let src_s = Program.find_stmt prog ca.Coaccess.src_stmt in
              let dst_s = Program.find_stmt prog ca.Coaccess.dst_stmt in
              let src_a = List.nth src_s.Riot_ir.Stmt.accesses ca.Coaccess.src_acc in
              let dst_a = List.nth dst_s.Riot_ir.Stmt.accesses ca.Coaccess.dst_acc in
              let look inst x =
                match List.assoc_opt x inst with
                | Some v -> v
                | None -> List.assoc x ref_params
              in
              List.for_all
                (fun (src, dst) ->
                  Access.block_of src_a (look src) = Access.block_of dst_a (look dst))
                (Coaccess.pairs_at ca ~params:ref_params))
            r.Deps.sharing))

let prop_enumerated_plans_verify =
  (* Search with verify:false, then check legality/injectivity/realization
     independently: the search must only emit plans that pass. *)
  QCheck.Test.make ~name:"random programs: plans verify" ~count:20 seed_gen
    (fun seed ->
      with_program seed (fun prog ->
          let analysis = Deps.extract prog ~ref_params in
          let plans, _ =
            Search.enumerate ~verify:false ~max_size:2 prog ~analysis ~ref_params
          in
          let c = Verify.checker prog ~params:ref_params in
          List.for_all
            (fun (p : Search.plan) ->
              Verify.check_legal c p.Search.sched
              && Verify.check_injective c p.Search.sched
              && List.for_all
                   (fun ca -> Verify.check_realizes c ca p.Search.sched)
                   p.Search.q)
            plans))

(* The search-wide memo never changes a schedule: every singleton and pair
   candidate gets from [find] through one memo shared by all of them (first
   filling it, then hitting it) the schedule a fresh per-call memo gives. *)
let prop_find_memo_exact =
  QCheck.Test.make ~name:"random programs: find with a search memo = fresh memo"
    ~count:15 seed_gen (fun seed ->
      with_program seed (fun prog ->
          let analysis = Deps.extract prog ~ref_params in
          let deps = analysis.Deps.dependences and sharing = analysis.Deps.sharing in
          let ss = Sched_space.make prog in
          Sched_space.prefill ss ~deps ~sharing;
          let memo = Find_schedule.memo () in
          let find ?memo q = Find_schedule.find ?memo ss ~prog ~q ~deps in
          let rec pairs = function
            | [] -> []
            | a :: rest -> List.map (fun b -> [ a; b ]) rest @ pairs rest
          in
          let candidates = List.map (fun ca -> [ ca ]) sharing @ pairs sharing in
          let fresh = List.map (fun q -> find q) candidates in
          let filling = List.map (fun q -> find ~memo q) candidates in
          let hitting = List.map (fun q -> find ~memo q) candidates in
          fresh = filling && fresh = hitting))

(* The index-based checker against the name-based reference, verdict by
   verdict: every plan of the search, its time-reversed schedule (which
   breaks legality and most realizations) and its collapsed one (every
   instance at time 0, so dependent instances tie), every opportunity of the
   program, through a checker prefilled with one opportunity only (the rest
   miss its frozen table) and through a lazily filled one. *)
let prop_checker_agrees =
  QCheck.Test.make ~name:"random programs: index checker = name-based verify"
    ~count:20 seed_gen (fun seed ->
      with_program seed (fun prog ->
          let analysis = Deps.extract prog ~ref_params in
          let sharing = analysis.Deps.sharing in
          let plans, _ =
            Search.enumerate ~verify:false ~max_size:2 prog ~analysis ~ref_params
          in
          let scaled k sched = List.map (fun (s, rows) -> (s, Array.map (Aff.scale k) rows)) sched in
          let scheds =
            List.concat_map
              (fun (p : Search.plan) ->
                [ p.Search.sched; scaled (-1) p.Search.sched; scaled 0 p.Search.sched ])
              plans
          in
          let prefilled =
            Verify.checker ~coaccesses:(List.filteri (fun i _ -> i = 0) sharing) prog
              ~params:ref_params
          in
          let lazy_ = Verify.checker prog ~params:ref_params in
          List.for_all
            (fun sched ->
              let legal = Verify.legal prog ~sched ~params:ref_params in
              let injective = Verify.injective prog ~sched ~params:ref_params in
              let realizes = List.map (Verify.realizes prog ~sched ~params:ref_params) sharing in
              List.for_all
                (fun c ->
                  Verify.check_legal c sched = legal
                  && Verify.check_injective c sched = injective
                  && List.map (fun ca -> Verify.check_realizes c ca sched) sharing = realizes
                  && Verify.check c ~q:sharing sched
                     = (legal && injective && List.for_all Fun.id realizes))
                [ prefilled; lazy_ ])
            scheds))

(* Engine I/O = plan I/O: each plan's phantom run performs exactly the
   predicted requests, array by array, within a pool peak equal to the
   plan's [peak_memory] (Riotshare.Differential's I/O and trace contracts). *)
let prop_engine_matches_plan =
  QCheck.Test.make ~name:"random programs: engine I/O = plan I/O" ~count:20 seed_gen
    (fun seed -> Test_differential.(holds (2 * seed)))

(* Static verification over fuzzer-generated legal plans: every plan the
   search accepts must be free of Error-severity diagnostics.  Opaque-nest
   programs legitimately read never-written blocks (served as zeroes), so
   the DF003 warning alone is tolerated there; element-wise chains must be
   fully clean.  The counter feeds the coverage floor asserted at the end
   of the suite. *)
let statically_verified_plans = ref 0

let statically_clean ~ew prog =
  let config = config_for prog in
  let analysis = Deps.extract prog ~ref_params in
  let plans, _ = Search.enumerate ~max_size:2 prog ~analysis ~ref_params in
  List.for_all
    (fun (p : Search.plan) ->
      let cplan =
        Cplan.build prog ~config ~sched:p.Search.sched ~realized:p.Search.q
      in
      let r = Engine.verify cplan in
      incr statically_verified_plans;
      if ew then Riot_plan.Plan_verify.is_clean r
      else
        List.for_all
          (fun (d : Riot_plan.Plan_verify.diag) ->
            d.Riot_plan.Plan_verify.severity = Riot_plan.Plan_verify.Warning
            && d.Riot_plan.Plan_verify.code = "DF003")
          r.Riot_plan.Plan_verify.diags)
    plans

let prop_plans_statically_verify =
  QCheck.Test.make ~name:"random programs: plans are statically diagnostic-free"
    ~count:40 seed_gen (fun seed ->
      with_program seed (statically_clean ~ew:false))

let prop_ew_plans_statically_verify =
  QCheck.Test.make
    ~name:"random ew programs: plans are statically spotless" ~count:40
    seed_gen (fun seed ->
      Rand_prog.with_ew_program seed (statically_clean ~ew:true))

(* Registered after the two properties above (Alcotest runs a suite in
   order), so by the time it runs the counter reflects them; [`Slow] like
   the properties themselves, so a `-q` run skips both consistently.  The
   two properties draw 40 programs each: a program has about 9 (opaque) or
   12 (element-wise) plans at max_size 2 with a wide spread, and at 30 draws
   each the total fell below 500 on about 9% of QCheck seeds. *)
let static_coverage_floor =
  Alcotest.test_case "static verification covered >= 500 plans" `Slow
    (fun () ->
      if !statically_verified_plans < 500 then
        Alcotest.failf "only %d plans statically verified"
          !statically_verified_plans)

(* Plan-output equivalence: every legal plan of a program - whatever it
   elides, pins or services from memory - must leave byte-identical Output
   arrays, here also on a real disk.  (Intermediate arrays legitimately
   differ: a plan may never materialise them.)  Each case holds the base
   schedule's plans and two optimizer-found ones. *)
let prop_plan_outputs_equal =
  QCheck.Test.make ~name:"random programs: all plans produce identical outputs"
    ~count:10 seed_gen (fun seed ->
      Test_differential.(
        holds ~points:(fun _ _ -> [ at ~disk:File () ]) (searched_seed seed)))

let suite =
  ( "random-programs",
    List.map QCheck_alcotest.to_alcotest
      [ prop_sharing_one_one;
        prop_deps_subset_of_ground_truth;
        prop_sharing_pairs_share_blocks;
        prop_enumerated_plans_verify;
        prop_find_memo_exact;
        prop_checker_agrees;
        prop_engine_matches_plan;
        prop_plans_statically_verify;
        prop_ew_plans_statically_verify;
        prop_plan_outputs_equal ]
    @ [ static_coverage_floor ] )
