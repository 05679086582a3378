module Api = Riotshare.Api
module Block_select = Riotshare.Block_select
module Programs = Riot_ops.Programs
module Config = Riot_ir.Config
module Engine = Riot_exec.Engine
module Block_store = Riot_storage.Block_store
module Search = Riot_optimizer.Search

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let opt = lazy (Api.optimize (Programs.add_mul ()) ~config:Programs.table2)

let mb x = x * 1024 * 1024

let test_optimize_summary () =
  let o = Lazy.force opt in
  check_int "plan count" 10 (List.length o.Api.plans);
  check_int "distinct cost points (paper: 8 plans)" 8
    (List.length (Api.distinct_cost_points o));
  check_int "sharing opportunities" 4
    (List.length o.Api.analysis.Riot_analysis.Deps.sharing)

let test_best_and_original () =
  let o = Lazy.force opt in
  let plan0 = Api.original o in
  check_bool "original realizes nothing" true (plan0.Api.plan.Search.q = []);
  let best = Api.best o in
  check_bool "best beats original" true
    (best.Api.predicted_io_seconds < plan0.Api.predicted_io_seconds);
  List.iter
    (fun p ->
      check_bool "best is minimal" true
        (best.Api.predicted_io_seconds <= p.Api.predicted_io_seconds))
    o.Api.plans

let test_memory_cap_changes_choice () =
  let o = Lazy.force opt in
  let unlimited = Api.best o in
  let capped = Api.best ~mem_cap_bytes:(mb 600) o in
  check_bool "cap respected" true (capped.Api.memory_bytes <= mb 600);
  check_bool "cap costs I/O" true
    (capped.Api.predicted_io_seconds > unlimited.Api.predicted_io_seconds);
  check_bool "no plan under absurd cap" true
    (try ignore (Api.best ~mem_cap_bytes:(mb 1) o); false with Not_found -> true)

(* --- Block-size selection ------------------------------------------------ *)

let test_refine_preserves_totals () =
  List.iter
    (fun f ->
      match Block_select.refine Programs.table2 ~factor:f with
      | None -> Alcotest.failf "factor %d should divide table2" f
      | Some cfg ->
          List.iter
            (fun (name, l) ->
              let base = Config.layout Programs.table2 name in
              check_int
                (Printf.sprintf "%s total bytes at factor %d" name f)
                (Config.total_bytes base) (Config.total_bytes l);
              check_int "grid scaled" (base.Config.grid.(0) * f) l.Config.grid.(0))
            cfg.Config.layouts;
          check_int "params scaled" (12 * f) (Config.param cfg "n1"))
    [ 1; 2; 4 ]

let test_refine_divisibility () =
  (* 6000 x 4000 blocks do not divide by 7. *)
  check_bool "factor 7 rejected" true
    (Block_select.refine Programs.table2 ~factor:7 = None);
  Alcotest.(check (list int))
    "candidate factors" [ 1; 2; 4; 5 ]
    (Block_select.candidate_factors Programs.table2 ~max_factor:5)

let test_joint_optimization_tradeoff () =
  let prog = Programs.add_mul () in
  (* Loose cap: the base blocking wins (fewest re-read passes). *)
  let _, w850 =
    Block_select.jointly_optimize prog ~base:Programs.table2 ~mem_cap_bytes:(mb 850)
  in
  (match w850 with
  | Some w -> check_int "loose cap keeps base blocks" 1 w.Block_select.factor
  | None -> Alcotest.fail "no winner at 850MB");
  (* Tight cap: only a refined blocking fits at all. *)
  let _, w200 =
    Block_select.jointly_optimize prog ~base:Programs.table2 ~mem_cap_bytes:(mb 200)
  in
  match w200 with
  | Some w ->
      check_bool "tight cap refines" true (w.Block_select.factor > 1);
      check_bool "fits" true (w.Block_select.best.Api.memory_bytes <= mb 200)
  | None -> Alcotest.fail "no winner at 200MB"

let test_recost_matches_fresh_optimize () =
  (* Schedules are parameter-independent: re-costing the table2 plans at
     1/10 block scale must agree exactly with a fresh optimization there. *)
  let o = Lazy.force opt in
  let small = Programs.scale_down ~factor:10 Programs.table2 in
  let recosted = Api.recost o ~config:small in
  let fresh = Api.optimize (Programs.add_mul ()) ~config:small in
  let key p =
    ( List.sort compare
        (List.map Riot_analysis.Coaccess.label p.Api.plan.Search.q),
      p.Api.predicted_io_seconds,
      p.Api.memory_bytes )
  in
  let sorted o = List.sort compare (List.map key o.Api.plans) in
  check_bool "same costed plan space" true (sorted recosted = sorted fresh);
  check_bool "config updated" true
    (recosted.Api.config.Config.layouts = small.Config.layouts)

(* A pruned or budget-cut result holds only the survivors at its own
   sizes, so recosting it would silently approximate: it is rejected. *)
let test_recost_rejects_pruned () =
  let rejects what o =
    match Api.recost o ~config:(Programs.scale_down ~factor:20 o.Api.config) with
    | (_ : Api.t) -> Alcotest.failf "recost accepted a %s result" what
    | exception Invalid_argument _ -> ()
  in
  let small = Programs.scale_down ~factor:10 Programs.table3_config_a in
  let pruned = Api.optimize ~prune:true ~max_size:2 (Programs.two_matmuls ()) ~config:small in
  check_bool "bound pruning fired" true (pruned.Api.search_stats.Search.bound_pruned > 0);
  rejects "bound-pruned" pruned;
  let cut =
    Api.optimize ~budget:0. (Programs.add_mul ())
      ~config:(Programs.scale_down ~factor:10 Programs.table2)
  in
  check_bool "budget struck" false cut.Api.search_stats.Search.complete;
  rejects "budget-cut" cut

let test_best_verifies_optimized_winner_once () =
  let o = Api.optimize (Programs.add_mul ()) ~config:(Programs.scale_down ~factor:10 Programs.table2) in
  let w = Api.best o in
  let rejected o =
    match Api.best o with
    | _ -> false
    | exception Riot_plan.Plan_verify.Rejected _ -> true
  in
  (* Corrupt the winner in place: its first disk read now claims the block
     is already in memory, which verification rejects. *)
  let steps = w.Api.cplan.Riot_plan.Cplan.steps in
  let k =
    let rec first k =
      if List.exists (fun (_, _, src) -> src = Riot_plan.Cplan.From_disk) steps.(k).Riot_plan.Cplan.reads
      then k
      else first (k + 1)
    in
    first 0
  in
  let saved = steps.(k) in
  steps.(k) <-
    { saved with
      Riot_plan.Cplan.reads =
        List.map (fun (a, b, _) -> (a, b, Riot_plan.Cplan.From_memory)) saved.Riot_plan.Cplan.reads };
  Fun.protect ~finally:(fun () -> steps.(k) <- saved) @@ fun () ->
  check_bool "the corrupted winner fails verification" false
    (Riot_plan.Plan_verify.ok (Engine.verify ~cap_bytes:w.Api.memory_bytes w.Api.cplan));
  (* Same physical plan at the same cap: optimize's verdict stands. *)
  check_bool "best does not re-verify the optimized winner" false (rejected o);
  (* A physically different plan, or the same plan at another cap, is
     verified afresh. *)
  let with_winner f = { o with Api.plans = List.map (fun p -> if p == w then f p else p) o.Api.plans } in
  check_bool "a copied plan is verified" true
    (rejected
       (with_winner (fun p ->
            { p with Api.cplan = { p.Api.cplan with Riot_plan.Cplan.steps = Array.copy steps } })));
  check_bool "another cap is verified" true
    (rejected (with_winner (fun p -> { p with Api.memory_bytes = p.Api.memory_bytes - 1 })))

(* --- Opportunistic LRU ablation ------------------------------------------- *)

let test_opportunistic_between_bounds () =
  let o = Lazy.force opt in
  let plan0 = Api.original o and best = Api.best o in
  let backend = Api.simulated_backend ~retain_data:false o.Api.machine in
  let r =
    Engine.run_opportunistic plan0.Api.cplan ~backend ~format:Block_store.Daf_format
      ~mem_cap:best.Api.memory_bytes
  in
  check_bool "caching never hurts" true
    (r.Engine.virtual_io_seconds <= plan0.Api.predicted_io_seconds *. 1.02);
  check_bool "planned sharing beats LRU" true
    (best.Api.predicted_io_seconds < r.Engine.virtual_io_seconds);
  check_bool "pool stays within cap" true
    (r.Engine.pool_peak_bytes <= best.Api.memory_bytes)

let suite =
  ( "core",
    [ Alcotest.test_case "optimize summary" `Quick test_optimize_summary;
      Alcotest.test_case "best and original" `Quick test_best_and_original;
      Alcotest.test_case "memory cap" `Quick test_memory_cap_changes_choice;
      Alcotest.test_case "refine preserves totals" `Quick test_refine_preserves_totals;
      Alcotest.test_case "refine divisibility" `Quick test_refine_divisibility;
      Alcotest.test_case "joint optimization tradeoff" `Slow test_joint_optimization_tradeoff;
      Alcotest.test_case "recost matches fresh optimize" `Quick test_recost_matches_fresh_optimize;
      Alcotest.test_case "recost rejects a pruned result" `Quick test_recost_rejects_pruned;
      Alcotest.test_case "best verifies the optimized winner once" `Quick
        test_best_verifies_optimized_winner_once;
      Alcotest.test_case "opportunistic LRU bounds" `Quick test_opportunistic_between_bounds ] )
