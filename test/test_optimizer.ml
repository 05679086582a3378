module Coaccess = Riot_analysis.Coaccess
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Verify = Riot_optimizer.Verify
module Find_schedule = Riot_optimizer.Find_schedule
module Sched_space = Riot_optimizer.Sched_space
module Programs = Riot_ops.Programs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let params_e1 = [ ("n1", 2); ("n2", 3); ("n3", 1) ]

let enumerate prog ref_params =
  let analysis = Deps.extract prog ~ref_params in
  let plans, stats = Search.enumerate prog ~analysis ~ref_params in
  (analysis, plans, stats)

let labels q = List.sort compare (List.map Coaccess.label q)

let test_add_mul_plan_count () =
  let _, plans, _ = enumerate (Programs.add_mul ()) params_e1 in
  (* 4 opportunities at n3=1; D-reuse conflicts with the E-accumulation
     opportunities, every other combination is feasible: 10 plans including
     the original (they collapse to the paper's 8 distinct cost points). *)
  check_int "plan count" 10 (List.length plans);
  let sets = List.map (fun (p : Search.plan) -> labels p.Search.q) plans in
  check_bool "best set found" true
    (List.mem
       [ "s1.W.C -> s2.R.C"; "s2.W.E -> s2.R.E"; "s2.W.E -> s2.W.E" ]
       sets);
  check_bool "conflicting set absent" true
    (not
       (List.exists
          (fun set ->
            List.mem "s2.R.D -> s2.R.D" set
            && List.exists (fun l -> l = "s2.W.E -> s2.R.E" || l = "s2.W.E -> s2.W.E") set)
          sets))

let test_all_plans_verify () =
  let prog = Programs.add_mul () in
  let analysis, plans, _ = enumerate prog params_e1 in
  ignore analysis;
  List.iter
    (fun (p : Search.plan) ->
      check_bool
        (Printf.sprintf "plan %d legal" p.Search.index)
        true
        (Verify.legal prog ~sched:p.Search.sched ~params:params_e1);
      check_bool
        (Printf.sprintf "plan %d injective" p.Search.index)
        true
        (Verify.injective prog ~sched:p.Search.sched ~params:params_e1);
      List.iter
        (fun ca ->
          check_bool
            (Printf.sprintf "plan %d realizes %s" p.Search.index (Coaccess.label ca))
            true
            (Verify.realizes prog ~sched:p.Search.sched ~params:params_e1 ca))
        p.Search.q)
    plans

let test_verify_rejects_broken_schedule () =
  (* Swapping the two loop nests of Example 1 violates the C dependence. *)
  let prog = Programs.add_mul () in
  let swap =
    List.map
      (fun (name, rows) ->
        let rows = Array.copy rows in
        let space = rows.(0).Riot_poly.Aff.space in
        rows.(0) <- Riot_poly.Aff.const space (if name = "s1" then 1 else 0);
        (name, rows))
      prog.Riot_ir.Program.original
  in
  check_bool "swapped nests illegal" false
    (Verify.legal prog ~sched:swap ~params:params_e1)

let test_original_schedule_legal () =
  let prog = Programs.add_mul () in
  check_bool "original legal" true
    (Verify.legal prog ~sched:prog.Riot_ir.Program.original ~params:params_e1);
  check_bool "original injective" true
    (Verify.injective prog ~sched:prog.Riot_ir.Program.original ~params:params_e1)

let test_reversed_copy_plans () =
  (* Both-direction dependences on A must be respected by every plan. *)
  let prog = Programs.reversed_copy () in
  let params = [ ("n", 6) ] in
  let _, plans, _ = enumerate prog params in
  check_bool "at least the original plan" true (List.length plans >= 1);
  List.iter
    (fun (p : Search.plan) ->
      check_bool "legal" true (Verify.legal prog ~sched:p.Search.sched ~params))
    plans

let test_two_matmuls_plans () =
  let prog = Programs.two_matmuls () in
  let params = [ ("n1", 2); ("n2", 2); ("n3", 3); ("n4", 2) ] in
  let analysis, plans, stats = enumerate prog params in
  ignore analysis;
  (* The paper reports 40 plans under both configurations. *)
  check_bool
    (Printf.sprintf "a rich plan space (got %d)" (List.length plans))
    true
    (List.length plans >= 30);
  check_bool "search tried fewer than the power set" true
    (stats.Search.candidates_tried < 512);
  (* The paper's selected plans must all be present. *)
  let sets = List.map (fun (p : Search.plan) -> labels p.Search.q) plans in
  let plan1 =
    [ "s1.W.C -> s1.R.C"; "s1.W.C -> s1.W.C"; "s2.W.E -> s2.R.E"; "s2.W.E -> s2.W.E" ]
  in
  let plan2 = List.sort compare ("s1.R.A -> s2.R.A" :: plan1) in
  let plan3 = [ "s1.R.A -> s2.R.A"; "s1.R.B -> s1.R.B"; "s2.R.D -> s2.R.D" ] in
  check_bool "paper plan 1" true (List.mem plan1 sets);
  check_bool "paper plan 2" true (List.mem plan2 sets);
  check_bool "paper plan 3" true (List.mem plan3 sets)

(* A memoised draw charges the fuel it spent when first drawn: a hit under
   less fuel than that raises [Out_of_fuel] exactly as a fresh draw does,
   and a hit under exactly that much returns the same point.  Draws are
   kept per window: on a system whose first dimension is bounded on one
   side only, the window decides the point. *)
let test_sample_hit_charges_fuel () =
  let space = Riot_poly.Space.of_names [ "x"; "y" ] in
  let aff = Riot_poly.Aff.of_assoc space in
  let p =
    List.fold_left Riot_poly.Poly.add_ge (Riot_poly.Poly.universe space)
      [ aff [ ("x", 1) ]; aff ~const:5 [ ("x", -1) ]; aff [ ("y", 1) ];
        aff ~const:5 [ ("y", -1) ]; aff ~const:(-7) [ ("x", 1); ("y", 1) ] ]
  in
  let memo = Find_schedule.memo () in
  let draw ?(memo = memo) fuel =
    let fuel = ref fuel in
    match Find_schedule.budgeted_sample ~memo ~fuel ~range:3 p with
    | pt -> Some (pt, !fuel)
    | exception Find_schedule.Out_of_fuel -> None
  in
  let pt, left =
    match draw 1000 with Some r -> r | None -> Alcotest.fail "first draw ran out"
  in
  let spent = 1000 - left in
  check_bool "the draw finds a point" true (pt <> None);
  check_bool "the draw spends fuel" true (spent > 0);
  check_int "one draw recorded" 1 (Find_schedule.samples_drawn memo);
  check_bool "fresh draw under spent - 1 runs out" true
    (draw ~memo:(Find_schedule.memo ()) (spent - 1) = None);
  check_bool "hit under spent - 1 runs out" true (draw (spent - 1) = None);
  check_bool "hit under spent returns the point, fuel spent" true
    (draw spent = Some (pt, 0));
  check_bool "hit under more returns the point, charges spent" true
    (draw 1000 = Some (pt, left));
  (* y <= x - 5, x <= 20: y's window is [15 - 2 range, 15]. *)
  let space = Riot_poly.Space.of_names [ "y"; "x" ] in
  let aff = Riot_poly.Aff.of_assoc space in
  let q =
    List.fold_left Riot_poly.Poly.add_ge (Riot_poly.Poly.universe space)
      [ aff ~const:(-5) [ ("x", 1); ("y", -1) ]; aff ~const:20 [ ("x", -1) ] ]
  in
  let sample memo range =
    Find_schedule.budgeted_sample ~memo ~fuel:(ref 1000) ~range q
  in
  let fresh range = sample (Find_schedule.memo ()) range in
  check_bool "the window decides the point" true (fresh 3 <> fresh 16);
  List.iter
    (fun range ->
      check_bool
        (Printf.sprintf "memoised draw at range %d = fresh draw" range)
        true
        (sample memo range = fresh range))
    [ 3; 16; 3; 16 ]

let suite =
  ( "optimizer",
    [ Alcotest.test_case "add_mul plan space" `Quick test_add_mul_plan_count;
      Alcotest.test_case "all plans verify" `Quick test_all_plans_verify;
      Alcotest.test_case "verify rejects illegal" `Quick test_verify_rejects_broken_schedule;
      Alcotest.test_case "original schedule legal" `Quick test_original_schedule_legal;
      Alcotest.test_case "reversed copy plans" `Quick test_reversed_copy_plans;
      Alcotest.test_case "memoised samples charge their fuel, per window" `Quick
        test_sample_hit_charges_fuel;
      Alcotest.test_case "two matmuls plan space" `Slow test_two_matmuls_plans ] )
