(* An independent reference for the Apriori lattice walk.  Brute force
   decides every opportunity subset of size at most [k] on its own — a
   schedule from [Find_schedule.find], then the concrete [Verify.check] —
   and keeps the sets all of whose subsets are feasible.  The walk's plan
   sets must be exactly those, whatever the pool size; its attempts are the
   non-empty sets all of whose proper subsets are kept. *)

module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Verify = Riot_optimizer.Verify
module Find_schedule = Riot_optimizer.Find_schedule
module Sched_space = Riot_optimizer.Sched_space
module Programs = Riot_ops.Programs
module Rand_prog = Riot_ops.Rand_prog
module Config = Riot_ir.Config

(* Every sublist of [l] with at most [k] elements, order kept. *)
let rec sublists ?(k = max_int) = function
  | [] -> [ [] ]
  | x :: rest ->
      let without = sublists ~k rest in
      if k = 0 then without
      else List.map (fun s -> x :: s) (sublists ~k:(k - 1) rest) @ without

type reference = { kept : int list list; attempted : int }

let reference ?max_size prog ~analysis ~ref_params =
  let opps = Array.of_list analysis.Deps.sharing in
  let n = Array.length opps in
  let ss = Sched_space.make prog in
  let chk = Verify.checker ~coaccesses:analysis.Deps.sharing prog ~params:ref_params in
  let feasible s =
    s = []
    ||
    let q = List.map (fun i -> opps.(i)) s in
    match Find_schedule.find ss ~prog ~q ~deps:analysis.Deps.dependences with
    | None -> false
    | Some sched -> Verify.check chk ~q sched
  in
  let sets = sublists ?k:max_size (List.init n Fun.id) in
  let verdicts = List.map (fun s -> (s, feasible s)) sets in
  let all_subsets_feasible ~proper s =
    List.for_all
      (fun t -> (proper && List.length t = List.length s) || List.assoc t verdicts)
      (sublists s)
  in
  { kept = List.sort compare (List.filter (all_subsets_feasible ~proper:false) sets);
    attempted =
      List.length
        (List.filter (fun s -> s <> [] && all_subsets_feasible ~proper:true s) sets) }

let check_walk ?max_size ?(jobs = [ 1 ]) name prog ~ref_params =
  let analysis = Deps.extract prog ~ref_params in
  let r = reference ?max_size prog ~analysis ~ref_params in
  let index =
    let pos = List.mapi (fun i c -> (c, i)) analysis.Deps.sharing in
    fun c -> List.assoc c pos
  in
  List.iter
    (fun jobs ->
      let plans, stats = Search.enumerate ?max_size ~jobs prog ~analysis ~ref_params in
      let what s = Printf.sprintf "%s jobs=%d: %s" name jobs s in
      Alcotest.(check (list (list int)))
        (what "plan sets = subsets with every subset feasible")
        r.kept
        (List.sort compare
           (List.map
              (fun (p : Search.plan) -> List.sort compare (List.map index p.Search.q))
              plans));
      Alcotest.(check int) (what "feasible") (List.length r.kept - 1) stats.Search.feasible;
      Alcotest.(check int) (what "candidates tried") r.attempted
        stats.Search.candidates_tried)
    jobs

let test_add_mul () =
  check_walk ~jobs:[ 1; 2 ] "add_mul" (Programs.add_mul ())
    ~ref_params:Programs.table2.Config.params;
  check_walk ~max_size:0 "add_mul k<=0" (Programs.add_mul ())
    ~ref_params:Programs.table2.Config.params

let test_two_matmuls () =
  check_walk ~max_size:2 "two_matmuls k<=2" (Programs.two_matmuls ())
    ~ref_params:Programs.table3_config_a.Config.params

let test_random_programs () =
  List.iter
    (fun seed ->
      Rand_prog.with_program seed (fun prog ->
          check_walk ~max_size:2 (Printf.sprintf "seed %d k<=2" seed) prog
            ~ref_params:Rand_prog.ref_params))
    [ 26; 67; 145; 155; 190 ]

let test_negative_max_size () =
  let prog = Programs.add_mul () in
  let ref_params = Programs.table2.Config.params in
  let analysis = Deps.extract prog ~ref_params in
  Alcotest.check_raises "max_size -1 is rejected"
    (Invalid_argument "Search: max_size -1 is negative") (fun () ->
      ignore (Search.enumerate ~max_size:(-1) prog ~analysis ~ref_params))

let suite =
  ( "search-oracle",
    [ Alcotest.test_case "add_mul: walk = brute force" `Quick test_add_mul;
      Alcotest.test_case "two_matmuls k<=2: walk = brute force" `Quick test_two_matmuls;
      Alcotest.test_case "random programs k<=2: walk = brute force" `Quick
        test_random_programs;
      Alcotest.test_case "negative max_size rejected" `Quick test_negative_max_size ] )
