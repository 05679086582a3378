module Codegen = Riot_codegen.Codegen
module Deps = Riot_analysis.Deps
module Search = Riot_optimizer.Search
module Verify = Riot_optimizer.Verify
module Sched = Riot_ir.Sched
module Programs = Riot_ops.Programs
module B = Riot_ir.Build
module Array_info = Riot_ir.Array_info
module Kernel = Riot_ir.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Reference instance sequence: every (statement, instance) sorted by the
   schedule's time vectors. *)
let reference prog ~sched ~params =
  Verify.times prog ~sched ~params
  |> List.sort (fun (_, _, t1) (_, _, t2) -> Sched.lex_compare t1 t2)
  |> List.map (fun (s, inst, _) -> (s, List.sort compare inst))

let generated prog ~sched ~params =
  let ast = Codegen.generate prog ~sched in
  Codegen.interpret prog ast ~params
  |> List.map (fun (s, inst) -> (s, List.sort compare inst))

let check_plan prog ~sched ~params name =
  let expected = reference prog ~sched ~params in
  let got = generated prog ~sched ~params in
  check_int (name ^ ": instance count") (List.length expected) (List.length got);
  if expected <> got then begin
    let show (s, inst) =
      Printf.sprintf "%s(%s)" s
        (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) inst))
    in
    let rec first_diff i = function
      | [], [] -> ()
      | e :: es, g :: gs ->
          if e <> g then
            Alcotest.failf "%s: mismatch at %d: expected %s got %s" name i (show e) (show g)
          else first_diff (i + 1) (es, gs)
      | _ -> Alcotest.failf "%s: length mismatch" name
    in
    first_diff 0 (expected, got)
  end

let test_original_schedules () =
  List.iter
    (fun (prog, params) ->
      check_plan prog ~sched:prog.Riot_ir.Program.original ~params
        (prog.Riot_ir.Program.name ^ " original"))
    [ (Programs.add_mul (), [ ("n1", 2); ("n2", 3); ("n3", 2) ]);
      (Programs.two_matmuls (), [ ("n1", 2); ("n2", 2); ("n3", 3); ("n4", 2) ]);
      (Programs.linear_regression (), [ ("n", 3) ]);
      (Programs.reversed_copy (), [ ("n", 5) ]) ]

let test_all_e1_plans () =
  let prog = Programs.add_mul () in
  let params = [ ("n1", 2); ("n2", 3); ("n3", 2) ] in
  let analysis = Deps.extract prog ~ref_params:params in
  let plans, _ = Search.enumerate prog ~analysis ~ref_params:params in
  List.iter
    (fun (p : Search.plan) ->
      check_plan prog ~sched:p.Search.sched ~params
        (Printf.sprintf "e1 plan %d" p.Search.index))
    plans

let test_parameter_independence () =
  (* The same AST must stay correct when parameters change (the paper's
     point about parameterised plans). *)
  let prog = Programs.add_mul () in
  let params0 = [ ("n1", 2); ("n2", 3); ("n3", 1) ] in
  let analysis = Deps.extract prog ~ref_params:params0 in
  let plans, _ = Search.enumerate prog ~analysis ~ref_params:params0 in
  let best =
    List.find
      (fun (p : Search.plan) -> List.length p.Search.q = 3)
      plans
  in
  let ast = Codegen.generate prog ~sched:best.Search.sched in
  List.iter
    (fun params ->
      let got =
        Codegen.interpret prog ast ~params
        |> List.map (fun (s, i) -> (s, List.sort compare i))
      in
      let expected = reference prog ~sched:best.Search.sched ~params in
      check_bool
        (Printf.sprintf "params %s"
           (String.concat "," (List.map (fun (_, v) -> string_of_int v) params)))
        true (got = expected))
    [ params0; [ ("n1", 3); ("n2", 2); ("n3", 2) ]; [ ("n1", 1); ("n2", 4); ("n3", 3) ] ]

let test_two_matmul_plans () =
  let prog = Programs.two_matmuls () in
  let params = [ ("n1", 2); ("n2", 2); ("n3", 2); ("n4", 2) ] in
  let analysis = Deps.extract prog ~ref_params:params in
  let plans, _ = Search.enumerate ~max_size:2 prog ~analysis ~ref_params:params in
  List.iteri
    (fun i (p : Search.plan) ->
      if i mod 5 = 0 then
        check_plan prog ~sched:p.Search.sched ~params
          (Printf.sprintf "2mm plan %d" p.Search.index))
    plans

let test_pig_and_reversed_plans () =
  let check_program prog params ~max_size =
    let analysis = Deps.extract prog ~ref_params:params in
    let plans, _ = Search.enumerate ~max_size prog ~analysis ~ref_params:params in
    List.iter
      (fun (p : Search.plan) ->
        check_plan prog ~sched:p.Search.sched ~params
          (Printf.sprintf "%s plan %d" prog.Riot_ir.Program.name p.Search.index))
      plans
  in
  check_program (Programs.pig_pipeline ()) [ ("m", 3); ("n", 2) ] ~max_size:2;
  check_program (Programs.reversed_copy ()) [ ("n", 4) ] ~max_size:2

let original_code prog =
  Codegen.to_c prog (Codegen.generate prog ~sched:prog.Riot_ir.Program.original)

let contains code sub =
  let n = String.length sub and m = String.length code in
  let rec go i = i + n <= m && (String.sub code i n = sub || go (i + 1)) in
  go 0

let test_pretty_printer () =
  let code = original_code (Programs.add_mul ()) in
  check_bool "has loops" true (contains code "for (");
  check_bool "mentions s1" true (contains code "s1(");
  check_bool "mentions s2" true (contains code "s2(");
  check_bool "kernel comment" true (contains code "// s2: E += C * D")

(* Each statement's comment spells its kernel's operator text from the
   kernel table: add, sub, and copy (a single operand, no operator). *)
let test_kernel_comments () =
  let ids = [ B.var "i" ] in
  let arrays =
    List.map
      (fun (kind, name) -> Array_info.make ~kind name ~ndims:1)
      [ (Array_info.Input, "A"); (Input, "B"); (Intermediate, "C");
        (Intermediate, "D"); (Output, "E") ]
  in
  let prog =
    B.program ~name:"ops" ~params:[ "n" ] ~arrays
      [ B.for_ "i" ~lo:(B.cst 0) ~hi:(B.var "n")
          [ B.stmt "s1" ~kernel:Kernel.Assign_add
              ~accs:[ B.write "C" ids; B.read "A" ids; B.read "B" ids ];
            B.stmt "s2" ~kernel:Kernel.Assign_sub
              ~accs:[ B.write "D" ids; B.read "C" ids; B.read "B" ids ];
            B.stmt "s3" ~kernel:Kernel.Copy ~accs:[ B.write "E" ids; B.read "D" ids ] ] ]
  in
  let code = original_code prog in
  List.iter
    (fun c -> check_bool c true (contains code c))
    [ "// s1: C = A + B\n"; "// s2: D = C - B\n"; "// s3: E = D\n" ]

let suite =
  ( "codegen",
    [ Alcotest.test_case "original schedules round-trip" `Quick test_original_schedules;
      Alcotest.test_case "all Example 1 plans" `Quick test_all_e1_plans;
      Alcotest.test_case "parameter independence" `Quick test_parameter_independence;
      Alcotest.test_case "two-matmul plans" `Slow test_two_matmul_plans;
      Alcotest.test_case "pig and reversed-copy plans" `Quick test_pig_and_reversed_plans;
      Alcotest.test_case "pretty printer" `Quick test_pretty_printer;
      Alcotest.test_case "kernel comments" `Quick test_kernel_comments ] )
