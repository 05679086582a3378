module Parse = Riot_frontend.Parse
module Deps = Riot_analysis.Deps
module Coaccess = Riot_analysis.Coaccess
module Program = Riot_ir.Program
module Stmt = Riot_ir.Stmt
module Array_info = Riot_ir.Array_info

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let example1_source =
  {|
  param n1, n2, n3;
  input A[n1][n2], B[n1][n2], D[n2][n3];
  intermediate C[n1][n2];
  output E[n1][n3];

  for (i = 0; i < n1; i++)
    for (k = 0; k < n2; k++)
      C[i,k] = A[i,k] + B[i,k];

  for (i = 0; i < n1; i++)
    for (j = 0; j < n3; j++)
      for (k = 0; k < n2; k++)
        E[i,j] += C[i,k] * D[k,j];
|}

let test_parse_example1 () =
  let prog = Parse.program ~name:"ex1" example1_source in
  check_int "statements" 2 (List.length prog.Program.stmts);
  check_int "arrays" 5 (List.length prog.Program.arrays);
  check_int "params" 3 (List.length prog.Program.params);
  let s1 = Program.find_stmt prog "s1" and s2 = Program.find_stmt prog "s2" in
  check_int "s1 depth" 2 (Stmt.depth s1);
  check_int "s2 depth" 3 (Stmt.depth s2);
  (* s2 has the automatic restricted self-read plus C and D reads. *)
  check_int "s2 accesses" 4 (List.length s2.Stmt.accesses);
  check_bool "E is output" true
    ((Program.find_array prog "E").Array_info.kind = Array_info.Output);
  check_bool "C is intermediate" true (Array_info.is_intermediate (Program.find_array prog "C"))

let test_parsed_analysis_matches_ops () =
  (* The parsed program must expose exactly the same dependence and sharing
     structure as the operator-library build of Example 1. *)
  let ref_params = [ ("n1", 2); ("n2", 3); ("n3", 2) ] in
  let labels prog =
    let r = Deps.extract prog ~ref_params in
    ( List.sort_uniq compare (List.map Coaccess.label r.Deps.sharing),
      List.sort_uniq compare (List.map Coaccess.label r.Deps.dependences) )
  in
  let parsed = labels (Parse.program ~name:"ex1" example1_source) in
  let built = labels (Riot_ops.Programs.add_mul ()) in
  Alcotest.(check (pair (list string) (list string))) "same analysis" built parsed

let test_bracket_styles () =
  let src =
    {| param n;
       input A[n][n];
       output B[n][n];
       for (i = 0; i < n; i++)
         for (j = 0; j < n; j++)
           B[i][j] = A[i, j];
    |}
  in
  let prog = Parse.program ~name:"styles" src in
  let s1 = Program.find_stmt prog "s1" in
  check_int "both access styles parse" 2 (List.length s1.Stmt.accesses)

let test_affine_subscripts () =
  let src =
    {| param n;
       input A[n];
       output C[n];
       for (i = 0; i < n; i++)
         C[i] = A[n - 1 - i];
    |}
  in
  let prog = Parse.program ~name:"rev" src in
  let params = [ ("n", 5) ] in
  let r = Deps.extract prog ~ref_params:params in
  (* A[n-1-i] reads blocks in reverse; reads of distinct blocks never form a
     co-access, so no sharing should appear. *)
  check_int "no sharing" 0 (List.length r.Deps.sharing)

let test_le_bound_and_comments () =
  let src =
    {| param n;  // a comment
       input A[n]; output B[n];
       /* block
          comment */
       for (i = 0; i <= n - 1; i++)
         B[i] = A[i];
    |}
  in
  let prog = Parse.program ~name:"le" src in
  let insts = Program.instances prog (Program.find_stmt prog "s1") ~params:[ ("n", 4) ] in
  check_int "inclusive bound" 4 (List.length insts)

let test_rss_and_inv () =
  let src =
    {| param n;
       input X[n][n];
       intermediate U[1][1];
       output W[1][1], R[1][1];
       for (i = 0; i < 1; i++)
         for (j = 0; j < 1; j++)
           for (k = 0; k < n; k++)
             U[i,j] += X'[k,i] * X[k,j];
       W[0,0] = inv(U[0,0]);
       for (i = 0; i < n; i++)
         for (j = 0; j < 1; j++)
           R[0,0] += rss(X[i,j]);
    |}
  in
  let prog = Parse.program ~name:"rssinv" src in
  check_int "three statements" 3 (List.length prog.Program.stmts);
  let s1 = Program.find_stmt prog "s1" in
  (match s1.Stmt.kernel with
  | Riot_ir.Kernel.Gemm_acc { ta; tb } ->
      check_bool "ta from quote" true ta;
      check_bool "tb not" false tb
  | _ -> Alcotest.fail "expected gemm kernel");
  check_bool "depth-0 statement" true (Stmt.depth (Program.find_stmt prog "s2") = 0)

let test_if_conditional () =
  (* The paper's Figure 1(b) written directly: s1 guarded by j = 0 (two
     one-sided conditions). *)
  let src =
    {| param n1, n2, n3;
       input A[n1][n2], B[n1][n2], D[n2][n3];
       intermediate C[n1][n2];
       output E[n1][n3];
       for (i = 0; i < n1; i++)
         for (j = 0; j < n3; j++)
           for (k = 0; k < n2; k++) {
             if (0 >= j)
               C[i,k] = A[i,k] + B[i,k];
             E[i,j] += C[i,k] * D[k,j];
           }
    |}
  in
  let prog = Parse.program ~name:"fig1b" src in
  let params = [ ("n1", 2); ("n2", 3); ("n3", 2) ] in
  let s1 = Program.find_stmt prog "s1" in
  (* s1 executes only at j = 0: its accesses carry the restriction, so the
     write of C happens n1*n2 times, not n1*n2*n3. *)
  let c =
    Riot_plan.Cplan.build prog
      ~config:
        (Riot_ir.Config.make ~params
           ~layouts:
             (List.map
                (fun (n, g) ->
                  (n, { Riot_ir.Config.grid = g; block_elems = [| 2; 2 |]; elem_size = 8 }))
                [ ("A", [| 2; 3 |]); ("B", [| 2; 3 |]); ("C", [| 2; 3 |]);
                  ("D", [| 3; 2 |]); ("E", [| 2; 2 |]) ]))
      ~sched:prog.Program.original ~realized:[]
  in
  let writes_to_c =
    Array.to_list c.Riot_plan.Cplan.steps
    |> List.concat_map (fun st ->
           List.filter
             (fun ((_ : Riot_ir.Access.t), k, _) ->
               c.Riot_plan.Cplan.blocks.(k).Riot_plan.Cplan.array = "C")
             st.Riot_plan.Cplan.writes)
  in
  check_int "C written only at j=0" (2 * 3) (List.length writes_to_c);
  check_int "s1 depth still 3" 3 (Stmt.depth s1)

let expect_error src =
  try
    ignore (Parse.program ~name:"bad" src);
    false
  with Parse.Error _ -> true

let test_errors () =
  check_bool "undeclared variable" true
    (expect_error {| param n; input A[n]; output B[n];
                     for (i = 0; i < n; i++) B[i] = A[q]; |});
  check_bool "missing semicolon" true
    (expect_error {| param n |});
  check_bool "product needs +=" true
    (expect_error {| param n; input A[n][n], B[n][n]; output C[n][n];
                     for (i = 0; i < n; i++)
                       for (j = 0; j < n; j++)
                         for (k = 0; k < n; k++)
                           C[i,j] = A[i,k] * B[k,j]; |});
  check_bool "plus-assign needs product" true
    (expect_error {| param n; input A[n], B[n]; output C[n];
                     for (i = 0; i < n; i++) C[i] += A[i] + B[i]; |});
  check_bool "bad for condition" true
    (expect_error {| param n; input A[n]; output B[n];
                     for (i = 0; j < n; i++) B[i] = A[i]; |});
  check_bool "unterminated comment" true (expect_error {| param n; /* oops |});
  (* A literal past max_int is a positioned parse error, not a stray
     [Failure "int_of_string"]. *)
  Alcotest.(check string) "integer literal out of range"
    "line 2: integer literal out of range"
    (try
       ignore
         (Parse.program ~name:"bad"
            "param n; input A[n]; output B[n];\n\
             for (i = 0; i < 99999999999999999999; i++) B[i] = A[i];");
       "no error"
     with Parse.Error msg -> msg);
  (* Parse errors carry the line of the offending token. *)
  Alcotest.(check string) "parse error is positioned"
    "line 4: parse error: expected identifier (found ;)"
    (try
       ignore
         (Parse.program ~name:"bad"
            "param n; input A[n][n]; output B[n][n];\n\
             for (i = 0; i < n; i++)\n\
             for (j = 0; j < n; j++)\n\
             B[i,j] = A[i,j] + ;");
       "no error"
     with Parse.Error msg -> msg);
  (* So do the validation errors, at their statement or loop. *)
  List.iter
    (fun (what, expected, body) ->
      Alcotest.(check string) what expected
        (try
           ignore
             (Parse.program ~name:"bad"
                ("param n; input A[n][n]; output B[n][n];\n" ^ body));
           "no error"
         with Parse.Error msg -> msg))
    [ ( "unknown variable",
        "line 4: unknown variable q in a subscript of A",
        "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    B[i,j] = A[i,q];" );
      ( "unknown variable in a loop bound",
        "line 2: unknown variable m in a loop bound",
        "for (i = 0; i < m; i++)\n  for (j = 0; j < n; j++)\n    B[i,j] = A[i,j];" );
      ( "shadowed loop variable",
        "line 4: shadowed loop variable i",
        "for (i = 0; i < n; i++)\n\n  for (i = 0; i < n; i++)\n    B[i,i] = A[i,i];" );
      ( "subscript count",
        "line 5: access to A has 3 subscripts, array has 2 dims",
        "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n\n    B[i,j] = A[i,j,j];" );
      ( "undeclared array",
        "line 4: undeclared array C",
        "for (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    B[i,j] = C[i,j];" ) ]

(* Single-token mutations of a realistic source either still parse or fail
   with a [Parse.Error] carrying a line: never a stray exception, never an
   unpositioned message. *)
let tokens src =
  let n = String.length src in
  let word c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let rec go i acc =
    if i >= n then List.rev acc
    else if src.[i] = ' ' || src.[i] = '\n' then go (i + 1) (String.make 1 src.[i] :: acc)
    else if word src.[i] then begin
      let j = ref i in
      while !j < n && word src.[!j] do incr j done;
      go !j (String.sub src i (!j - i) :: acc)
    end
    else if i + 1 < n && List.mem (String.sub src i 2) [ "+="; "++"; "<="; ">=" ] then
      go (i + 2) (String.sub src i 2 :: acc)
    else go (i + 1) (String.make 1 src.[i] :: acc)
  in
  Array.of_list (go 0 [])

let positioned m =
  match String.index_opt m ':' with
  | Some k -> k > 5 && String.sub m 0 5 = "line " && int_of_string_opt (String.sub m 5 (k - 5)) <> None
  | None -> false

let prop_mutations_positioned =
  let toks = tokens Test_cost_check.dsl_pipeline_source in
  let pool =
    Array.of_list
      (List.sort_uniq compare
         (List.filter (fun t -> t <> " " && t <> "\n") (Array.to_list toks)
         @ [ "x"; "0"; "-"; "if"; "for"; "{"; "}"; "inv"; "rss"; "'" ]))
  in
  QCheck.Test.make ~name:"frontend: mutated sources fail with a line" ~count:10000
    QCheck.(triple (int_bound (Array.length toks - 1)) (int_bound 2) (int_bound (Array.length pool - 1)))
    (fun (i, op, r) ->
      let t = Array.copy toks in
      (match op with
      | 0 -> t.(i) <- pool.(r)
      | 1 -> t.(i) <- ""
      | _ -> t.(i) <- t.(i) ^ " " ^ pool.(r));
      let src = String.concat "" (Array.to_list t) in
      match Parse.program ~name:"mutant" src with
      | (_ : Program.t) -> true
      | exception Parse.Error m ->
          positioned m
          || QCheck.Test.fail_reportf "unpositioned error %S for:\n%s" m src)

let test_optimizes_like_ops_version () =
  (* End-to-end: the parsed Example 1 yields the same best plan cost. *)
  let config = Riot_ops.Programs.table2 in
  let opt_parsed =
    Riotshare.Api.optimize (Parse.program ~name:"ex1" example1_source) ~config
  in
  let opt_built = Riotshare.Api.optimize (Riot_ops.Programs.add_mul ()) ~config in
  let best_io o = (Riotshare.Api.best o).Riotshare.Api.predicted_io_seconds in
  Alcotest.(check (float 1.0)) "same best io" (best_io opt_built) (best_io opt_parsed)

let suite =
  ( "frontend",
    [ Alcotest.test_case "parse example 1" `Quick test_parse_example1;
      Alcotest.test_case "analysis matches ops" `Quick test_parsed_analysis_matches_ops;
      Alcotest.test_case "bracket styles" `Quick test_bracket_styles;
      Alcotest.test_case "affine subscripts" `Quick test_affine_subscripts;
      Alcotest.test_case "inclusive bounds and comments" `Quick test_le_bound_and_comments;
      Alcotest.test_case "rss and inv" `Quick test_rss_and_inv;
      Alcotest.test_case "if conditionals" `Quick test_if_conditional;
      Alcotest.test_case "errors" `Quick test_errors;
      Alcotest.test_case "optimizes like ops version" `Quick test_optimizes_like_ops_version ]
    @ [ QCheck_alcotest.to_alcotest prop_mutations_positioned ] )
