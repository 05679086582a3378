let () =
  Alcotest.run "riotshare"
    [ Test_base.suite; Test_linalg.suite; Test_poly.suite;
      Test_poly_oracle.suite; Test_analysis.suite; Test_optimizer.suite; Test_plan.suite;
      Test_storage.suite; Test_kernels.suite; Test_exec.suite; Test_frontend.suite; Test_core.suite;
      Test_random_programs.suite; Test_codegen.suite; Test_ir.suite;
      Test_cost_check.suite; Test_trace.suite; Test_vexec.suite; Test_pool.suite; Test_parallel.suite;
      Test_faults.suite; Test_plan_verify.suite; Test_async.suite;
      Test_differential.suite; Test_protocol.suite; Test_search_oracle.suite ]
