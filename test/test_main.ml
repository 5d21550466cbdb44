let () =
  Alcotest.run "repro"
    [
      ("linalg", Test_linalg.suite);
      ("graph", Test_graph.suite);
      ("clique", Test_clique.suite);
      ("runtime", Test_runtime.suite);
      ("wire", Test_wire.suite);
      ("protocol", Test_protocol.suite);
      ("sanitize", Test_sanitize.suite);
      ("determinism", Test_determinism.suite);
      (* The analysis suite runs as its own executable (test_analysis.exe):
         linking compiler-libs.common here would shadow the unwrapped
         Coloring module of lib/graph with the compiler's own
         register-allocator unit of the same name. *)
      ("metrics", Test_metrics.suite);
      ("expander", Test_expander.suite);
      ("sparsify", Test_sparsify.suite);
      ("laplacian", Test_laplacian.suite);
      ("euler", Test_euler.suite);
      ("flow", Test_flow.suite);
      ("mcf", Test_mcf.suite);
      ("integration", Test_integration.suite);
      ("core", Test_core.suite);
      ("scale", Test_scale.suite);
    ]
