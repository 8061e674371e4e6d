let () =
  Alcotest.run "eco"
    [
      ("aff", Test_aff.suite);
      ("exec", Test_exec.suite);
      ("memsim", Test_memsim.suite);
      ("transform", Test_transform.suite);
      ("analysis", Test_analysis.suite);
      ("core", Test_core.suite);
      ("engine", Test_engine.suite);
      ("baselines", Test_baselines.suite);
      ("experiments", Test_experiments.suite);
      ("random", Test_random.suite);
      ("codegen", Test_codegen.suite);
      ("check", Test_check.suite);
      ("reuse_distance", Test_reuse_distance.suite);
      ("extensions", Test_extensions.suite);
      ("wavefront", Test_wavefront.suite);
      ("attribution", Test_attribution.suite);
      ("trace", Test_trace.suite);
      ("vm", Test_vm.suite);
      ("faults", Test_faults.suite);
      ("perfdb", Test_perfdb.suite);
      ("model", Test_model.suite);
      ("replay", Test_replay.suite);
      ("reference", Test_reference.suite);
      ("serve", Test_serve.suite);
    ]
