let () =
  Alcotest.run "spt"
    [
      ("util", Test_util.suite);
      ("obs", Test_obs.suite);
      ("frontend", Test_frontend.suite);
      ("interp", Test_interp.suite);
      ("exec", Test_exec.suite);
      ("ir", Test_ir.suite);
      ("cost", Test_cost.suite);
      ("depgraph", Test_depgraph.suite);
      ("partition", Test_partition.suite);
      ("transform", Test_transform.suite);
      ("profile", Test_profile.suite);
      ("probes", Test_probes.suite);
      ("passes", Test_passes.suite);
      ("tlsim", Test_tlsim.suite);
      ("driver", Test_driver.suite);
      ("pins", Test_pins.suite);
      ("runtime", Test_runtime.suite);
      ("depth", Test_depth.suite);
      ("feedback", Test_feedback.suite);
      ("profdb", Test_profdb.suite);
      ("service", Test_service.suite);
      ("fuzz", Test_fuzz.suite);
      ("cli", Test_cli.suite);
      ("workloads", Test_workloads.suite);
    ]
