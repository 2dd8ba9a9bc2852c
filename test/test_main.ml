let () =
  Alcotest.run "dhw-work"
    [
      ("util", Test_util.suite);
      ("unitset", Test_unitset.suite);
      ("sim-kernel", Test_sim.suite);
      ("kernel-diff", Test_kernel_diff.suite);
      ("ahead", Test_ahead.suite);
      ("audit", Test_audit.suite);
      ("grid", Test_grid.suite);
      ("ckpt-script", Test_ckpt_script.suite);
      ("protocol-A", Test_protocol_a.suite);
      ("protocol-B", Test_protocol_b.suite);
      ("protocol-C", Test_protocol_c.suite);
      ("c-views", Test_views.suite);
      ("protocol-D", Test_protocol_d.suite);
      ("D-diff", Test_protocol_d_diff.suite);
      ("baselines", Test_baselines.suite);
      ("async", Test_asim.suite);
      ("agreement", Test_agreement.suite);
      ("shmem", Test_shmem.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("integration", Test_integration.suite);
      ("scale", Test_scale.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("campaign", Test_campaign.suite);
      ("recovery", Test_recovery.suite);
      ("observability", Test_obs.suite);
      ("pool", Test_pool.suite);
      ("cli", Test_cli.suite);
      ("net", Test_net.suite);
      ("hist", Test_hist.suite);
      ("trace", Test_trace.suite);
    ]
