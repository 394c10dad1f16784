let () =
  Alcotest.run "xkeyword"
    (Test_xml.suite @ Test_encoding.suite @ Test_text.suite @ Test_storage.suite
   @ Test_score.suite @ Test_index.suite @ Test_core.suite
   @ Test_baselines.suite @ Test_datagen.suite @ Test_engine.suite
   @ Test_edge.suite @ Test_workload.suite
   @ Test_exec.suite @ Test_resilience.suite @ Test_shard.suite
   @ Test_chaos.suite @ Test_rpc.suite @ Test_live.suite @ Test_heal.suite
   @ Test_framed.suite @ Test_lint.suite @ Test_cli.suite)
