let () =
  Alcotest.run "crdb"
    [
      ("stdx", Test_stdx.suite);
      ("hlc", Test_hlc.suite);
      ("sim", Test_sim.suite);
      ("net", Test_net.suite);
      ("storage", Test_storage.suite);
      ("raft", Test_raft.suite);
      ("stats", Test_stats.suite);
      ("obs", Test_obs.suite);
      ("timeseries", Test_timeseries.suite);
      ("kv", Test_kv.suite);
      ("txnrec", Test_txnrec.suite);
      ("locks", Test_locks.suite);
      ("cc", Test_cc.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("autopilot", Test_autopilot.suite);
      ("txn", Test_txn.suite);
      ("sql", Test_sql.suite);
      ("workload", Test_workload.suite);
      ("clock_skew", Test_clock_skew.suite);
      ("check", Test_check.suite);
      ("chaos", Test_chaos.suite);
      ("integration", Test_integration.suite);
      ("golden", Test_golden.suite);
    ]
