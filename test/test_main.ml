let () =
  Alcotest.run "geacc"
    [
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("stats", Test_stats.suite);
      ("table", Test_table.suite);
      ("pqueue", Test_pqueue.suite);
      ("flow", Test_flow.suite);
      ("csr", Test_csr.suite);
      ("index", Test_index.suite);
      ("core-model", Test_core_model.suite);
      ("algorithms", Test_algorithms.suite);
      ("audit", Test_audit.suite);
      ("paper-example", Test_paper_example.suite);
      ("properties", Test_properties.suite);
      ("extensions", Test_extensions.suite);
      ("datagen", Test_datagen.suite);
      ("io", Test_io.suite);
      ("bench-util", Test_bench_util.suite);
      ("robust", Test_robust.suite);
      ("serve", Test_serve.suite);
      ("fuzz", Test_fuzz.suite);
    ]
