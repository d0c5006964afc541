"""Names, units and directions of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are what the final JSON line carries
(untraced and traced runs respectively) and must match ``BENCHMARK.json``.
Every workload emits every one of them.  ``REPORTED`` lists the
workload-specific figures each run prints above the JSON line, with the
workloads each applies to.
"""

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("test_acc", "fraction", "higher", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

PER_LAYER = [
    ("data.prepare_s", "s", "lower"),
    ("kernels.gram_s", "s", "lower"),
    ("kernels.gram_mb_computed", "MB", "lower"),
    ("kernels.cross_rows_per_s", "rows/s", "higher"),
    ("admm.solve_s", "s", "lower"),
    ("admm.iters", "count", "lower"),
    ("admm.ms_per_iter", "ms", "lower"),
    ("admm.max_iter_share", "fraction", "lower"),
    ("admm.update_c_s", "s", "lower"),
    ("baselines.hinge_l1.solve_s", "s", "lower"),
    ("baselines.hinge_l1.iters", "count", "lower"),
    ("baselines.squared_hinge_l2.solve_s", "s", "lower"),
    ("baselines.squared_hinge_l2.iters", "count", "lower"),
    ("stationarity.certify_s", "s", "lower"),
    ("stationarity.certified", "fraction", "higher"),
    ("model.from_solution_s", "s", "lower"),
    ("model.to_json_s", "s", "lower"),
    ("model.from_json_s", "s", "lower"),
    ("model.json_bytes", "bytes", "lower"),
    ("model.primal_rows_per_s", "rows/s", "higher"),
    ("model.dual_rows_per_s", "rows/s", "higher"),
    ("model.primal_dual_agree", "fraction", "higher"),
    ("model.nsv", "count", "lower"),
    ("cli.workers", "count", "higher"),
    ("cli.cpu_s", "s", "lower"),
    ("cli.cpu_per_wall", "ratio", "lower"),
    ("data.self_s", "s", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("admm.self_s", "s", "lower"),
    ("baselines.self_s", "s", "lower"),
    ("stationarity.self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

# (name, unit, better, workloads)
REPORTED = [
    ("setup_s", "s", "lower", ("train-large", "grid-small", "serve")),
    ("op_tail_s", "s", "lower", ("train-large", "grid-small", "serve")),
    ("train_s", "s", "lower", ("train-large",)),
    ("grid_s", "s", "lower", ("grid-small",)),
    ("predict_rows_per_s", "rows/s", "higher", ("serve",)),
    ("predict_batch_p50_ms", "ms", "lower", ("serve",)),
    ("predict_batch_tail_ms", "ms", "lower", ("serve",)),
    ("certified_share", "fraction", "higher", ("train-large", "grid-small")),
    ("test_acc", "fraction", "higher", ("train-large", "grid-small", "serve")),
    ("nsv", "count", "lower", ("train-large", "grid-small", "serve")),
    ("failed_share", "fraction", "lower", ("train-large", "grid-small", "serve")),
    ("peak_rss_mb", "MB", "lower", ("train-large", "grid-small", "serve")),
]

WORKLOADS = ("train-large", "grid-small", "serve")
