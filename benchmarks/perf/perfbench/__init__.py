"""The SmartStore wall-clock benchmark: inputs, oracle, measurement loops,
workloads and reporting (driven by ``benchmarks/perf/run.py``)."""
