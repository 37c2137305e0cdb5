"""Benchmark of the eiv-lpe package: fixed workloads, end-to-end metrics,
correctness checks and a traced per-layer run.  See README.md; run it with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``.
"""
