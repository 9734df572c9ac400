"""Host-time benchmark of the join system.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload from the repository root and prints
one JSON result line last. See :mod:`perfbench.run` for the workloads
and metrics, ``BENCHMARK.json`` for the bounds.
"""
