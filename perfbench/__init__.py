"""Wall-clock benchmark of the repository's serving and solving stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` runs one workload; ``BENCHMARK.json`` at the repository
root lists the workloads, the end-to-end metrics and their bounds.
See ``perfbench/README.md``.
"""
