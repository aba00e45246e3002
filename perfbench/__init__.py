"""The repository benchmark: three workloads through the public surface.

Run it from the repository root::

    python3 perfbench/run.py --workload exact-8k --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and oracle.
"""
