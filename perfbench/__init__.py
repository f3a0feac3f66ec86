"""End-to-end benchmark of the reproduction: full-scale tables, a cold
corpus fill and a served plan mix, with an outside-in layer trace.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and trajectory are documented in ``perfbench/README.md``.
"""
