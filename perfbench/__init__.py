"""Benchmark harness for fiedler; run it with ``python3 perfbench/run.py``."""
