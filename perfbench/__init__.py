"""Benchmark of splinequad; run it with ``python3 perfbench/run.py``."""
