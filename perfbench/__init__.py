"""Benchmark of the ``speechrig`` command line; run it with ``python3 perfbench/run.py``."""
