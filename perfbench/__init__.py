"""Benchmark of the superrec commands; run it with perfbench/run.py."""
