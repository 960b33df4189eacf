"""Benchmark support code for the BWaveR end-to-end benchmark (perfbench/run.py)."""
