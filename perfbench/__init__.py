"""Benchmark of the synicl selection, prompting, endpoint and scoring layers.

Run `python3 perfbench/run.py --help` from the repository root.
"""
