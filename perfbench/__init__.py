"""Benchmark harness for the ``addspan`` CLI.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
generates the workload's edge-list files from the seed, drives
``addspan build`` / ``addspan verify`` one call at a time, checks every
output independently of ``addspan`` and prints one metric per line followed
by a JSON summary as the last line.  See ``perfbench/README.md``.
"""
