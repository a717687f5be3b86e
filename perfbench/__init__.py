"""The repository benchmark: seeded workloads over Lingua Manga's public
entry points, end-to-end metrics measured untraced, and a traced run that
splits each job's time across the system's layers.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
