"""Repository benchmark: sweeps and served traffic, end to end and per layer.

Entry point: ``python3 perfbench/run.py --help``.
"""
