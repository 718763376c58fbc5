"""Benchmark for ratherm: drives ``ratherm.cli.main`` in-process.

``run.py`` is the entry point; ``ladder.py`` is a one-shot traced report over
the size ladder.  Nothing here is imported by ratherm itself.
"""
