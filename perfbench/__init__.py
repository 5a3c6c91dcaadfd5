"""Benchmark for the Checkmate reproduction: see README.md."""
