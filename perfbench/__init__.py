"""Benchmark of the profiling CLI and the analysis daemon (see README.md)."""
