"""Benchmark of the frpsim experiment grid; see README.md in this directory."""
