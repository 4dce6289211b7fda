"""Benchmark for cflab: seeded inputs, the timed harness paths, output checks and tracing."""
