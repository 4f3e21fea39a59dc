"""Benchmark for ohmwalk: closed-loop workloads, correctness oracles and layer tracing."""
