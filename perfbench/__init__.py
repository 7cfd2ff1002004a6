"""LOVO benchmark: three workloads, best-of-rounds timings, traced per-layer mode."""
