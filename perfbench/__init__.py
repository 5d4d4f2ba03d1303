"""slicesim's benchmark: seeded CLI workloads, end-to-end timings, traced per-layer metrics."""
