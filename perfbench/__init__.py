"""Repository benchmark: frames, short and serve workloads with per-layer host-time attribution (see README.md)."""
