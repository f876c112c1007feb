"""Worker count reported by the benchmark harness: the package runs
serially and ignores QCRB_LAB_THREADS."""

# bench/harness.py imports both names; the module goes with the next benchmark change.
ENV_THREADS = "QCRB_LAB_THREADS"


def worker_cap() -> int:
    """Worker count: always 1."""
    return 1
