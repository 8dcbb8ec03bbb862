"""Host speed reference (standard library only).

The benchmark host is a shared 2-vCPU machine whose speed drifts with its
neighbours' load. This fixed pure-Python loop is timed between consecutive
jobs, and each job's time is scaled by ``REF_NS`` over the mean of the loop
times just before and just after it: the time the job takes on a host where
``sample()`` reads ``REF_NS``. Over 150 s of the atlas job pool on that host
the interquartile spread of 15-s windows was 34% for raw round times, 5.8%
when scaled with a pure float loop and 2.2% with this loop; over 100 s it was
1.7% for design and 3.1% for analysis.
"""

import time

LOOP = 1_500
REF_NS = 500_000  # about the loop's time on the 2-vCPU host


def sample() -> int:
    """Nanoseconds for one pass of the fixed loop: float arithmetic plus
    number formatting into a growing list, like the library's own mix."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    parts = []
    for i in range(LOOP):
        v = (i * 0.5) ** 0.5
        acc += v
        if i % 4 == 0:
            parts.append(f"{v:.6f}")
    " ".join(parts)
    return time.perf_counter_ns() - t0


def scale(before: int, after: int) -> float:
    """Factor from a measured time to reference-speed time, for work timed
    between two loop samples."""
    return 2.0 * REF_NS / (before + after)


def factor(samples: list[int]) -> float:
    """Factor from measured to reference-speed time, from the median of
    loop samples taken around the work."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    return REF_NS / median
