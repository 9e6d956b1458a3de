"""The machine-speed probe shared by the benchmark and its setup children.

The speed of the machine this benchmark was tuned on (2 vCPUs, Xeon at
2.1 GHz) switched between phases up to 1.5x apart every minute or so,
moving every timing together.  Timing this fixed pure-Python loop next to
each measurement and scaling by it removes most of that drift.
"""

from time import perf_counter

# calib_s() on the tuning machine in its fast phase.  Scaled figures read as
# times on a machine where the loop takes this long.
REFERENCE_S = 0.025


def calib_s() -> float:
    """Seconds for a fixed loop of 300 000 integer steps."""
    t0 = perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    return perf_counter() - t0
