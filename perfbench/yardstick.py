"""Fixed reference work that measures how fast the shared host runs at the moment.

The measuring host is a VM whose cores are shared with other tenants.  Their
load comes and goes over seconds to minutes and slows every instruction the
benchmark runs, CPU time as much as wall time.  The child process runs this
reference work right before and right after each command; a command's time
is then scaled by NOMINAL / (the reference's time around it), which gives
the time the command would take when the reference runs at its nominal
speed.  The program under test never runs here, so a change to it moves
the scaled times and leaves the reference alone.

Two parts, one per kind of work in the program:

- `python`: dict, int, str and tuple work in the interpreter, like the
  counting, signature, enumeration and graph layers.
- `numpy`: residue scans over a fresh int64 array, like `solve_naive` and
  `_first_root_mod_prime`; it is memory-bound the way those scans are.

Each command names the part it is scaled by.  NOMINAL holds each part's
lowest time in 400 runs (`python3 perfbench/yardstick.py 400`) on a 2-core
Intel Xeon VM with Python 3.11.7 and numpy 2.4.6, which stands for a quiet
host.  It is a fixed constant: it sets the scale of the scaled times, not
their spread.
"""

from __future__ import annotations

import time

NOMINAL = {"python": 0.0209, "numpy": 0.0421}

PY_ROUNDS = 85_000
# Above glibc's largest mmap threshold (32 MiB), so the arrays are mapped and
# unmapped whole and leave the program's heap and its peak RSS as they were.
NP_LENGTH = 4_400_000
NP_MODULUS = 4_399_993


def python_part() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PY_ROUNDS):
        key = i % 251
        table[key] = table.get(key, 0) + (i * i) % 13
        total += len(str(i)) + len((key, i))
    return total + len(table)


def numpy_part() -> int:
    import numpy as np

    x = np.arange(NP_LENGTH, dtype=np.int64)
    values = x * x
    values += x
    values += 1
    values %= NP_MODULUS
    return int(values.min())


PARTS = {"python": python_part, "numpy": numpy_part}


def measure(parts: list[str]) -> dict:
    """Wall and CPU seconds of each named part, run once in order."""
    times = {}
    for name in parts:
        t0, c0 = time.perf_counter(), time.process_time()
        PARTS[name]()
        times[name] = (time.perf_counter() - t0, time.process_time() - c0)
    return times


if __name__ == "__main__":
    import statistics
    import sys

    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    samples = [measure(list(PARTS)) for _ in range(runs)]
    for name in PARTS:
        wall = [s[name][0] for s in samples]
        print(f"{name}: lowest {min(wall):.5f} s, median {statistics.median(wall):.5f} s over {runs} runs")
