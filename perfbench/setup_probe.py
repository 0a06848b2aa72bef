"""Time one fresh set-up: import orbitlab (with numpy and scipy), build the
bundled deck groups and generate a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the raw and the normalised seconds (see `speed`), measured from
just after the reference loops this script runs first to just before
the ones it runs last; each end takes the median of three loops.
"""

import statistics
import time

import speed


def _reference() -> float:
    return statistics.median(speed.reference_loop() for _ in range(3))


_BEFORE = _reference()
_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.Workload(sys.argv[1], int(sys.argv[2]))
_RAW = time.perf_counter() - _START
print(_RAW, _RAW * speed.factor(_BEFORE, _reference()))
