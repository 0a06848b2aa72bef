"""The machine's current speed, from a fixed pure-Python reference loop.

On a shared host the same code runs at different speeds from one second
to the next: other guests take turns on the physical cores, and the
benchmark's process runs up to twice as slowly while they do (CPU time
grows with wall time, so this is slower execution, not preemption).
The slow phases last from one to several seconds, longer than most
operations and shorter than a run, so a run's raw times depend on how
much of it fell into slow phases.

`reference_loop` is fixed work that never touches the library: integer
arithmetic with gcds and dict updates, the operations exact rational
code spends its time on. Timing it just before and just
after an operation tells how fast the machine ran meanwhile, and

    normalised = raw * REFERENCE_S / (reference loop seconds around it)

is the time the operation would take on a machine that runs the
reference loop in ``REFERENCE_S``. A change to the library moves the
normalised time as it moves the raw time; a slow phase of the host moves
both the operation and the reference loop, and cancels.

The pure-Python loop uses only builtins, so the set-up probe can time
itself with it before it imports anything else; numpy and scipy are
imported only for the numeric reference.
"""

import gc
import math
import time

# a typical time of the reference loop on the machine the bounds were set
# on (2-vCPU x86_64 VM, Python 3.11.7): about 3.2 ms in its fast phases and
# 5.5 ms in its slow ones. It only sets the scale; normalised times read
# close to raw ones there.
REFERENCE_S = 0.005
# typical times of the numpy pass and the Dijkstra solve there
NUMPY_S = 0.0025
DIJKSTRA_S = 0.0008


def reference_loop(numeric: bool = False) -> float:
    """Seconds to run the fixed reference work once. It creates no object
    the cyclic garbage collector tracks, and the collector is off while it
    runs, so garbage an operation left behind is not collected on its clock.

    With ``numeric``, also time a fixed numpy pass and a fixed scipy
    Dijkstra solve, each scaled to the loop's typical time, and return
    the geometric mean of the three. The host's phases slow numpy and
    scipy differently from the interpreter, so this is the reference for
    code that spends its time in them."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        seconds = _python_loop()
        if numeric:
            seconds = (seconds * _numpy_pass() * REFERENCE_S / NUMPY_S
                       * _dijkstra_solve() * REFERENCE_S / DIJKSTRA_S) ** (1 / 3)
        return seconds
    finally:
        if was_enabled:
            gc.enable()


def _python_loop() -> float:
    clock = time.perf_counter
    start = clock()
    table = {}
    num, den = 1, 1
    for i in range(1, 5000):
        num = num * (i % 7 + 2) + den * (i % 5 + 1)
        den = den * (i % 11 + 2)
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den > 1 << 60:
            num, den = num % 1009 + 1, den % 1013 + 1
        table[(i % 97) * 101 + num % 101] = den % 103 + i
    return clock() - start


_NUMERIC = {}


def _numeric_inputs():
    """A fixed array and a fixed 40 x 40 grid graph, built once."""
    if not _NUMERIC:
        import numpy as np
        from scipy.sparse import csr_matrix

        rng = np.random.default_rng(0)
        n = 40
        idx = np.arange(n * n).reshape(n, n)
        rows = np.r_[idx[:, :-1].ravel(), idx[:-1, :].ravel()]
        cols = np.r_[idx[:, 1:].ravel(), idx[1:, :].ravel()]
        weights = rng.random(len(rows)) + 0.5
        _NUMERIC["array"] = rng.random(150_000)
        _NUMERIC["graph"] = csr_matrix((weights, (rows, cols)), shape=(n * n, n * n))
    return _NUMERIC


def _numpy_pass() -> float:
    import numpy as np

    a = _numeric_inputs()["array"]
    start = time.perf_counter()
    np.sort(a)
    np.cumsum(a * 1.0001)
    return time.perf_counter() - start


def _dijkstra_solve() -> float:
    from scipy.sparse.csgraph import dijkstra

    graph = _numeric_inputs()["graph"]
    start = time.perf_counter()
    dijkstra(graph, directed=False, indices=[0, 777])
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Multiplier that turns a raw time between two reference loops into a
    normalised one."""
    return 2.0 * REFERENCE_S / (before + after)
