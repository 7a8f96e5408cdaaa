"""A fixed reference computation that measures the speed of the machine.

``wall_rel`` divides an operation's wall time by the time of this kernel,
run in the same interpreter just before and just after the operation.  The
kernel does not use ``wittcoh``, so a change to the package moves only the
numerator, while a machine that runs slower for a while slows both.

The kernel does the two kinds of GF(2) work the package does, in about
70 ms: it eliminates one large random bit matrix whose rows are Python ints
(as ``gf2`` does for a slice's kernel), and solves many tiny random systems
built from coordinate tuples (as a ring query does).  Of the candidate
kernels tried, this pair followed the workloads' slowdowns most closely; a
kernel that enumerates partitions into a dict followed them less well.
Its inputs are fixed; it must never be changed, or ``wall_rel`` stops being
comparable across commits.
"""

import random
import time

MATRIX_SIZE = 1000
SMALL_SYSTEMS = 1200
SMALL_ROWS = 12
SMALL_BITS = 16
SEED = 20160530


def solve(rows: list[int], target: int) -> int | None:
    """A combination of ``rows`` (as a bitmask) that XORs to ``target``, or None."""
    pivots: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(rows):
        combo = 1 << i
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, combo)
                break
            pivot, pivot_combo = pivots[top]
            row ^= pivot
            combo ^= pivot_combo
    x = 0
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return None
        pivot, pivot_combo = pivots[top]
        target ^= pivot
        x ^= pivot_combo
    return x


def kernel() -> tuple[int, int]:
    """(rank of the large matrix, number of solvable small systems)."""
    rng = random.Random(SEED)
    pivots: dict[int, int] = {}
    for _ in range(MATRIX_SIZE):
        row = rng.getrandbits(MATRIX_SIZE)
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    solvable = 0
    for _ in range(SMALL_SYSTEMS):
        rows = [rng.getrandbits(SMALL_BITS) for _ in range(SMALL_ROWS)]
        coords = tuple(rng.getrandbits(1) for _ in range(SMALL_BITS))
        target = sum(bit << j for j, bit in enumerate(coords))
        solvable += solve(rows, target) is not None
    return len(pivots), solvable


EXPECTED = kernel()  # also warms the kernel's code before the first timing


def timed() -> float:
    """Seconds one run of the kernel takes; raises if its result is wrong."""
    t0 = time.perf_counter()
    result = kernel()
    elapsed = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference kernel gave {result}, expected {EXPECTED}")
    return elapsed
