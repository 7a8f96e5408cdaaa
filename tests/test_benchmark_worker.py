"""The benchmark's fault hook still reaches the package.

``perfbench/worker.py --fault flip-bit`` rebuilds one slice with the row
constructor ``BitMatrix(nrows, ncols, rows)`` from ``rows()``, wraps it in a
positional ``GradedSlice(...)`` and rebinds ``graded_slice`` in ``cli``,
``cohomology``, ``monomials`` and ``verify``.  If any of those names goes,
the fault no longer shows and the benchmark's correctness gate is blind, so
each workload runs once clean and once with the fault, at its smoke size.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")


@pytest.mark.parametrize("workload", ["dims", "ring", "conjecture", "verify"])
def test_flipped_coboundary_bit_fails_the_workload(workload):
    failed = {}
    for fault in ("none", "flip-bit"):
        proc = subprocess.run(
            [sys.executable, "-B", WORKER, "--workload", workload, "--seed", "1",
             "--size", "smoke", "--trace", "0", "--fault", fault, "--t0", str(time.monotonic())],
            capture_output=True, text=True, timeout=60, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        failed[fault] = result["failed"]
        # a hook that no longer fits the package fails too, but by a lookup or a call
        for error in ("AttributeError", "TypeError"):
            assert not any(error in line for line in result["failures"]), result["failures"]
    assert failed == {"none": False, "flip-bit": True}
