"""The benchmark's tracer still finds every name it rebinds.

``perfbench/tracing.py`` looks up functions, methods and caches of the
package by name.  Renaming or deleting one of them breaks the benchmark, so
this test installs the tracer in a fresh interpreter, runs a little of each
layer and reads the per-layer metrics back.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
import io
from wittcoh import cli, cohomology, conjecture, monomials, verify
from wittcoh.partitions import marked_regular_partitions
from wittcoh.gf2 import BitMatrix
m = BitMatrix(2, 2, [0b01, 0b11])
assert m @ m.inverse() == BitMatrix(2, 2, [0b01, 0b10])
assert m.solve(0b11) is not None
# both drop each degree's slices and bases after it
assert verify.criterion_wedge_basis(8).passed
conjecture.scan(8)
dropped = tracing.layer_metrics(tracer)
assert cli.main(["dims", "--n-max", "10", "--format", "json"], io.StringIO(), io.StringIO()) == 0
a = cohomology.class_of(monomials.y_cocycle(2))
cohomology.cup(a, a)
for mp in marked_regular_partitions(9, 2, 1):
    monomials.decompose(monomials.marked_wedge(mp))
    monomials.decompose_corrected(monomials.corrected_wedge(mp))
print(json.dumps([dropped, tracing.layer_metrics(tracer)]))
"""


def test_tracer_installs_and_reports_every_layer():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    dropped, metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    assert dropped["monomials.basis_builds"] > 0
    for name in ("graded_slice", "cohomology_basis", "regular_basis", "corrected_basis"):
        assert dropped[f"caching.entries.{name}"] == 0, name
    for name in (
        "monomials.basis_builds",
        "monomials.wedge_calls",
        "monomials.decompose_calls",
        "caching.entries.regular_basis",
        "caching.entries.corrected_basis",
        "caching.entries.cohomology_basis",
        "caching.entries.graded_slice",
        "cochains.slice_builds",
        "cohomology.basis_builds",
        "cohomology.class_of_calls",
        "cohomology.cup_calls",
        "gf2.kernel_calls",
        "gf2.solve_calls",
        "gf2.inverse_calls",
        "gf2.span_adds",
        "partitions.enum_calls",
        "conjecture.ideal_rank_calls",
    ):
        assert metrics[name] > 0, name
    # since the drop, one regular and one corrected basis per block touched
    assert metrics["monomials.basis_builds"] - dropped["monomials.basis_builds"] == (
        metrics["caching.entries.regular_basis"] + metrics["caching.entries.corrected_basis"]
    )
