"""Write ``refs.json``: the reference outputs the benchmark checks against.

Run it once on a trusted commit, from the root of a checkout:

    python3 perfbench/make_refs.py

For every workload size in ``workloads.SIZES`` it records the dims stdout
md5, the conjecture cell-table md5, the verify check count per suite, and
the ring's table of products of basis classes (one list of coordinate
bitmasks per block pair, row-major over the two bases).  Random ring
products are checked against that table by bilinearity, so any seed can be
checked.
"""

import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import wittcoh  # noqa: E402
import workloads  # noqa: E402
from wittcoh import cli, conjecture, verify  # noqa: E402


def unit_class(n: int, q: int, i: int) -> wittcoh.CohomologyClass:
    d = wittcoh.cohomology_dim(workloads.K, n, q)
    return wittcoh.CohomologyClass(workloads.K, n, q, tuple(int(j == i) for j in range(d)))


def ring_table(size: int) -> list[list[int]]:
    table = []
    for (n1, q1), (n2, q2) in workloads.ring_pairs(size):
        d1 = wittcoh.cohomology_dim(workloads.K, n1, q1)
        d2 = wittcoh.cohomology_dim(workloads.K, n2, q2)
        units = []
        for i in range(d1):
            for j in range(d2):
                prod = wittcoh.cup(unit_class(n1, q1, i), unit_class(n2, q2, j))
                units.append(sum(bit << b for b, bit in enumerate(prod.coords)))
        table.append(units)
    return table


def require(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"refusing to record references: {message}")


def main() -> None:
    refs = {name: {} for name in workloads.SIZES}
    for size in workloads.SIZES["dims"].values():
        buf = io.StringIO()
        code = cli.main(["dims", "--k", str(workloads.K), "--n-max", str(size), "--format", "json"], stdout=buf)
        require(code == 0, f"dims exited {code}")
        refs["dims"][str(size)] = {"md5": hashlib.md5(buf.getvalue().encode()).hexdigest()}
    for size in workloads.SIZES["ring"].values():
        refs["ring"][str(size)] = {"products": ring_table(size)}
    for size in workloads.SIZES["conjecture"].values():
        report = conjecture.scan(size)
        require(report.internally_consistent, f"conjecture scan {size} is inconsistent")
        refs["conjecture"][str(size)] = {"md5": workloads.conjecture_digest(report)}
    for size in workloads.SIZES["verify"].values():
        results = verify.run_suites(n_max=size, seed=0)
        require(all(r.passed for r in results), str([r.summary() for r in results if not r.passed]))
        refs["verify"][str(size)] = {"checked": {r.name: r.checked for r in results}}
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
