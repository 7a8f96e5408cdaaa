"""The four workloads: one cold operation each, and the check of its output.

Each ``run_*`` function performs one operation against a freshly imported
``wittcoh`` and returns an ``Outcome``.  Every check is either a comparison
with a reference recorded from the package (``refs.json``, written by
``make_refs.py``) or an invariant computed here without the package.

Library functions are looked up as attributes of ``wittcoh`` (its public
API) or of its modules at call time, so the tracer's rebinding
(``tracing.install``) sees every call.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field

import wittcoh
from wittcoh import cli, conjecture, verify

K = 1  # minimal generator index of the dims, ring and conjecture workloads

# Workload sizes: "full" is what the benchmark measures, "smoke" is the
# self-test's tiny run.  dims: largest degree; ring: largest product degree;
# conjecture: scan bound; verify: run_suites n_max.
SIZES = {
    "dims": {"full": 44, "smoke": 12},
    "ring": {"full": 27, "smoke": 12},
    "conjecture": {"full": 29, "smoke": 12},
    "verify": {"full": 24, "smoke": 8},
}


@dataclass
class Outcome:
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    items: int = 0  # cells, products or checks the operation produced
    latencies: list[float] = field(default_factory=list)  # per cup, ring only

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def strict_tuple_counts(n_max: int, k: int) -> dict[tuple[int, int], int]:
    """Number of strictly increasing q-tuples of integers >= k summing to n,
    for 0 <= n <= n_max: the dimension of the (n, q) cochain slice, counted
    without the package."""
    # count[(n, q)] over tuples whose entries are all < m, for growing m
    count = {(0, 0): 1}
    for m in range(k, n_max + 1):
        for (n, q), c in sorted(count.items(), reverse=True):
            if n + m <= n_max:
                count[(n + m, q + 1)] = count.get((n + m, q + 1), 0) + c
    return count


def run_dims(size: int, seed: int, ref: dict) -> Outcome:
    """``wittcoh dims --k 1 --n-max size --format json``; the seed is unused."""
    out = Outcome()
    buf = io.StringIO()
    code = cli.main(["dims", "--k", str(K), "--n-max", str(size), "--format", "json"], stdout=buf)
    text = buf.getvalue()
    out.digest = hashlib.md5(text.encode()).hexdigest()
    out.check(code == 0, f"dims exited {code}")
    out.check(out.digest == ref["md5"], f"dims stdout md5 {out.digest} != reference {ref['md5']}")
    h = {}
    for cell in json.loads(text)["cells"]:
        h[(cell["n"], cell["q"])] = cell["dim"]
    out.items = len(h)
    # Euler characteristic per degree: sum (-1)^q dim C = sum (-1)^q dim H
    chains = strict_tuple_counts(size, K)
    for n in range(1, size + 1):
        chi_c = sum((-1) ** q * c for (m, q), c in chains.items() if m == n and q >= 1)
        chi_h = sum((-1) ** q * d for (m, q), d in h.items() if m == n)
        out.check(chi_c == chi_h, f"dims n={n}: Euler characteristic {chi_h} != {chi_c}")
    return out


def ring_cells(size: int) -> list[tuple[int, int]]:
    return [
        (n, q)
        for n in range(1, size)
        for q in range(1, wittcoh.max_length(K, n) + 1)
        if wittcoh.cohomology_dim(K, n, q)
    ]


def ring_pairs(size: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Unordered pairs of nonzero blocks whose product degree is at most size."""
    cells = ring_cells(size)
    return [(a, b) for i, a in enumerate(cells) for b in cells[i:] if a[0] + b[0] <= size]


def bits(v: int) -> list[int]:
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def run_ring(size: int, seed: int, ref: dict) -> Outcome:
    """Cup products of seeded random classes over every pair of blocks.

    Each block pair gets dim1*dim2 draws.  Per draw: cup(a, b), cup(b, a),
    and the class of the wedge with the left representative moved by random
    coboundaries.  All three must equal the product predicted by bilinearity
    from the reference table of basis-class products.
    """
    out = Outcome()
    rng = random.Random(seed)
    table = ref["products"]
    pairs = ring_pairs(size)
    out.check(len(pairs) == len(table), f"ring: {len(pairs)} block pairs, reference has {len(table)}")
    digest = hashlib.md5()
    clock = time.perf_counter
    for ((n1, q1), (n2, q2)), units in zip(pairs, table):
        basis1 = wittcoh.cohomology_basis(K, n1, q1)
        d1, d2 = basis1.dim, wittcoh.cohomology_dim(K, n2, q2)
        for _ in range(d1 * d2):
            va = rng.getrandbits(d1) or 1
            vb = rng.getrandbits(d2) or 1
            a = wittcoh.CohomologyClass(K, n1, q1, tuple((va >> j) & 1 for j in range(d1)))
            b = wittcoh.CohomologyClass(K, n2, q2, tuple((vb >> j) & 1 for j in range(d2)))
            expected = 0
            for i in bits(va):
                for j in bits(vb):
                    expected ^= units[i * d2 + j]
            t0 = clock()
            ab = wittcoh.cup(a, b)
            t1 = clock()
            ba = wittcoh.cup(b, a)
            t2 = clock()
            out.latencies += (t1 - t0, t2 - t1)
            moved = basis1.slice.coords(wittcoh.representative(a))
            for col in basis1.image_vecs:
                if rng.random() < 0.5:
                    moved ^= col
            wedge = wittcoh.wedge(basis1.slice.cochain(moved), wittcoh.representative(b))
            perturbed = wittcoh.class_of(wedge, K, n=n1 + n2, q=q1 + q2)
            got = sum(bit << j for j, bit in enumerate(ab.coords))
            digest.update(f"{got},".encode())
            out.items += 1
            if got != expected or ba != ab or perturbed != ab:
                out.failures.append(
                    f"ring ({n1},{q1})x({n2},{q2}) a={va:b} b={vb:b}: cup {got:b}, "
                    f"reversed {ba.coords}, perturbed {perturbed.coords}, expected {expected:b}"
                )
    out.digest = digest.hexdigest()
    return out


def conjecture_digest(report) -> str:
    cells = [[c.q, c.n, c.lhs, c.rhs] for c in report.hilbert_cells + report.counting_cells]
    return hashlib.md5(json.dumps(cells).encode()).hexdigest()


def run_conjecture(size: int, seed: int, ref: dict) -> Outcome:
    """``conjecture.scan(size)``; the seed is unused."""
    out = Outcome()
    report = conjecture.scan(size)
    out.digest = conjecture_digest(report)
    out.items = len(report.hilbert_cells) + len(report.counting_cells)
    out.check(out.digest == ref["md5"], f"conjecture cell tables md5 {out.digest} != reference {ref['md5']}")
    out.check(report.internally_consistent, "conjecture: the two reductions disagree")
    return out


def run_verify(size: int | None, seed: int, ref: dict) -> Outcome:
    """``verify.run_suites`` at the given bounds, with the benchmark's seed."""
    out = Outcome()
    results = verify.run_suites(n_max=size, seed=seed)
    checked = {r.name: r.checked for r in results}
    out.items = sum(checked.values())
    out.digest = hashlib.md5(json.dumps(checked, sort_keys=True).encode()).hexdigest()
    for r in results:
        out.check(r.passed, f"verify suite failed: {r.summary()} {r.failures[:3]}")
    out.check(checked == ref["checked"], f"verify check counts {checked} != reference {ref['checked']}")
    return out


RUNNERS = {
    "dims": run_dims,
    "ring": run_ring,
    "conjecture": run_conjecture,
    "verify": run_verify,
}
