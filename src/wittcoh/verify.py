"""The evidence layer: every theorem check of the package, as suites.

The other modules only compute; each claim is checked here, by one
``criterion_*`` suite that returns a CheckResult.  All expected values are
either computed independently (combinatorial predictions vs. linear algebra)
or are exact cochain identities.  Default bounds are the ones the package
commits to; passing a smaller ``n_max`` scales every suite down.  At
``n_max=0`` the blocks of degree -1 and 0 at minimal indices 0 and -1
remain, and the low-index and structural suites still run 15 checks on them.
"""

from __future__ import annotations

import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations

from . import caching
from .cochains import (
    Cochain,
    boundary,
    coboundary,
    generator,
    generator_action,
    graded_slice,
    max_length,
    wedge,
)
from .cohomology import (
    central_extension_basis,
    class_of,
    cohomology_basis,
    cohomology_dim,
    cup,
    poincare_computed,
    poincare_predicted,
    poly_str,
    predicted_low_index_dim,
    representative,
)
from .conjecture import scan
from .gf2 import BitMatrix, Gf2Span
from .monomials import (
    corrected_wedge,
    decompose,
    e_cocycle,
    marked_subsets,
    marked_wedge,
    markable_parts,
    pair_cocycle,
    predicted_coboundary,
    regular_basis,
    x_cocycle,
    y_cocycle,
    z_cocycle,
)
from .partitions import (
    MarkedPartition,
    Order,
    Partition,
    canonical_decomposition,
    cohomology_partitions,
    compare,
    count_special,
    is_regular_marked,
    leading_parts,
    marked_regular_partitions,
    max_regular_length,
    regular_partitions,
    strict_partitions,
)


@dataclass
class CheckResult:
    name: str
    passed: bool = True
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def count(self, k: int = 1) -> None:
        self.checked += k

    def fail(self, message: str) -> None:
        self.passed = False
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name} ({self.checked} checks)"


def _bound(default: int, n_max: int | None) -> int:
    return default if n_max is None else min(default, n_max)


def criterion_worked_example(n_max: int | None = None) -> CheckResult:
    """Degree 12 at minimal index 1: dimensions t + 3t^2 + 3t^3, from cold caches."""
    res = CheckResult("worked example, degree 12")
    if _bound(12, n_max) < 12:
        res.note("skipped: bound below 12")
        return res
    caching.clear_all()
    start = time.perf_counter()
    got = poincare_computed(12, 1)
    elapsed = time.perf_counter() - start
    res.count()
    if got != {1: 1, 2: 3, 3: 3}:
        res.fail(f"degree 12: computed {poly_str(got)}")
    res.count()
    if elapsed >= 1.0:
        res.fail(f"degree 12 took {elapsed:.3f}s (budget 1s)")
    res.note(f"{elapsed * 1000:.0f} ms")
    return res


def criterion_dims_min_index_1(n_max: int | None = None) -> CheckResult:
    """Prediction vs. brute force for every degree and length, minimal index 1."""
    res = CheckResult("dimension formula, minimal index 1")
    for n in range(1, _bound(40, n_max) + 1):
        res.count()
        predicted = poincare_predicted(n, 1)
        computed = poincare_computed(n, 1)
        if predicted != computed:
            res.fail(f"n={n}: predicted {poly_str(predicted)}, computed {poly_str(computed)}")
    return res


def criterion_dims_min_index_k(n_max: int | None = None, k_bound: int = 4) -> CheckResult:
    res = CheckResult(f"dimension formula, minimal indices 2..{k_bound}")
    for k in range(2, k_bound + 1):
        for n in range(k, _bound(30, n_max) + 1):
            res.count()
            predicted = poincare_predicted(n, k)
            computed = poincare_computed(n, k)
            if predicted != computed:
                res.fail(
                    f"k={k} n={n}: predicted {poly_str(predicted)}, computed {poly_str(computed)}"
                )
    return res


def criterion_wedge_basis(n_max: int | None = None) -> CheckResult:
    """The regular marked-wedge matrix is square and invertible in every block,
    and every singular wedge decomposes strictly below its shape."""
    res = CheckResult("marked-wedge basis and triangularity")
    for n in range(1, _bound(30, n_max) + 1):
        top = max_length(1, n)
        for q in range(1, top + 3):
            res.count()
            n_strict = len(strict_partitions(n, q))
            n_marked = len(marked_regular_partitions(n, q, 1))
            if n_strict != n_marked:
                res.fail(f"(n={n}, q={q}): {n_strict} strict vs {n_marked} regular marked")
            if q <= top and n_strict:
                try:
                    regular_basis(n, q)  # raises when not square/invertible
                except ValueError as exc:
                    res.fail(f"(n={n}, q={q}): {exc}")
        for base in (p for q in range(1, top + 1) for p in strict_partitions(n, q)):
            # a mark on any other part gives a zero factor and no wedge
            markable = markable_parts(base)
            for r in range(len(markable) + 1):
                for marks in combinations(markable, r):
                    mp = MarkedPartition(base, marks)
                    value = marked_wedge(mp)
                    if value is None:
                        continue
                    res.count()
                    terms = decompose(value)
                    if is_regular_marked(mp, 1):
                        if set(terms) != {mp}:
                            res.fail(f"{mp}: regular wedge does not decompose to itself")
                    else:
                        bad = [t for t in terms if compare(t, mp) is not Order.LESS]
                        if bad:
                            res.fail(f"{mp}: term {bad[0]} not strictly below")
    return res


def criterion_pair_identities(n_max: int | None = None) -> CheckResult:
    """The three exact quadratic identities between generators and their
    coboundaries, each on its true domain.

    The double-coboundary sum vanishes only for n % 4 != 2 (for n = 4i it is
    what makes the marked pair cocycles closed); at n % 4 == 2, n >= 10 the
    sum is a nonzero regular wedge combination, which this check pins down
    rather than hides.
    """
    res = CheckResult("quadratic cochain identities")
    for n in range(2, _bound(60, n_max) + 1):
        delta_of = {i: coboundary(generator(i), 1) for i in range(1, n)}
        if n % 2:
            res.count()
            total = Cochain.zero()
            for a in range(1, (n + 1) // 2):
                total = total + wedge(generator(a), generator(n - a))
            if total != coboundary(generator(n), 1):
                res.fail(f"n={n}: pair sum is not the generator coboundary")
        res.count()
        total = Cochain.zero()
        for a in range(1, n):
            total = total + wedge(generator(a), delta_of[n - a])
        if total:
            res.fail(f"n={n}: mixed sum does not vanish")
        res.count()
        total = Cochain.zero()
        for a in range(1, n // 2 + 1):
            total = total + wedge(delta_of[a], delta_of[n - a])
        if n % 4 != 2:
            if total:
                res.fail(f"n={n}: double-coboundary sum does not vanish")
        elif n >= 10:
            if not total:
                res.fail(f"n={n}: double-coboundary counterexample unexpectedly vanished")
    return res


def criterion_corrected_coboundary(n_max: int | None = None) -> CheckResult:
    """The coboundary of every corrected wedge equals its closed form."""
    res = CheckResult("corrected-wedge coboundary closed form")
    for n in range(1, _bound(24, n_max) + 1):
        for q in range(1, max_length(1, n) + 1):
            for mp in marked_regular_partitions(n, q, 1):
                res.count()
                actual = coboundary(corrected_wedge(mp), 1)
                if actual != predicted_coboundary(mp):
                    res.fail(f"{mp}: coboundary differs from the closed form")
    return res


def criterion_product_relations(i_max: int = 8) -> CheckResult:
    """Ring relations as class identities, and their exact witnesses."""
    res = CheckResult(f"product relations, i <= {i_max}")
    if i_max < 1:
        res.note("skipped: bound below 1")
        return res
    res.count()
    if wedge(e_cocycle(), e_cocycle()):
        res.fail("square of the weight-1 generator is nonzero")
    res.count()
    if not class_of(wedge(e_cocycle(), x_cocycle(1)), 1, n=3, q=2).is_zero:
        res.fail("e*x1 is a nonzero class")
    res.count()
    if wedge(e_cocycle(), y_cocycle(1)):
        res.fail("e^y1 is nonzero as a cochain")
    for i in range(1, i_max + 1):
        res.count()
        if wedge(x_cocycle(i), x_cocycle(i)) or wedge(y_cocycle(i), y_cocycle(i)):
            res.fail(f"i={i}: a generator square is nonzero")
        # first family: the 3-classes decompose as products
        if i >= 2:
            res.count()
            sum_cls = class_of(Cochain.zero(), 1, n=4 * i, q=3)
            for a in range(1, i):
                sum_cls = sum_cls + cup(class_of(x_cocycle(2 * a)), class_of(y_cocycle(i - a)))
            if sum_cls != class_of(z_cocycle(i)):
                res.fail(f"i={i}: z relation fails as classes")
            res.count()
            witness = Cochain.zero()
            for m in range((i - 2) // 2 + 1):
                witness = witness + wedge(generator(2 * i - 4 * m - 3), generator(2 * i + 4 * m + 3))
            rhs = coboundary(witness, 1)
            for a in range(1, i):
                rhs = rhs + wedge(x_cocycle(2 * a), y_cocycle(i - a))
            if z_cocycle(i) != rhs:
                res.fail(f"i={i}: z witness identity fails as cochains")
        # second family: odd-x products vanish
        res.count()
        sum_cls = class_of(Cochain.zero(), 1, n=4 * i + 2, q=3)
        for a in range(i):
            sum_cls = sum_cls + cup(class_of(x_cocycle(2 * a + 1)), class_of(y_cocycle(i - a)))
        if not sum_cls.is_zero:
            res.fail(f"i={i}: odd-x relation fails as classes")
        res.count()
        witness = Cochain.zero()
        beta = i % 2
        for m in range(1, (i + 1) // 2 + 1):
            witness = witness + wedge(
                generator(4 * m - 1 - 2 * beta), generator(4 * (i - m) + 3 + 2 * beta)
            )
        lhs = Cochain.zero()
        for a in range(i):
            lhs = lhs + wedge(x_cocycle(2 * a + 1), y_cocycle(i - a))
        if lhs != coboundary(witness, 1):
            res.fail(f"i={i}: odd-x witness identity fails as cochains")
        # third family: the y-antisymmetry sum is exactly zero
        res.count()
        total = Cochain.zero()
        for a in range(i):
            total = total + wedge(y_cocycle(i - a), y_cocycle(i + a + 1))
        if total:
            res.fail(f"i={i}: y-family sum is nonzero as a cochain")
    return res


def criterion_low_min_index(n_max: int | None = None) -> CheckResult:
    """Minimal indices 0 and -1: dimension transfer, odd-degree vanishing,
    the explicit second-cohomology basis, and the action identities."""
    res = CheckResult("minimal indices 0 and -1")
    top = _bound(30, n_max)
    for k in (0, -1):
        for n in range(k, top + 1):
            for q in range(1, max_length(k, n) + 1):
                res.count()
                got = cohomology_dim(k, n, q)
                want = predicted_low_index_dim(n, q, k)
                if got != want:
                    res.fail(f"k={k} n={n} q={q}: computed {got}, predicted {want}")
    for n in range(2, _bound(60, n_max) + 1, 2):
        family = central_extension_basis(n)
        expected = n // 4 + 1
        res.count()
        if len(family) != expected:
            res.fail(f"n={n}: {len(family)} cocycles, expected {expected}")
        basis = cohomology_basis(-1, n, 2)
        res.count()
        if basis.dim != expected:
            res.fail(f"n={n}: dim H^2 = {basis.dim}, expected {expected}")
        span = Gf2Span(basis.image_vecs)
        for label, c in family:
            res.count()
            if coboundary(c, -1):
                res.fail(f"n={n} {label}: not closed at minimal index -1")
                continue
            if not span.add(basis.slice.coords(c)):
                res.fail(f"n={n} {label}: dependent modulo coboundaries")
    # The index-raising action of the degree -1 generator on the length-2
    # cocycle families lands on explicit coboundaries; even generators die.
    # The marked potential needs all tail terms sum_s e_{a-2s} ^ e_{a+3+2s};
    # its first term alone only suffices for a <= 3.
    for a in range(1, min(15, top) + 1, 2):
        res.count()
        if generator_action(-1, pair_cocycle(a)) != coboundary(generator(2 * a + 3), 1):
            res.fail(f"a={a}: action on the plain pair sum is not the expected coboundary")
        res.count()
        potential = Cochain.zero()
        for s in range((a - 1) // 2 + 1):
            potential = potential + wedge(generator(a - 2 * s), generator(a + 3 + 2 * s))
        if generator_action(-1, pair_cocycle(a, marked=True)) != coboundary(potential, 1):
            res.fail(f"a={a}: action on the marked pair sum is not the expected coboundary")
        for i in range(2, 2 * a + 3, 2):
            res.count()
            if generator_action(-1, generator(i)):
                res.fail(f"even generator {i}: action should vanish")
    return res


def criterion_special_counts(n_max: int | None = None) -> CheckResult:
    res = CheckResult("special partition counts")
    for q in range(1, _bound(8, n_max) + 1):
        for k in range(1, 6):
            res.count()
            got = count_special(q, k)
            want = math.comb(q + k - 1, k - 1)
            if got != want:
                res.fail(f"q={q} k={k}: counted {got}, expected {want}")
    return res


def _boundary_matrix(k: int, n: int, q: int) -> BitMatrix:
    source = graded_slice(k, n, q)
    target = graded_slice(k, n, q - 1)
    cols = []
    for mono in source.basis:
        cols.append(target.coords(boundary(Cochain(frozenset({mono})), k)))
    return BitMatrix.from_columns(cols, target.dim)


def criterion_structural(n_max: int | None = None, seed: int = 0) -> CheckResult:
    """Squared differentials vanish, the two differentials are adjoint,
    the degree -1 action is a chain map, and products do not depend on the
    choice of representatives."""
    res = CheckResult("structural properties")
    top = _bound(30, n_max)
    for k in (-1, 0, 1, 2, 3, 4):
        for n in range(k, top + 1):
            for q in range(1, max_length(k, n) + 1):
                res.count()
                sl = graded_slice(k, n, q)
                if not (graded_slice(k, n, q + 1).delta @ sl.delta).is_zero():
                    res.fail(f"k={k} n={n} q={q}: coboundary does not square to zero")
                if q >= 2:
                    res.count()
                    if _boundary_matrix(k, n, q) != graded_slice(k, n, q - 1).delta.transpose():
                        res.fail(f"k={k} n={n} q={q}: boundary is not adjoint to coboundary")
    for n in range(1, min(20, top) + 1):
        for q in range(1, max_length(1, n) + 1):
            for mono in graded_slice(1, n, q).basis:
                res.count()
                c = Cochain(frozenset({mono}))
                if generator_action(-1, coboundary(c, 1)) != coboundary(generator_action(-1, c), 1):
                    res.fail(f"n={n} q={q}: action does not commute with the coboundary")
    rng = random.Random(seed)
    prod_top = min(20, top)
    cells = [
        (n, q)
        for n in range(1, prod_top)
        for q in range(1, max_length(1, n) + 1)
        if cohomology_basis(1, n, q).dim > 0
    ]
    pairs = [
        (c1, c2) for c1 in cells for c2 in cells if c1[0] + c2[0] <= prod_top
    ]
    for _ in range(100 if pairs else 0):
        res.count()
        (n1, q1), (n2, q2) = rng.choice(pairs)
        b1 = cohomology_basis(1, n1, q1)
        b2 = cohomology_basis(1, n2, q2)
        cls1 = class_of(b1.slice.cochain(rng.choice(b1.rep_vecs)))
        cls2 = class_of(b2.slice.cochain(rng.choice(b2.rep_vecs)))
        expected = cup(cls1, cls2)
        perturbed = b1.slice.coords(representative(cls1))
        for col in b1.image_vecs:
            if rng.random() < 0.5:
                perturbed ^= col
        moved = wedge(b1.slice.cochain(perturbed), representative(cls2))
        got = class_of(moved, 1, n=n1 + n2, q=q1 + q2)
        if got != expected:
            res.fail(f"cup not representative-independent at ({n1},{q1})x({n2},{q2})")
    return res


def criterion_tensor_blocks(n_max: int | None = None) -> CheckResult:
    """Block decomposition: each regular base spans a subcomplex whose
    homology is the product over its simple components."""
    res = CheckResult("tensor blocks")
    for n in range(1, _bound(20, n_max) + 1):
        for q in range(1, max_regular_length(n, 1) + 1):
            for base in regular_partitions(n, q, 1):
                total, problems = _block_total_homology(base)
                for p in problems:
                    res.fail(p)
                expected = math.prod(
                    _block_total_homology(comp)[0] for comp in canonical_decomposition(base, 1)
                )
                res.count()
                if total != expected:
                    res.fail(f"{base}: block homology {total} != component product {expected}")
    return res


def _block_total_homology(base: Partition) -> tuple[int, list[str]]:
    """Total homology dimension of the span of one base's corrected wedges.

    Levels are mark counts; also reports any coboundary escaping the block.
    """
    problems: list[str] = []
    n = base.degree
    leads = leading_parts(base, 1)
    prev_rank = 0
    total = 0
    for r in range(len(leads) + 1):
        q = base.length + r
        sl = graded_slice(1, n, q)
        shapes = [MarkedPartition(base, m) for m in combinations(leads, r)]
        vecs = [sl.coords(corrected_wedge(mp)) for mp in shapes]
        next_span = Gf2Span()
        if r < len(leads):
            next_sl = graded_slice(1, n, q + 1)
            for m2 in combinations(leads, r + 1):
                next_span.add(next_sl.coords(corrected_wedge(MarkedPartition(base, m2))))
        image = Gf2Span()
        for mp, v in zip(shapes, vecs):
            dv = sl.delta.mul_vec(v)
            if dv and dv not in next_span:
                problems.append(f"{mp}: coboundary leaves its block")
            image.add(dv)
        total += len(vecs) - image.rank - prev_rank
        prev_rank = image.rank
    if prev_rank:
        problems.append(f"{base}: fully marked level is not closed")
    return total, problems


def criterion_cocycle_families(n_max: int | None = None) -> CheckResult:
    """The corrected wedges over the indexing partitions of each degree are
    nonzero closed cochains whose classes form a basis in every length."""
    res = CheckResult("cocycle family bases")
    for n in range(1, _bound(24, n_max) + 1):
        by_q: dict[int, list[Cochain]] = defaultdict(list)
        for base in cohomology_partitions(n, 1):
            for mp in marked_subsets(base):
                eps = corrected_wedge(mp)
                res.count()
                if not eps:
                    res.fail(f"{mp}: corrected wedge is zero")
                    continue
                if coboundary(eps, 1):
                    res.fail(f"{mp}: corrected wedge is not closed")
                    continue
                by_q[mp.length].append(eps)
        for q in sorted(set(by_q) | set(range(1, max_length(1, n) + 1))):
            fam = by_q.get(q, [])
            basis = cohomology_basis(1, n, q)
            res.count()
            if len(fam) != basis.dim:
                res.fail(f"n={n} q={q}: family size {len(fam)} != dim {basis.dim}")
                continue
            span = Gf2Span(basis.image_vecs)
            for eps in fam:
                if not span.add(basis.slice.coords(eps)):
                    res.fail(f"n={n} q={q}: family dependent modulo coboundaries")
                    break
    return res


def criterion_conjecture(n_max: int | None = None) -> CheckResult:
    """Conjecture evidence: both reductions must agree with each other;
    mismatched cells are reported as findings, not failures.

    Each ideal generator must map to the zero class under E -> e,
    X_i -> x_i, Y_i -> y_i, so the projection factors through the quotient.
    Both families are cut at the degree the X-family reaches at i_max.
    """
    res = CheckResult("conjecture evidence")
    top = _bound(24, n_max)
    report = scan(top)
    res.count(len(report.hilbert_cells) + len(report.counting_cells))
    for finding in report.findings():
        res.note(finding)
    if not report.internally_consistent:
        res.fail("the two reductions disagree about the conjecture")
    i_max = min(6, top // 4)
    if i_max >= 1:
        res.count()
        if not class_of(wedge(e_cocycle(), x_cocycle(1)), 1, n=3, q=2).is_zero:
            res.fail("E^X1 image is a nonzero class")
        res.count()
        if not class_of(wedge(e_cocycle(), y_cocycle(1)), 1, n=5, q=3).is_zero:
            res.fail("E^Y1 image is a nonzero class")
    for i in range(1, i_max + 1):
        res.count()
        acc = Cochain.zero()
        for a in range(i):
            acc = acc + wedge(x_cocycle(2 * a + 1), y_cocycle(i - a))
        if not class_of(acc, 1, n=4 * i + 2, q=3).is_zero:
            res.fail(f"G{i} image is a nonzero class")
        if 8 * i + 4 > 4 * i_max + 2:
            continue
        res.count()
        acc = Cochain.zero()
        for a in range(i):
            acc = acc + wedge(y_cocycle(i - a), y_cocycle(i + a + 1))
        if acc and not class_of(acc).is_zero:
            res.fail(f"H{i} image is a nonzero class")
    return res


def run_suites(n_max: int | None = None, k_bound: int = 4, seed: int = 0) -> list[CheckResult]:
    """Run every suite at (possibly scaled-down) committed bounds."""
    i_max = 8 if n_max is None else min(8, n_max // 4)
    suites = {
        "worked example, degree 12": lambda: criterion_worked_example(n_max),
        "dimension formula, minimal index 1": lambda: criterion_dims_min_index_1(n_max),
        f"dimension formula, minimal indices 2..{k_bound}":
            lambda: criterion_dims_min_index_k(n_max, k_bound),
        "marked-wedge basis and triangularity": lambda: criterion_wedge_basis(n_max),
        "quadratic cochain identities": lambda: criterion_pair_identities(n_max),
        "corrected-wedge coboundary closed form": lambda: criterion_corrected_coboundary(n_max),
        "cocycle family bases": lambda: criterion_cocycle_families(n_max),
        f"product relations, i <= {i_max}": lambda: criterion_product_relations(i_max),
        "minimal indices 0 and -1": lambda: criterion_low_min_index(n_max),
        "special partition counts": lambda: criterion_special_counts(n_max),
        "structural properties": lambda: criterion_structural(n_max, seed=seed),
        "tensor blocks": lambda: criterion_tensor_blocks(n_max),
        "conjecture evidence": lambda: criterion_conjecture(n_max),
    }
    results = []
    for name, suite in suites.items():
        try:
            results.append(suite())
        except Exception as exc:  # a corrupted complex raises deep inside a suite
            results.append(CheckResult(name))
            results[-1].fail(f"aborted: {type(exc).__name__}: {exc}")
    return results
