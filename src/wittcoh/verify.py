"""The evidence layer: every theorem check of the package, as suites.

The other modules only compute; each claim is checked here, by one suite,
a generator ``_<name>``, and ``criterion_<name>`` is built from it to run
it alone.  Expected values are computed independently (combinatorial
predictions vs. linear algebra) or are exact cochain identities.  Default
bounds are the package's commitments; ``n_max``, every suite's one scale,
scales them down.  At ``n_max=0`` the blocks of degree -1 and 0 at minimal
indices 0 and -1 remain, and the low-index and structural suites run 15 checks.

Every suite runs one degree at a time (``_run``).  ``run_suites`` runs all
of them at degree n before any at degree n + 1, and then drops that
degree's slices, bases and marked-partition lists (``caching.clear_degree``).
A suite reads a lower degree only through what is kept: the memoized
dimensions, or a small table of results of its own.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import combinations, groupby
from typing import Iterator

from . import caching
from .cochains import (
    Cochain,
    _at_bits,
    _monomials,
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
from .conjecture import ConjectureReport, image, odd_x_relation, relation_table, scan_degree, y_relation
from .gf2 import BitMatrix, Gf2Span
from .monomials import (
    corrected_vec,
    e_cocycle,
    markable_parts,
    marked_variants,
    marked_vec,
    pair_cocycle,
    regular_basis,
    x_cocycle,
    y_cocycle,
    z_cocycle,
)
from .partitions import (
    Order,
    Partition,
    canonical_decomposition,
    cohomology_partitions,
    compare,
    count_special,
    is_regular_marked,
    leading_parts,
    marked_regular_partitions,
    markings,
    max_regular_length,
    regular_partitions,
    strict_partitions,
)


@dataclass
class CheckResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def count(self, k: int = 1) -> None:
        self.checked += k

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name} ({self.checked} checks)"


def _bound(default: int, n_max: int | None) -> int:
    return default if n_max is None else min(default, n_max)


def _run(suites: list[Iterator]) -> list[CheckResult]:
    """Run the suites one degree at a time; their results, in order.

    A suite is a generator.  It yields its CheckResult first, and then each
    of its degrees, in increasing order, just before it checks that degree.
    What it runs before its first degree is its once-part; the once-parts
    run first, in suite order.  Then at each degree every suite waiting for
    it runs in suite order (a suite's code after its last degree runs in
    that step), and the degree's memos are dropped.  An exception aborts its
    own suite only, which then reports that alone."""
    results = [next(suite) for suite in suites]
    waiting: dict[int, int] = {}  # suite index -> the degree it waits for

    def advance(i: int) -> None:
        try:
            waiting[i] = next(suites[i])
        except StopIteration:
            waiting.pop(i, None)
        except Exception as exc:  # a corrupted complex raises deep inside a suite
            waiting.pop(i, None)
            results[i] = CheckResult(results[i].name)
            results[i].fail(f"aborted: {type(exc).__name__}: {exc}")

    for i in range(len(suites)):
        advance(i)
    while waiting:
        n = min(waiting.values())
        for i in [i for i, degree in waiting.items() if degree == n]:
            advance(i)
        caching.clear_degree()
    return results


def _worked_example(n_max: int | None = None) -> Iterator:
    """Degree 12 at minimal index 1: dimensions t + 3t^2 + 3t^3, from cold caches."""
    res = CheckResult("worked example, degree 12")
    yield res
    if _bound(12, n_max) < 12:
        res.note("skipped: bound below 12")
        return
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


def _check_dims(res: CheckResult, k: int, n: int) -> None:
    """Prediction vs. brute force at degree n, minimal index k."""
    res.count()
    predicted = poincare_predicted(n, k)
    computed = poincare_computed(n, k)
    if predicted != computed:
        res.fail(f"k={k} n={n}: predicted {poly_str(predicted)}, computed {poly_str(computed)}")


def _dims_min_index_1(n_max: int | None = None) -> Iterator:
    """Prediction vs. brute force for every degree and length, minimal index 1."""
    res = CheckResult("dimension formula, minimal index 1")
    yield res
    for n in range(1, _bound(40, n_max) + 1):
        yield n
        _check_dims(res, 1, n)


def _dims_min_index_k(n_max: int | None = None) -> Iterator:
    """Prediction vs. brute force at minimal indices 2 to 4."""
    res = CheckResult("dimension formula, minimal indices 2..4")
    yield res
    for n in range(2, _bound(30, n_max) + 1):
        yield n
        for k in range(2, min(4, n) + 1):
            _check_dims(res, k, n)


def _wedge_basis(n_max: int | None = None) -> Iterator:
    """The regular marked-wedge matrix is square and invertible in every block,
    and every singular wedge decomposes strictly below its shape.  A block
    whose basis fails is reported once, and its shapes are not decomposed."""
    res = CheckResult("marked-wedge basis and triangularity")
    yield res
    for n in range(1, _bound(30, n_max) + 1):
        yield n
        top = max_length(1, n)
        failed = set()
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
                    failed.add(q)
        masks = {}  # (q, base length) -> _length_masks of block q, built on first use
        for base in (p for q in range(1, top + 1) for p in strict_partitions(n, q)):
            # a mark on any other part gives a zero factor and no wedge
            for mp in markings(base, markable_parts(base)):
                vec = marked_vec(mp)
                if not vec or mp.length in failed:
                    continue
                res.count()
                basis = regular_basis(n, mp.length)
                x = basis.coords(vec)
                if is_regular_marked(mp, 1):
                    if set(_at_bits(basis.labels, x)) != {mp}:
                        res.fail(f"{mp}: regular wedge does not decompose to itself")
                    continue
                key = mp.length, base.length
                if key not in masks:
                    masks[key] = _length_masks(basis.labels, base.length)
                bad = _first_not_below(basis.labels, x, mp, *masks[key])
                if bad is not None:
                    res.fail(f"{mp}: term {bad} not strictly below")


def _length_masks(labels, length: int) -> tuple[int, int]:
    """The labels whose base is longer than ``length`` and those whose base
    has that length, as bitmasks over the labels."""
    longer = equal = 0
    for j, t in enumerate(labels):
        if t.base.length > length:
            longer |= 1 << j
        elif t.base.length == length:
            equal |= 1 << j
    return longer, equal


def _first_not_below(labels, x, mp, longer: int, equal: int):
    """The first label at x's set bits that is not strictly below mp in the
    triangular order, or None; ``longer`` and ``equal`` are the
    ``_length_masks`` of mp's base length.

    ``compare`` puts a shorter base below and a longer one above, so only
    equal-length labels below the lowest longer one need a call."""
    stop = x & longer
    stop &= -stop  # the lowest longer-base label's bit, or 0; 0 - 1 keeps every bit
    for t in _at_bits(labels, x & equal & (stop - 1)):
        if compare(t, mp) is not Order.LESS:
            return t
    return labels[stop.bit_length() - 1] if stop else None


def _pair_identities(n_max: int | None = None) -> Iterator:
    """The three exact quadratic identities between generators and their
    coboundaries, each on its true domain.

    The double-coboundary sum vanishes only for n % 4 != 2 (for n = 4i it is
    what makes the marked pair cocycles closed); at n % 4 == 2, n >= 10 the
    sum is a nonzero regular wedge combination, which this check pins down
    rather than hides.
    """
    res = CheckResult("quadratic cochain identities")
    yield res
    top = _bound(60, n_max)
    delta_of = {i: coboundary(generator(i), 1) for i in range(1, top)}
    for n in range(2, top + 1):
        yield n
        if n % 2:
            res.count()
            total = Cochain.from_terms((a, n - a) for a in range(1, (n + 1) // 2))
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


def _corrected_coboundary(n_max: int | None = None) -> Iterator:
    """The coboundary of every corrected wedge equals its closed form."""
    res = CheckResult("corrected-wedge coboundary closed form")
    yield res
    for n in range(1, _bound(24, n_max) + 1):
        yield n
        for q in range(1, max_length(1, n) + 1):
            delta = graded_slice(1, n, q).delta
            for mp in marked_regular_partitions(n, q, 1):
                res.count()
                predicted = 0
                for variant in marked_variants(mp):
                    predicted ^= corrected_vec(variant)
                if delta.mul_vec(corrected_vec(mp)) != predicted:
                    res.fail(f"{mp}: coboundary differs from the closed form")


def _product_relations(n_max: int | None = None) -> Iterator:
    """Ring relations as class identities, and their exact witnesses, for i <= 8."""
    i_max = _bound(32, n_max) // 4  # x_i, y_i and z_i reach degree 4i
    res = CheckResult(f"product relations, i <= {i_max}")
    yield res
    if i_max < 1:
        res.note("skipped: bound below 1")
        return
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
            witness = Cochain.from_terms(
                (2 * i - 4 * m - 3, 2 * i + 4 * m + 3) for m in range((i - 2) // 2 + 1)
            )
            rhs = coboundary(witness, 1)
            for a in range(1, i):
                rhs = rhs + wedge(x_cocycle(2 * a), y_cocycle(i - a))
            if z_cocycle(i) != rhs:
                res.fail(f"i={i}: z witness identity fails as cochains")
        # second family: odd-x products vanish
        res.count()
        sum_cls = class_of(Cochain.zero(), 1, n=4 * i + 2, q=3)
        for w in odd_x_relation(i):
            sum_cls = sum_cls + cup(class_of(x_cocycle(*w.xs)), class_of(y_cocycle(*w.ys)))
        if not sum_cls.is_zero:
            res.fail(f"i={i}: odd-x relation fails as classes")
        res.count()
        beta = i % 2
        witness = Cochain.from_terms(
            (4 * m - 1 - 2 * beta, 4 * (i - m) + 3 + 2 * beta) for m in range(1, (i + 1) // 2 + 1)
        )
        if image(odd_x_relation(i)) != coboundary(witness, 1):
            res.fail(f"i={i}: odd-x witness identity fails as cochains")
        # third family: the y-antisymmetry sum is exactly zero
        res.count()
        if image(y_relation(i)):
            res.fail(f"i={i}: y-family sum is nonzero as a cochain")


def _low_min_index(n_max: int | None = None) -> Iterator:
    """Minimal indices 0 and -1: dimension transfer, odd-degree vanishing,
    the explicit second-cohomology basis, and the action identities."""
    res = CheckResult("minimal indices 0 and -1")
    yield res
    top, ext_top = _bound(30, n_max), _bound(60, n_max)
    got: dict[tuple[int, int], int] = {}  # (k, q) -> dimension, at the degree before
    for n in range(-1, max(top + 1, ext_top) + 1):
        yield n
        # the prediction at degree n - 1 reads the index-1 dimensions of degree n
        for (k, q), dim in got.items():
            res.count()
            want = predicted_low_index_dim(n - 1, q, k)
            if dim != want:
                res.fail(f"k={k} n={n - 1} q={q}: computed {dim}, predicted {want}")
        got = {
            (k, q): cohomology_dim(k, n, q)
            for k in (0, -1)
            if k <= n <= top
            for q in range(1, max_length(k, n) + 1)
        }
        if n < 2 or n % 2 or n > ext_top:
            continue
        family = central_extension_basis(n)
        expected = n // 4 + 1
        res.count()
        if len(family) != expected:
            res.fail(f"n={n}: {len(family)} cocycles, expected {expected}")
        dim = cohomology_dim(-1, n, 2)
        res.count()
        if dim != expected:
            res.fail(f"n={n}: dim H^2 = {dim}, expected {expected}")
        span = Gf2Span(graded_slice(-1, n, 1).image_basis())
        for label, c in family:
            res.count()
            if coboundary(c, -1):
                res.fail(f"n={n} {label}: not closed at minimal index -1")
                continue
            if not span.add(graded_slice(-1, n, 2).coords(c)):
                res.fail(f"n={n} {label}: dependent modulo coboundaries")
    # The index-raising action of the degree -1 generator on the length-2
    # cocycle families lands on explicit coboundaries; even generators die.
    # The marked potential is sum_s e_{a-2s} ^ e_{a+3+2s}; its first term
    # alone only suffices for a <= 3.  Its last term, e_1 ^ e_{2a+2}, is
    # closed, so this check cannot tell whether it is there.
    for a in range(1, min(15, top) + 1, 2):
        res.count()
        if generator_action(-1, pair_cocycle(a)) != coboundary(generator(2 * a + 3), 1):
            res.fail(f"a={a}: action on the plain pair sum is not the expected coboundary")
        res.count()
        potential = Cochain.from_terms((a - 2 * s, a + 3 + 2 * s) for s in range((a - 1) // 2 + 1))
        if generator_action(-1, pair_cocycle(a, marked=True)) != coboundary(potential, 1):
            res.fail(f"a={a}: action on the marked pair sum is not the expected coboundary")
        for i in range(2, 2 * a + 3, 2):
            res.count()
            if generator_action(-1, generator(i)):
                res.fail(f"even generator {i}: action should vanish")


def _special_counts(n_max: int | None = None) -> Iterator:
    """The special partitions, counted by enumeration, against the binomial."""
    res = CheckResult("special partition counts")
    yield res
    for q in range(1, _bound(8, n_max) + 1):
        for k in range(1, 6):
            res.count()
            got = count_special(q, k)
            want = math.comb(q + k - 1, k - 1)
            if got != want:
                res.fail(f"q={q} k={k}: counted {got}, expected {want}")


def _boundary_matrix(k: int, n: int, q: int) -> BitMatrix:
    """The boundary from the (n, q) block to the (n, q-1) block, contracted
    on index masks: each pair of indices with an odd sum s is replaced by s
    when the rest of the monomial misses it.  Laid out as the coboundary of
    the (n, q-1) block, its adjoint: column t gets bit j for each q-monomial
    j that contracts to monomial t.  Built without the coboundary, so the
    structural suite can compare the two."""
    basis, masks, _ = _monomials(k, n, q)
    target, _, tpos = _monomials(k, n, q - 1)
    cols = [0] * len(target)
    for j, (mono, mask) in enumerate(zip(basis, masks)):
        bit = 1 << j
        for a, b in combinations(mono, 2):
            s = a + b
            if s % 2 == 0:
                continue
            rest = mask ^ (1 << (a - k)) ^ (1 << (b - k))
            if not rest >> (s - k) & 1:
                cols[tpos[rest | 1 << (s - k)]] ^= bit
    return BitMatrix.from_columns(cols, len(basis))


def _structural(n_max: int | None = None, seed: int = 0) -> Iterator:
    """Squared differentials vanish, the two differentials are adjoint,
    the degree -1 action is a chain map, and products do not depend on the
    choice of representatives."""
    res = CheckResult("structural properties")
    yield res
    top = _bound(30, n_max)
    # a product reads three degrees' bases, so the product sample is a once-part
    rng = random.Random(seed)
    prod_top = min(20, top)
    cells = [
        (n, q)
        for n in range(1, prod_top)
        for q in range(1, max_length(1, n) + 1)
        if cohomology_dim(1, n, q) > 0
    ]
    pairs = [
        (c1, c2) for c1 in cells for c2 in cells if c1[0] + c2[0] <= prod_top
    ]
    for _ in range(100 if pairs else 0):
        res.count()
        (n1, q1), (n2, q2) = rng.choice(pairs)
        b1 = cohomology_basis(1, n1, q1)
        b2 = cohomology_basis(1, n2, q2)
        cls1 = class_of(b1.slice.cochain(rng.choice(b1.vecs)))
        cls2 = class_of(b2.slice.cochain(rng.choice(b2.vecs)))
        expected = cup(cls1, cls2)
        perturbed = b1.slice.coords(representative(cls1))
        for col in b1.image_vecs:
            if rng.random() < 0.5:
                perturbed ^= col
        moved = wedge(b1.slice.cochain(perturbed), representative(cls2))
        got = class_of(moved, 1, n=n1 + n2, q=q1 + q2)
        if got != expected:
            res.fail(f"cup not representative-independent at ({n1},{q1})x({n2},{q2})")
    for n in range(-1, top + 1):
        yield n
        for k in range(-1, min(4, n) + 1):
            for q in range(1, max_length(k, n) + 1):
                res.count()
                sl = graded_slice(k, n, q)
                if not (graded_slice(k, n, q + 1).delta @ sl.delta).is_zero():
                    res.fail(f"k={k} n={n} q={q}: coboundary does not square to zero")
                if q >= 2:
                    res.count()
                    if _boundary_matrix(k, n, q) != graded_slice(k, n, q - 1).delta:
                        res.fail(f"k={k} n={n} q={q}: boundary is not adjoint to coboundary")
        if not 1 <= n <= min(20, top):
            continue
        for q in range(1, max_length(1, n) + 1):
            for mono in graded_slice(1, n, q).basis:
                res.count()
                c = Cochain(frozenset({mono}))
                if generator_action(-1, coboundary(c, 1)) != coboundary(generator_action(-1, c), 1):
                    res.fail(f"n={n} q={q}: action does not commute with the coboundary")


def _tensor_blocks(n_max: int | None = None) -> Iterator:
    """Block decomposition: each regular base spans a subcomplex whose
    homology is the product over its simple components."""
    res = CheckResult("tensor blocks")
    yield res
    # each component of a base is a regular base of no larger degree and
    # length, visited by then: every block total is computed once
    totals: dict[Partition, int] = {}
    for n in range(1, _bound(20, n_max) + 1):
        yield n
        for q in range(1, max_regular_length(n, 1) + 1):
            for base in regular_partitions(n, q, 1):
                total, problems = _block_total_homology(base)
                for p in problems:
                    res.fail(p)
                totals[base] = total
                expected = math.prod(totals[comp] for comp in canonical_decomposition(base, 1))
                res.count()
                if total != expected:
                    res.fail(f"{base}: block homology {total} != component product {expected}")


def _block_total_homology(base: Partition) -> tuple[int, list[str]]:
    """Total homology dimension of the span of one base's corrected wedges.

    Levels are mark counts; also reports any coboundary escaping the block.
    """
    problems: list[str] = []
    by_marks = groupby(markings(base, leading_parts(base, 1)), key=lambda mp: len(mp.marks))
    levels = [list(shapes) for _, shapes in by_marks]
    level_vecs = [[corrected_vec(mp) for mp in shapes] for shapes in levels] + [[]]
    prev_rank = 0
    total = 0
    for r, shapes in enumerate(levels):
        delta = graded_slice(1, base.degree, base.length + r).delta
        vecs = level_vecs[r]
        next_span = Gf2Span(level_vecs[r + 1])
        image = Gf2Span()
        for mp, v in zip(shapes, vecs):
            dv = delta.mul_vec(v)
            if dv and dv not in next_span:
                problems.append(f"{mp}: coboundary leaves its block")
            image.add(dv)
        total += len(vecs) - image.rank - prev_rank
        prev_rank = image.rank
    if prev_rank:
        problems.append(f"{base}: fully marked level is not closed")
    return total, problems


def _cocycle_families(n_max: int | None = None) -> Iterator:
    """The corrected wedges over the indexing partitions of each degree are
    nonzero closed cochains whose classes form a basis in every length."""
    res = CheckResult("cocycle family bases")
    yield res
    for n in range(1, _bound(24, n_max) + 1):
        yield n
        by_q: dict[int, list[int]] = defaultdict(list)
        for base in cohomology_partitions(n, 1):
            for mp in markings(base, leading_parts(base, 1)):
                eps = corrected_vec(mp)
                res.count()
                if not eps:
                    res.fail(f"{mp}: corrected wedge is zero")
                    continue
                if graded_slice(1, n, mp.length).delta.mul_vec(eps):
                    res.fail(f"{mp}: corrected wedge is not closed")
                    continue
                by_q[mp.length].append(eps)
        for q in sorted(set(by_q) | set(range(1, max_length(1, n) + 1))):
            fam = by_q.get(q, [])
            dim = cohomology_dim(1, n, q)
            res.count()
            if len(fam) != dim:
                res.fail(f"n={n} q={q}: family size {len(fam)} != dim {dim}")
                continue
            span = Gf2Span(graded_slice(1, n, q - 1).image_basis() if q > 1 else ())
            for eps in fam:
                if not span.add(eps):
                    res.fail(f"n={n} q={q}: family dependent modulo coboundaries")
                    break


def _conjecture(n_max: int | None = None) -> Iterator:
    """Conjecture evidence: both reductions must agree with each other;
    mismatched cells are reported as findings, not failures.

    Each ideal generator must map to the zero class under ``image``, so the
    projection factors through the quotient.  The generators are cut at the
    degree 4 * i_max + 2 that G_i reaches at i_max = min(6, n_max // 4).
    """
    res = CheckResult("conjecture evidence")
    yield res
    top = _bound(24, n_max)
    for q, n, terms in relation_table(4 * min(6, top // 4) + 2):
        res.count()
        if not class_of(image(terms), 1, n=n, q=q).is_zero:
            res.fail(f"{' + '.join(map(str, terms))} image is a nonzero class")
    report = ConjectureReport([], [])
    for n in range(1, top + 1):
        yield n
        scan_degree(report, n)
    res.count(len(report.hilbert_cells) + len(report.counting_cells))
    for finding in report.findings():
        res.note(finding)
    if not report.internally_consistent:
        res.fail("the two reductions disagree about the conjecture")


def run_suites(n_max: int | None = None, seed: int = 0) -> list[CheckResult]:
    """Run every suite at (possibly scaled-down) committed bounds, all of
    them one degree at a time."""
    return _run([
        _worked_example(n_max),
        _dims_min_index_1(n_max),
        _dims_min_index_k(n_max),
        _wedge_basis(n_max),
        _pair_identities(n_max),
        _corrected_coboundary(n_max),
        _cocycle_families(n_max),
        _product_relations(n_max),
        _low_min_index(n_max),
        _special_counts(n_max),
        _structural(n_max, seed),
        _tensor_blocks(n_max),
        _conjecture(n_max),
    ])


def _criterion(suite):
    """``criterion_<name>``: the generator ``_<name>`` run alone, with its
    arguments, defaults and docstring."""
    run = functools.wraps(suite)(lambda *args, **kwargs: _run([suite(*args, **kwargs)])[0])
    run.__name__ = run.__qualname__ = "criterion" + suite.__name__
    return run


criterion_worked_example = _criterion(_worked_example)
criterion_dims_min_index_1 = _criterion(_dims_min_index_1)
criterion_dims_min_index_k = _criterion(_dims_min_index_k)
criterion_wedge_basis = _criterion(_wedge_basis)
criterion_pair_identities = _criterion(_pair_identities)
criterion_corrected_coboundary = _criterion(_corrected_coboundary)
criterion_cocycle_families = _criterion(_cocycle_families)
criterion_product_relations = _criterion(_product_relations)
criterion_low_min_index = _criterion(_low_min_index)
criterion_special_counts = _criterion(_special_counts)
criterion_structural = _criterion(_structural)
criterion_tensor_blocks = _criterion(_tensor_blocks)
criterion_conjecture = _criterion(_conjecture)
