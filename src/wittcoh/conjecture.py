"""Evidence gathering for the conjectured presentation of the cohomology ring.

The ring at minimal index 1 is generated by the class e of the weight-1
generator, the even 1-classes x_i, and the 2-classes y_i.  The conjecture
says the kernel of the surjection from the free bigraded exterior algebra
P[E, X, Y] (deg E = (1,1), deg X_i = (1,2i), deg Y_i = (2,4i)) is the ideal
generated by

    E^X_1,   E^Y_1,   G_i = sum_{a<i} X_{2a+1}^Y_{i-a},   H_i = sum_{a<i} Y_{i-a}^Y_{i+a+1}.

This module is the one place the ideal is written: ``relation_table`` lists
its generators as sums of words, and ``image`` sends a sum of words to its
cocycle.  It computes two independent reductions per bidegree and asserts
neither:

* Hilbert: dim of the quotient equals the brute-force cohomology dimension;
* counting: the strict/regular pair count equals the count of marked regular
  partitions with all simple components of even degree.

Mismatches are findings, not failures; only disagreement *between* the two
reductions is an internal error.  The conjecture suite in ``verify`` reads
both, and checks that ``image`` kills the ideal's generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .caching import clear_degree, kept
from .cochains import Cochain, wedge
from .cohomology import cohomology_dim
from .gf2 import Gf2Span
from .monomials import e_cocycle, x_cocycle, y_cocycle
from .partitions import _factor_lists, even_component_marked, strict_regular_pairs


class BigradedMonomial(NamedTuple):
    """Square-free word E^eps * X_(xs) * Y_(ys) with its bidegree.

    A named tuple, so hashing and equality, which every ``ideal_rank``
    position lookup makes, run in C; the word order is the explicit sort key
    of ``_bidegree_words``."""

    has_e: bool
    xs: tuple[int, ...]
    ys: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        q = int(self.has_e) + len(self.xs) + 2 * len(self.ys)
        n = int(self.has_e) + 2 * sum(self.xs) + 4 * sum(self.ys)
        return (q, n)

    def __str__(self) -> str:
        parts = (["E"] if self.has_e else []) + [f"X{i}" for i in self.xs] + [f"Y{i}" for i in self.ys]
        return "^".join(parts) if parts else "1"


def _merge_square_free(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    if not set(a).isdisjoint(b):
        return None
    return tuple(sorted(a + b))


def multiply(a: BigradedMonomial, b: BigradedMonomial) -> BigradedMonomial | None:
    """Product in the exterior algebra; None when a generator repeats."""
    if a.has_e and b.has_e:
        return None
    xs = _merge_square_free(a.xs, b.xs)
    ys = _merge_square_free(a.ys, b.ys)
    if xs is None or ys is None:
        return None
    return BigradedMonomial(a.has_e or b.has_e, xs, ys)


@kept
def _bidegree_words(q: int, n: int) -> tuple[tuple[BigradedMonomial, ...], dict[BigradedMonomial, int]]:
    """The square-free words of bidegree (q, n), sorted, and each word's
    position; memoized per bidegree."""
    out = []
    for has_e in (False, True):
        for xs, ys in _factor_lists(n - has_e, q - has_e, 1):
            out.extend(BigradedMonomial(has_e, x.parts, y.parts) for x in xs for y in ys)
    out.sort(key=lambda m: (m.has_e, m.xs, m.ys))
    return tuple(out), {m: i for i, m in enumerate(out)}


def monomials_in_bidegree(q: int, n: int) -> list[BigradedMonomial]:
    """The words of bidegree (q, n), as a list the caller may change."""
    return list(_bidegree_words(q, n)[0])


def odd_x_relation(i: int) -> tuple[BigradedMonomial, ...]:
    """The words of G_i = sum_{a<i} X_{2a+1}^Y_{i-a}, of bidegree (3, 4i+2)."""
    return tuple(BigradedMonomial(False, (2 * a + 1,), (i - a,)) for a in range(i))


def y_relation(i: int) -> tuple[BigradedMonomial, ...]:
    """The words of H_i = sum_{a<i} Y_{i-a}^Y_{i+a+1}, of bidegree (4, 8i+4)."""
    return tuple(BigradedMonomial(False, (), (i - a, i + a + 1)) for a in range(i))


@kept
def relation_table(n_cap: int) -> tuple[tuple[int, int, tuple[BigradedMonomial, ...]], ...]:
    """The ideal generators with degree at most n_cap as (q, n, terms), each
    generator the sum of its terms, in the module docstring's order;
    memoized per cap."""
    gens = []
    if n_cap >= 3:
        gens.append((BigradedMonomial(True, (1,), ()),))
    if n_cap >= 5:
        gens.append((BigradedMonomial(True, (), (1,)),))
    gens += [odd_x_relation(i) for i in range(1, (n_cap - 2) // 4 + 1)]
    gens += [y_relation(i) for i in range(1, (n_cap - 4) // 8 + 1)]
    return tuple((*terms[0].bidegree, terms) for terms in gens)


def image(terms: tuple[BigradedMonomial, ...]) -> Cochain:
    """The cocycle of a sum of words under E -> e, X_i -> x_i, Y_i -> y_i."""
    out = Cochain.zero()
    for w in terms:
        es = [e_cocycle()] if w.has_e else []
        out = out + wedge(*es, *map(x_cocycle, w.xs), *map(y_cocycle, w.ys))
    return out


def ideal_rank(q: int, n: int) -> int:
    """Rank of the ideal's intersection with one bidegree: the span of
    generator-times-monomial products landing there."""
    _, pos = _bidegree_words(q, n)
    if not pos:
        return 0
    span = Gf2Span()
    for gq, gn, terms in relation_table(n):
        if gq > q:
            continue
        for m in _bidegree_words(q - gq, n - gn)[0]:
            vec = 0
            for t in terms:
                prod = multiply(t, m)
                if prod is not None:
                    vec ^= 1 << pos[prod]
            span.add(vec)
    return span.rank


@dataclass(frozen=True)
class Cell:
    q: int
    n: int
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def hilbert_cell(q: int, n: int) -> Cell:
    quotient = len(monomials_in_bidegree(q, n)) - ideal_rank(q, n)
    return Cell(q, n, quotient, cohomology_dim(1, n, q))


def counting_cell(q: int, n: int) -> Cell:
    return Cell(q, n, len(strict_regular_pairs(n, q)), len(even_component_marked(n, q)))


@dataclass
class ConjectureReport:
    hilbert_cells: list[Cell]
    counting_cells: list[Cell]

    @property
    def hilbert_ok(self) -> bool:
        return all(c.equal for c in self.hilbert_cells)

    @property
    def counting_ok(self) -> bool:
        return all(c.equal for c in self.counting_cells)

    @property
    def internally_consistent(self) -> bool:
        # the two reductions test the same statement; their verdicts must match
        return self.hilbert_ok == self.counting_ok

    def findings(self) -> list[str]:
        out = []
        for c in self.hilbert_cells:
            if not c.equal:
                out.append(f"hilbert (q={c.q}, n={c.n}): quotient {c.lhs} != dim {c.rhs}")
        for c in self.counting_cells:
            if not c.equal:
                out.append(f"counting (q={c.q}, n={c.n}): pairs {c.lhs} != marked {c.rhs}")
        return out


def scan_degree(report: ConjectureReport, n: int) -> None:
    """Append the cells of degree n, lengths 1..n, to the report."""
    for q in range(1, n + 1):
        report.hilbert_cells.append(hilbert_cell(q, n))
        report.counting_cells.append(counting_cell(q, n))


def scan(n_max: int) -> ConjectureReport:
    """The cells of degrees 1..n_max, one degree at a time; each degree's
    slices, bases and marked-partition lists are dropped after it
    (``caching.clear_degree``), its dimensions and words kept."""
    report = ConjectureReport([], [])
    for n in range(1, n_max + 1):
        scan_degree(report, n)
        clear_degree()
    return report
