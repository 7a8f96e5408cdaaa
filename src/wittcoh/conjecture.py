"""Evidence gathering for the conjectured presentation of the cohomology ring.

The ring at minimal index 1 is generated by the class e of the weight-1
generator, the even 1-classes x_i, and the 2-classes y_i.  The conjecture
says the kernel of the surjection from the free bigraded exterior algebra
P[E, X, Y] (deg E = (1,1), deg X_i = (1,2i), deg Y_i = (2,4i)) is the ideal
generated by

    E^X_1,   E^Y_1,   G_i = sum_{a<i} X_{2a+1}^Y_{i-a},   H_i = sum_{a<i} Y_{i-a}^Y_{i+a+1}.

This module is the one place the ideal is written: ``relation_table`` lists
its generators as sums of words, and ``image`` sends a sum of words to its
cocycle.

Over GF(2) the exterior algebra is the polynomial ring modulo the squares of
its variables, so Buchberger's criterion applies to I + (squares).  Under the
monomial order of ``_order_key`` (a smaller weight sum m^2 over the X_m plus
2 sum j^2 over the Y_j is a larger word) the leading terms are E^X_1, E^Y_1,
X_(2a+1)^Y_(i-a) with a = i // 3, and Y_i^Y_(i+1).  ``_certified(n)`` reduces
every S-pair of degree n to zero, so the generators of degree <= n are a
Gröbner basis up to degree n, and dim (P/I)_(q,n) is the number of standard
words, those no leading term divides.  An E-free word is standard when its
Y indices are at least 2 apart and no odd X_m meets Y_(m-1), Y_m or Y_(m+1):
the rule of the strict/regular pairs.  A word with E is standard when it
also avoids X_1 and Y_1.  ``standard_count`` counts them without a list.

Per bidegree the scan compares two independent reductions and asserts
neither:

* Hilbert: the standard count equals the brute-force cohomology dimension;
* counting: the strict/regular pair count, which for even n is the standard
  count, equals the count of marked regular partitions with all simple
  components of even degree, counted by binomials.

Mismatches are findings, not failures; only disagreement *between* the two
reductions is an internal error.  The scan asserts the certificate of every
degree it reaches, and raises if an S-pair does not reduce to zero.  The
ideal ranks (``ideal_rank``, a GF(2) span over every generator-times-word
product) and the word lists are the test references of the counts.  The
conjecture suite in ``verify`` reads both reductions, and checks that
``image`` kills the ideal's generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .caching import cached, clear_degree, kept
from .cochains import Cochain, wedge
from .cohomology import cohomology_dim
from .gf2 import Gf2Span
from .monomials import e_cocycle, x_cocycle, y_cocycle
from .partitions import _factor_lists, _odd_parts_apart, count_even_component_marked


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


@cached
def _bidegree_words(q: int, n: int) -> tuple[tuple[BigradedMonomial, ...], dict[BigradedMonomial, int]]:
    """The square-free words of bidegree (q, n), sorted, and each word's
    position; memoized per bidegree.  Only ``ideal_rank`` and the tests
    read them."""
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
    generator-times-monomial products landing there.  The scan does not
    read it: tests compare ``standard_count`` with the word count minus it."""
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


def _order_key(w: BigradedMonomial) -> tuple:
    """The monomial order on the words of one degree n, as a sort key: a
    larger key is a larger word.  A smaller weight, sum m^2 over the X_m
    plus 2 sum j^2 over the Y_j, is larger, and ties go to lex on exponent
    vectors with E > X_1 > X_2 > ... > Y_1 > Y_2 > ....  Words of different
    degrees are ordered by degree first; every polynomial here is
    homogeneous, so the key leaves it out."""
    weight = sum(m * m for m in w.xs) + 2 * sum(j * j for j in w.ys)
    return (-weight, w.has_e, tuple(-m for m in w.xs), tuple(-j for j in w.ys))


def _leading_term(terms: tuple[BigradedMonomial, ...]) -> BigradedMonomial:
    """The largest word of a sum of words of one bidegree."""
    return max(terms, key=_order_key)


def _quotient(w: BigradedMonomial, d: BigradedMonomial) -> BigradedMonomial | None:
    """w / d when the word d divides w, else None."""
    if d.has_e > w.has_e or not set(d.xs) <= set(w.xs) or not set(d.ys) <= set(w.ys):
        return None
    xs = tuple(x for x in w.xs if x not in d.xs)
    return BigradedMonomial(w.has_e != d.has_e, xs, tuple(y for y in w.ys if y not in d.ys))


def _times(terms, m: BigradedMonomial) -> set[BigradedMonomial]:
    """The sum of words `terms` times the word m, squares dropped."""
    return {p for p in (multiply(t, m) for t in terms) if p is not None}


def _name(terms) -> str:
    return " + ".join(map(str, terms))


@cached
def _certified(n: int) -> bool:
    """Buchberger's criterion in degree n: every S-pair of degree exactly n
    reduces to zero modulo the generators of degree <= n and the squares.
    The pairs are each two generators whose leading terms share a variable
    (coprime pairs reduce to zero by Buchberger's first criterion) and v^g
    for each variable v of LT(g), the pair of g with v^2.  Raises
    ValueError naming the degree and the first pair that does not reduce;
    memoized per degree."""
    gens = [(_leading_term(terms), gn, terms) for _, gn, terms in relation_table(n)]
    pairs = []
    for i, (lead, gn, terms) in enumerate(gens):
        d = n - gn  # the degree of v in v^g
        variables = [BigradedMonomial(True, (), ())] if lead.has_e and d == 1 else []
        variables += [BigradedMonomial(False, (x,), ()) for x in lead.xs if 2 * x == d]
        variables += [BigradedMonomial(False, (), (y,)) for y in lead.ys if 4 * y == d]
        for v in variables:
            pairs.append((v, terms, _times(terms, v)))
        for other_lead, other_n, other in gens[:i]:
            # a shared variable makes the lcm's degree less than gn + other_n
            if not max(gn, other_n) <= n < gn + other_n or multiply(lead, other_lead) is not None:
                continue
            lcm = BigradedMonomial(
                lead.has_e or other_lead.has_e,
                tuple(sorted(set(lead.xs) | set(other_lead.xs))),
                tuple(sorted(set(lead.ys) | set(other_lead.ys))),
            )
            if lcm.bidegree[1] == n:
                s_pair = _times(terms, _quotient(lcm, lead)) ^ _times(other, _quotient(lcm, other_lead))
                pairs.append((other, terms, s_pair))
    for first, terms, poly in pairs:
        while poly:
            top = max(poly, key=_order_key)
            for lead, _, g in gens:
                m = _quotient(top, lead)
                if m is not None:
                    poly ^= _times(g, m)
                    break
            else:
                first = f"the square of {first}" if isinstance(first, BigradedMonomial) else _name(first)
                raise ValueError(f"degree {n}: the S-pair of {first} and {_name(terms)} does not reduce to zero")
    return True


@cached
def standard_count(q: int, n: int) -> int:
    """dim (P/I)_(q,n), as the number of standard words, without a list:
    for even n the strict/regular pairs (K, L) of (n, q), K the X indices
    and L the Y indices; for odd n those of (n - 1, q - 1) with no part 1,
    each times E.  Memoized per bidegree, as the scan's two cells of an
    even degree both read it."""
    odd = n % 2
    count = 0
    for ks, ls in _factor_lists(n - odd, q - odd, 2):
        l_parts = [L.parts for L in ls if not odd or L.parts[:1] != (1,)]
        for K in ks:
            if not odd or K.parts[:1] != (1,):
                count += sum(1 for parts in l_parts if _odd_parts_apart(K.parts, parts))
    return count


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
    """dim P/I, the standard count, against the brute-force dimension.  The
    count is exact when the certificates of degrees 1..n all hold; this
    asserts degree n's, and the scan, which walks up from degree 1, asserts
    each in turn."""
    _certified(n)
    return Cell(q, n, standard_count(q, n), cohomology_dim(1, n, q))


def counting_cell(q: int, n: int) -> Cell:
    """The strict/regular pairs, which an odd degree has none of, against
    the marked partitions whose simple components all have even degree."""
    return Cell(q, n, 0 if n % 2 else standard_count(q, n), count_even_component_marked(n, q))


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
    """The cells of degrees 1..n_max, one degree at a time, each degree
    certified before it is counted; each degree's slices, bases, counts and
    certificate are dropped after it (``caching.clear_degree``), its
    dimensions and the generators kept."""
    report = ConjectureReport([], [])
    for n in range(1, n_max + 1):
        scan_degree(report, n)
        clear_degree()
    return report
