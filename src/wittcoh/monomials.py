"""Wedge monomials indexed by marked partitions, and the corrected basis.

A marked partition <I;J> names the cochain obtained by wedging, for each part
i of I, either the generator e_i (unmarked) or its coboundary (marked).  For
regular marked partitions these *marked wedges* form a basis of the complex
with minimal index 1, and every singular marked wedge decomposes strictly
below its own shape in the triangular order.

The *corrected wedge* attached to a regular marked partition is the product
over simple components of:

* the plain wedge, for special or even components;
* the plain wedge / its coboundary (unmarked / marked), for odd non-special
  components of odd length;
* an explicit closed 2-row sum built from the length-2 cocycles
  sum_r e_{a-2r} ^ e_{a+2r+2}, for odd non-special components of even length.

In this basis the coboundary acts by marking one unmarked odd non-special
component of odd length — nothing else survives.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from .caching import cached
from .cochains import Cochain, coboundary, generator, graded_slice, wedge
from .gf2 import BitMatrix
from .partitions import (
    MarkedPartition,
    Partition,
    canonical_decomposition,
    is_dense,
    is_odd,
    is_regular_marked,
    is_special,
    leading_parts,
    marked_regular_partitions,
)


@cached
def _factor(i: int, marked: bool) -> Cochain:
    """The factor of part i in a marked wedge: e_i, or its coboundary when
    marked (zero for an even i and for i = 1)."""
    return coboundary(generator(i), 1) if marked else generator(i)


def markable_parts(base: Partition) -> tuple[int, ...]:
    """The parts of base whose marked factor is nonzero; a mark on any other
    part makes the marked wedge zero."""
    return tuple(i for i in base.parts if _factor(i, True))


def marked_wedge(mp: MarkedPartition) -> Cochain | None:
    """The wedge cochain of a marked partition; None when it collapses to zero.

    A zero factor (a mark on an even part or on 1) gives None before any
    wedge is built."""
    base = mp.base
    if base.length == 0:
        raise ValueError("empty partition has no wedge monomial")
    if base.parts[0] < 1:
        raise ValueError("marked wedges need parts >= 1")
    factors = [_factor(i, i in mp.marks) for i in base.parts]
    if not all(factors):
        return None
    out = factors[0]
    for factor in factors[1:]:
        out = wedge(out, factor)
        if not out:
            return None
    return out


class WedgeBasis:
    """One basis of the (n, q) block at minimal index 1, indexed by the regular
    marked partitions: the wedges are the columns of a square invertible matrix
    in monomial coordinates.

    ``wedge_of`` maps a regular marked partition to its basis cochain.  Both
    load-bearing facts are checked while building: the matrix is square (the
    count of regular marked partitions equals the count of strict partitions)
    and no wedge collapses to zero; ``inverse`` raises if it is singular.
    """

    __slots__ = ("n", "q", "shapes", "matrix", "inverse", "slice")

    def __init__(self, n: int, q: int, wedge_of: Callable[[MarkedPartition], Cochain | None]):
        sl = graded_slice(1, n, q)
        shapes = tuple(marked_regular_partitions(n, q, 1))
        if len(shapes) != sl.dim:
            raise ValueError(
                f"regular marked count {len(shapes)} != monomial dimension {sl.dim}"
                f" at (n={n}, q={q})"
            )
        cols = []
        for mp in shapes:
            value = wedge_of(mp)
            if not value:
                raise ValueError(f"wedge of {mp} collapsed to zero")
            cols.append(sl.coords(value))
        self.n = n
        self.q = q
        self.shapes = shapes
        self.matrix = BitMatrix.from_columns(cols, sl.dim)
        self.inverse = self.matrix.inverse()
        self.slice = sl

    def decompose(self, c: Cochain) -> dict[MarkedPartition, int]:
        """The shapes whose wedges sum to c, a cochain of this block."""
        x = self.inverse.mul_vec(self.slice.coords(c))
        out = {}
        while x:
            low = x & -x
            out[self.shapes[low.bit_length() - 1]] = 1
            x ^= low
        return out


@cached
def regular_basis(n: int, q: int) -> WedgeBasis:
    """Marked wedges of all regular marked partitions of (n, q)."""
    return WedgeBasis(n, q, marked_wedge)


def decompose(c: Cochain) -> dict[MarkedPartition, int]:
    """Coordinates of a homogeneous cochain in the regular marked-wedge basis."""
    return regular_basis(*c.grading).decompose(c) if c else {}


def pair_cocycle(a: int, marked: bool = False) -> Cochain:
    """The closed length-2 sum at odd a: sum_r e_{a-2r} ^ e_{a+2r+2},
    or its variant with each left factor replaced by its coboundary."""
    if a < 1 or a % 2 == 0:
        raise ValueError("needs odd a >= 1")
    out = Cochain.zero()
    for r in range((a - 1) // 2 + 1):
        out = out + wedge(_factor(a - 2 * r, marked), generator(a + 2 * r + 2))
    return out


def simple_corrected(p: Partition, marked: bool = False) -> Cochain | None:
    """Corrected wedge of a dense partition; None for a disallowed mark."""
    if not is_dense(p):
        raise ValueError(f"{p} is not dense")
    if p.parts[0] < 1:
        raise ValueError("needs parts >= 1")
    if not is_odd(p) or is_special(p, 1):
        # even or special components admit no mark and need no correction
        return None if marked else marked_wedge(MarkedPartition(p, ()))
    if p.length % 2 == 1:
        e_i = marked_wedge(MarkedPartition(p, ()))
        return coboundary(e_i, 1) if marked else e_i
    a = p.parts[0]
    out = Cochain.unit()
    for t in range(p.length // 2):
        out = wedge(out, pair_cocycle(a + 4 * t, marked=(marked and t == 0)))
    return out


@cached
def corrected_wedge(mp: MarkedPartition) -> Cochain:
    """Corrected wedge of a regular marked partition (product over components);
    memoized per marked partition."""
    if not is_regular_marked(mp, 1):
        raise ValueError(f"{mp} is not a regular marked partition")
    marked = set(mp.marks)
    out = Cochain.unit()
    for comp in canonical_decomposition(mp.base, 1):
        factor = simple_corrected(comp, marked=comp.parts[0] in marked)
        assert factor is not None  # marks sit on odd non-special components only
        out = wedge(out, factor)
    assert out, f"corrected wedge of {mp} collapsed"
    return out


def predicted_coboundary(mp: MarkedPartition) -> Cochain:
    """Closed form for the coboundary of a corrected wedge: the sum over
    unmarked odd non-special components of odd length of the same wedge
    with that component marked."""
    if not is_regular_marked(mp, 1):
        raise ValueError(f"{mp} is not a regular marked partition")
    marked = set(mp.marks)
    out = Cochain.zero()
    for comp in canonical_decomposition(mp.base, 1):
        lead = comp.parts[0]
        if lead in marked or not is_odd(comp) or is_special(comp, 1):
            continue
        if comp.length % 2 == 0:
            continue
        out = out + corrected_wedge(
            MarkedPartition(mp.base, tuple(sorted(mp.marks + (lead,))))
        )
    return out


@cached
def corrected_basis(n: int, q: int) -> WedgeBasis:
    """Corrected wedges of all regular marked partitions of (n, q)."""
    return WedgeBasis(n, q, corrected_wedge)


def decompose_corrected(c: Cochain) -> dict[MarkedPartition, int]:
    """Coordinates of a homogeneous cochain in the corrected-wedge basis."""
    return corrected_basis(*c.grading).decompose(c) if c else {}


# ---------------------------------------------------------------------------
# the four generator families of the cohomology ring (minimal index 1)


def e_cocycle() -> Cochain:
    """The weight-1 generator; a closed 1-cochain."""
    return generator(1)


def x_cocycle(i: int) -> Cochain:
    """x_i = e_{2i}: the even closed 1-cochains."""
    if i < 1:
        raise ValueError("needs i >= 1")
    return generator(2 * i)


def y_cocycle(i: int) -> Cochain:
    """y_i: the closed 2-cochain sum_{r<i} e_{2i-2r-1} ^ e_{2i+2r+1}."""
    if i < 1:
        raise ValueError("needs i >= 1")
    return pair_cocycle(2 * i - 1)


def z_cocycle(i: int) -> Cochain:
    """z_i: the closed 3-cochain with marked left factors, defined for i >= 2."""
    if i < 2:
        raise ValueError("needs i >= 2")
    return pair_cocycle(2 * i - 1, marked=True)


def marked_subsets(base: Partition) -> list[MarkedPartition]:
    """All regular marked partitions over one regular base."""
    leads = leading_parts(base, 1)
    out = []
    for r in range(len(leads) + 1):
        for marks in combinations(leads, r):
            out.append(MarkedPartition(base, marks))
    return out
