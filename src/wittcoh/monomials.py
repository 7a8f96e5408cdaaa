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

Both wedges exist twice: as tuple cochains (``marked_wedge``,
``corrected_wedge``) and as vectors of their block's slice (``marked_vec``,
``corrected_vec``), built as one product over the index masks of the
factors' monomials, memoized per factor (a marked part's are its
``cochains._pair_masks``).  The bases and the verify suites read the
vectors; the cochains are the library's readable form and the tests'
reference.  Both bases of a block are a ``cochains.SliceBasis`` labelled by
the regular marked partitions, with no image.
"""

from __future__ import annotations

from typing import Callable

from .caching import cached, kept
from .cochains import (
    Cochain,
    SliceBasis,
    _index_mask,
    _monomials,
    _pair_masks,
    coboundary,
    generator,
    graded_slice,
    wedge,
)
from .partitions import (
    MarkedPartition,
    Partition,
    _split,
    is_dense,
    is_odd,
    is_regular_marked,
    is_special,
    marked_regular_partitions,
)


@kept
def _factor(i: int, marked: bool) -> Cochain:
    """The factor of part i in a marked wedge: e_i, or its coboundary when
    marked (zero for an even i and for i = 1)."""
    return coboundary(generator(i), 1) if marked else generator(i)


def markable_parts(base: Partition) -> tuple[int, ...]:
    """The parts of base whose marked factor is nonzero; a mark on any other
    part makes the marked wedge zero."""
    return tuple(i for i in base.parts if _pair_masks(1, i))


def _require_wedge_base(base: Partition) -> None:
    if base.length == 0:
        raise ValueError("empty partition has no wedge monomial")


def marked_wedge(mp: MarkedPartition) -> Cochain | None:
    """The wedge cochain of a marked partition; None when it collapses to zero.

    A zero factor (a mark on an even part or on 1) gives None before any
    wedge is built."""
    _require_wedge_base(mp.base)
    factors = [_factor(i, i in mp.marks) for i in mp.base.parts]
    if not all(factors):
        return None
    out = factors[0]
    for factor in factors[1:]:
        out = wedge(out, factor)
        if not out:
            return None
    return out


def _product(factors: list[tuple[int, ...]], n: int, q: int) -> int:
    """The wedge of the factors, each given by the index masks of its
    monomials, as a vector of the (n, q) block; 0 once it vanishes.

    Over GF(2) the wedge of two monomials with disjoint index sets is their
    union, so the running product is the set of masks that occur an odd
    number of times, and each disjoint pair x, y toggles x | y."""
    acc = {0}
    for masks in factors:
        nxt: set[int] = set()
        for x in acc:
            for y in masks:
                if not x & y:
                    nxt ^= {x | y}
        if not nxt:
            return 0
        acc = nxt
    pos = _monomials(1, n, q)[2]
    vec = 0
    for m in acc:
        vec |= 1 << pos[m]
    return vec


def marked_vec(mp: MarkedPartition) -> int:
    """``marked_wedge(mp)`` as a vector of its (degree, length) block, or 0
    when it collapses."""
    _require_wedge_base(mp.base)
    factors = [_pair_masks(1, i) if i in mp.marks else (1 << (i - 1),) for i in mp.base.parts]
    return _product(factors, mp.degree, mp.length)


def _wedge_basis(n: int, q: int, vec_of: Callable[[MarkedPartition], int]) -> SliceBasis:
    """The wedges ``vec_of`` of the regular marked partitions of (n, q), a
    basis of the block at minimal index 1.  Raises unless there is one shape
    per monomial and every wedge is nonzero and independent."""
    sl = graded_slice(1, n, q)
    shapes = tuple(marked_regular_partitions(n, q, 1))
    if len(shapes) != sl.dim:
        raise ValueError(
            f"regular marked count {len(shapes)} != monomial dimension {sl.dim} at (n={n}, q={q})"
        )
    vecs = [vec_of(mp) for mp in shapes]
    if 0 in vecs:
        raise ValueError(f"wedge of {shapes[vecs.index(0)]} collapsed to zero")
    return SliceBasis(sl, shapes, vecs)


@cached
def regular_basis(n: int, q: int) -> SliceBasis:
    """Marked wedges of all regular marked partitions of (n, q)."""
    return _wedge_basis(n, q, marked_vec)


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
    plain = Cochain(frozenset({p.parts}))  # the parts of a dense partition increase
    if not is_odd(p) or is_special(p, 1):
        # even or special components admit no mark and need no correction
        return None if marked else plain
    if p.length % 2 == 1:
        return coboundary(plain, 1) if marked else plain
    a = p.parts[0]
    out = Cochain.unit()
    for t in range(p.length // 2):
        out = wedge(out, pair_cocycle(a + 4 * t, marked=(marked and t == 0)))
    return out


def _marked_split(mp: MarkedPartition) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The simple components and the leading parts of the base of a regular
    marked partition, as part tuples; a component is marked when its first
    part is."""
    if not is_regular_marked(mp, 1):
        raise ValueError(f"{mp} is not a regular marked partition")
    return _split(mp.base.parts, 1)


def corrected_wedge(mp: MarkedPartition) -> Cochain:
    """Corrected wedge of a regular marked partition (product over components)."""
    out = Cochain.unit()
    for comp in _marked_split(mp)[0]:
        factor = simple_corrected(Partition(comp), comp[0] in mp.marks)
        assert factor is not None  # marks sit on odd non-special components only
        out = wedge(out, factor)
    assert out, f"corrected wedge of {mp} collapsed"
    return out


@kept
def _component_masks(comp: tuple[int, ...], marked: bool) -> tuple[int, ...]:
    """The index masks of the monomials of ``simple_corrected`` of the
    component with parts comp; memoized per part tuple."""
    factor = simple_corrected(Partition(comp), marked)
    assert factor is not None  # marks sit on odd non-special components only
    return tuple(_index_mask(mono, 1) for mono in factor.terms)


@cached
def corrected_vec(mp: MarkedPartition) -> int:
    """``corrected_wedge(mp)`` as a vector of its (degree, length) block;
    memoized per marked partition."""
    factors = [_component_masks(comp, comp[0] in mp.marks) for comp in _marked_split(mp)[0]]
    vec = _product(factors, mp.degree, mp.length)
    assert vec, f"corrected wedge of {mp} collapsed"
    return vec


def marked_variants(mp: MarkedPartition) -> list[MarkedPartition]:
    """The shapes of the closed form of the coboundary of a corrected wedge:
    mp with one more mark, on an unmarked odd non-special component of odd
    length (one whose first part is an unmarked leading part)."""
    comps, leads = _marked_split(mp)
    return [
        MarkedPartition(mp.base, tuple(sorted(mp.marks + (comp[0],))))
        for comp in comps
        if len(comp) % 2 == 1 and comp[0] in leads and comp[0] not in mp.marks
    ]


def predicted_coboundary(mp: MarkedPartition) -> Cochain:
    """Closed form for the coboundary of a corrected wedge: the sum of the
    corrected wedges of its ``marked_variants``."""
    out = Cochain.zero()
    for variant in marked_variants(mp):
        out = out + corrected_wedge(variant)
    return out


@cached
def corrected_basis(n: int, q: int) -> SliceBasis:
    """Corrected wedges of all regular marked partitions of (n, q)."""
    return _wedge_basis(n, q, corrected_vec)


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

