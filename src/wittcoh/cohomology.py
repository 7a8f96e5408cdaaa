"""Brute-force cohomology of the graded blocks, and the dimension predictions.

Every block (k, n, q) is finite, so kernels and images of the coboundary are
computed exactly over GF(2).  A dimension needs only the ranks of the two
coboundaries at the block.  A cohomology basis is a ``cochains.SliceBasis``
labelled 0..dim-1 modulo the image of the incoming coboundary.  Its vectors,
the representatives, are the kernel vectors of the slice's cleared
elimination, in the fixed monomial order — deterministic by construction.
``cup`` wedges the index masks of two representatives
(``cochains.wedge_coords``) and reads the class of the product vector the
way ``class_of`` reads a cochain's, so the tuple path ``class_of(wedge(...))``
is an independent check of it.  Both read a class through one memoized
record (``_class_record``): the representative cochain and its monomials'
index masks, built once per class and dropped with the bases.

The module also computes the predictions that the CLI and the ``verify``
suites compare against:

* the combinatorial generating function for the dimensions at minimal index
  k >= 1 (sum over the indexing partitions of (1+t)^leading * t^length);
* the dimension transfers from minimal index 1 to minimal indices 0 and -1;
* the explicit closed 2-cochains spanning the degree-n part of the second
  cohomology at minimal index -1 (the central extension classes).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import NamedTuple

from .caching import cached, kept
from .cochains import Cochain, SliceBasis, _at_bits, graded_slice, max_length, wedge_coords
from .partitions import cohomology_partitions, leading_parts


class NotACocycleError(ValueError):
    pass


class CohomologyClass(NamedTuple):
    """Coordinates of a cohomology class in the fixed representative basis.

    A named tuple: immutable, with the tuple's equality and hash; ``+`` adds
    coordinates instead of concatenating."""

    k: int
    n: int
    q: int
    coords: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if (self.k, self.n, self.q) != (other.k, other.n, other.q):
            raise ValueError("classes live in different blocks")
        if len(self.coords) != len(other.coords):
            raise ValueError(f"coordinate lengths differ: {len(self.coords)} and {len(other.coords)}")
        return CohomologyClass(
            self.k, self.n, self.q, tuple(a ^ b for a, b in zip(self.coords, other.coords))
        )


@cached
def cohomology_basis(k: int, n: int, q: int) -> SliceBasis:
    """Representatives: the kernel vectors of the slice's cleared pass,
    labelled 0..dim-1, modulo the pivot columns of slice q-1.

    In the span the image leads at slice q-1's leading rows, the cleared
    columns, and each kernel vector's top bit is its own uncleared free
    column.  So every kernel vector enlarges the span, and a cocycle's
    reduction never stops above the tag bits."""
    if q < 1:
        raise ValueError("cohomology lives in lengths >= 1")
    dim = cohomology_dim(k, n, q)  # raises unless the image lies in the kernel
    sl = graded_slice(k, n, q)
    vecs = sl.delta.kernel_basis(sl.cleared)
    if len(vecs) != dim:
        raise ValueError(f"representatives disagree with the ranks at (k={k}, n={n}, q={q})")
    image_vecs = graded_slice(k, n, q - 1).image_basis() if q > 1 else []
    return SliceBasis(sl, range(dim), vecs, image_vecs)


@kept
def cohomology_dim(k: int, n: int, q: int) -> int:
    """dim C_q - rank d_q - rank d_{q-1}, from the slices' pivot masks.

    Raises unless slice q found d_q d_{q-1} = 0 on the pivot columns of
    d_{q-1}; every column is a combination of them, so this shows the image
    lies in the kernel.
    """
    if not 1 <= q <= max_length(k, n):
        return 0  # the block is empty
    sl = graded_slice(k, n, q)
    if not sl.closed:
        raise ValueError(
            f"image not contained in kernel at (k={k}, n={n}, q={q}) — the complex is corrupted"
        )
    dim = sl.dim - sl.rank
    if q > 1:
        dim -= graded_slice(k, n, q - 1).rank
    return dim


def class_of(c: Cochain, k: int = 1, n: int | None = None, q: int | None = None) -> CohomologyClass:
    """The class of a closed cochain; zero cochains need explicit (n, q).

    An explicit n or q must agree with a nonzero cochain's grading."""
    if not c.terms:
        if n is None or q is None:
            raise ValueError("zero cochain: pass n and q explicitly")
        if q < 1:
            raise ValueError("cohomology lives in lengths >= 1")
        return CohomologyClass(k, n, q, (0,) * cohomology_dim(k, n, q))
    degree, length = c.grading
    if n not in (None, degree) or q not in (None, length):
        raise ValueError(f"cochain of (n={degree}, q={length}) passed with n={n}, q={q}")
    basis = cohomology_basis(k, degree, length)
    sl = basis.slice
    vec = sl.coords(c)
    if sl.delta.mul_vec(vec):
        raise NotACocycleError(f"cochain {c} is not closed at minimal index {k}")
    return _class(basis, vec)


# byte b"0" or b"1" to the coordinate 0 or 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _class(basis: SliceBasis, cocycle: int) -> CohomologyClass:
    """The class of a cocycle, a vector of the basis's block.

    Coordinate j is bit j of the tag bits: the binary digits of
    ``x | 1 << dim`` read backwards, stopping before that top marker bit
    (so a block of dimension 0 gives no digits)."""
    x, sl = basis.coords(cocycle), basis.slice
    digits = bin(x | 1 << basis.dim)[:2:-1]
    return CohomologyClass(sl.k, sl.n, sl.q, tuple(digits.encode().translate(_DIGITS)))


@cached
def _class_record(cls: CohomologyClass) -> tuple[tuple[int, ...], Cochain]:
    """What ``cup`` and ``representative`` read from a class, built once per
    class: the index masks of its representative's monomials, a tuple as
    the record is shared, and the representative itself (a ``Cochain`` is
    immutable)."""
    k, n, q, coords = cls  # one unpacking, not four field reads
    basis = cohomology_basis(k, n, q)
    if len(coords) != basis.dim:
        raise ValueError(f"{len(coords)} coordinates for a block of dimension {basis.dim}")
    vecs = basis.vecs
    vec = 0
    for j, bit in enumerate(coords):
        if bit:
            vec ^= vecs[j]
    sl = basis.slice
    return tuple(_at_bits(sl.masks, vec)), sl.cochain(vec)


def representative(cls: CohomologyClass) -> Cochain:
    return _class_record(cls)[1]


def cup(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes: the class of the wedge of their representatives.

    The wedge is taken on the index masks of the two representatives, read
    from each class's record (``wedge_coords``), so no vector bit is walked
    and no product ``Cochain`` is built per call;
    ``class_of(wedge(representative(a), representative(b)))`` is the same
    product through index tuples.  A product that vanishes as a cochain, or
    whose block is empty, reads its zero class without building the product
    block's basis."""
    if a.k != b.k:
        raise ValueError("classes live over different minimal indices")
    xs, ys = _class_record(a)[0], _class_record(b)[0]
    k, n, q = a.k, a.n + b.n, a.q + b.q
    if q > max_length(k, n):
        return CohomologyClass(k, n, q, ())
    vec = wedge_coords(xs, ys, k, n, q)
    if not vec:
        return CohomologyClass(k, n, q, (0,) * cohomology_dim(k, n, q))
    basis = cohomology_basis(k, n, q)
    if basis.slice.delta.mul_vec(vec):
        raise NotACocycleError(f"the product of {a} and {b} is not closed at minimal index {k}")
    return _class(basis, vec)


# ---------------------------------------------------------------------------
# dimension predictions


def poincare_computed(n: int, k: int = 1) -> dict[int, int]:
    """Brute-force dimensions by length; zero coefficients omitted."""
    out = {}
    for q in range(1, max_length(k, n) + 1):
        d = cohomology_dim(k, n, q)
        if d:
            out[q] = d
    return out


def poincare_predicted(n: int, k: int = 1) -> dict[int, int]:
    """The combinatorial prediction sum_I (1+t)^leading(I) * t^length(I)."""
    if k < 1:
        raise ValueError("the combinatorial prediction needs k >= 1")
    out: dict[int, int] = defaultdict(int)
    for p in cohomology_partitions(n, k):
        ind = len(leading_parts(p, k))
        for j in range(ind + 1):
            out[p.length + j] += math.comb(ind, j)
    return dict(out)


def poly_str(coeffs: dict[int, int]) -> str:
    if not coeffs:
        return "0"
    pieces = []
    for q in sorted(coeffs):
        c = coeffs[q]
        head = "" if c == 1 else f"{c}*"
        pieces.append(f"{head}t" if q == 1 else f"{head}t^{q}")
    return " + ".join(pieces)


def predicted_low_index_dim(n: int, q: int, k: int) -> int:
    """Dimensions at minimal index 0 or -1, predicted from the index-1 table."""
    if k not in (0, -1):
        raise ValueError("prediction exists for minimal indices 0 and -1 only")
    if n % 2 or q < 1:
        return 0
    if q == 1:
        return 1
    if k == 0:
        return cohomology_dim(1, n, q - 1) + cohomology_dim(1, n, q)
    return (
        cohomology_dim(1, n + 1, q - 2)
        + cohomology_dim(1, n, q - 1)
        + cohomology_dim(1, n + 1, q - 1)
        + cohomology_dim(1, n, q)
    )


def central_extension_basis(n: int) -> list[tuple[str, Cochain]]:
    """The labelled closed 2-cochains spanning H^2 of degree n at minimal
    index -1: products of two even generators, plus (when 4 divides n) the
    symmetric odd sum reaching down to index -1."""
    if n < 2 or n % 2:
        raise ValueError("central extension classes live in even degrees >= 2")
    out: list[tuple[str, Cochain]] = []
    half = n // 2
    for a in range(0, (half + 1) // 2):
        b = half - a
        if a < b:
            out.append((f"u({a},{b})", Cochain.from_terms([(2 * a, 2 * b)])))
    if n % 4 == 0:
        out.append(("v", Cochain.from_terms((half - 2 * r - 1, half + 2 * r + 1) for r in range(n // 4 + 1))))
    return out
