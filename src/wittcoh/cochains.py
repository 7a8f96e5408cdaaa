"""The graded wedge complex of the vector-field algebras over GF(2).

The algebra with minimal index k is spanned by generators e_i (i >= k,
representing t^{i+1} d/dt) with bracket [e_a, e_b] = (b-a) e_{a+b}.  Chains
and cochains are identified through the monomial basis, so a cochain here is
just a GF(2) set of strictly increasing index tuples.  Every operator
below lists the index tuples of its terms and hands them to one GF(2) sum
(``_sum``), which sorts each tuple and keeps those that occur an odd number
of times; integer coefficients are reduced mod 2 before a term is listed:

* wedge: the union of each pair of monomials that share no index;
* coboundary: e_i -> sum of e_a ^ e_b over a+b = i, k <= a < b,
  with coefficient a+b, extended as a derivation;
* generator action: e_r sends each index i_a to i_a - r with coefficient i_a
  (the module structure of the cochains of an ideal), extended as a
  derivation by the same walk (``_derivation``);
* boundary: contracts index pairs (i_a, i_b) with coefficient i_a + i_b,
  prepending e_{i_a + i_b}.

The complex splits into finite blocks by degree n (index sum) and length q;
``graded_slice`` materializes one block's monomial basis together with the
matrix of the coboundary into the next block, and ``wedge_coords``, the
product behind ``cup``, wedges two cochains given by their monomials' index
masks into a vector of the product block.
``SliceBasis`` is a labelled basis of a block modulo an image.  The
monomials with their index masks (``_monomials``), the generator pairs and
``max_length`` come from ``partitions``, which owns every tuple walk and
length bound.  Each generator's coboundary on index masks is memoized once
per minimal index (``_pair_masks``).
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .caching import cached, clear_all, kept
from .gf2 import BitMatrix, Gf2Span
from .partitions import _ascending, _longest, ascending_tuples

Monomial = tuple[int, ...]

# The generator whose coboundary drops its last expansion term; set only
# inside ``corrupted_generator``.
_corrupted_index: int | None = None


@contextmanager
def corrupted_generator(i: int) -> Iterator[None]:
    """Negative control: inside the block, the coboundary of e_i drops its
    last expansion term.  Every cache is cleared on entry and on exit, so no
    clean slice is reused inside and no corrupted one outlives the block."""
    global _corrupted_index
    clear_all()
    _corrupted_index = i
    try:
        yield
    finally:
        _corrupted_index = None
        clear_all()


class Cochain(NamedTuple):
    """A GF(2) combination of wedge monomials; addition is symmetric difference.

    A named tuple of one field: immutable, with the tuple's equality and
    hash.  ``+`` and truth are redefined, so a zero cochain is falsy and a
    sum is a symmetric difference, not a concatenation."""

    terms: frozenset[Monomial] = frozenset()

    @staticmethod
    def zero() -> "Cochain":
        return Cochain(frozenset())

    @staticmethod
    def unit() -> "Cochain":
        """The empty wedge; multiplicative identity."""
        return Cochain(frozenset({()}))

    @staticmethod
    def from_terms(terms: Iterable[Iterable[int]]) -> "Cochain":
        monos = [tuple(t) for t in terms]
        for mono in monos:
            if any(a >= b for a, b in zip(mono, mono[1:])):
                raise ValueError(f"indices not strictly increasing: {mono}")
        return _sum(monos)

    def support(self) -> list[Monomial]:
        return sorted(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Cochain") -> "Cochain":
        return Cochain(self.terms ^ other.terms)

    @property
    def grading(self) -> tuple[int, int]:
        """(degree, length) in one pass; ValueError if zero or not homogeneous."""
        grades = {(sum(t), len(t)) for t in self.terms}
        if len(grades) != 1:
            raise ValueError("cochain is zero or not homogeneous")
        return next(iter(grades))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            "^".join(f"e{i}" for i in t) if t else "1" for t in self.support()
        )


def generator(i: int) -> Cochain:
    """The basis 1-cochain dual to e_i."""
    return Cochain(frozenset({(i,)}))


def _sum(monomials: Iterable[Monomial]) -> Cochain:
    """The GF(2) sum of the monomials, each an index tuple in any order: the
    sorted tuples that occur an odd number of times."""
    acc: set[Monomial] = set()
    for mono in monomials:
        acc ^= {tuple(sorted(mono))}  # a second copy cancels the first
    return Cochain(frozenset(acc))


def wedge(*factors: Cochain) -> Cochain:
    """The product of the factors; the unit for none."""
    if not factors:
        return Cochain.unit()
    out = factors[0]
    for b in factors[1:]:
        # ``for s1 in [set(m1)]`` binds the index set of m1 once per monomial
        out = _sum(m1 + m2 for m1 in out.terms for s1 in [set(m1)] for m2 in b.terms if s1.isdisjoint(m2))
    return out


def _generator_pairs(i: int, k: int) -> list[tuple[int, int]]:
    if i % 2 == 0:  # the coefficient a+b = i vanishes mod 2
        return []
    pairs = ascending_tuples(i, 2, k, 1)
    if _corrupted_index == i and pairs:
        pairs = pairs[:-1]
    return pairs


def _check_min_index(mono: Monomial, k: int) -> None:
    if mono and mono[0] < k:
        raise ValueError(f"index {mono[0]} below the minimal index {k}")


def _derivation(c: Cochain, image: dict[int, Sequence[Monomial]]) -> Iterator[Monomial]:
    """The terms of the derivation that sends e_i to the sum of the
    monomials image[i] (zero for an index without an entry): each index of
    each monomial is replaced by each image monomial that misses the rest
    of its indices."""
    for mono in c.terms:
        for pos, i in enumerate(mono):
            if i in image:
                rest = mono[:pos] + mono[pos + 1 :]
                for t in image[i]:
                    if set(rest).isdisjoint(t):
                        yield rest + t


def coboundary(c: Cochain, k: int = 1) -> Cochain:
    """Raises length by one, preserves degree."""
    for mono in c.terms:
        _check_min_index(mono, k)
    return _sum(_derivation(c, {i: _generator_pairs(i, k) for mono in c.terms for i in mono}))


def generator_action(r: int, c: Cochain) -> Cochain:
    """Action of e_r on cochains: index i_a shifts to i_a - r, coefficient i_a."""
    image = {i: ((i - r,),) for mono in c.terms for i in mono if i % 2}  # an even coefficient i_a vanishes
    if image and min(image) - r < 1:
        raise ValueError(f"shifted index {min(image) - r} below the minimal index 1")
    return _sum(_derivation(c, image))


def boundary(c: Cochain, k: int = 1) -> Cochain:
    """Lowers length by one, preserves degree (the dual contraction)."""
    for mono in c.terms:
        _check_min_index(mono, k)
    return _sum(
        rest + (s,)
        for mono in c.terms
        for i, j in combinations(range(len(mono)), 2)
        for s in [mono[i] + mono[j]]
        if s % 2  # the coefficient i_a + i_b
        for rest in [mono[:i] + mono[i + 1 : j] + mono[j + 1 :]]
        if s not in rest
    )


def _index_mask(mono: Monomial, k: int) -> int:
    """The set of indices of a monomial as a bitmask, with bit i - k for index i."""
    m = 0
    for i in mono:
        m |= 1 << (i - k)
    return m


def _at_bits(items: tuple, vec: int) -> list:
    """The items at the set bits of vec, lowest bit first.

    Walks top bit first, as ``BitMatrix.mul_vec`` does: clearing the top bit
    shrinks vec, where isolating the low bit with ``vec & -vec`` builds a
    full-width negation per bit."""
    out = []
    while vec:
        top = vec.bit_length() - 1
        out.append(items[top])
        vec ^= 1 << top
    out.reverse()
    return out


class GradedSlice:
    """Monomial basis of one (degree, length) block, its coboundary matrix,
    and the matrix's one elimination pass, run on construction.

    ``delta`` has one column per basis monomial of this block and one row per
    basis monomial of the (q+1)-block of the same degree, in that block's
    column order.  ``closed`` records d_q d_{q-1} = 0 on the pivot columns of
    slice q-1; an empty block holds it vacuously and reads no slice below.
    If that holds, each leading row t of slice q-1 is the top bit of an image
    vector r with d_q r = 0, so column t depends on the columns before it,
    and the untagged pass skips it (``cleared``).  The pass gives
    the ``pivots`` (the rest of the columns are free) and the ``leads`` (the
    leading rows of an echelon basis of the image).  ``masks`` holds the
    index mask of each basis monomial (``_monomials``' tuple), and ``coords``
    indexes the monomial positions on its first call.
    """

    __slots__ = ("k", "n", "q", "basis", "masks", "delta", "closed", "cleared", "pivots", "leads", "_pos")

    def __init__(self, k: int, n: int, q: int, basis: tuple[Monomial, ...], delta: BitMatrix):
        self.k = k
        self.n = n
        self.q = q
        self.basis = basis
        self.masks = _monomials(k, n, q)[1]
        self.delta = delta
        self.closed, self.cleared = True, 0
        if q > 1 and basis:  # an empty block is a leaf
            prev = graded_slice(k, n, q - 1)
            self.closed = not any(delta.mul_vec(w) for w in prev.image_basis())
            self.cleared = prev.leads if self.closed else 0
        self.pivots, self.leads = delta.echelon(self.cleared)
        self._pos: dict[Monomial, int] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def rank(self) -> int:
        return self.pivots.bit_count()

    def image_basis(self) -> list[int]:
        """The pivot columns of ``delta``, in column order: a basis of the
        image in the (q+1)-block."""
        bits = bin(self.pivots)[:1:-1]  # bits[j] == "1" for a pivot column j
        return [col for col, bit in zip(self.delta.columns(), bits) if bit == "1"]

    def coords(self, c: Cochain) -> int:
        if self._pos is None:
            self._pos = {m: i for i, m in enumerate(self.basis)}
        v = 0
        for mono in c.terms:
            pos = self._pos.get(mono)
            if pos is None:
                raise ValueError(f"monomial {mono} is not in slice (k={self.k}, n={self.n}, q={self.q})")
            v |= 1 << pos
        return v

    def cochain(self, vec: int) -> Cochain:
        return Cochain(frozenset(_at_bits(self.basis, vec)))

    def __repr__(self) -> str:
        return f"GradedSlice(k={self.k}, n={self.n}, q={self.q}, dim={self.dim})"


class SliceBasis:
    """Labelled vectors of one slice, independent modulo an image.

    ``span`` is the augmented matrix [A | I] with ``dim`` tag bits: each
    image vector enters untagged and vector j as ``v << dim | 1 << j``, so
    a vector of the span of both reduces to its tag bits, its coordinates.
    Building raises on a vector that depends on the image and the earlier
    vectors."""

    __slots__ = ("slice", "labels", "vecs", "image_vecs", "span", "dim")

    def __init__(self, slice: GradedSlice, labels: Sequence, vecs: Sequence[int], image_vecs: Sequence[int] = ()):
        dim = len(vecs)
        span = Gf2Span((w << dim for w in image_vecs), width=dim)
        for j, (label, v) in enumerate(zip(labels, vecs, strict=True)):
            if not span.add(v << dim | 1 << j):
                raise ValueError(f"vector {label} depends on the image and the earlier vectors in {slice}")
        self.slice = slice
        self.labels = labels
        self.vecs = vecs
        self.image_vecs = image_vecs
        self.span = span
        self.dim = dim

    @property
    def representatives(self) -> tuple[Cochain, ...]:
        return tuple(self.slice.cochain(v) for v in self.vecs)

    def coords(self, vec: int) -> int:
        """The tag bits of vec: the vectors that sum to it modulo the image."""
        x = self.span.reduce(vec << self.dim)
        if x >> self.dim:
            raise ValueError(f"vector outside the span of the basis and the image in {self.slice}")
        return x

    def terms(self, vec: int) -> list:
        """The labels of the vectors that sum to vec modulo the image."""
        return _at_bits(self.labels, self.coords(vec))

    def decompose(self, c: Cochain) -> dict:
        """The labels of the vectors that sum to c, a cochain of this block."""
        return dict.fromkeys(self.terms(self.slice.coords(c)), 1)


@cached
def _monomials(k: int, n: int, q: int) -> tuple[tuple[Monomial, ...], tuple[int, ...], dict[int, int]]:
    """The (n, q) monomial basis, the index mask of each basis monomial, and
    each mask's position: the basis of slice q >= 1 and the target of slice
    q-1.  Tuples and masks come from one pass of ``partitions._ascending``,
    in ``strict_index_tuples``' order."""
    basis: list[Monomial] = []
    masks: list[int] = []
    _ascending(basis, masks, (), 0, n, k, q, 1, k)
    return tuple(basis), tuple(masks), {m: i for i, m in enumerate(masks)}


@kept
def _pair_masks(k: int, i: int) -> tuple[int, ...]:
    """The coboundary of e_i on index masks: the mask of each pair a + b = i
    of ``_generator_pairs``; empty for an even i or an i without pairs."""
    return tuple(1 << (a - k) | 1 << (b - k) for a, b in _generator_pairs(i, k))


@cached
def graded_slice(k: int, n: int, q: int) -> GradedSlice:
    """Column j of ``delta`` is the coboundary of basis monomial j.

    Works on index masks: the coboundary replaces an odd index i by each
    pair a + b = i of ``_pair_masks`` that the rest of the monomial misses,
    and each such term's position is looked up by its mask.  The largest
    index is ``basis[0][-1]``.
    """
    if k < -1:
        raise ValueError("minimal index must be >= -1")
    if q < 1:
        raise ValueError("length must be >= 1")
    basis, masks, _ = _monomials(k, n, q)
    target, _, tpos = _monomials(k, n, q + 1)
    expand = [_pair_masks(k, i) for i in range(k, basis[0][-1] + 1 if basis else k)]
    cols = []
    for mono, mask in zip(basis, masks):
        col = 0
        for i in mono:
            j = i - k
            pairs = expand[j]
            if pairs:
                rest = mask ^ 1 << j
                for ab in pairs:
                    if not rest & ab:
                        col ^= 1 << tpos[rest | ab]
        cols.append(col)
    return GradedSlice(k, n, q, basis, BitMatrix.from_columns(cols, len(target)))


def wedge_coords(xs: Sequence[int], ys: Sequence[int], k: int, n: int, q: int) -> int:
    """``wedge`` in slice coordinates: the product of two cochains given by
    the index masks of their monomials (xs and ys, of minimal index k), as a
    vector of the (n, q) block their degrees and lengths add up to.

    Over GF(2) the wedge of two monomials with disjoint index sets is their
    union, so each disjoint pair of index masks flips one bit, with no sign
    and no sort."""
    tpos = _monomials(k, n, q)[2]
    vec = 0
    for x in xs:
        for y in ys:
            if not x & y:
                vec ^= 1 << tpos[x | y]
    return vec


@kept
def max_length(k: int, n: int) -> int:
    """Largest q with a nonempty (n, q) slice for minimal index k."""
    return _longest(n, k, 1)
