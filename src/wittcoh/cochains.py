"""The graded wedge complex of the vector-field algebras over GF(2).

The algebra with minimal index k is spanned by generators e_i (i >= k,
representing t^{i+1} d/dt) with bracket [e_a, e_b] = (b-a) e_{a+b}.  Chains
and cochains are identified through the monomial basis, so a cochain here is
just a GF(2) set of strictly increasing index tuples.  All three operators
reduce their integer coefficients mod 2 at insertion time:

* coboundary: e_i -> sum of e_a ^ e_b over a+b = i, k <= a < b,
  with coefficient a+b, extended as a derivation;
* boundary: contracts index pairs (i_a, i_b) with coefficient i_a + i_b,
  prepending e_{i_a + i_b};
* generator action: e_r sends each index i_a to i_a - r with coefficient i_a
  (the module structure of the cochains of an ideal).

The complex splits into finite blocks by degree n (index sum) and length q;
``graded_slice`` materializes one block's monomial basis together with the
matrix of the coboundary into the next block.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .caching import cached, clear_all
from .gf2 import BitMatrix
from .partitions import strict_index_tuples

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


@dataclass(frozen=True)
class Cochain:
    """A GF(2) combination of wedge monomials; addition is symmetric difference."""

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
        acc: set[Monomial] = set()
        for t in terms:
            mono = tuple(t)
            if any(a >= b for a, b in zip(mono, mono[1:])):
                raise ValueError(f"indices not strictly increasing: {mono}")
            acc ^= {mono}
        return Cochain(frozenset(acc))

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


def wedge(a: Cochain, b: Cochain) -> Cochain:
    acc: set[Monomial] = set()
    for m1 in a.terms:
        for m2 in b.terms:
            if set(m1).isdisjoint(m2):
                acc ^= {tuple(sorted(m1 + m2))}
    return Cochain(frozenset(acc))


def _generator_pairs(i: int, k: int) -> list[tuple[int, int]]:
    if i % 2 == 0:  # the coefficient a+b = i vanishes mod 2
        return []
    pairs = [(a, i - a) for a in range(k, (i - 1) // 2 + 1)]
    if _corrupted_index == i and pairs:
        pairs = pairs[:-1]
    return pairs


def _check_min_index(mono: Monomial, k: int) -> None:
    if mono and mono[0] < k:
        raise ValueError(f"index {mono[0]} below the minimal index {k}")


def coboundary(c: Cochain, k: int = 1) -> Cochain:
    """Raises length by one, preserves degree."""
    for mono in c.terms:
        _check_min_index(mono, k)
    pairs = {i: _generator_pairs(i, k) for mono in c.terms for i in mono}
    acc: set[Monomial] = set()
    for mono in c.terms:
        for pos, idx in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1 :]
            for a, b in pairs[idx]:
                if a not in rest and b not in rest:
                    acc ^= {tuple(sorted(rest + (a, b)))}
    return Cochain(frozenset(acc))


def boundary(c: Cochain, k: int = 1) -> Cochain:
    """Lowers length by one, preserves degree (the dual contraction)."""
    acc: set[Monomial] = set()
    for mono in c.terms:
        _check_min_index(mono, k)
        for i in range(len(mono)):
            for j in range(i + 1, len(mono)):
                s = mono[i] + mono[j]
                if s % 2 == 0:
                    continue
                rest = mono[:i] + mono[i + 1 : j] + mono[j + 1 :]
                if s not in rest:
                    acc ^= {tuple(sorted(rest + (s,)))}
    return Cochain(frozenset(acc))


def generator_action(r: int, c: Cochain) -> Cochain:
    """Action of e_r on cochains: index i_a shifts to i_a - r, coefficient i_a."""
    acc: set[Monomial] = set()
    for mono in c.terms:
        for pos, idx in enumerate(mono):
            if idx % 2 == 0:
                continue
            shifted = idx - r
            if shifted < 1:
                raise ValueError(f"shifted index {shifted} below the minimal index 1")
            rest = mono[:pos] + mono[pos + 1 :]
            if shifted not in rest:
                acc ^= {tuple(sorted(rest + (shifted,)))}
    return Cochain(frozenset(acc))


def _index_mask(mono: Monomial, k: int) -> int:
    """The set of indices of a monomial as a bitmask, with bit i - k for index i."""
    m = 0
    for i in mono:
        m |= 1 << (i - k)
    return m


class GradedSlice:
    """Monomial basis of one (degree, length) block and its coboundary matrix.

    ``delta`` has one column per basis monomial of this block and one row per
    basis monomial of the (q+1)-block of the same degree, in that block's
    column order.  Before its one untagged pass a slice checks d_q d_{q-1} = 0
    on the pivot columns of slice q-1.  If that holds, each leading row t of
    slice q-1 is the top bit of an image vector r with d_q r = 0, so column t
    depends on the columns before it, and the pass skips (clears) it.  The
    pass records the pivot columns and leading rows, so the rank and image
    are read off without eliminating again.  The position of each monomial,
    which ``coords`` reads, is indexed on the first call only.
    """

    __slots__ = ("k", "n", "q", "basis", "delta", "_pos", "_pass")

    def __init__(self, k: int, n: int, q: int, basis: tuple[Monomial, ...], delta: BitMatrix):
        self.k = k
        self.n = n
        self.q = q
        self.basis = basis
        self.delta = delta
        self._pos: dict[Monomial, int] | None = None
        self._pass: tuple[bool, int, int, int] | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _eliminate(self) -> tuple[bool, int, int, int]:
        """(closed, cleared, pivots, leads), from the check and one pass."""
        if self._pass is None:
            closed, cleared = True, 0
            if self.q > 1:
                prev = graded_slice(self.k, self.n, self.q - 1)
                closed = not any(self.delta.mul_vec(w) for w in prev.image_basis())
                cleared = prev.leads if closed else 0
            self._pass = (closed, cleared, *self.delta.echelon(cleared))
        return self._pass

    @property
    def closed(self) -> bool:
        """Whether d_q vanishes on the image of d_{q-1}."""
        return self._eliminate()[0]

    @property
    def cleared(self) -> int:
        """The skipped columns: slice q-1's leading rows if closed, else none."""
        return self._eliminate()[1]

    @property
    def pivots(self) -> int:
        """The columns independent of the ones before them; the rest are free."""
        return self._eliminate()[2]

    @property
    def leads(self) -> int:
        """The leading rows of an echelon basis of the image."""
        return self._eliminate()[3]

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
        acc = set()
        while vec:
            low = vec & -vec
            acc.add(self.basis[low.bit_length() - 1])
            vec ^= low
        return Cochain(frozenset(acc))

    def __repr__(self) -> str:
        return f"GradedSlice(k={self.k}, n={self.n}, q={self.q}, dim={self.dim})"


@cached
def _monomials(k: int, n: int, q: int) -> tuple[tuple[Monomial, ...], dict[int, int]]:
    """The (n, q) monomial basis and the position of each monomial's index
    mask in it: the basis of slice q and the target of slice q-1."""
    basis = tuple(strict_index_tuples(n, q, k))
    return basis, {_index_mask(m, k): i for i, m in enumerate(basis)}


@cached
def graded_slice(k: int, n: int, q: int) -> GradedSlice:
    """Column j of ``delta`` is the coboundary of basis monomial j.

    Works on index masks: the coboundary replaces an odd index i by each
    pair a + b = i of ``_generator_pairs`` that the rest of the monomial
    misses, and each such term's position is looked up by its mask.
    """
    if k < -1:
        raise ValueError("minimal index must be >= -1")
    if q < 1:
        raise ValueError("length must be >= 1")
    basis, pos = _monomials(k, n, q)
    target, tpos = _monomials(k, n, q + 1)
    top = max((mono[-1] for mono in basis), default=k)
    # odd index i -> (its bit, the mask of each pair that replaces it)
    expand = {}
    for i in range(k, top + 1):
        pairs = _generator_pairs(i, k)
        if pairs:
            expand[i] = (1 << (i - k), [(1 << (a - k)) | (1 << (b - k)) for a, b in pairs])
    cols = []
    for mono, mask in zip(basis, pos):  # pos holds the masks in basis order
        col = 0
        for i in mono:
            e = expand.get(i)
            if e is not None:
                rest = mask ^ e[0]
                for ab in e[1]:
                    if not rest & ab:
                        col ^= 1 << tpos[rest | ab]
        cols.append(col)
    return GradedSlice(k, n, q, basis, BitMatrix.from_columns(cols, len(target)))


def max_length(k: int, n: int) -> int:
    """Largest q with a nonempty (n, q) slice for minimal index k."""
    q = 0
    while (q + 1) * k + q * (q + 1) // 2 <= n:  # minimal sum of q+1 distinct indices >= k
        q += 1
    return q
