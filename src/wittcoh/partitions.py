"""Integer partitions, marked partitions, and their enumerators.

A partition is a weakly increasing tuple of positive parts.  Most of the
structure theory lives relative to a minimal allowed part ``k >= 1``:

* *regular*: successive gaps are at least 2;
* *dense*: successive gaps are exactly 2;
* *special* (relative to k): regular with largest part below ``2*(k+q-1)``
  where q is the length — for ``k=1`` these are exactly ``<1,3,...,2q-1>``;
* *simple*: dense or special.

Every regular partition splits uniquely into simple components of maximal
length (the canonical decomposition).  The minimal parts of the odd
non-special components are its *leading parts*; marked partitions carry a
subset of those (or, for singular ones, any subset of their parts).

``compare`` implements the degree-preserving partial order used for all
triangularity statements: fewer parts first, then prefix-sum dominance,
then lexicographic comparison of mark sets.

Each rule has one owner here.  ``_split`` alone cuts a regular shape into
its components and picks its leading parts; everything that needs either
reads it.  ``_special_top`` is the one spelling of the special bound.
``_factor_lists`` is the one walk over the feasible keys of a bidegree,
shared by the conjecture's words and the strict/regular pairs.  Every tuple
walk and length bound of the package is here too: ``_ascending`` walks the
ascending tuples of a sum (the cochain monomials with their index masks as
well as the partitions), and ``_longest`` bounds their length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Sequence

from .caching import cached, kept


@dataclass(frozen=True)
class Partition:
    """Weakly increasing tuple of positive integer parts (may be empty)."""

    parts: tuple[int, ...]
    degree: int = field(init=False, compare=False, repr=False)
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"part {p} is not a positive integer")
            if i and parts[i - 1] > p:
                raise ValueError(f"parts not weakly increasing: {parts}")
        object.__setattr__(self, "degree", sum(parts))
        object.__setattr__(self, "length", len(parts))

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> Partition:
        """A partition of a part tuple known to be valid, without the checks.

        Set field by field, as ``__post_init__`` does: writing through
        ``__dict__`` would give each instance its own dict, twice the size."""
        p = object.__new__(cls)
        object.__setattr__(p, "parts", parts)
        object.__setattr__(p, "degree", sum(parts))
        object.__setattr__(p, "length", len(parts))
        return p

    def __str__(self) -> str:
        return "<" + ",".join(map(str, self.parts)) + ">"


@dataclass(frozen=True)
class MarkedPartition:
    """A partition with a subset of its (distinct) part values marked."""

    base: Partition
    marks: tuple[int, ...] = ()
    degree: int = field(init=False, compare=False, repr=False)
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        marks = tuple(self.marks)
        object.__setattr__(self, "marks", marks)
        for i, m in enumerate(marks):
            if m not in self.base.parts:
                raise ValueError(f"mark {m} is not a part of {self.base}")
            if i and marks[i - 1] >= m:
                raise ValueError(f"marks not strictly increasing: {marks}")
        object.__setattr__(self, "degree", self.base.degree)
        object.__setattr__(self, "length", self.base.length + len(marks))

    @classmethod
    def _unchecked(cls, base: Partition, marks: tuple[int, ...]) -> MarkedPartition:
        """A marked partition of marks known to be valid, without the checks."""
        mp = object.__new__(cls)
        object.__setattr__(mp, "base", base)
        object.__setattr__(mp, "marks", marks)
        object.__setattr__(mp, "degree", base.degree)
        object.__setattr__(mp, "length", base.length + len(marks))
        return mp

    def __str__(self) -> str:
        marked = set(self.marks)
        body = ",".join(f"{p}*" if p in marked else str(p) for p in self.base.parts)
        return "<" + body + ">"


def _require_nonempty(p: Partition) -> None:
    if p.length == 0:
        raise ValueError("operation undefined for the empty partition")


def _require_min_part(p: Partition, k: int) -> None:
    _require_nonempty(p)
    if p.parts[0] < k:
        raise ValueError(f"{p} has a part below the minimal part {k}")


def is_strict(p: Partition) -> bool:
    _require_nonempty(p)
    return all(a < b for a, b in zip(p.parts, p.parts[1:]))


def is_regular(p: Partition) -> bool:
    _require_nonempty(p)
    return all(b - a >= 2 for a, b in zip(p.parts, p.parts[1:]))


def is_dense(p: Partition) -> bool:
    _require_nonempty(p)
    return all(b - a == 2 for a, b in zip(p.parts, p.parts[1:]))


def _special_top(q: int, k: int) -> int:
    """The largest part of a special k-partition of length q: the one
    spelling of the special bound ``2*(k+q-1)``."""
    if q < 1 or k < 1:
        raise ValueError("needs q >= 1 and k >= 1")
    return 2 * (k + q - 1) - 1


def _special_parts(parts: tuple[int, ...], k: int) -> bool:
    """Special, for a regular part tuple with every part >= k."""
    return parts[-1] <= _special_top(len(parts), k)


def is_special(p: Partition, k: int = 1) -> bool:
    """Regular with max part < 2*(k+q-1); rejects parts below k."""
    _require_min_part(p, k)
    return is_regular(p) and _special_parts(p.parts, k)


def is_simple(p: Partition, k: int = 1) -> bool:
    return is_dense(p) or is_special(p, k)


def is_odd(p: Partition) -> bool:
    _require_nonempty(p)
    return all(x % 2 == 1 for x in p.parts)


@cached
def _split(parts: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The canonical decomposition and the leading parts of a regular part
    tuple with every part >= k, in one scan; the empty tuple has no
    components.  This is the one place a shape is cut and its leads picked.
    Memoized per key, so each shape is split once; callers pass enumerated
    regular bases or test regularity first (``_regular_split``), so no
    irregular tuple enters the memo.

    A simple component grown by a gap of exactly 2 stays simple: a dense one
    stays dense, and a special one stays special, as its bound grows by 2 as
    well.  Across a wider gap it stays simple only if it is special at its
    new length.  Simplicity is prefix-closed, so cutting at the first part
    that fails gives the longest simple prefix.
    """
    comps = []
    start = 0
    for i in range(1, len(parts)):
        if parts[i] - parts[i - 1] != 2 and parts[i] > _special_top(i - start + 1, k):
            comps.append(parts[start:i])
            start = i
    if parts:
        comps.append(parts[start:])
    leads = tuple(c[0] for c in comps if not _special_parts(c, k) and all(x % 2 for x in c))
    return tuple(comps), leads


def _regular_split(parts: tuple[int, ...], k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None:
    """``_split`` of a part tuple; None unless it is nonempty and regular with
    every part >= k.  The test is one scan per call, made before the memo
    (a plain loop: a generator expression costs three times as much here)."""
    if not parts or parts[0] < k:
        return None
    prev = parts[0]
    for p in parts[1:]:
        if p - prev < 2:
            return None
        prev = p
    return _split(parts, k)


def _checked_split(p: Partition, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    split = _regular_split(p.parts, k)
    if split is None:
        _require_min_part(p, k)
        raise ValueError(f"{p} is not regular")
    return split


def canonical_decomposition(p: Partition, k: int = 1) -> list[Partition]:
    """Split a regular partition into simple components of maximal length.

    Greedy from the left: every prefix of a simple partition is simple, so
    taking the longest simple prefix at each step is well defined.
    """
    return [Partition._unchecked(c) for c in _checked_split(p, k)[0]]


def leading_parts(p: Partition, k: int = 1) -> list[int]:
    """Minimal parts of the odd non-special simple components."""
    return list(_checked_split(p, k)[1])


def is_regular_marked(mp: MarkedPartition, k: int = 1) -> bool:
    split = _regular_split(mp.base.parts, k)
    return split is not None and all(m in split[1] for m in mp.marks)


class Order(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare(a: MarkedPartition, b: MarkedPartition) -> Order:
    """The triangular order; defined only between equal degrees.

    Shorter base wins; equal-length bases compare by prefix-sum dominance;
    equal bases compare mark tuples lexicographically (a proper prefix
    precedes its extensions).
    """
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    pa, pb = a.base.parts, b.base.parts
    if pa == pb:
        if a.marks == b.marks:
            return Order.EQUAL
        return Order.LESS if a.marks < b.marks else Order.GREATER
    if len(pa) != len(pb):
        return Order.LESS if len(pa) < len(pb) else Order.GREATER
    below = above = True
    sa = sb = 0
    for xa, xb in zip(pa, pb):
        sa += xa
        sb += xb
        if sa > sb:
            below = False
        elif sa < sb:
            above = False
    if below:
        return Order.LESS
    if above:
        return Order.GREATER
    return Order.INCOMPARABLE


def union(a: Partition, b: Partition) -> Partition:
    return Partition(tuple(sorted(a.parts + b.parts)))


def union_marked(a: MarkedPartition, b: MarkedPartition) -> MarkedPartition:
    """Disjoint union; mark sets must not collide (marks are value-based)."""
    if set(a.marks) & set(b.marks):
        raise ValueError("mark sets collide")
    return MarkedPartition(union(a.base, b.base), tuple(sorted(a.marks + b.marks)))


def markings(base: Partition, parts: Sequence[int]) -> list[MarkedPartition]:
    """base marked at each subset of parts: by the number of marks, then in
    ``combinations`` order.  parts must be strictly increasing parts of
    base; that is checked once, so no marked partition is checked again."""
    parts = tuple(parts)
    MarkedPartition(base, parts)  # raises unless every subset is a valid mark tuple
    return [
        MarkedPartition._unchecked(base, marks)
        for r in range(len(parts) + 1)
        for marks in combinations(parts, r)
    ]


# ---------------------------------------------------------------------------
# enumerators (all lists are in lexicographic order on part tuples)


def ascending_tuples(total: int, count: int, lowest: int, min_gap: int) -> list[tuple[int, ...]]:
    """All tuples of `count` integers summing to `total`, first entry >= lowest,
    successive entries increasing by at least `min_gap`."""
    out: list[tuple[int, ...]] = []
    _ascending(out, None, (), 0, total, lowest, count, min_gap, lowest)
    return out


def _ascending(
    out: list, masks: list | None, prefix: tuple, pmask: int, remaining: int, lo: int, slots: int, gap: int, lowest: int
) -> None:
    """Append to out every completion of prefix by ``ascending_tuples``' rule,
    and to masks, unless it is None, its bitmask: bit e - lowest for each
    entry e (pmask is prefix's).  A module-level recursion, as a closure that
    calls itself is a reference cycle, which keeps out alive until a full GC."""
    if slots > 2:
        hi = (remaining - gap * slots * (slots - 1) // 2) // slots  # a, a + gap, ... must fit
        for a in range(lo, hi + 1):
            _ascending(out, masks, prefix + (a,), pmask | 1 << (a - lowest), remaining - a, a + gap, slots - 1, gap, lowest)
    elif slots == 2:
        firsts = range(lo, (remaining - gap) // 2 + 1)  # a + gap <= remaining - a
        if masks is None:
            for a in firsts:
                out.append(prefix + (a, remaining - a))
        else:
            for a in firsts:
                b = remaining - a
                out.append(prefix + (a, b))
                masks.append(pmask | 1 << (a - lowest) | 1 << (b - lowest))
    elif slots == 1:
        if remaining >= lo:
            out.append(prefix + (remaining,))
            if masks is not None:
                masks.append(pmask | 1 << (remaining - lowest))
    elif slots == 0 and remaining == 0:
        out.append(prefix)
        if masks is not None:
            masks.append(pmask)


def strict_index_tuples(n: int, q: int, min_index: int) -> list[tuple[int, ...]]:
    """Strictly increasing index tuples (entries may be <= 0) of sum n."""
    return ascending_tuples(n, q, min_index, 1)


@kept
def _partitions(n: int, q: int, lowest: int, gap: int) -> tuple[Partition, ...]:
    """The partitions of n into q parts, the least at least `lowest`, with
    successive parts at least `gap` apart; memoized per key.  A valid key
    makes every tuple a valid partition, so none is checked again."""
    if lowest < 1 or gap < 0:
        raise ValueError(f"partitions need lowest >= 1 and gap >= 0, not {lowest} and {gap}")
    return tuple(map(Partition._unchecked, ascending_tuples(n, q, lowest, gap)))


def strict_partitions(n: int, q: int, min_part: int = 1) -> list[Partition]:
    return list(_partitions(n, q, min_part, 1))


def all_partitions(n: int, q: int) -> list[Partition]:
    return list(_partitions(n, q, 1, 0))


def regular_partitions(n: int, q: int, min_part: int = 1) -> list[Partition]:
    return list(_partitions(n, q, min_part, 2))


def _longest(total: int, lowest: int, gap: int) -> int:
    """The largest count of ``_ascending``'s tuples of sum total: q stops
    where the least sum of q + 1 entries >= lowest, gap apart, exceeds it."""
    q = 0
    while (q + 1) * lowest + gap * q * (q + 1) // 2 <= total:
        q += 1
    return q


def max_regular_length(n: int, min_part: int) -> int:
    return _longest(n, min_part, 2)


@cached
def _bases_and_leads(n: int, m: int, k: int) -> tuple[tuple[Partition, tuple[int, ...], bool], ...]:
    """Each regular k-partition of n with m parts, its leading parts, and
    whether all its simple components have even degree; memoized per key."""
    out = []
    for base in _partitions(n, m, k, 2):
        comps, leads = _split(base.parts, k)
        out.append((base, leads, all(sum(c) % 2 == 0 for c in comps)))
    return tuple(out)


def _marked(n: int, q: int, k: int, even_only: bool) -> list[MarkedPartition]:
    """Regular marked partitions of degree n and length q, optionally only
    those over a base whose simple components all have even degree."""
    out = []
    # a base of m parts has at most m leading parts, so it needs m >= q/2
    for m in range((q + 1) // 2, min(q, max_regular_length(n, k)) + 1):
        for base, leads, even in _bases_and_leads(n, m, k):
            if even or not even_only:
                out.extend(MarkedPartition._unchecked(base, marks) for marks in combinations(leads, q - m))
    out.sort(key=lambda mp: (mp.base.parts, mp.marks))
    return out


@cached
def _marked_regular(n: int, q: int, k: int) -> tuple[MarkedPartition, ...]:
    """``marked_regular_partitions``, memoized per key: the verify suites
    and the wedge bases ask for the same blocks again and again."""
    return tuple(_marked(n, q, k, False))


def marked_regular_partitions(n: int, q: int, k: int = 1) -> list[MarkedPartition]:
    """Regular marked partitions of degree n and length (parts + marks) q,
    enumerated once per key and returned as a fresh list."""
    if k < 1:
        raise ValueError("marked enumeration needs k >= 1")
    return list(_marked_regular(n, q, k))


def cohomology_partitions(n: int, k: int = 1) -> list[Partition]:
    """Regular k-partitions of degree n whose simple components are all
    special or of even degree; these index the cohomology basis."""
    if k < 1:
        raise ValueError("needs k >= 1")
    out = []
    for q in range(1, max_regular_length(n, k) + 1):
        for p in _partitions(n, q, k, 2):
            if all(_special_parts(c, k) or sum(c) % 2 == 0 for c in _split(p.parts, k)[0]):
                out.append(p)
    out.sort(key=lambda p: p.parts)
    return out


def _feasible_degrees(total: int, a: int, b: int, gap: int) -> range:
    """The degrees y with total = 2x + 4y where x is a sum of a distinct
    positive parts and y a sum of b positive parts at least `gap` apart:
    x >= a(a+1)/2, y >= b + gap*b(b-1)/2, and each sum is 0 when it has no
    parts."""
    if total % 2 or (not a and total % 4):
        return range(0)
    top = (total - a * (a + 1)) // 4
    least = b + gap * b * (b - 1) // 2
    low = least if a else max(least, top)  # with no x parts, 4y is all of total
    if not b:
        top = min(top, 0)
    return range(low, top + 1)


def _factor_lists(total: int, q: int, gap: int) -> Iterator[tuple[tuple[Partition, ...], tuple[Partition, ...]]]:
    """The strict K-list and the `gap`-spaced L-list of every feasible key
    (a, b, deg L) with a + 2b = q and 2*deg(K) + 4*deg(L) = total: K has a
    distinct parts, L has b parts, and both lists are nonempty.  The words
    of ``conjecture`` (gap 1: X and Y indices) and the strict/regular pairs
    (gap 2) loop over these, so they meet no empty key."""
    for b in range(q // 2 + 1):
        a = q - 2 * b
        for deg in _feasible_degrees(total, a, b, gap):
            yield _partitions((total - 4 * deg) // 2, a, 1, 1), _partitions(deg, b, 1, gap)


def strict_regular_pairs(n: int, q: int) -> list[tuple[Partition, Partition]]:
    """Pairs (K, L): K strict, L regular, |K| + 2|L| = q and
    2*deg(K) + 4*deg(L) = n, with every odd part of K at distance >= 2
    from every part of L.  Either partition may be empty."""
    out = []
    for ks, ls in _factor_lists(n, q, 2):
        for K in ks:
            for L in ls:
                if all(
                    abs(ki - lj) >= 2
                    for ki in K.parts
                    if ki % 2 == 1
                    for lj in L.parts
                ):
                    out.append((K, L))
    out.sort(key=lambda kl: (kl[0].parts, kl[1].parts))
    return out


def even_component_marked(n: int, q: int) -> list[MarkedPartition]:
    """Regular marked partitions all of whose simple components have even
    degree.  Not memoized: the conjecture scan reads each key once."""
    return _marked(n, q, 1, True)


def special_partitions(q: int, k: int) -> list[Partition]:
    """All special k-partitions of length q: the regular ones, of each degree
    they can have, whose largest part is at most ``_special_top``.  Tests
    read it as the reference for ``count_special``."""
    top = _special_top(q, k)
    degrees = range(q * k + q * (q - 1), q * top - q * (q - 1) + 1)
    special = (p for n in degrees for p in _partitions(n, q, k, 2) if p.parts[-1] <= top)
    return sorted(special, key=lambda p: p.parts)


def count_special(q: int, k: int) -> int:
    """``len(special_partitions(q, k))``, counted over the tree of parts in
    [k, ``_special_top``] with gaps >= 2, without a list."""
    return _count_special(k, q, _special_top(q, k))


def _count_special(lo: int, slots: int, hi: int) -> int:
    if slots == 1:  # the last part takes any value in [lo, hi]
        return hi - lo + 1
    total = 0
    for a in range(lo, hi - 2 * (slots - 1) + 1):
        total += _count_special(a + 2, slots - 1, hi)
    return total
