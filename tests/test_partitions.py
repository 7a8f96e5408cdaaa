import importlib
import math
import tracemalloc
from itertools import combinations, combinations_with_replacement

import pytest

import wittcoh
from conftest import M, P
from wittcoh import caching, partitions
from wittcoh.partitions import (
    MarkedPartition,
    Order,
    Partition,
    all_partitions,
    ascending_tuples,
    canonical_decomposition,
    cohomology_partitions,
    compare,
    count_special,
    even_component_marked,
    is_dense,
    is_odd,
    is_regular,
    is_regular_marked,
    is_simple,
    is_special,
    is_strict,
    leading_parts,
    marked_regular_partitions,
    markings,
    max_regular_length,
    regular_partitions,
    special_partitions,
    strict_index_tuples,
    strict_partitions,
    strict_regular_pairs,
    union_marked,
)


def all_marked(n):
    """Every marked partition of degree n (any base, any mark subset)."""
    out = []
    for q in range(1, n + 1):
        for base in all_partitions(n, q):
            distinct = sorted(set(base.parts))
            for r in range(len(distinct) + 1):
                for marks in combinations(distinct, r):
                    out.append(MarkedPartition(base, marks))
    return out


# --- predicates ------------------------------------------------------------


def test_is_strict():
    assert is_strict(P(1, 4, 6, 7))
    assert not is_strict(P(2, 2, 3))
    assert is_strict(P(5))


def test_is_regular():
    assert is_regular(P(2, 4, 6))
    assert not is_regular(P(1, 2))
    assert is_regular(P(12))


def test_is_dense():
    assert is_dense(P(3, 5, 7))
    assert not is_dense(P(4, 8))
    assert is_dense(P(9))


def test_is_special():
    assert is_special(P(1, 3, 5), 1)
    assert is_special(P(3, 5, 9), 3)
    assert not is_special(P(5, 7), 1)
    with pytest.raises(ValueError):
        is_special(P(1, 3), 2)  # part below the minimal part


def test_special_for_k1_is_the_unique_initial_chain():
    for q in range(1, 7):
        specials = [p for p in regular_partitions(q * q, q, 1) if is_special(p, 1)]
        assert specials == [P(*range(1, 2 * q, 2))]


def test_stored_degree_and_length():
    empty = Partition(())
    assert (empty.degree, empty.length) == (0, 0)
    assert (P(2, 5).degree, P(2, 5).length) == (7, 2)
    assert (M((5, 7), (5,)).degree, M((5, 7), (5,)).length) == (12, 3)
    assert (M((3, 5, 9), (3, 9)).degree, M((3, 5, 9), (3, 9)).length) == (17, 5)
    assert (M(()).degree, M(()).length) == (0, 0)
    with pytest.raises(AttributeError):
        P(1, 3).degree = 5  # frozen


def test_stored_fields_leave_equality_hash_and_repr_alone():
    assert repr(Partition((1, 3))) == "Partition(parts=(1, 3))"
    assert repr(M((1, 3), (3,))) == "MarkedPartition(base=Partition(parts=(1, 3)), marks=(3,))"
    assert Partition([1, 3]) == P(1, 3) != P(4)
    assert hash(P(1, 3)) == hash(((1, 3),))
    assert hash(M((1, 3), (3,))) == hash((P(1, 3), (3,)))
    assert M((1, 3), (3,)) == M([1, 3], [3]) != M((1, 3))


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        Partition((3, 2))
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        MarkedPartition(P(1, 3), (2,))


# --- canonical decomposition ----------------------------------------------


def test_worked_decomposition_k1():
    comps = canonical_decomposition(P(3, 5, 9, 13, 15, 18), 1)
    assert comps == [P(3, 5), P(9), P(13, 15), P(18)]


def test_worked_decomposition_k3():
    comps = canonical_decomposition(P(3, 5, 9, 13, 15, 18), 3)
    assert comps == [P(3, 5, 9), P(13, 15), P(18)]


def test_singleton_decomposition():
    assert canonical_decomposition(P(7), 1) == [P(7)]


def test_decomposition_rejects_irregular():
    for split in (canonical_decomposition, leading_parts):
        with pytest.raises(ValueError):
            split(P(1, 2), 1)
        with pytest.raises(ValueError):
            split(P(1, 3), 2)  # part below the minimal part


def test_worked_leading_parts():
    big = P(3, 5, 9, 13, 15, 18)
    assert leading_parts(big, 1) == [3, 9, 13]
    assert leading_parts(big, 2) == [9, 13]
    assert leading_parts(big, 3) == [13]
    assert leading_parts(P(2, 4, 6), 1) == []


def test_decomposition_roundtrip_and_simplicity():
    for k in (1, 2, 3):
        for n in range(k, 19):
            for q in range(1, max_regular_length(n, k) + 1):
                for p in regular_partitions(n, q, k):
                    comps = canonical_decomposition(p, k)
                    flat = tuple(x for c in comps for x in c.parts)
                    assert flat == p.parts
                    assert all(is_simple(c, k) for c in comps)
                    # maximality: no component extends into the next one
                    for a, b in zip(comps, comps[1:]):
                        joined = Partition(a.parts + b.parts[:1])
                        assert not is_simple(joined, k)


def reference_decomposition(p, k):
    """The greedy split as first written: rebuild and re-test every prefix."""
    parts = p.parts
    out = []
    start = 0
    while start < len(parts):
        end = start + 1
        while end < len(parts) and is_simple(Partition(parts[start : end + 1]), k):
            end += 1
        out.append(Partition(parts[start:end]))
        start = end
    return out


def test_decomposition_matches_prefix_rebuilding_reference():
    for k in (1, 2, 3):
        for n in range(k, 37):
            for q in range(1, max_regular_length(n, k) + 1):
                for p in regular_partitions(n, q, k):
                    comps = reference_decomposition(p, k)
                    assert canonical_decomposition(p, k) == comps, (p, k)
                    leads = [c.parts[0] for c in comps if is_odd(c) and not is_special(c, k)]
                    assert leading_parts(p, k) == leads, (p, k)


def test_is_regular_marked():
    assert is_regular_marked(M((5, 7), (5,)), 1)
    assert not is_regular_marked(M((1, 3), (1,)), 1)  # special, no leading part
    assert not is_regular_marked(M((4,), (4,)), 1)  # even, no leading part
    assert not is_regular_marked(M((2, 3)), 1)  # not regular


def reference_split(p, k):
    """Components and leading parts from the definitions: cut off the longest
    simple (dense or special) prefix until nothing is left.  Raises the
    library's messages for an empty, low or irregular base."""
    parts = p.parts
    if not parts:
        raise ValueError("operation undefined for the empty partition")
    if parts[0] < k:
        raise ValueError(f"{p} has a part below the minimal part {k}")
    if any(b - a < 2 for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{p} is not regular")

    def simple(c):
        dense = all(b - a == 2 for a, b in zip(c, c[1:]))
        return dense or c[-1] < 2 * (k + len(c) - 1)  # special, as c is regular

    comps = []
    while parts:
        end = max(e for e in range(1, len(parts) + 1) if simple(parts[:e]))
        comps.append(parts[:end])
        parts = parts[end:]
    leads = [c[0] for c in comps if all(x % 2 for x in c) and not c[-1] < 2 * (k + len(c) - 1)]
    return comps, leads


def test_split_matches_the_definitions_on_every_partition():
    for k in (1, 2, 3):
        for n in range(0, 21):
            for q in range(0, n + 1):
                for p in all_partitions(n, q):
                    try:
                        comps, leads = reference_split(p, k)
                    except ValueError as exc:
                        for split in (canonical_decomposition, leading_parts):
                            with pytest.raises(ValueError) as got:
                                split(p, k)
                            assert str(got.value) == str(exc), (p, k)
                        comps, leads = None, []
                    else:
                        got = canonical_decomposition(p, k)
                        assert got == [Partition(c) for c in comps], (p, k)
                        for c in got:
                            assert_same_as_checked(c)
                        assert leading_parts(p, k) == leads, (p, k)
                    distinct = sorted(set(p.parts))
                    for r in range(len(distinct) + 1):
                        for marks in combinations(distinct, r):
                            expected = comps is not None and set(marks) <= set(leads)
                            assert is_regular_marked(MarkedPartition(p, marks), k) is expected
    # the cohomology basis is indexed by the regular shapes whose every
    # component is special or of even degree
    for k in range(1, 5):
        for n in range(31):
            want = []
            for q in range(1, n + 1):
                for p in regular_partitions(n, q, k):
                    comps, _ = reference_split(p, k)
                    if all(c[-1] < 2 * (k + len(c) - 1) or sum(c) % 2 == 0 for c in comps):
                        want.append(p)
            want.sort(key=lambda p: p.parts)
            assert cohomology_partitions(n, k) == want, (n, k)


# --- the triangular order ---------------------------------------------------


def test_compare_examples():
    assert compare(M((5,), (5,)), M((2, 3))) is Order.LESS
    assert compare(M((3, 9), (9,)), M((5, 7), (7,))) is Order.LESS
    assert compare(M((3, 6), (3,)), M((3, 6), (6,))) is Order.LESS


def test_compare_requires_equal_degree():
    with pytest.raises(ValueError):
        compare(M((3,)), M((4,)))


def test_compare_incomparable():
    # prefix sums cross: 1+6 vs 2+5 then totals equal
    assert compare(M((1, 6, 8)), M((2, 3, 10))) is Order.INCOMPARABLE


def test_compare_equal():
    assert compare(M((2, 3)), M((2, 3))) is Order.EQUAL


def reference_compare(a, b):
    """The order as first written, on the dataclasses' own equality."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    if a == b:
        return Order.EQUAL
    if a.base != b.base:
        la, lb = a.base.length, b.base.length
        if la != lb:
            return Order.LESS if la < lb else Order.GREATER
        below = above = True
        sa = sb = 0
        for xa, xb in zip(a.base.parts, b.base.parts):
            sa += xa
            sb += xb
            if sa > sb:
                below = False
            if sa < sb:
                above = False
        if below:
            return Order.LESS
        if above:
            return Order.GREATER
        return Order.INCOMPARABLE
    return Order.LESS if a.marks < b.marks else Order.GREATER


def test_order_is_strict_partial_order():
    for n in range(1, 15):
        pool = all_marked(n)
        # bit j of less[i] (greater[i]): pool[i] is less (greater) than pool[j];
        # bit i of below[j]: pool[i] is less than pool[j]
        less, greater, below = [0] * len(pool), [0] * len(pool), [0] * len(pool)
        for i, a in enumerate(pool):
            for j, b in enumerate(pool):
                c = compare(a, b)
                assert c is reference_compare(a, b), (a, b)
                if i == j:
                    assert c is Order.EQUAL
                elif c is Order.LESS:
                    less[i] |= 1 << j
                    below[j] |= 1 << i
                elif c is Order.GREATER:
                    greater[i] |= 1 << j
        for j in range(len(pool)):
            assert not below[j] & ~greater[j], f"antisymmetry fails at {pool[j]}"
        for i, bigger in enumerate(less):
            rest = bigger
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                assert not less[j] & ~bigger, f"transitivity fails at {pool[i]}, {pool[j]}"
                rest ^= low


def test_union_monotonicity():
    # The union lemma is only ever invoked between marked partitions of one
    # length (decompositions stay within a block), where the mark-tiebreak
    # convention is forced; cross-length quadruples are out of scope.  A
    # strict union (the nonzero-wedge hypothesis) needs strict bases with no
    # shared part, which also keeps the marks from colliding.  Every such
    # quadruple with n1, n2 <= 8 is checked.
    pools = {n: [mp for mp in all_marked(n) if is_strict(mp.base)] for n in range(2, 9)}

    def ordered(n, orders):
        return [
            (a, a2)
            for a in pools[n]
            for a2 in pools[n]
            if a.length == a2.length and compare(a, a2) in orders
        ]

    lows = {n: ordered(n, (Order.LESS, Order.EQUAL)) for n in pools}
    highs = {n: ordered(n, (Order.LESS,)) for n in pools}
    checked = 0
    for n1 in pools:
        for n2 in pools:
            for a, a2 in lows[n1]:
                for b, b2 in highs[n2]:
                    if set(a.base.parts) & set(b.base.parts) or set(a2.base.parts) & set(b2.base.parts):
                        continue
                    checked += 1
                    assert compare(union_marked(a, b), union_marked(a2, b2)) is Order.LESS
    assert checked == 4210


# --- enumerators -------------------------------------------------------------


def test_strict_partitions_examples():
    assert [p.parts for p in strict_partitions(5, 2)] == [(1, 4), (2, 3)]
    assert [p.parts for p in strict_partitions(3, 1)] == [(3,)]
    assert strict_partitions(4, 2, min_part=2) == []


def test_strict_index_tuples_negative_min():
    assert strict_index_tuples(5, 2, -1) == [(-1, 6), (0, 5), (1, 4), (2, 3)]
    assert strict_index_tuples(-1, 2, -1) == [(-1, 0)]


def test_marked_regular_examples():
    assert [(m.base.parts, m.marks) for m in marked_regular_partitions(5, 2, 1)] == [
        ((1, 4), ()),
        ((5,), (5,)),
    ]
    assert [(m.base.parts, m.marks) for m in marked_regular_partitions(4, 2, 1)] == [((1, 3), ())]
    twelves = marked_regular_partitions(12, 2, 1)
    assert len(twelves) == len(strict_partitions(12, 2))


def unpruned_marked(n, q, k):
    """Marked enumeration over every base length 1..q."""
    out = []
    for m in range(1, q + 1):
        for base in regular_partitions(n, m, k):
            for marks in combinations(leading_parts(base, k), q - m):
                out.append(MarkedPartition(base, marks))
    out.sort(key=lambda mp: (mp.base.parts, mp.marks))
    return out


def test_marked_enumeration_matches_unpruned():
    for k in (1, 2, 3):
        for n in range(1, 31):
            for q in range(1, n + 3):
                assert marked_regular_partitions(n, q, k) == unpruned_marked(n, q, k), (n, q, k)


def test_counting_identity_small():
    for n in range(1, 21):
        for q in range(1, n + 1):
            assert len(strict_partitions(n, q)) == len(marked_regular_partitions(n, q, 1))


def test_cohomology_partitions_worked():
    assert [p.parts for p in cohomology_partitions(12, 1)] == [
        (1, 3, 8),
        (2, 4, 6),
        (2, 10),
        (4, 8),
        (5, 7),
        (12,),
    ]
    assert cohomology_partitions(0, 1) == []
    assert [p.parts for p in cohomology_partitions(8, 1)] == [(2, 6), (3, 5), (8,)]


def test_strict_regular_pairs_examples():
    assert [(K.parts, L.parts) for K, L in strict_regular_pairs(2, 1)] == [((1,), ())]
    assert strict_regular_pairs(3, 2) == []
    assert strict_regular_pairs(6, 3) == []
    assert [(K.parts, L.parts) for K, L in strict_regular_pairs(12, 3)] == [
        ((1, 2, 3), ()),
        ((2,), (2,)),
        ((4,), (1,)),
    ]


def test_strict_regular_pairs_odd_degree_empty():
    for n in range(1, 20, 2):
        for q in range(1, 6):
            assert strict_regular_pairs(n, q) == []


def test_even_component_marked_examples():
    assert [(m.base.parts, m.marks) for m in even_component_marked(2, 1)] == [((2,), ())]
    assert even_component_marked(5, 2) == []
    assert [(m.base.parts, m.marks) for m in even_component_marked(12, 3)] == [
        ((1, 3, 8), ()),
        ((2, 4, 6), ()),
        ((5, 7), (5,)),
    ]


def test_degree_zero_has_the_empty_marked_partition():
    for n in range(6):
        expected = [M(())] if n == 0 else []
        assert marked_regular_partitions(n, 0) == expected
        assert even_component_marked(n, 0) == expected
        assert len(strict_partitions(n, 0)) == len(strict_regular_pairs(n, 0)) == len(expected)


def assert_same_as_checked(p):
    """p equals, hashes and prints as the validating constructor's result,
    field by field."""
    if isinstance(p, MarkedPartition):
        assert_same_as_checked(p.base)
        checked = MarkedPartition(Partition(p.base.parts), p.marks)
    else:
        checked = Partition(p.parts)
    assert type(p) is type(checked)
    assert vars(p) == vars(checked)
    assert (p.degree, p.length) == (checked.degree, checked.length)
    assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)


def test_enumerated_partitions_equal_checked_ones():
    wittcoh.clear_caches()
    for n in range(31):
        for q in range(n + 1):
            for lowest in (1, 2, 3):
                for gap in (0, 1, 2):
                    for p in partitions._partitions(n, q, lowest, gap):
                        assert_same_as_checked(p)
                for even_only in (False, True):
                    for mp in partitions._marked(n, q, lowest, even_only):
                        assert_same_as_checked(mp)
    for q in range(1, 6):
        for k in range(1, 5):
            for p in special_partitions(q, k):
                assert_same_as_checked(p)
    with pytest.raises(ValueError):
        partitions._partitions(5, 2, 0, 1)
    with pytest.raises(ValueError):
        partitions._partitions(5, 2, 1, -1)


def test_enumerators_return_fresh_lists():
    for enumerate_ in (
        lambda: strict_partitions(12, 3),
        lambda: regular_partitions(12, 2),
        lambda: marked_regular_partitions(12, 3, 1),
    ):
        first = enumerate_()
        expected = list(first)
        first.clear()
        assert enumerate_() == expected
        assert enumerate_() is not enumerate_()


def test_marked_regular_partitions_returns_a_fresh_list():
    caching.clear_all()
    first = marked_regular_partitions(16, 4, 1)
    expected = list(first)
    assert expected
    first.clear()
    assert marked_regular_partitions(16, 4, 1) == expected
    assert marked_regular_partitions(16, 4, 1) is not marked_regular_partitions(16, 4, 1)
    assert partitions._marked_regular.cache_info().currsize == 1
    caching.clear_all()
    assert partitions._marked_regular.cache_info().currsize == 0
    assert marked_regular_partitions(16, 4, 1) == expected


def test_markings_are_the_checked_subsets_in_order():
    for n in range(1, 22):
        for q in range(1, n + 1):
            for base in strict_partitions(n, q):
                for parts in (base.parts, base.parts[::2], ()):
                    got = markings(base, parts)
                    want = [
                        MarkedPartition(base, marks)
                        for r in range(len(parts) + 1)
                        for marks in combinations(parts, r)
                    ]
                    assert got == want, (base, parts)
                    for mp in got:
                        assert_same_as_checked(mp)
    base = P(1, 3, 6)
    with pytest.raises(ValueError, match="mark 2 is not a part of <1,3,6>"):
        markings(base, (1, 2))
    with pytest.raises(ValueError, match="marks not strictly increasing"):
        markings(base, (3, 1))
    with pytest.raises(ValueError, match="marks not strictly increasing"):
        markings(base, (3, 3))


def test_split_memo_holds_only_regular_tuples():
    # every partition is asked about, so the memo holds one entry per
    # regular key and none for the irregular or low ones
    wittcoh.clear_caches()
    regular_keys = set()
    for n in range(1, 25):
        for q in range(1, n + 1):
            for p in all_partitions(n, q):
                is_regular_marked(MarkedPartition(p), 1)
                try:
                    leading_parts(p, 2)
                except ValueError:
                    pass
                if is_regular(p):
                    regular_keys |= {(p.parts, k) for k in (1, 2) if p.parts[0] >= k}
    assert partitions._split.cache_info().currsize == len(regular_keys) > 0


def test_clear_caches_empties_the_partition_memos():
    marked_regular_partitions(12, 3, 1)
    strict_regular_pairs(12, 3)
    leading_parts(P(3, 5, 9))
    memos = (partitions._partitions, partitions._bases_and_leads, partitions._split)
    assert all(memo.cache_info().currsize for memo in memos)
    wittcoh.clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


def test_memo_names_are_distinct():
    # perfbench's cache stats key each memo by this name
    importlib.import_module("wittcoh.cli")  # imports, and so registers, every memo
    names = [fn.__wrapped__.__name__ for fn in caching._CACHED]
    assert len(names) == len(set(names)), sorted(names)


def reference_strict_regular_pairs(n, q):
    """The unmemoized pair enumeration, from ascending_tuples."""
    out = []
    for b in range(q // 2 + 1):
        a = q - 2 * b
        l_degs = [0] if b == 0 else list(range(b * b, n // 4 + 1))
        for l_deg in l_degs:
            rem = n - 4 * l_deg
            if rem < 0 or rem % 2:
                continue
            k_deg = rem // 2
            if a == 0 and k_deg != 0:
                continue
            ks = [P()] if a == 0 else [Partition(t) for t in ascending_tuples(k_deg, a, 1, 1)]
            ls = [P()] if b == 0 else [Partition(t) for t in ascending_tuples(l_deg, b, 1, 2)]
            for K in ks:
                for L in ls:
                    if all(abs(ki - lj) >= 2 for ki in K.parts if ki % 2 == 1 for lj in L.parts):
                        out.append((K, L))
    out.sort(key=lambda kl: (kl[0].parts, kl[1].parts))
    return out


def reference_even_component_marked(n, q):
    """Every regular marked partition of (n, q), from ascending_tuples, kept
    when all its simple components have even degree."""
    out = []
    for m in range(1, q + 1):
        for t in ascending_tuples(n, m, 1, 2):
            base = Partition(t)
            if all(c.degree % 2 == 0 for c in canonical_decomposition(base, 1)):
                for marks in combinations(leading_parts(base, 1), q - m):
                    out.append(MarkedPartition(base, marks))
    out.sort(key=lambda mp: (mp.base.parts, mp.marks))
    return out


def test_counting_enumerators_match_unmemoized_references():
    wittcoh.clear_caches()
    for n in range(1, 37):
        for q in range(1, n + 1):
            assert strict_regular_pairs(n, q) == reference_strict_regular_pairs(n, q), (n, q)
            assert even_component_marked(n, q) == reference_even_component_marked(n, q), (n, q)


def test_special_counts_match_binomial():
    for q in range(1, 9):
        for k in range(1, 6):
            assert count_special(q, k) == len(special_partitions(q, k)) == math.comb(q + k - 1, k - 1)


def test_special_count_holds_no_list():
    # the tree is counted, not listed: the traced peak stays below one byte
    # per counted partition (a list of them takes hundreds)
    count = math.comb(28, 4)
    tracemalloc.start()
    try:
        assert count_special(24, 5) == count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < count, peak


def test_special_enumeration_members():
    for p in special_partitions(2, 3):
        assert is_special(p, 3)
    assert count_special(3, 1) == 1
    assert count_special(2, 3) == 6
    assert count_special(1, 2) == 2


def test_ascending_tuples_empty_cases():
    assert ascending_tuples(0, 0, 1, 1) == [()]
    assert ascending_tuples(1, 0, 1, 1) == []


def test_ascending_tuples_match_brute_force():
    # the one tuple walker against itertools, in the same lexicographic
    # order: strict tuples for gap 1, strict ones with gaps >= 2 for gap 2,
    # weakly increasing ones for gap 0; an entry is at most total minus the
    # least sum of the others
    for lowest in (-1, 0, 1, 2):
        for total in range(-3, 19):
            for count in range(7):
                entries = range(lowest, total - (count - 1) * lowest + 1)
                strict = [t for t in combinations(entries, count) if sum(t) == total]
                assert ascending_tuples(total, count, lowest, 1) == strict, (total, count, lowest)
                spaced = [t for t in strict if all(b - a >= 2 for a, b in zip(t, t[1:]))]
                assert ascending_tuples(total, count, lowest, 2) == spaced, (total, count, lowest)
                if lowest >= 1:
                    weak = [t for t in combinations_with_replacement(entries, count) if sum(t) == total]
                    assert ascending_tuples(total, count, lowest, 0) == weak, (total, count, lowest)
