from functools import reduce

import pytest

import wittcoh
from wittcoh import conjecture, partitions
from wittcoh.cohomology import class_of, cohomology_dim, cup
from wittcoh.conjecture import (
    BigradedMonomial,
    counting_cell,
    hilbert_cell,
    ideal_rank,
    image,
    monomials_in_bidegree,
    multiply,
    odd_x_relation,
    relation_table,
    scan,
    y_relation,
)
from wittcoh.monomials import e_cocycle, x_cocycle, y_cocycle
from wittcoh.partitions import ascending_tuples
from wittcoh.verify import criterion_conjecture


def names(ms):
    return [str(m) for m in ms]


def test_monomials_small_bidegrees():
    assert names(monomials_in_bidegree(1, 1)) == ["E"]
    assert names(monomials_in_bidegree(1, 4)) == ["X2"]
    assert names(monomials_in_bidegree(2, 4)) == ["Y1"]
    assert names(monomials_in_bidegree(2, 3)) == ["E^X1"]
    assert names(monomials_in_bidegree(3, 12)) == ["X1^X2^X3", "X2^Y2", "X4^Y1"]
    assert monomials_in_bidegree(1, 3) == []


def test_monomials_in_bidegree_returns_a_fresh_list():
    first = monomials_in_bidegree(3, 12)
    first.clear()
    assert names(monomials_in_bidegree(3, 12)) == ["X1^X2^X3", "X2^Y2", "X4^Y1"]
    assert monomials_in_bidegree(3, 12) is not monomials_in_bidegree(3, 12)


def test_clear_caches_empties_the_bidegree_memo():
    monomials_in_bidegree(3, 12)
    assert conjecture._bidegree_words.cache_info().currsize > 0
    wittcoh.clear_caches()
    assert conjecture._bidegree_words.cache_info().currsize == 0


def reference_words(q, n, tuples):
    """Every word whose ``bidegree`` reads (q, n), from the strict X and Y
    tuples of every index sum, sorted as the memo sorts them."""
    out = []
    for has_e in (False, True):
        for b in range((q - has_e) // 2 + 1):
            a = q - has_e - 2 * b
            for x_sum in range(n // 2 + 1):
                for y_sum in range(n // 4 + 1):
                    for xs in tuples(x_sum, a):
                        for ys in tuples(y_sum, b):
                            word = BigradedMonomial(has_e, xs, ys)
                            if word.bidegree == (q, n):
                                out.append(word)
    return sorted(out, key=lambda m: (m.has_e, m.xs, m.ys))


def test_bidegree_words_match_ascending_tuples_reference():
    table = {}

    def tuples(total, count):
        if (total, count) not in table:
            table[total, count] = ascending_tuples(total, count, 1, 1)
        return table[total, count]

    # q < 9 up to n = 39, and every q < 30 for n < 30, where the bound on the
    # Y index sum prunes most
    keys = {(q, n) for q in range(9) for n in range(40)} | {(q, n) for q in range(30) for n in range(30)}
    for q, n in sorted(keys):
        want = reference_words(q, n, tuples)
        words, pos = conjecture._bidegree_words(q, n)
        assert list(words) == want, (q, n)
        assert pos == {m: i for i, m in enumerate(want)}


def test_scan_enumerates_no_empty_part_tuples(monkeypatch):
    # from cold caches; the word, pair and base loops stop at their last
    # feasible key, where unbounded loops asked for 613 tuple lists, 509 empty
    lengths = []

    def counted(*key):
        out = ascending_tuples(*key)
        lengths.append(len(out))
        return out

    wittcoh.clear_caches()
    monkeypatch.setattr(partitions, "ascending_tuples", counted)
    scan(24)
    assert (len(lengths), lengths.count(0)) == (104, 0)


def test_multiply_square_free():
    x1y1 = BigradedMonomial(False, (1,), (1,))
    assert multiply(x1y1, BigradedMonomial(False, (1,), ())) is None
    prod = multiply(x1y1, BigradedMonomial(True, (2,), ()))
    assert str(prod) == "E^X1^X2^Y1"


def test_words_are_read_only_hashable_values():
    w = BigradedMonomial(True, (2,), (1, 3))
    assert repr(w) == "BigradedMonomial(has_e=True, xs=(2,), ys=(1, 3))"
    same = BigradedMonomial(True, (2,), (1, 3))
    assert same == w and hash(same) == hash(w)
    assert w != BigradedMonomial(False, (2,), (1, 3))
    for name in ("has_e", "xs", "ys"):
        with pytest.raises(AttributeError):
            setattr(w, name, None)
    assert w.bidegree == (1 + 1 + 2 * 2, 1 + 2 * 2 + 4 * 4)


def test_relation_table_lists_the_ideal_generators():
    assert names(odd_x_relation(2)) == ["X1^Y2", "X3^Y1"]
    assert names(y_relation(2)) == ["Y2^Y3", "Y1^Y4"]
    table = relation_table(26)
    assert [(q, n, names(terms)) for q, n, terms in table[:3]] == [
        (2, 3, ["E^X1"]),
        (3, 5, ["E^Y1"]),
        (3, 6, ["X1^Y1"]),
    ]
    assert len(table) == 10  # E^X1, E^Y1, G_1..G_6, H_1, H_2
    assert all(w.bidegree == (q, n) for q, n, terms in table for w in terms)


def test_image_of_a_word_is_the_cup_of_its_factor_classes():
    # the tuple map against the slice path, for every word with n <= 16
    words = 0
    for n in range(1, 17):
        for q in range(1, n + 1):
            for w in monomials_in_bidegree(q, n):
                factors = (
                    ([class_of(e_cocycle())] if w.has_e else [])
                    + [class_of(x_cocycle(i)) for i in w.xs]
                    + [class_of(y_cocycle(i)) for i in w.ys]
                )
                assert class_of(image((w,)), 1, n=n, q=q) == reduce(cup, factors), w
                words += 1
    assert words == 91


def test_ideal_rank_examples():
    assert ideal_rank(2, 3) == 1  # the first relation itself
    assert ideal_rank(3, 6) == 1  # X1^Y1
    assert ideal_rank(4, 12) == 2  # Y1^Y2 and X1^X3^Y1 (reached twice)
    assert ideal_rank(1, 2) == 0


def test_hilbert_cells():
    assert hilbert_cell(1, 2).equal and hilbert_cell(1, 2).lhs == 1
    assert hilbert_cell(2, 3) == hilbert_cell(2, 3)
    assert hilbert_cell(2, 3).lhs == 0 and hilbert_cell(2, 3).rhs == 0
    assert hilbert_cell(2, 4).lhs == 1 and hilbert_cell(2, 4).rhs == 1
    assert hilbert_cell(3, 12).lhs == cohomology_dim(1, 12, 3) == 3


def test_counting_cells():
    cell = counting_cell(1, 2)
    assert cell.lhs == 1 and cell.rhs == 1
    assert counting_cell(2, 8).equal
    for n in range(1, 16, 2):  # odd degrees: both sides empty
        for q in range(1, 5):
            cell = counting_cell(q, n)
            assert cell.lhs == 0 and cell.rhs == 0


def test_scan_consistent():
    report = scan(16)
    assert report.hilbert_ok
    assert report.counting_ok
    assert report.internally_consistent
    assert report.findings() == []


def test_quotient_dominates_cohomology():
    # surjectivity: the quotient can never be smaller than the cohomology
    for n in range(1, 17):
        for q in range(1, n + 1):
            cell = hilbert_cell(q, n)
            assert cell.lhs >= cell.rhs, f"(q={q}, n={n})"


def test_ideal_rank_bounded_by_ambient():
    for n in range(1, 15):
        for q in range(1, n + 1):
            assert ideal_rank(q, n) <= len(monomials_in_bidegree(q, n))


def test_projection_kills_relations():
    res = criterion_conjecture(16)
    assert res.passed, res.failures
