import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittcoh.cochains import graded_slice, max_length
from wittcoh.gf2 import BitMatrix, Gf2Span


def naive_rank(rows):
    """Unpacked boolean elimination, kept independent of the library."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        for i in range(len(rows)):
            if i != row and rows[i][col]:
                rows[i] = [(a + b) % 2 for a, b in zip(rows[i], rows[row])]
        rank += 1
        row += 1
        if row == len(rows):
            break
    return rank


def rref(rows, ncols):
    """Reference row reduction of packed rows; returns (rows, pivot column per row)."""
    work = list(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def rref_kernel(m):
    """One kernel vector per free column, read off the reduced rows."""
    work, pivots = rref(m.rows(), m.ncols)
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        v = 1 << free
        for row_idx, pc in enumerate(pivots):
            if (work[row_idx] >> free) & 1:
                v |= 1 << pc
        basis.append(v)
    return basis


def rref_solve(m, target):
    """The solution supported on pivot columns, from the augmented reduction."""
    aug = [r | (((target >> i) & 1) << m.ncols) for i, r in enumerate(m.rows())]
    work, pivots = rref(aug, m.ncols + 1)
    x = 0
    for row_idx, pc in enumerate(pivots):
        if pc == m.ncols:
            return None
        if (work[row_idx] >> m.ncols) & 1:
            x |= 1 << pc
    return x


def rref_inverse(m):
    """Reduce [m | I]; None when m is singular."""
    n = m.nrows
    work, pivots = rref([r | (1 << (n + i)) for i, r in enumerate(m.rows())], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return BitMatrix(n, n, [work[i] >> n & ((1 << n) - 1) for i in range(n)])


@st.composite
def matrices(draw, max_side=12, square=False):
    nrows = draw(st.integers(0, max_side))
    ncols = nrows if square else draw(st.integers(0, max_side))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows))
    return BitMatrix(nrows, ncols, rows)


@st.composite
def invertible_matrices(draw, max_side=12):
    """Lower times upper unitriangular: always invertible."""
    n = draw(st.integers(0, max_side))
    lower = [(1 << i) | draw(st.integers(0, (1 << i) - 1)) for i in range(n)]
    upper = [(1 << i) | draw(st.integers(0, (1 << n) - 1)) >> (i + 1) << (i + 1) for i in range(n)]
    return BitMatrix(n, n, lower) @ BitMatrix(n, n, upper)


# Row-major reference for the column-stored BitMatrix: a matrix is its list
# of packed rows, row i an int whose bit j is entry (i, j).


def ref_column(rows, j):
    return sum(((r >> j) & 1) << i for i, r in enumerate(rows))


def ref_mul_vec(rows, v):
    return sum(((r & v).bit_count() & 1) << i for i, r in enumerate(rows))


def ref_transpose(rows, ncols):
    return [ref_column(rows, j) for j in range(ncols)]


def ref_matmul(a_rows, b_rows):
    out = []
    for r in a_rows:
        acc = 0
        for j in range(len(b_rows)):
            if (r >> j) & 1:
                acc ^= b_rows[j]
        out.append(acc)
    return out


@st.composite
def row_lists(draw, nrows=None, ncols=None):
    """(nrows, ncols, rows) up to 12x12, with whole rows and columns zeroed
    often enough that empty ones are common."""
    if nrows is None:
        nrows = draw(st.integers(0, 12))
    if ncols is None:
        ncols = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=nrows, max_size=nrows))
    empty_rows = draw(st.integers(0, (1 << nrows) - 1))
    keep_cols = draw(st.integers(0, (1 << ncols) - 1))
    rows = [0 if (empty_rows >> i) & 1 else r & keep_cols for i, r in enumerate(rows)]
    return nrows, ncols, rows


@settings(max_examples=300, deadline=None)
@given(row_lists(), st.data())
def test_column_storage_matches_row_major_reference(shape, data):
    nrows, ncols, rows = shape
    m = BitMatrix(nrows, ncols, rows)
    assert m.rows() == rows
    assert m.columns() == ref_transpose(rows, ncols)
    assert BitMatrix.from_columns(m.columns(), nrows) == m
    assert m.is_zero() == (not any(rows))
    t = m.transpose()
    assert (t.nrows, t.ncols) == (ncols, nrows)
    assert t.rows() == ref_transpose(rows, ncols)
    assert t.transpose() == m
    v = data.draw(st.integers(0, (1 << ncols) - 1))
    assert m.mul_vec(v) == ref_mul_vec(rows, v)
    _, other_ncols, other_rows = data.draw(row_lists(nrows=ncols))
    prod = m @ BitMatrix(ncols, other_ncols, other_rows)
    assert (prod.nrows, prod.ncols) == (nrows, other_ncols)
    assert prod.rows() == ref_matmul(rows, other_rows)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_matches_rref_oracle(m):
    assert m.kernel_basis() == rref_kernel(m)


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_solve_matches_rref_oracle(m, data):
    inside = m.mul_vec(data.draw(st.integers(0, (1 << m.ncols) - 1)))
    anywhere = data.draw(st.integers(0, (1 << m.nrows) - 1))
    for target in (inside, anywhere):
        assert m.solve(target) == rref_solve(m, target)
    assert m.solve(inside) is not None


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(square=True), invertible_matrices()))
def test_inverse_matches_rref_oracle(m):
    want = rref_inverse(m)
    if want is None:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        assert m.inverse() == want


def rank(m):
    return m.echelon()[0].bit_count()


def identity(n):
    return BitMatrix.from_columns([1 << i for i in range(n)], n)


def rank_of_packed(rows, ncols):
    return naive_rank([[(r >> j) & 1 for j in range(ncols)] for r in rows])


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_clearing_free_columns_changes_only_their_kernel_vectors(m, data):
    # row t leads an echelon basis of the column space exactly when the rows
    # from t on have a larger rank than the rows after t
    rows = m.rows()
    leads = sum(
        1 << t
        for t in range(m.nrows)
        if rank_of_packed(rows[t:], m.ncols) > rank_of_packed(rows[t + 1 :], m.ncols)
    )
    pivots, free = m.echelon()[0], 0
    for v in rref_kernel(m):
        free |= 1 << (v.bit_length() - 1)
    assert pivots == ((1 << m.ncols) - 1) ^ free
    cleared = data.draw(st.integers(0, (1 << m.ncols) - 1)) & free
    assert m.echelon(cleared) == (pivots, leads) == m.echelon()
    kept = [v for v in rref_kernel(m) if not (cleared >> (v.bit_length() - 1)) & 1]
    assert m.kernel_basis(cleared) == kept


def test_cleared_mask_outside_the_columns_rejected():
    m = BitMatrix(2, 3, [0, 0])
    for bad in (0b1000, 0b1001):
        with pytest.raises(ValueError, match="cleared"):
            m.kernel_basis(bad)
        with pytest.raises(ValueError, match="cleared"):
            m.echelon(bad)


def test_slice_kernels_match_rref_oracle():
    for k in (-1, 0, 1, 2):
        for n in range(k, 31):
            for q in range(1, max_length(k, n) + 1):
                delta = graded_slice(k, n, q).delta
                assert delta.kernel_basis() == rref_kernel(delta), (k, n, q)


def test_rank_identity():
    assert rank(identity(3)) == 3


def test_rank_zero():
    assert rank(BitMatrix(4, 7, [0] * 4)) == 0


def test_rank_equal_rows():
    assert rank(BitMatrix(2, 2, [0b11, 0b11])) == 1


def test_kernel_identity_empty():
    assert identity(3).kernel_basis() == []


def test_kernel_zero_matrix_full():
    basis = BitMatrix(2, 3, [0, 0]).kernel_basis()
    assert len(basis) == 3


def test_kernel_sum_vector():
    basis = BitMatrix(1, 2, [0b11]).kernel_basis()
    assert basis == [0b11]


def test_solve_identity():
    m = identity(3)
    assert m.solve(0b100) == 0b100


def test_solve_absent():
    assert BitMatrix(2, 2, [0, 0]).solve(0b01) is None


def test_solve_certificate_remultiplies():
    rng = random.Random(7)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        m = BitMatrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
        coeffs = rng.getrandbits(ncols)
        target = m.mul_vec(coeffs)
        x = m.solve(target)
        assert x is not None
        assert m.mul_vec(x) == target


def test_rank_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 64), rng.randint(1, 64)
        rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
        packed = [sum(v << j for j, v in enumerate(row)) for row in rows]
        assert rank(BitMatrix(nrows, ncols, packed)) == naive_rank(rows)


def test_rank_equals_transpose_rank():
    rng = random.Random(13)
    for size in (64, 200, 512):
        m = BitMatrix(size, size, [rng.getrandbits(size) for _ in range(size)])
        assert rank(m) == rank(m.transpose())


def test_kernel_vectors_annihilate_and_are_independent():
    rng = random.Random(17)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 20), rng.randint(1, 20)
        m = BitMatrix(nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
        basis = m.kernel_basis()
        assert len(basis) == ncols - rank(m)
        span = Gf2Span()
        for v in basis:
            assert m.mul_vec(v) == 0
            assert span.add(v)


def test_inverse_roundtrip():
    rng = random.Random(19)
    built = 0
    while built < 10:
        n = rng.randint(1, 24)
        m = BitMatrix(n, n, [rng.getrandbits(n) for _ in range(n)])
        if rank(m) < n:
            continue
        built += 1
        assert m @ m.inverse() == identity(n)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        BitMatrix(2, 2, [0b11, 0b11]).inverse()


def test_matmul_agrees_with_mul_vec():
    rng = random.Random(23)
    a = BitMatrix(5, 7, [rng.getrandbits(7) for _ in range(5)])
    b = BitMatrix(7, 4, [rng.getrandbits(4) for _ in range(7)])
    prod = a @ b
    for j in range(4):
        assert prod.columns()[j] == a.mul_vec(b.columns()[j])


def test_from_columns_transpose():
    cols = [0b101, 0b011]
    m = BitMatrix.from_columns(cols, 3)
    assert m.columns() == cols
    assert m.transpose().rows() == cols


def test_row_out_of_range_rejected():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, [0b100])


def test_span_membership():
    span = Gf2Span([0b011, 0b110])
    assert 0b101 in span
    assert 0b100 not in span
    assert span.rank == 2
    assert span.reduce_tagged(0b101)[0] == 0
    assert span.reduce_tagged(0b111)[0] == 0b001


def test_span_tags_record_the_inputs_used():
    span = Gf2Span()
    span.add(0b011, 0b01)
    span.add(0b110, 0b10)
    assert span.reduce_tagged(0b101) == (0, 0b11)
    assert span.reduce_tagged(0b111, 0b100) == (0b001, 0b110)
