"""Exact linear algebra over the two-element field.

Vectors are bit-packed Python ints, and a matrix is dense and bit-packed by
columns: column j is an int whose bit i is the entry in row i.  A coboundary
is built column by column, one column per basis monomial, so the columns are
stored as built; rows are produced only on request, by ``rows()``, and
the row constructor ``BitMatrix(nrows, ncols, rows)`` packs its rows into
columns once.  Every elimination goes through one primitive, the span
``Gf2Span``.  It keeps one reduced vector per leading bit, so inserting or
reducing a vector costs one whole-int XOR per pivot it meets, never a bit
test per entry.  A matrix's pass fills a span's pivot dict with the span's
reduce loop written out, so a column costs no method call.  As in the augmented matrix [A | I], a tagged pass enters column j as
``col << width | 1 << j``: the tag bits ride along with every XOR, and a
residue below ``1 << width`` is a kernel vector.
A kernel, a solution or an inverse is read off one such pass; the rank and
the pivot columns need no tags, and one untagged pass (``echelon``) gives
them and the leading rows.  Both passes can skip *cleared* columns: columns
the caller knows to depend on earlier ones, so only their own kernel vectors
are left out.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class BitMatrix:
    """Dense GF(2) matrix stored by columns; immutable from the caller's point of view."""

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(self, nrows: int, ncols: int, rows: Sequence[int]):
        """Build from packed rows: row i is an int whose bit j is entry (i, j)."""
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(rows) != nrows:
            raise ValueError(f"expected {nrows} rows, got {len(rows)}")
        if any(r >> ncols for r in rows):
            raise ValueError("row has bits outside the column range")
        self.nrows = nrows
        self.ncols = ncols
        self._cols = _transposed(rows, ncols)

    @classmethod
    def _of_columns(cls, nrows: int, cols: list[int]) -> "BitMatrix":
        """Wrap a list of in-range columns without copying or checking it."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = len(cols)
        m._cols = cols
        return m

    @classmethod
    def from_columns(cls, columns: Sequence[int], nrows: int) -> "BitMatrix":
        if nrows < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if any(col >> nrows for col in columns):
            raise ValueError("column has bits outside the row range")
        return cls._of_columns(nrows, list(columns))

    def rows(self) -> list[int]:
        """Every row as a bitmask over the columns (a transpose)."""
        return _transposed(self._cols, self.nrows)

    def columns(self) -> list[int]:
        """Every column as a bitmask over the rows."""
        return list(self._cols)

    def is_zero(self) -> bool:
        return not any(self._cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self._cols) == (other.nrows, other.ncols, other._cols)

    __hash__ = None  # mutable storage inside

    def __repr__(self) -> str:
        return f"BitMatrix({self.nrows}x{self.ncols})"

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        """Column j of the product is self times column j of other."""
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        return BitMatrix._of_columns(self.nrows, [self.mul_vec(col) for col in other._cols])

    def mul_vec(self, v: int) -> int:
        """Matrix times column vector: the XOR of the columns that v selects."""
        if v >> self.ncols:
            raise ValueError("vector has bits outside the column range")
        cols = self._cols
        out = 0
        while v:  # top bit first: v shrinks as it goes
            top = v.bit_length() - 1
            out ^= cols[top]
            v ^= 1 << top
        return out

    def echelon(self, cleared: int = 0) -> tuple[int, int]:
        """The pivot columns (those independent of the ones before them) and
        the leading rows, as bitmasks, from one untagged pass in order."""
        span, pivots, _ = self._eliminate(cleared, 0)
        return pivots, sum(1 << top for top in span._pivots)

    def kernel_basis(self, cleared: int = 0) -> list[int]:
        """Basis of the right null space, one vector per uncleared free column.

        One tagged pass over the columns in order: a column that reduces to
        its tag bits alone against the earlier pivot columns yields them as a
        kernel vector.  That vector involves the free column itself and pivot
        columns only, so it is the one read off the reduced row echelon form,
        and its highest bit is its free column.
        """
        return self._eliminate(cleared, self.ncols)[2]

    def _eliminate(self, cleared: int, width: int) -> tuple["Gf2Span", int, list[int]]:
        """The span, pivot columns and kernel vectors of one in-order pass that
        skips the cleared columns; ``width`` is ncols if tagged, else 0.  The
        pass runs ``Gf2Span.reduce``'s loop on the span's pivot dict itself."""
        if cleared >> self.ncols:
            raise ValueError("cleared mask has bits outside the column range")
        skip = bin(cleared)[:1:-1].ljust(self.ncols, "0")  # "1" for a cleared column
        span = Gf2Span(width=width)
        span_pivots = span._pivots
        limit = 1 << width
        pivots = 0
        kernel = []
        for j, (col, cleared_j) in enumerate(zip(self._cols, skip)):
            if cleared_j == "1":
                continue
            v = col << width | 1 << j if width else col
            while v:
                top = v.bit_length() - 1
                basis = span_pivots.get(top)
                if basis is None:
                    break
                v ^= basis
            if v >= limit:  # the loop stopped at v's leading bit, a new pivot
                span_pivots[top] = v
                pivots |= 1 << j
            elif width:
                kernel.append(v)
        return span, pivots, kernel

    def solve(self, target: int) -> int | None:
        """A coefficient vector x with self @ x == target, or None.

        Interprets the matrix columns as spanning vectors; x selects a
        combination of the pivot columns (the columns independent of the
        ones before them) producing the target.
        """
        if target >> self.nrows:
            raise ValueError("target has bits outside the row range")
        x = self._eliminate(0, self.ncols)[0].reduce(target << self.ncols)
        return None if x >> self.ncols else x

    def inverse(self) -> "BitMatrix":
        """Column j of the inverse is the combination of columns that sums to e_j."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices can be inverted")
        n = self.nrows
        span, _, kernel = self._eliminate(0, n)
        if kernel:
            raise ValueError("matrix is singular over GF(2)")
        return BitMatrix._of_columns(n, [span.reduce(1 << (j + n)) for j in range(n)])


def _transposed(vectors: Sequence[int], width: int) -> list[int]:
    """Bit i of output j is bit j of vectors[i], for j < width."""
    out = [0] * width
    for i, v in enumerate(vectors):
        bit = 1 << i
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


class Gf2Span:
    """Incrementally built span of GF(2) bit vectors, tagged in their low
    ``width`` bits.

    Keeps one reduced vector per leading bit above the tag bits, so tags
    ride along with every XOR and never lead.  When each input carries its
    own tag bit, a residue's tag bits say which inputs sum to the part of
    the vector that the span covers.
    """

    __slots__ = ("_pivots", "_limit")

    def __init__(self, vectors: Iterable[int] = (), width: int = 0):
        self._pivots: dict[int, int] = {}
        self._limit = 1 << width  # the least vector with a bit above the tag
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """The residue of v modulo the span, tag bits included."""
        pivots = self._pivots
        while v:
            top = v.bit_length() - 1
            basis = pivots.get(top)
            if basis is None:
                break
            v ^= basis
        return v

    def add(self, v: int) -> bool:
        """Insert v; True if it enlarged the span."""
        v = self.reduce(v)
        if v < self._limit:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) < self._limit

    @property
    def rank(self) -> int:
        return len(self._pivots)
