"""Dense matrices over exact rationals, plus the elimination machinery used
by the representation calculus and the automaton learner. No floating point
anywhere.

Storage contract: a Matrix is a tuple of integer numerator rows over one
positive common denominator, kept in lowest terms (den > 0 and the gcd of
den and all numerators is 1), so equal matrices have equal storage. All
arithmetic, rank and row reduction run on those integers; fractions.Fraction
values are built only at the edge (rows, row, col, [i, j], scalar,
to_strings and repr). RowReducer takes integer rows and returns each row's
coordinates as a Matrix, with no Fraction.

Exact entries are an int (not a bool), a Fraction, or a string of the
strict rational grammar -?[0-9]+(/[0-9]+)?. A float, bool or Decimal raises
TypeError; any other string, such as "0.5", "1e3" or "1/0", raises
ValueError.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import DomainError

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(x) -> Fraction:
    """The one strict rational parser: a string "p" or "p/q" with decimal
    digits and a nonzero q; anything else is a ValueError."""
    if not (isinstance(x, str) and _RATIONAL.fullmatch(x)):
        raise ValueError(f"entry {x!r} is not a rational string 'p' or 'p/q'")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"entry {x!r} has a zero denominator") from None


def _entry(x):
    """An exact entry as an int or a Fraction (see the module docstring)."""
    if isinstance(x, bool):
        raise TypeError(f"matrix entry must be exact, got the bool {x!r}")
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return _parse_rational(x)
    raise TypeError(
        f"matrix entry must be an int, a Fraction or a rational string, got {x!r}"
    )


# Tuples here are built from lists, never from generators (nor lcm(*gen)):
# tuple() of a generator guesses a size and resizes, so the freed tuple
# lands on another size's free list, and after a few thousand matrix
# operations CPython's tuple free lists hold over a megabyte.


def _fractions(ints, den: int) -> tuple[Fraction, ...]:
    if den == 1:
        return tuple([Fraction(x) for x in ints])
    return tuple([Fraction(x, den) for x in ints])


def _scaled(num, k: int):
    return num if k == 1 else tuple([tuple([x * k for x in r]) for r in num])


class Matrix:
    """Immutable dense matrix over Q.

    Stored as a tuple of integer numerator rows `num` over one common
    denominator `den`, in lowest terms (den > 0, gcd(den, all of num) == 1);
    equality and hashing compare that pair. `Matrix(rows)` takes exact
    entries only: int (not bool), Fraction, or a string "p" or "p/q". The
    read-only `rows`, and `row`, `col`, `[i, j]` and `scalar`, build
    Fractions on each access."""

    __slots__ = ("num", "den")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple([tuple(row) for row in rows])
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows of unequal length")
        if all(type(x) is int for r in data for x in r):
            self.num, self.den = data, 1
            return
        # numerators over the lcm of the entries' denominators: every entry
        # is in lowest terms, so the result is too
        vals = [[_entry(x) for x in r] for r in data]
        den = self.den = lcm(*[x.denominator for r in vals for x in r])
        self.num = tuple([tuple([x.numerator * (den // x.denominator) for x in r]) for r in vals])

    @classmethod
    def _from_ints(cls, num: tuple[tuple[int, ...], ...], den: int = 1) -> "Matrix":
        """The matrix num / den for integer rows and den > 0, reduced to
        lowest terms by one gcd over the numerators and den."""
        if den != 1:
            g = den
            for r in num:
                g = gcd(g, *r)
                if g == 1:
                    break
            if g != 1:
                num = tuple([tuple([x // g for x in r]) for r in num])
                den //= g
        m = object.__new__(cls)
        m.num = num
        m.den = den
        return m

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        if n < 1:
            return cls([])  # the constructor's ValueError
        return cls._from_ints(tuple([(0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)]))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([[0] * ncols for _ in range(nrows)])

    @classmethod
    def row_vector(cls, xs: Iterable) -> "Matrix":
        return cls([list(xs)])

    @classmethod
    def col_vector(cls, xs: Iterable) -> "Matrix":
        return cls([[x] for x in xs])

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple([_fractions(r, self.den) for r in self.num])

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return _fractions(self.num[i], self.den)

    def col(self, j: int) -> tuple[Fraction, ...]:
        return _fractions([r[j] for r in self.num], self.den)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def scalar(self) -> Fraction:
        if self.nrows != 1 or self.ncols != 1:
            raise ValueError(f"not a 1x1 matrix: {self.nrows}x{self.ncols}")
        return Fraction(self.num[0][0], self.den)

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(r) for r in self.to_strings())
        return f"Matrix[{body}]"

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def _aligned(self, other: "Matrix"):
        """Both numerator tables over the lcm of the two denominators."""
        da, db = self.den, other.den
        if da == db:
            return self.num, other.num, da
        den = lcm(da, db)
        return _scaled(self.num, den // da), _scaled(other.num, den // db), den

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        a, b, den = self._aligned(other)
        num = tuple([tuple([x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])
        return Matrix._from_ints(num, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        a, b, den = self._aligned(other)
        num = tuple([tuple([x - y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])
        return Matrix._from_ints(num, den)

    def __neg__(self) -> "Matrix":
        return Matrix._from_ints(tuple([tuple([-x for x in r]) for r in self.num]), self.den)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DomainError(
                    f"dimension mismatch: {self.nrows}x{self.ncols} times "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.num))
            num = tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in self.num])
            return Matrix._from_ints(num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Matrix":
        c = _entry(c)
        return Matrix._from_ints(_scaled(self.num, c.numerator), self.den * c.denominator)

    def transpose(self) -> "Matrix":
        return Matrix._from_ints(tuple(list(zip(*self.num))), self.den)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in standard row-major block order."""
        num = tuple(
            [tuple([a * b for a in ra for b in rb]) for ra in self.num for rb in other.num]
        )
        return Matrix._from_ints(num, self.den * other.den)

    def direct_sum(self, other: "Matrix") -> "Matrix":
        a, b, den = self._aligned(other)
        right = (0,) * other.ncols
        left = (0,) * self.ncols
        return Matrix._from_ints(tuple([r + right for r in a] + [left + r for r in b]), den)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack needs equal row counts")
        a, b, den = self._aligned(other)
        return Matrix._from_ints(tuple([ra + rb for ra, rb in zip(a, b)]), den)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack needs equal column counts")
        a, b, den = self._aligned(other)
        return Matrix._from_ints(a + b, den)

    def to_strings(self) -> list[list[str]]:
        """Row-major nested lists of rational strings ("p/q" or "p")."""
        return [[str(x) for x in r] for r in self.rows]


def _stacked(vectors: Sequence[Matrix]) -> Matrix:
    """The matrix whose rows are the entries of the given row or column
    vectors (all of one length), built on the numerators over the lcm of
    the vectors' denominators."""
    den = lcm(*[v.den for v in vectors])
    return Matrix._from_ints(
        tuple([tuple([x * (den // v.den) for r in v.num for x in r]) for v in vectors]), den
    )


def tensor_scheme(a: Matrix, b: Matrix, group_like: bool) -> Matrix:
    """Letter matrix on a tensor product: a (x) b for a group-like letter,
    a (x) I + I (x) b for a primitive one."""
    if group_like:
        return a.kron(b)
    return a.kron(Matrix.identity(b.nrows)) + Matrix.identity(a.nrows).kron(b)


class _Span:
    """Greedy independent-row selection over Q on integer rows: a row is
    accepted when it enlarges the span of the rows accepted before it.

    Fraction-free: each stored row is an integer vector with its pivot in
    one of the first `width` columns, zero at every other stored row's
    pivot and divided by its content after every update. A stored row may
    run on past `width`: RowReducer keeps each row's change of basis there,
    and eliminating with whole rows updates it alongside."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self._pivots: list[int] = []
        self._rows: list[list[int]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, w: Sequence[int]) -> tuple[int, Sequence[int]]:
        """(d, d*w minus the combination of the stored rows that clears
        every stored pivot): zero in the first `width` columns exactly when
        w lies in the span, otherwise its first nonzero is a new pivot."""
        rows = self._rows
        hits = [(rows[i], w[p], rows[i][p]) for i, p in enumerate(self._pivots) if w[p]]
        if not hits:
            return 1, w
        d = lcm(*[piv for _, _, piv in hits])
        residual = [d * x for x in w] if d != 1 else w
        for row, c, piv in hits:
            k = c * (d // piv)
            residual = [x - k * y for x, y in zip(residual, row)]
        return d, residual

    def offer(self, vec: Sequence[int]) -> bool:
        """Absorb vec if independent of the accepted rows; report whether it
        was. No row enlarges a span with one dimension per column."""
        if len(self._rows) == self.width:
            return False
        new = self._eliminate(vec)[1]
        pivot = next(compress(range(self.width), new), None)
        if pivot is None:
            return False
        g = gcd(*new)
        new = [x // g for x in new]
        p = new[pivot]
        # keep stored rows fully reduced so one elimination pass stays valid
        for row in self._rows:
            c = row[pivot]
            if c:
                row[:] = [p * x - c * y for x, y in zip(row, new)]
                g = gcd(*row)
                row[:] = [x // g for x in row]
        self._pivots.append(pivot)
        self._rows.append(new)
        return True


def rank(m: Matrix) -> int:
    """Exact rank over Q: the rows a greedy _Span pass accepts, top-down."""
    return sum(map(_Span(m.ncols).offer, m.num))


class RowReducer(_Span):
    """Greedy independent-row selection over Q on integer rows, with
    coordinate recovery. Each offered row is extended by `width` columns
    holding the unit vector of its index, so the _Span echelon carries,
    past column `width`, each stored row's integer combination over the
    accepted originals: any vector in their span is rewritten exactly as a
    combination of them."""

    def offer(self, vec: Sequence[int]) -> bool:
        """Absorb vec if independent of the accepted rows; report whether it
        was."""
        # the unit vector of the row's index, unread once the span is full
        k = self.rank
        return super().offer([*vec, *[0] * k, 1, *[0] * (self.width - k - 1)])

    def coordinates(self, vec: Sequence[int]) -> Matrix | None:
        """The 1 x rank row of vec's coefficients over the accepted original
        rows, or None when vec is outside their span or none was accepted."""
        d, residual = self._eliminate([*vec, *[0] * self.width])
        if not self.rank or any(residual[: self.width]):
            return None
        # d * vec = sum_j -residual[width + j] * original_j
        tail = residual[self.width : self.width + self.rank]
        return Matrix._from_ints((tuple([-x for x in tail]),), d)
