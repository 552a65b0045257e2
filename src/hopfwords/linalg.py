"""Dense matrices over exact rationals, plus the elimination machinery used
by the representation calculus and the automaton learner. No floating point
anywhere: entries are `fractions.Fraction` throughout."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import DomainError


def _dot(row, col):
    total = Fraction(0)
    for a, b in zip(row, col):
        if a and b:
            total += a * b
    return total


class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("rows of unequal length")
        self.rows = data

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

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
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.rows[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.rows[i][j]

    def scalar(self) -> Fraction:
        if self.nrows != 1 or self.ncols != 1:
            raise ValueError(f"not a 1x1 matrix: {self.nrows}x{self.ncols}")
        return self.rows[0][0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"Matrix[{body}]"

    def _same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError(
                f"shape mismatch: {self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-x for x in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise DomainError(
                    f"dimension mismatch: {self.nrows}x{self.ncols} times "
                    f"{other.nrows}x{other.ncols}"
                )
            cols = list(zip(*other.rows))
            return Matrix([[_dot(r, c) for c in cols] for r in self.rows])
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([[c * x for x in r] for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in standard row-major block order."""
        out = []
        for ra in self.rows:
            for rb in other.rows:
                out.append([a * b for a in ra for b in rb])
        return Matrix(out)

    def direct_sum(self, other: "Matrix") -> "Matrix":
        top = [list(r) + [Fraction(0)] * other.ncols for r in self.rows]
        bottom = [[Fraction(0)] * self.ncols + list(r) for r in other.rows]
        return Matrix(top + bottom)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise ValueError("hstack needs equal row counts")
        return Matrix([list(a) + list(b) for a, b in zip(self.rows, other.rows)])

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("vstack needs equal column counts")
        return Matrix(list(self.rows) + list(other.rows))

    def to_strings(self) -> list[list[str]]:
        """Row-major nested lists of rational strings ("p/q" or "p")."""
        return [[str(x) for x in r] for r in self.rows]


def tensor_scheme(a: Matrix, b: Matrix, group_like: bool) -> Matrix:
    """Letter matrix on a tensor product: a (x) b for a group-like letter,
    a (x) I + I (x) b for a primitive one."""
    if group_like:
        return a.kron(b)
    return a.kron(Matrix.identity(b.nrows)) + Matrix.identity(a.nrows).kron(b)


def rank(m: Matrix) -> int:
    """Exact rank over Q.

    Fraction-free (Bareiss) elimination on denominator-cleared rows; the
    pivot is always the first nonzero entry scanning rows top-down and
    columns left to right, so the pivot sequence is reproducible for
    deterministically ordered input.
    """
    cleared = []
    for r in m.rows:
        scale = lcm(*(x.denominator for x in r))
        cleared.append([int(x * scale) for x in r])
    nr, nc = len(cleared), len(cleared[0])
    prev = 1
    pr = 0
    for pc in range(nc):
        piv = next((i for i in range(pr, nr) if cleared[i][pc] != 0), None)
        if piv is None:
            continue
        if piv != pr:
            cleared[pr], cleared[piv] = cleared[piv], cleared[pr]
        for i in range(pr + 1, nr):
            for j in range(pc + 1, nc):
                cleared[i][j] = (
                    cleared[i][j] * cleared[pr][pc] - cleared[i][pc] * cleared[pr][j]
                ) // prev
            cleared[i][pc] = 0
        prev = cleared[pr][pc]
        pr += 1
        if pr == nr:
            break
    return pr


class RowReducer:
    """Greedy independent-row selection over Q with coordinate recovery.

    Rows are offered in order; a row is accepted when it enlarges the span
    of the rows accepted so far. The reducer keeps a fully reduced echelon
    copy of the accepted rows together with the change of basis, so any
    vector in their span can be rewritten exactly as a combination of the
    accepted originals.
    """

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        self._pivots: list[int] = []
        self._rows: list[list[Fraction]] = []
        self._combos: list[list[Fraction]] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _eliminate(self, vec: Sequence):
        v = [Fraction(x) for x in vec]
        if len(v) != self.width:
            raise ValueError(f"expected a row of width {self.width}, got {len(v)}")
        coeffs = [Fraction(0)] * len(self._rows)
        for i, p in enumerate(self._pivots):
            c = v[p]
            if c:
                row = self._rows[i]
                for j, rj in enumerate(row):
                    if rj:
                        v[j] -= c * rj
                coeffs[i] = c
        return v, coeffs

    def offer(self, vec: Sequence) -> bool:
        """Absorb vec if independent of the accepted rows; report whether it was."""
        v, coeffs = self._eliminate(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        f = v[pivot]
        new_row = [x / f for x in v]
        n = len(self._combos)
        new_combo = [Fraction(0)] * (n + 1)
        new_combo[n] = Fraction(1) / f
        for i, c in enumerate(coeffs):
            if c:
                for j, cj in enumerate(self._combos[i]):
                    if cj:
                        new_combo[j] -= c * cj / f
        for combo in self._combos:
            combo.append(Fraction(0))
        # keep stored rows fully reduced so single-pass elimination stays valid
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if c:
                for j, x in enumerate(new_row):
                    if x:
                        row[j] -= c * x
                combo = self._combos[i]
                for j, x in enumerate(new_combo):
                    if x:
                        combo[j] -= c * x
        self._pivots.append(pivot)
        self._rows.append(new_row)
        self._combos.append(new_combo)
        return True

    def coordinates(self, vec: Sequence):
        """Coefficients of vec over the accepted original rows, or None when
        vec lies outside their span."""
        v, coeffs = self._eliminate(vec)
        if any(v):
            return None
        out = [Fraction(0)] * len(self._combos)
        for i, c in enumerate(coeffs):
            if c:
                for j, cj in enumerate(self._combos[i]):
                    if cj:
                        out[j] += c * cj
        return out
