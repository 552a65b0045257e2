import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfwords.errors import DomainError
from hopfwords.linalg import Matrix, RowReducer, _Span, rank, tensor_scheme


def test_matrix_construction_and_access():
    m = Matrix([[1, "1/2"], [0, 3]])
    assert m.nrows == 2 and m.ncols == 2
    assert m[0, 1] == Fraction(1, 2)
    assert m.row(1) == (Fraction(0), Fraction(3))
    assert m.col(0) == (Fraction(1), Fraction(0))


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Matrix([])
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])


def test_arithmetic():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    assert a + b == Matrix([[1, 3], [4, 4]])
    assert a - b == Matrix([[1, 1], [2, 4]])
    assert -b == Matrix([[0, -1], [-1, 0]])
    assert a * b == Matrix([[2, 1], [4, 3]])
    assert a * Matrix.identity(2) == a
    assert a.scale(Fraction(1, 2)) == Matrix([["1/2", 1], ["3/2", 2]])
    assert 2 * a == a * 2


def test_matmul_dimension_mismatch():
    with pytest.raises(DomainError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


def test_transpose_and_stacks():
    a = Matrix([[1, 2], [3, 4]])
    assert a.transpose() == Matrix([[1, 3], [2, 4]])
    assert a.hstack(a).ncols == 4
    assert a.vstack(a).nrows == 4
    assert a.direct_sum(Matrix([[5]])) == Matrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])


def test_kron_example():
    a = Matrix([[1, 2], [3, 4]])
    b = Matrix([[0, 1], [1, 0]])
    k = a.kron(b)
    # (A x B)[i1*2+i2][j1*2+j2] = A[i1][j1] * B[i2][j2]
    for i1 in range(2):
        for i2 in range(2):
            for j1 in range(2):
                for j2 in range(2):
                    assert k[2 * i1 + i2, 2 * j1 + j2] == a[i1, j1] * b[i2, j2]


def test_kron_associative_and_mixed_product():
    rng = random.Random(7)

    def rand(n):
        return Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])

    a, b, c = rand(2), rand(2), rand(2)
    assert a.kron(b).kron(c) == a.kron(b.kron(c))
    d, e = rand(2), rand(2)
    # mixed-product property (A x B)(D x E) = AD x BE
    assert a.kron(b) * d.kron(e) == (a * d).kron(b * e)


def test_tensor_scheme():
    a = Matrix([[2]])
    b = Matrix([[3]])
    assert tensor_scheme(a, b, group_like=True) == Matrix([[6]])
    assert tensor_scheme(a, b, group_like=False) == Matrix([[5]])


def test_rank_examples():
    assert rank(Matrix([[1, 2, 4], [2, 4, 8], [4, 8, 16]])) == 1
    assert rank(Matrix.zeros(3, 3)) == 0
    assert rank(Matrix.identity(4)) == 4
    assert rank(Matrix([["1/2", 1], [1, 2]])) == 1
    assert rank(Matrix([[1, 0], [0, 0], [0, 1]])) == 2


def test_rank_matches_rowreducer_on_random_matrices():
    # two independent elimination routes must agree
    rng = random.Random(11)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix([[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)])
        reducer = RowReducer(nc)
        for row in m.num:
            reducer.offer(row)
        assert rank(m) == reducer.rank
        assert rank(m) == rank(m.transpose())


def test_rowreducer_coordinates_recover_combinations():
    rng = random.Random(3)
    rows = [
        [1, 0, 2, 0],
        [0, 1, 1, 1],
        [0, 0, 0, 3],
    ]
    reducer = RowReducer(4)
    for r in rows:
        assert reducer.offer(r)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in rows]
        vec = [sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(4)]
        assert reducer.coordinates(vec) == Matrix.row_vector(coeffs)
    # a multiple of 1/3 of the last row: a coordinate over a denominator
    assert reducer.coordinates([0, 0, 0, 1]) == Matrix.row_vector([0, 0, "1/3"])
    assert reducer.coordinates([0, 0, 1, 0]) is None
    # with no accepted row, even the zero vector has no 1 x rank row
    empty = RowReducer(2)
    assert not empty.offer([0, 0])
    assert empty.coordinates([0, 0]) is None and empty.coordinates([1, 0]) is None


def test_rowreducer_rejects_dependent_rows():
    reducer = RowReducer(3)
    assert reducer.offer([1, 2, 3])
    assert not reducer.offer([2, 4, 6])
    assert reducer.offer([0, 1, 0])
    assert not reducer.offer([1, 3, 3])
    assert reducer.rank == 2


# ---------------------------------------------------------------------------
# agreement with a plain Fraction reference


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_mul(a, b):
    return [[sum((x * y for x, y in zip(r, c)), Fraction(0)) for c in zip(*b)] for r in a]


def ref_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def ref_direct_sum(a, b):
    return [list(r) + [Fraction(0)] * len(b[0]) for r in a] + [
        [Fraction(0)] * len(a[0]) + list(r) for r in b
    ]


def ref_rank(a):
    """Gauss-Jordan over Fractions."""
    rows = [list(r) for r in a]
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


class FractionRowReducer:
    """The Fraction-arithmetic RowReducer, kept as the reference."""

    def __init__(self, width):
        self.width = width
        self._pivots, self._rows, self._combos = [], [], []

    def _eliminate(self, vec):
        v = [Fraction(x) for x in vec]
        coeffs = [Fraction(0)] * len(self._rows)
        for i, p in enumerate(self._pivots):
            c = v[p]
            if c:
                v = [x - c * y for x, y in zip(v, self._rows[i])]
                coeffs[i] = c
        return v, coeffs

    def offer(self, vec):
        v, coeffs = self._eliminate(vec)
        pivot = next((j for j, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        f = v[pivot]
        new_row = [x / f for x in v]
        n = len(self._combos)
        new_combo = [Fraction(0)] * n + [1 / f]
        for i, c in enumerate(coeffs):
            new_combo = [x - c * y / f for x, y in zip(new_combo, self._combos[i] + [0])]
        for combo in self._combos:
            combo.append(Fraction(0))
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if c:
                self._rows[i] = [x - c * y for x, y in zip(row, new_row)]
                self._combos[i] = [x - c * y for x, y in zip(self._combos[i], new_combo)]
        self._pivots.append(pivot)
        self._rows.append(new_row)
        self._combos.append(new_combo)
        return True

    def coordinates(self, vec):
        v, coeffs = self._eliminate(vec)
        if any(v):
            return None
        out = [Fraction(0)] * len(self._combos)
        for c, combo in zip(coeffs, self._combos):
            out = [x + c * y for x, y in zip(out, combo)]
        return out


rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def fraction_tables(nrows, ncols):
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


def assert_canonical(m: Matrix):
    assert m.den > 0
    assert math.gcd(m.den, *(x for r in m.num for x in r)) == 1
    assert all(type(x) is int for r in m.num for x in r)


def same(m: Matrix, table):
    assert_canonical(m)
    return m.rows == tuple(tuple(Fraction(x) for x in r) for r in table)


dims = st.integers(1, 5)


def integer_tables(nrows, ncols):
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@given(st.data(), dims, dims, dims, rationals)
@settings(max_examples=80, deadline=None)
def test_matrix_operations_agree_with_fraction_reference(data, n, m, k, c):
    a = data.draw(fraction_tables(n, m))
    b = data.draw(fraction_tables(n, m))
    d = data.draw(fraction_tables(m, k))
    ma, mb, md = Matrix(a), Matrix(b), Matrix(d)
    assert same(ma, a)
    assert same(ma + mb, ref_add(a, b))
    assert same(ma - mb, ref_sub(a, b))
    assert same(-ma, [[-x for x in r] for r in a])
    assert same(ma * md, ref_mul(a, d))
    assert same(ma.scale(c), [[c * x for x in r] for r in a])
    assert same(c * ma, [[c * x for x in r] for r in a])
    assert same(ma.kron(md), ref_kron(a, d))
    assert same(ma.transpose(), list(zip(*a)))
    assert same(ma.direct_sum(md), ref_direct_sum(a, d))
    assert same(ma.hstack(mb), [list(x) + list(y) for x, y in zip(a, b)])
    assert same(ma.vstack(mb), a + b)
    assert ma.to_strings() == [[str(x) for x in r] for r in a]
    assert [ma[i, j] for i in range(n) for j in range(m)] == [x for r in a for x in r]
    assert ma.row(n - 1) == tuple(a[-1]) and ma.col(m - 1) == tuple(r[-1] for r in a)
    assert (ma == mb) == (a == b)
    assert rank(ma) == ref_rank(a)


@given(st.data(), dims, dims)
@settings(max_examples=80, deadline=None)
def test_rowreducer_agrees_with_fraction_reference(data, n, width):
    rows = data.draw(integer_tables(n, width))
    # dependent rows too: combinations of rows offered earlier
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(width)])
    probes = data.draw(integer_tables(3, width)) + [rows[-1], [0] * width]
    fast, ref = RowReducer(width), FractionRowReducer(width)
    for row in rows:
        assert fast.offer(row) == ref.offer(row)
    assert fast.rank == len(ref._rows) == ref_rank([[Fraction(x) for x in r] for r in rows])
    for vec in rows + probes:
        expected = ref.coordinates(vec)
        if expected is None or not fast.rank:  # no row was accepted: no 1 x 0 Matrix
            assert fast.coordinates(vec) is None
        else:
            assert fast.coordinates(vec).row(0) == tuple(expected)


@given(st.data(), st.integers(1, 5))
@settings(max_examples=100, deadline=None)
def test_span_accepts_exactly_the_rows_rowreducer_accepts(data, width):
    """On integer rows with zero rows, repeats, multiples and combinations
    of earlier rows mixed in."""
    row = st.lists(st.integers(-3, 3), min_size=width, max_size=width)
    pool = data.draw(st.lists(row, min_size=1, max_size=5))
    combination = st.tuples(st.sampled_from(pool), st.sampled_from(pool), st.integers(-2, 2)).map(
        lambda t: [x + t[2] * y for x, y in zip(t[0], t[1])]
    )
    rows = data.draw(st.lists(st.one_of(st.sampled_from(pool), st.just([0] * width), combination, row), max_size=14))
    span, reducer = _Span(width), RowReducer(width)
    for r in rows:
        assert span.offer(r) == reducer.offer(r)
        assert span.rank == reducer.rank
    assert span.rank == (ref_rank([[Fraction(x) for x in r] for r in rows]) if rows else 0)
    if rows:
        assert rank(Matrix(rows)) == span.rank


def test_span_of_width_one():
    span = _Span(1)
    assert [span.offer(r) for r in ([0], [-2], [3], [0])] == [False, True, False, False]
    assert span.rank == 1


def test_canonical_form_and_hash():
    half = Matrix([["2/4"]])
    assert half == Matrix([[Fraction(1, 2)]]) == Matrix([["1/2"]])
    assert hash(half) == hash(Matrix([[Fraction(1, 2)]]))
    assert (half.num, half.den) == (((1,),), 2)
    ints = Matrix([[1, -2], [0, 3]])
    twin = Matrix([[Fraction(1, 1), Fraction(-2, 1)], [Fraction(0), Fraction(3)]])
    assert ints == twin and hash(ints) == hash(twin)
    assert ints.den == 1
    mixed = Matrix([["1/6", "1/4"], [1, "-3/2"]])
    assert (mixed.num, mixed.den) == (((2, 3), (12, -18)), 12)
    assert repr(mixed) == "Matrix[1/6 1/4; 1 -3/2]"


def test_zero_results_have_denominator_one():
    a = Matrix([["1/3", "2/5"], ["-1/7", 1]])
    for zero in (a - a, a.scale(0), 0 * a, a + (-a), a.kron(Matrix([[0]]))):
        assert zero == Matrix.zeros(zero.nrows, zero.ncols)
        assert zero.den == 1


def test_rows_is_read_only():
    m = Matrix([[1, "1/2"]])
    with pytest.raises(AttributeError):
        m.rows = ((Fraction(1),),)
    assert m.rows == ((Fraction(1), Fraction(1, 2)),)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, Decimal("0.5"), None])
def test_inexact_entries_are_type_errors(bad):
    with pytest.raises(TypeError):
        Matrix([[1, bad]])
    with pytest.raises(TypeError):
        Matrix([[1]]).scale(bad)


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "", "1/-2", " 1", "½", "0x10"])
def test_malformed_rational_strings_are_value_errors(bad):
    with pytest.raises(ValueError):
        Matrix([[bad]])
    with pytest.raises(ValueError):
        Matrix([[1]]).scale(bad)


def test_rational_strings_are_exact_entries():
    assert Matrix([["-7/21", "4"]]) == Matrix([[Fraction(-1, 3), 4]])
    assert Matrix([[2]]).scale("3/4") == Matrix([["3/2"]])
