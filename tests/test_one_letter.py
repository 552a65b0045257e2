"""The one-letter dual as an exact oracle for the convolution.

Over one letter x a series is a sequence f(n) = f(x^n), and P(n) r^n with
deg P = m - 1 and r != 0 is recognized by the companion matrix of
(t - r)^m, with Hankel rank m. The coproduct of x^n is known in closed
form, so the convolution of two such sequences is too:

- x primitive: Delta(x^n) = sum_k C(n, k) x^k (x) x^(n-k), so (f * h)(n) is
  the binomial convolution sum_k C(n, k) f(k) h(n - k). Its exponential
  generating function is the product of theirs, so it is Q(n) (r1 + r2)^n
  with deg Q = m1 + m2 - 2 (a polynomial of that degree if r1 + r2 = 0).
- x group-like: Delta(x^n) = x^n (x) x^n, so (f * h)(n) = f(n) h(n), which
  is (P1 P2)(n) (r1 r2)^n.

Either way the convolution has Hankel rank m1 + m2 - 1.
"""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfwords import Alphabet, LinRep, Matrix, RecognizableSeries, conv_rep, hankel_rank, reps_equal


def companion(alphabet: Alphabet, root: int, m: int, values: list[int]) -> LinRep:
    """The sequence with f(n) = values[n] for n < m that satisfies the
    recurrence of (t - root)^m = t^m - sum_i a_i t^i: its state after x^n
    is the row (f(n), ..., f(n + m - 1)), and the letter's matrix shifts it
    left and appends f(n + m) = sum_i a_i f(n + i)."""
    a = [-comb(m, i) * (-root) ** (m - i) for i in range(m)]
    shift = [[int(i == j + 1) for j in range(m - 1)] + [a[i]] for i in range(m)]
    gamma = Matrix.col_vector([1] + [0] * (m - 1))
    return LinRep(alphabet, m, Matrix.row_vector(values), {alphabet.letters[0]: Matrix(shift)}, gamma)


@st.composite
def sequences(draw):
    """(r, m, f) for f(n) = P(n) r^n: r a nonzero integer, m in 1..3 and P
    of degree m - 1 with small integer coefficients."""
    root = draw(st.integers(-4, 4).filter(bool))
    m = draw(st.integers(1, 3))
    coeffs = [*draw(st.lists(st.integers(-3, 3), min_size=m - 1, max_size=m - 1)), draw(st.integers(-3, 3).filter(bool))]
    return root, m, lambda n: sum(c * n**k for k, c in enumerate(coeffs)) * root**n


@pytest.mark.parametrize("kind", ["L", "G"])
@given(first=sequences(), second=sequences())
@settings(max_examples=40, deadline=None)
def test_convolution_of_one_letter_sequences(kind, first, second):
    alph = Alphabet.from_decl(f"x:{kind}")
    (r1, m1, f1), (r2, m2, f2) = first, second
    reps = [companion(alph, r, m, [f(n) for n in range(m)]) for r, m, f in (first, second)]
    for rep, (_, m, f) in zip(reps, (first, second)):
        assert [rep.value(alph.word("x" * n or "1")) for n in range(2 * m + 2)] == [f(n) for n in range(2 * m + 2)]
    conv = conv_rep(*reps)
    if kind == "L":
        root = r1 + r2

        def expected(n):
            return sum(comb(n, k) * f1(k) * f2(n - k) for k in range(n + 1))
    else:
        root = r1 * r2

        def expected(n):
            return f1(n) * f2(n)

    m, d = m1 + m2 - 1, conv.dim
    assert reps_equal(conv, companion(alph, root, m, [expected(n) for n in range(m)]))
    assert [conv.value(alph.word("x" * n or "1")) for n in range(d + m)] == [expected(n) for n in range(d + m)]
    assert hankel_rank(RecognizableSeries(conv), d, d) == m
