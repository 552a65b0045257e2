import functools
import json
from collections import deque
import math
import random
import time
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hopfwords.dualforms as dualforms
import hopfwords.rep as rep_module
import hopfwords.sweedler as sweedler
from cli_cases import FIXTURES
from conftest import counting_rep, geometric_rep
from hopfwords import (
    Alphabet,
    FiniteSupportSeries,
    LinRep,
    MatRep,
    Matrix,
    NCPoly,
    RecognizableSeries,
    behavior_table,
    conv_rep,
    dual_counit,
    dual_unit,
    embed_finite,
    eval_word,
    hankel,
    hankel_rank,
    learn,
    rep_sum,
    reps_equal,
    scale_rep,
    shift_left,
    shift_right,
    split,
    splittings,
    transpose_antipode,
    zero_rep,
)
from hopfwords.errors import DomainError, InconclusiveError, ParseError
from hopfwords.linalg import RowReducer, _Span, _stacked, rank

COUNTING_JSON = (
    '{"alphabet": "a:L,b:L", "dim": 2, "lambda": ["1","0"],'
    ' "mu": {"a": [["1","1"],["0","1"]], "b": [["1","0"],["0","1"]]},'
    ' "gamma": [["0"],["1"]]}'
)


# ---------------------------------------------------------------------------
# behavior


def test_behavior_geometric(single):
    geo = geometric_rep(single, 2)
    assert geo.value(single.word("aaa")) == 8
    assert geo.value(single.unit_word()) == (geo.lam * geo.gamma).scalar() == 1


def test_behavior_counting(ab):
    c = counting_rep(ab)
    assert c.value(ab.word("abab")) == 2
    assert c.value(ab.word("bbb")) == 0
    assert c.value(ab.word("aaa")) == 3


def test_behavior_table_matches_pointwise(ab):
    c = counting_rep(ab)
    table = behavior_table(c, 4)
    for w in ab.words(4):
        assert table[w] == c.value(w)


def test_behavior_alphabet_mismatch(ab, single):
    with pytest.raises(DomainError):
        geometric_rep(single, 2).value(ab.word("a"))


# ---------------------------------------------------------------------------
# shifts


def test_shift_finite_support(ab):
    f = FiniteSupportSeries.indicator(ab.word("ab"))
    assert shift_right(f, ab.word("a")) == FiniteSupportSeries.indicator(ab.word("b"))
    assert shift_left(f, ab.word("b")) == FiniteSupportSeries.indicator(ab.word("a"))
    assert shift_right(f, ab.unit_word()) == f
    assert shift_left(f, ab.unit_word()) == f
    assert shift_right(f, ab.word("b")) == FiniteSupportSeries.zero(ab)


def test_shift_recognizable_coherence(ab):
    from hopfwords import conc

    c = RecognizableSeries(counting_rep(ab))
    for s in ab.words(3):
        right = shift_right(c, s)
        left = shift_left(c, s)
        for x in ab.words(3):
            assert right.coeff(x) == c.coeff(conc(s, x))
            assert left.coeff(x) == c.coeff(conc(x, s))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_shifts_of_a_representation_match_the_word_matrix(data):
    """lambda * mu(s) and mu(s) * gamma, walked one letter at a time, give
    the representations built from the word's matrix eval_word(rep, s)."""
    rep = data.draw(hidden_state_reps())
    symbols = "".join(l.symbol for l in rep.alphabet.letters)
    s = rep.alphabet.word(data.draw(st.text(symbols, max_size=5)) or "1")
    m, f = eval_word(rep, s), RecognizableSeries(rep)
    assert shift_right(f, s).rep == LinRep(rep.alphabet, rep.dim, rep.lam * m, rep.mu, rep.gamma)
    assert shift_left(f, s).rep == LinRep(rep.alphabet, rep.dim, rep.lam, rep.mu, m * rep.gamma)


finite_supports = st.dictionaries(
    st.text("ab", max_size=4),
    st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
    max_size=4,
)


@given(finite_supports, st.text("ab", max_size=3))
@example({"ab": Fraction(2), "b": Fraction(1, 3)}, "a")
@example({"ab": Fraction(2), "b": Fraction(1, 3)}, "b")
@settings(max_examples=80, deadline=None)
def test_shifts_of_a_finite_support_match_those_of_its_automaton(ab_terms, text):
    """The finite-support shifts filter the support's term store; each is
    the polynomial, in lowest terms, that the Word-keyed terms give (2*ab +
    1/3*b shifted right by a is 2*b), and the series that the same shift of
    its automaton gives."""
    ab = Alphabet.from_decl("a:L,b:L")
    f = FiniteSupportSeries(NCPoly(ab, {ab.word(w): c for w, c in ab_terms.items()}))
    s, k, auto = ab.word(text or "1"), len(text), RecognizableSeries(embed_finite(f))
    right = {ab.word(w.symbols()[k:]): c for w, c in f.terms.items() if w.symbols().startswith(text)}
    left = {ab.word(w.symbols()[: len(w) - k]): c for w, c in f.terms.items() if w.symbols().endswith(text)}
    for shift, terms in (shift_right, right), (shift_left, left):
        shifted = shift(f, s)
        assert shifted.poly == NCPoly(ab, terms)
        assert shifted == shift(auto, s)


# ---------------------------------------------------------------------------
# hankel windows


def test_hankel_geometric_window(single):
    geo = RecognizableSeries(geometric_rep(single, 2))
    h = hankel(geo, 2, 2)
    assert [str(w) for w in h.rows] == ["1", "a", "aa"]
    assert h.entries == Matrix([[1, 2, 4], [2, 4, 8], [4, 8, 16]])


def test_hankel_zero_series(ab):
    zero = FiniteSupportSeries.zero(ab)
    h = hankel(zero, 2, 2)
    assert h.entries == Matrix.zeros(7, 7)
    assert hankel_rank(zero, 2, 2) == 0


def test_hankel_unit_indicator(single):
    chi1 = FiniteSupportSeries.indicator(single.unit_word())
    h = hankel(chi1, 1, 1)
    assert h.entries == Matrix([[1, 0], [0, 0]])


def test_hankel_rank_examples(single, ab):
    geo = RecognizableSeries(geometric_rep(single, 2))
    assert hankel_rank(geo, 3, 3) == 1
    c = RecognizableSeries(counting_rep(ab))
    assert hankel_rank(c, 3, 3) == 2


def test_hankel_rank_bounded_by_dim(ab, single):
    reps = [
        geometric_rep(single, 2),
        counting_rep(ab),
        embed_finite(FiniteSupportSeries.indicator(ab.word("ab"))),
    ]
    for rep in reps:
        f = RecognizableSeries(rep)
        for p in range(5):
            for s in range(5):
                assert hankel_rank(f, p, s) <= rep.dim


def test_hankel_accepts_callable_with_alphabet(single):
    h = hankel(lambda w: Fraction(2) ** len(w), 1, 1, alphabet=single)
    assert h.entries == Matrix([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        hankel(lambda w: Fraction(0), 1, 1)
    with pytest.raises(TypeError, match="expected a Series or a coefficient oracle"):
        hankel(42, 1, 1)


def learn_window(f, p, s, alphabet=None):
    """learn at exploration length min(p, s), called as hankel is."""
    return learn(f, min(p, s), alphabet)


@pytest.mark.parametrize("kind", ["finite", "recognizable", "oracle"])
@pytest.mark.parametrize("window", [hankel, hankel_rank, learn_window])
@pytest.mark.parametrize("p, s", [(1, -1), (-1, 1), (-1, -1)])
def test_negative_window_lengths_are_value_errors(ab, kind, window, p, s):
    f = FiniteSupportSeries.from_text(ab, "ab + 2*b")
    operand = {"finite": f, "recognizable": RecognizableSeries(geometric_rep(ab, 2)), "oracle": f.coeff}[kind]
    with pytest.raises(ValueError, match="nonnegative"):
        window(operand, p, s, alphabet=ab if kind == "oracle" else None)


def test_behavior_table_refuses_a_negative_length(ab):
    rep = embed_finite(FiniteSupportSeries.from_text(ab, "3 + ab"))
    with pytest.raises(ValueError, match="window lengths must be nonnegative, got -1"):
        behavior_table(rep, -1)
    assert behavior_table(rep, 0) == {ab.word("1"): 3}


@pytest.mark.parametrize("window", [hankel, hankel_rank, learn_window])
def test_a_series_refuses_a_window_over_another_alphabet(single, window):
    f = FiniteSupportSeries.from_text(single, "a + 2*aa")
    for series in (f, RecognizableSeries(geometric_rep(single, 2))):
        with pytest.raises(DomainError, match="alphabet mismatch"):
            window(series, 2, 2, alphabet=Alphabet.from_decl("a:L,b:L"))
        # an equal alphabet, even a separate copy, is accepted
        assert window(series, 2, 2, alphabet=Alphabet.from_decl("a:L")) == window(series, 2, 2)


# ---------------------------------------------------------------------------
# learning


def test_learn_geometric(single):
    geo = geometric_rep(single, 2)
    model = learn(RecognizableSeries(geo), 2)
    assert model.dim == 1
    for n in range(6):
        w = single.word("a" * n if n else "1")
        assert model.value(w) == 2**n


def test_learn_counting_round_trip(ab):
    c = counting_rep(ab)
    model = learn(RecognizableSeries(c), 3)
    assert model.dim == 2 == hankel_rank(RecognizableSeries(c), 4, 4)
    for w in ab.words(7):
        assert model.value(w) == c.value(w)


def test_learn_unit_indicator(ab):
    model = learn(FiniteSupportSeries.indicator(ab.unit_word()), 1)
    assert model.dim == 1
    assert (model.lam * model.gamma).scalar() == 1
    for l in ab.letters:
        assert model.mu[l] == Matrix([[0]])


def test_learn_finite_support_round_trip(ab):
    f = FiniteSupportSeries.from_text(ab, "2*ab - b")
    model = learn(f, 2)
    for w in ab.words(5):
        assert model.value(w) == f.coeff(w)


def test_learn_zero_series(ab):
    model = learn(FiniteSupportSeries.zero(ab), 1)
    for w in ab.words(3):
        assert model.value(w) == 0


def test_learn_inconclusive_when_rank_still_growing(single):
    f = FiniteSupportSeries.indicator(single.word("aaaa"))
    with pytest.raises(InconclusiveError, match="not stabilized"):
        learn(f, 1)
    # with a wide enough window the same series is learned exactly
    model = learn(f, 4)
    for w in single.words(9):
        assert model.value(w) == f.coeff(w)


def test_learn_inconclusive_error_carries_the_window_ranks(single):
    with pytest.raises(InconclusiveError) as info:
        learn(FiniteSupportSeries.indicator(single.word("aaaa")), 1)
    err = info.value
    # the (1, 1) window misses f(aaaa) = 1, the (2, 2) window holds it at (aa, aa)
    assert (err.r_small, err.r_big, err.explore) == (0, 1, 1)
    assert str(err) == (
        "hankel rank not stabilized: 0 at window 1, 1 at window 2; "
        "raise the exploration length"
    )


def _three_rep_convolution(ab):
    """conv of three dim-2 reps, mu(a) = mu(b) = [[c, 1], [0, 1]] for
    c = 2, 3, 5: dimension and Hankel rank 8, while the windowed ranks are
    4, 4, 6, 6, 8 at windows 3 to 7."""
    lam, gamma = Matrix.row_vector([1, 0]), Matrix.col_vector([0, 1])
    r2, r3, r5 = (
        LinRep(ab, 2, lam, {l: Matrix([[c, 1], [0, 1]]) for l in ab.letters}, gamma)
        for c in (2, 3, 5)
    )
    return conv_rep(conv_rep(r2, r3), r5)


def test_learn_refuses_a_model_that_differs_from_its_representation(ab):
    rep = _three_rep_convolution(ab)
    assert rep.dim == 8
    for explore, rank in ((3, 4), (5, 6)):
        # the two windows agree, yet the model is smaller than the series
        with pytest.raises(InconclusiveError, match="differs from the operand") as info:
            learn(RecognizableSeries(rep), explore)
        err = info.value
        assert (err.r_small, err.r_big, err.explore) == (rank, rank, explore)
    model = learn(RecognizableSeries(rep), 7)
    assert model.dim == 8 and reps_equal(model, rep)
    # a window of rank 0 is checked too: f(aaa) = 1 is zero on words of length <= 2
    aaa = RecognizableSeries(embed_finite(FiniteSupportSeries.from_text(ab, "aaa")))
    with pytest.raises(InconclusiveError, match="differs from the operand"):
        learn(aaa, 0)
    assert reps_equal(learn(aaa, 3), aaa.rep)


def test_learn_oracle_input(single):
    model = learn(lambda w: Fraction(3) ** len(w), 2, alphabet=single)
    assert model.dim == 1
    assert model.value(single.word("aaa")) == 27


# ---------------------------------------------------------------------------
# splitting


def test_split_geometric_single_factor(single):
    from hopfwords import conc

    geo = geometric_rep(single, 2)
    pairs = split(geo)
    assert len(pairs) == 1
    g, h = pairs[0]
    for x in single.words(3):
        for y in single.words(3):
            assert g.coeff(x) * h.coeff(y) == geo.value(conc(x, y))


def test_split_factorization_identity(ab):
    from hopfwords import conc

    for rep in (
        counting_rep(ab),
        embed_finite(FiniteSupportSeries.indicator(ab.word("ab"))),
    ):
        pairs = split(rep)
        assert len(pairs) == rep.dim
        for x in ab.words(3):
            for y in ab.words(3):
                total = sum(
                    (g.coeff(x) * h.coeff(y) for g, h in pairs), Fraction(0)
                )
                assert total == rep.value(conc(x, y))


def test_split_counit_contraction(ab):
    c = counting_rep(ab)
    pairs = split(c)
    for y in ab.words(4):
        assert sum(
            (g.coeff(ab.unit_word()) * h.coeff(y) for g, h in pairs), Fraction(0)
        ) == c.value(y)
        assert sum(
            (g.coeff(y) * h.coeff(ab.unit_word()) for g, h in pairs), Fraction(0)
        ) == c.value(y)


# ---------------------------------------------------------------------------
# convolution at representation level


def test_conv_rep_binomial_closed_form(single):
    conv = conv_rep(geometric_rep(single, 2), geometric_rep(single, 3))
    for n in range(6):
        w = single.word("a" * n if n else "1")
        expected = sum(math.comb(n, k) * 2**k * 3 ** (n - k) for k in range(n + 1))
        assert expected == 5**n
        assert conv.value(w) == expected


def conv_matches_subword_formula(r1: LinRep, r2: LinRep, max_len: int) -> bool:
    """conv_rep(r1, r2) gives sum f1(u) f2(v) over the splittings (u, v)
    of every word w up to max_len."""
    t1, t2 = behavior_table(r1, max_len), behavior_table(r2, max_len)
    tc = behavior_table(conv_rep(r1, r2), max_len)
    return all(
        tc[w] == sum((t1[u] * t2[v] for u, v in splittings(w)), Fraction(0))
        for w in r1.alphabet.words(max_len)
    )


def unequal_dims_pair() -> tuple:
    """A dim-2 and a dim-3 representation over a:L,g:G whose g matrices are
    not scalar, so the order of the Kronecker factors on g matters."""
    alph = Alphabet.from_decl("a:L,g:G")
    a, g = alph.letters

    def rep(lam, ma, mg, gamma):
        return LinRep(alph, len(lam), Matrix.row_vector(lam), {a: Matrix(ma), g: Matrix(mg)},
                      Matrix.col_vector(gamma))

    r1 = rep([1, 0], [[2, 0], [0, 1]], [[1, 1], [0, 1]], [0, 1])
    r2 = rep([1, 0, 0], [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [[1, 0, 0], [0, 2, 0], [0, 0, 3]], [1, 1, 1])
    return r1, r2


def test_conv_rep_matches_subword_formula_on_profiles():
    for decl in ("a:L,b:L", "g:G", "a:L,g:G"):
        alph = Alphabet.from_decl(decl)
        assert conv_matches_subword_formula(geometric_rep(alph, 2), geometric_rep(alph, 3), 4)
    assert conv_matches_subword_formula(*unequal_dims_pair(), 4)


def test_subword_formula_catches_swapped_kronecker_factors(monkeypatch):
    # a seeded fault: conv_rep with b (x) a in place of a (x) b on the
    # group-like letters. The geometric profiles have scalar letter
    # matrices and cannot see it; the pair of unequal dimensions does.
    scheme = rep_module.tensor_scheme

    def swapped(a, b, group_like):
        return b.kron(a) if group_like else scheme(a, b, group_like)

    monkeypatch.setattr(rep_module, "tensor_scheme", swapped)
    geo = Alphabet.from_decl("a:L,g:G")
    assert conv_matches_subword_formula(geometric_rep(geo, 2), geometric_rep(geo, 3), 4)
    assert not conv_matches_subword_formula(*unequal_dims_pair(), 3)


def test_conv_rep_indicator_shuffle(ab):
    ra = embed_finite(FiniteSupportSeries.indicator(ab.word("a")))
    rb = embed_finite(FiniteSupportSeries.indicator(ab.word("b")))
    conv = conv_rep(ra, rb)
    for w in ab.words(3):
        expected = 1 if str(w) in ("ab", "ba") else 0
        assert conv.value(w) == expected


def test_conv_rep_with_dual_unit_is_identity(mixed):
    r = geometric_rep(mixed, 2)
    e = dual_unit(mixed).rep
    for other in (conv_rep(r, e), conv_rep(e, r)):
        for w in mixed.words(4):
            assert other.value(w) == r.value(w)


def test_conv_rep_alphabet_mismatch(ab, single):
    with pytest.raises(DomainError):
        conv_rep(geometric_rep(ab, 2), geometric_rep(single, 2))


# ---------------------------------------------------------------------------
# finite embedding


def test_embed_finite_unit(ab):
    rep = embed_finite(FiniteSupportSeries.indicator(ab.unit_word()))
    assert rep.dim == 1
    for l in ab.letters:
        assert rep.mu[l] == Matrix([[0]])
    assert rep.value(ab.unit_word()) == 1


def test_embed_finite_indicator_exhaustive(ab):
    f = FiniteSupportSeries.indicator(ab.word("ab"))
    rep = embed_finite(f)
    assert rep.dim == 3  # suffix closure {1, b, ab}
    for w in ab.words(4):
        assert rep.value(w) == (1 if str(w) == "ab" else 0)


def test_embed_finite_linear_combination(ab):
    f = FiniteSupportSeries.from_text(ab, "2*a - b")
    rep = embed_finite(f)
    for w in ab.words(3):
        assert rep.value(w) == f.coeff(w)


# ---------------------------------------------------------------------------
# transposed antipode and dual counit


def test_transpose_antipode_values(single):
    geo = geometric_rep(single, 2)
    ts = transpose_antipode(geo)
    assert ts.value(single.word("aa")) == 4
    assert ts.value(single.word("a")) == -2
    assert ts.value(single.word("aaa")) == -8


def test_transpose_antipode_reverses(ab):
    c = counting_rep(ab)
    ts = transpose_antipode(c)
    for w in ab.words(4):
        sign = 1 if len(w) % 2 == 0 else -1
        assert ts.value(w) == sign * c.value(w.reverse())


def test_transpose_antipode_involution(ab):
    c = counting_rep(ab)
    twice = transpose_antipode(transpose_antipode(c))
    for w in ab.words(5):
        assert twice.value(w) == c.value(w)


def test_transpose_antipode_needs_primitive_alphabet(mixed):
    with pytest.raises(DomainError, match="no antipode"):
        transpose_antipode(geometric_rep(mixed, 2))


def test_dual_counit(single, ab):
    assert dual_counit(geometric_rep(single, 2)) == 1
    assert dual_counit(embed_finite(FiniteSupportSeries.indicator(ab.word("ab")))) == 0
    assert dual_counit(dual_unit(ab).rep) == 1


def test_dual_antipode_convolution_identity(ab):
    # sum over i of (tS g_i) * h_i equals (value at empty word) * dual unit
    from hopfwords import convolve

    e = dual_unit(ab)
    for rep in (counting_rep(ab), geometric_rep(ab, 2)):
        pairs = split(rep)
        pieces = [
            convolve(RecognizableSeries(transpose_antipode(g.rep)), h)
            for g, h in pairs
        ]
        expected_scale = dual_counit(rep)
        for w in ab.words(4):
            total = sum((piece.coeff(w) for piece in pieces), Fraction(0))
            assert total == expected_scale * e.coeff(w)


# ---------------------------------------------------------------------------
# sums, equality, serialization


def test_rep_sum_is_pointwise_sum(ab):
    r1 = counting_rep(ab)
    r2 = geometric_rep(ab, 2)
    s = rep_sum(r1, r2)
    for w in ab.words(4):
        assert s.value(w) == r1.value(w) + r2.value(w)


def test_reps_equal_decides_equality(ab):
    c = counting_rep(ab)
    model = learn(RecognizableSeries(c), 3)
    assert reps_equal(c, model)
    assert not reps_equal(c, geometric_rep(ab, 2))


def test_linrep_json_round_trip_wire_schema(ab):
    rep = LinRep.from_json_dict(json.loads(COUNTING_JSON))
    assert rep == counting_rep(ab)
    assert rep.value(ab.word("abab")) == 2
    assert json.loads(json.dumps(rep.to_json_dict())) == json.loads(COUNTING_JSON)


def test_linrep_json_rejects_malformed():
    with pytest.raises(ParseError):
        LinRep.from_json_dict({"alphabet": "a:L", "dim": 1, "lambda": ["1"]})
    bad = json.loads(COUNTING_JSON)
    bad["mu"].pop("b")
    with pytest.raises(ParseError):
        LinRep.from_json_dict(bad)
    # dim must be a JSON integer; entries must be "p" or "p/q" strings
    for field, value in [
        ("dim", True),
        ("dim", "2"),
        ("lambda", ["1e3", "0"]),
        ("lambda", ["0.5", "0"]),
        ("lambda", ["1/0", "0"]),
        ("lambda", [1, 0]),
        ("lambda", "10"),
        ("gamma", [[0.1], ["1"]]),
    ]:
        bad = json.loads(COUNTING_JSON)
        bad[field] = value
        with pytest.raises(ParseError):
            LinRep.from_json_dict(bad)


def test_linrep_is_a_matrep_but_never_equal_to_one(ab):
    c = counting_rep(ab)
    assert isinstance(c, MatRep)
    plain = MatRep(ab, c.dim, c.mu)
    assert plain.assign == c.mu
    assert plain != c and c != plain


def test_linrep_validation(ab):
    a, b = ab.find("a"), ab.find("b")
    with pytest.raises(ValueError):
        LinRep(
            ab,
            2,
            Matrix.row_vector([1]),
            {a: Matrix.identity(2), b: Matrix.identity(2)},
            Matrix.col_vector([0, 1]),
        )


# ---------------------------------------------------------------------------
# factored Hankel windows and equality by basis propagation


ALPHABETS = st.sampled_from(["a:L,b:L", "a:L,b:L,g:G"]).map(Alphabet.from_decl)


@st.composite
def linreps(draw, alphabet, max_dim=4):
    """Random LinRep of dim 1..max_dim with integer entries in -2..2."""
    n = draw(st.integers(1, max_dim))
    vec = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    lam, gamma = draw(vec), draw(vec)
    mu = {l: Matrix(draw(st.lists(vec, min_size=n, max_size=n))) for l in alphabet.letters}
    return LinRep(alphabet, n, Matrix.row_vector(lam), mu, Matrix.col_vector(gamma))


def word_window_equal(r1: LinRep, r2: LinRep) -> bool:
    """The former decision of reps_equal, kept as the reference: the values
    on every word up to length dim1 + dim2 coincide."""
    bound = r1.dim + r2.dim
    return behavior_table(r1, bound) == behavior_table(r2, bound)


def change_basis(r: LinRep, ops) -> LinRep:
    """r in the basis T = E1 E2 ... with Ek = I + c e_ij (i != j), an
    invertible integer matrix with integer inverse: lambda T, T^-1 mu T,
    T^-1 gamma recognize the same series."""
    n = r.dim

    def elementary(i, j, c):
        return Matrix([[(x == y) + (c if (x, y) == (i, j) else 0) for y in range(n)] for x in range(n)])

    t = t_inv = Matrix.identity(n)
    for i, j, c in ops:
        if i % n != j % n:
            t = t * elementary(i % n, j % n, c)
            t_inv = elementary(i % n, j % n, -c) * t_inv
    mu = {l: t_inv * m * t for l, m in r.mu.items()}
    return LinRep(r.alphabet, n, r.lam * t, mu, t_inv * r.gamma)


basis_ops = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)), max_size=4
)


@given(st.data(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_factored_hankel_equals_oracle_path(data, p, s):
    alph = data.draw(ALPHABETS)
    r = data.draw(linreps(alph))
    factored = hankel(RecognizableSeries(r), p, s)
    assert factored == hankel(r.value, p, s, alphabet=alph)
    assert hankel_rank(RecognizableSeries(r), p, s) == hankel_rank(r.value, p, s, alphabet=alph)


@pytest.mark.parametrize("p,s", [(0, 0), (0, 3), (3, 0)])
def test_factored_hankel_degenerate_windows(mixed, p, s):
    r = conv_rep(counting_rep(mixed), geometric_rep(mixed, 2))
    assert hankel(RecognizableSeries(r), p, s) == hankel(r.value, p, s, alphabet=mixed)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_reps_equal_agrees_with_word_window_on_random_pairs(data):
    alph = data.draw(ALPHABETS)
    r1 = data.draw(linreps(alph, max_dim=3))
    r2 = data.draw(linreps(alph, max_dim=3))
    assert reps_equal(r1, r2) == word_window_equal(r1, r2)


@given(st.data(), basis_ops)
@settings(max_examples=40, deadline=None)
def test_reps_equal_on_pairs_equal_by_construction(data, ops):
    alph = data.draw(ALPHABETS)
    r = data.draw(linreps(alph, max_dim=2))
    for twin in (
        change_basis(r, ops),
        rep_sum(r, zero_rep(alph)),
        conv_rep(r, dual_unit(alph).rep),
    ):
        assert reps_equal(r, twin) and word_window_equal(r, twin)
        # a nonzero multiple of the series differs wherever it is nonzero
        tripled = scale_rep(twin, 3)
        assert reps_equal(r, tripled) == word_window_equal(r, tripled)


@pytest.mark.parametrize("k", range(1, 7))
def test_reps_equal_finds_a_difference_at_the_longest_word(single, k):
    # sum of a^i over i < k has k suffix states; against the constant series
    # 1 (one state) the first difference is at a^k, of length dim1 + dim2 - 1
    truncated = embed_finite(
        FiniteSupportSeries.from_text(single, " + ".join("a" * i or "1" for i in range(k)))
    )
    constant = geometric_rep(single, 1)
    assert truncated.dim == k
    assert not reps_equal(constant, truncated)
    assert not word_window_equal(constant, truncated)
    assert behavior_table(constant, k - 1) == behavior_table(truncated, k - 1)


@pytest.mark.parametrize("text", ["ab", "bab", "abba"])
def test_reps_equal_on_indicators_of_long_words(ab, text):
    # the indicator of a word of length k has k + 1 suffix states
    w = ab.word(text)
    flipped = ab.word(text[:-1] + ("a" if text[-1] == "b" else "b"))
    ind = embed_finite(FiniteSupportSeries.indicator(w))
    other = embed_finite(FiniteSupportSeries.indicator(flipped))
    for r1, r2, expected in [(ind, zero_rep(ab), False), (ind, other, False), (ind, ind, True)]:
        assert reps_equal(r1, r2) == expected == word_window_equal(r1, r2)
    # too large for the word window (2^20 words): checked against the sum
    both = embed_finite(FiniteSupportSeries.from_text(ab, f"{w} + {flipped}"))
    assert reps_equal(rep_sum(ind, other), both)
    assert not reps_equal(rep_sum(ind, ind), both)


def test_recognizable_hankel_and_learn_never_evaluate_words(ab, monkeypatch):
    c = counting_rep(ab)
    f = RecognizableSeries(c)
    window = hankel(c.value, 3, 2, alphabet=ab)

    def refuse(self, w):
        raise AssertionError("LinRep.value called")

    monkeypatch.setattr(LinRep, "value", refuse)
    assert hankel(f, 3, 2) == window
    assert hankel_rank(f, 4, 4) == 2
    model = learn(f, 3)
    monkeypatch.undo()
    assert model.dim == 2 and reps_equal(model, c)


def test_reps_equal_never_enumerates_words(ab, monkeypatch):
    def refuse(rep, max_len):
        raise AssertionError("behavior_table called")

    monkeypatch.setattr(sweedler, "behavior_table", refuse)
    c = counting_rep(ab)
    assert reps_equal(c, learn(RecognizableSeries(c), 3))
    assert not reps_equal(c, geometric_rep(ab, 2))


def test_reps_equal_dim_8_plus_8_is_fast(ab):
    rng = random.Random(8)
    r = LinRep(
        ab,
        8,
        Matrix.row_vector([rng.randint(-1, 1) for _ in range(8)]),
        {l: Matrix([[rng.randint(-1, 1) for _ in range(8)] for _ in range(8)]) for l in ab.letters},
        Matrix.col_vector([rng.randint(-1, 1) for _ in range(8)]),
    )
    twin = change_basis(r, [(i, (i + 3) % 8, rng.choice((-2, -1, 1, 2))) for i in range(16)])
    t0 = time.perf_counter()
    assert reps_equal(r, twin)
    assert not reps_equal(r, scale_rep(twin, 2))
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"dim 8+8 reps_equal took {elapsed:.2f}s"


def test_hankel_rank_of_a_finite_window_of_mostly_zero_rows_is_fast(ab):
    # 237 of the 2,047 rows of the (10, 10) window of 40 words of length 12
    # are prefixes of a support word; every other row is zero
    text = (FIXTURES / "words40.txt").read_text().strip()
    f = FiniteSupportSeries.from_text(ab, text)
    t0 = time.perf_counter()
    assert hankel_rank(f, 10, 10) == 132
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"(10, 10) window of a 40-word support took {elapsed:.2f}s"


@given(finite_supports, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_finite_support_hankel_equals_oracle_path(ab_terms, p, s):
    ab = Alphabet.from_decl("a:L,b:L")
    f = FiniteSupportSeries(NCPoly(ab, {ab.word(w): c for w, c in ab_terms.items()}))
    window = hankel(f, p, s)
    assert window == hankel(f.coeff, p, s, alphabet=ab)
    assert hankel_rank(f, p, s) == hankel_rank(f.coeff, p, s, alphabet=ab)


def test_finite_support_hankel_asks_no_coefficient(ab, monkeypatch):
    f = FiniteSupportSeries.from_text(ab, "2*ab - 1/3*bba + a")
    calls = []
    coeff = FiniteSupportSeries.coeff

    def counting(self, w):
        calls.append(w)
        return coeff(self, w)

    monkeypatch.setattr(FiniteSupportSeries, "coeff", counting)
    assert hankel_rank(f, 4, 4) == 5
    # the window is filled from the support words, not entry by entry
    assert calls == []


def test_finite_support_hankel_of_a_large_support_and_a_small_window(ab):
    # 4,000 words of length 14 have tens of thousands of distinct suffixes;
    # a 7 x 7 window costs the support's length, not that many states
    rng = random.Random(5)
    words = {"".join(rng.choice("ab") for _ in range(14)) for _ in range(4000)}
    f = FiniteSupportSeries(NCPoly(ab, {ab.word(w): Fraction(1, 1 + len(w) % 3) for w in words}))
    t0 = time.perf_counter()
    window = hankel(f, 2, 2)
    elapsed = time.perf_counter() - t0
    assert window.entries == Matrix.zeros(7, 7)
    assert elapsed < 1.0, f"7 x 7 window of a 4,000-word support took {elapsed:.2f}s"
    short = FiniteSupportSeries(f.poly + NCPoly.from_text(ab, "1/2*abab + 3*b"))
    assert hankel(short, 2, 2) == hankel(short.coeff, 2, 2, alphabet=ab)


def test_kernels_do_no_fraction_arithmetic(ab, monkeypatch):
    """learn, hankel_rank and reps_equal run on integers: Fractions are only
    built at the edge, never added, subtracted, multiplied or divided, and
    learn builds none, also when it checks its model against the automaton
    of a support longer than its window."""
    rows = {"a": [[-1, 0, 0, 0], [1, 0, -1, -1], [0, -1, 0, 0], [1, -1, 1, 0]],
            "b": [[0, 1, -1, 1], [-1, 0, -1, -1], [-1, 1, 1, -1], [0, 1, -1, 0]]}
    rep = LinRep(
        ab,
        4,
        Matrix.row_vector([-1, 1, -1, 0]),
        {l: Matrix(rows[l.symbol]) for l in ab.letters},
        Matrix.col_vector([1, -1, 1, -1]),
    )
    f = RecognizableSeries(rep)

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic in an integer kernel")

    def refuse_new(cls, *args, **kwargs):
        raise AssertionError("Fraction built by learn")

    long = FiniteSupportSeries(NCPoly.from_text(ab, "1/2*abab + aa - 2/3*bb"))
    assert not sweedler._window_holds_support(long, 2)
    with monkeypatch.context() as m:
        m.setattr(Fraction, "__new__", refuse_new)
        model = learn(f, 3)
        long_model = learn(long, 2)
    assert model.dim == 4 and long_model.dim == 5
    assert reps_equal(long_model, embed_finite(long))
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, op, refuse)
    assert learn(f, 3) == model
    assert hankel_rank(f, 4, 4) == 4
    assert reps_equal(model, rep)
    assert not reps_equal(model, scale_rep(rep, 2))
    with pytest.raises(AssertionError):
        Fraction(1, 2) + Fraction(1, 3)


# ---------------------------------------------------------------------------
# rank and learning on a spanning set of suffix columns


SPANNING_ALPHABETS = st.sampled_from(["a:L,g:G", "a:L,b:L", "a:L,b:L,g:G"]).map(Alphabet.from_decl)
RATIONALS = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def spanning_operands(draw):
    """(alphabet, series, its representation): a rep of dim 1..6 with
    rational entries, sometimes gamma = 0, sometimes the non-minimal sum of
    a rep with itself; or a finite support of words up to length 5."""
    alph = draw(SPANNING_ALPHABETS)
    if draw(st.booleans()):
        symbols = "".join(l.symbol for l in alph.letters)
        terms = draw(st.dictionaries(
            st.text(symbols, max_size=5),
            st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3)),
            max_size=4,
        ))
        f = FiniteSupportSeries(NCPoly(alph, {alph.word(w): c for w, c in terms.items()}))
        return alph, f, embed_finite(f)
    n = draw(st.integers(1, 6))
    vec = st.lists(RATIONALS, min_size=n, max_size=n)
    lam = draw(vec)
    gamma = draw(st.one_of(vec, st.just([0] * n)))
    mu = {l: Matrix(draw(st.lists(vec, min_size=n, max_size=n))) for l in alph.letters}
    r = LinRep(alph, n, Matrix.row_vector(lam), mu, Matrix.col_vector(gamma))
    if n <= 3 and draw(st.booleans()):
        r = rep_sum(r, r)
    return alph, RecognizableSeries(r), r


def _learn_outcome(*args, **kwargs):
    try:
        return learn(*args, **kwargs), None
    except InconclusiveError as err:
        return None, err


@given(spanning_operands(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_spanning_columns_agree_with_the_whole_window(operand, p, s, explore):
    """hankel_rank and learn of a Series, which keep a spanning set of suffix
    columns, against the bare-oracle path, which fills every column."""
    alph, f, rep = operand
    oracle = functools.lru_cache(maxsize=None)(f.coeff)
    assert hankel_rank(f, p, s) == hankel_rank(oracle, p, s, alphabet=alph)
    expected, expected_err = _learn_outcome(oracle, explore, alphabet=alph)
    got, got_err = _learn_outcome(f, explore)
    if got_err is not None:
        # the two window ranks, taken from the whole windows
        assert got_err.r_small == hankel_rank(oracle, explore, explore, alphabet=alph)
        assert got_err.r_big == hankel_rank(oracle, explore + 1, explore + 1, alphabet=alph)
    if expected_err is not None:
        assert got_err is not None and str(got_err) == str(expected_err)
        assert (got_err.r_small, got_err.r_big, got_err.explore) == (
            expected_err.r_small, expected_err.r_big, expected_err.explore)
    elif got_err is None:
        assert got == expected and got.to_json_dict() == expected.to_json_dict()
    else:
        # the operand refutes the window's model, which the oracle returns
        assert "differs from the operand" in str(got_err)
        assert got_err.r_small == got_err.r_big and got_err.explore == explore
        assert not reps_equal(expected, rep)


@pytest.mark.parametrize("text", ["aaaa", "a + aaaaaaaaa", "ab + babab", "1 + aaaaaa"])
def test_spanning_columns_of_a_support_longer_than_the_window(ab, text):
    """Supports with suffix columns of length explore + 1, which must stay
    out of the small window: the same ranks and models as the oracle path
    wherever no check runs, and the same ranks where one does."""
    f = FiniteSupportSeries.from_text(ab, text)
    ranks = [hankel_rank(f.coeff, k, k, alphabet=ab) for k in range(6)]
    assert [hankel_rank(f, k, k) for k in range(6)] == ranks
    for explore in range(5):
        expected, expected_err = _learn_outcome(f.coeff, explore, alphabet=ab)
        got, got_err = _learn_outcome(f, explore)
        if got_err is None:
            assert expected_err is None and got == expected
        else:
            assert (got_err.r_small, got_err.r_big) == (ranks[explore], ranks[explore + 1])


# ---------------------------------------------------------------------------
# rank and learning of a representation from its two basis walks


@st.composite
def hidden_state_reps(draw):
    """A rep of dim 1..6 with rational entries over an alphabet that may
    hold a group-like letter: a core of dim m and k more states that lambda
    and the core never reach (unreachable) or that never feed gamma or the
    core (unobservable), the states shuffled; sometimes lambda = 0 or
    gamma = 0."""
    alph = draw(SPANNING_ALPHABETS)
    m = draw(st.integers(1, 6))
    k = draw(st.integers(0, 6 - m))
    n, hidden = m + k, draw(st.sampled_from(["unreachable", "unobservable"]))
    vec = st.lists(RATIONALS, min_size=n, max_size=n)
    lam, gamma = draw(vec), draw(vec)
    mats = {l: draw(st.lists(vec, min_size=n, max_size=n)) for l in alph.letters}
    for i in range(n):
        for j in range(n):
            # unreachable: no transition from the core into a hidden state;
            # unobservable: none from a hidden state into the core
            if (i < m <= j) if hidden == "unreachable" else (j < m <= i):
                for rows in mats.values():
                    rows[i][j] = 0
    for i in range(m, n):
        (lam if hidden == "unreachable" else gamma)[i] = 0
    zero = draw(st.sampled_from([None, None, None, "lambda", "gamma"]))
    lam, gamma = ([0] * n if zero == "lambda" else lam), ([0] * n if zero == "gamma" else gamma)
    perm = draw(st.permutations(range(n)))
    mu = {l: Matrix([[rows[i][j] for j in perm] for i in perm]) for l, rows in mats.items()}
    return LinRep(alph, n, Matrix.row_vector([lam[i] for i in perm]), mu, Matrix.col_vector([gamma[i] for i in perm]))


@given(hidden_state_reps(), st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_rank_and_learn_of_a_representation_agree_with_the_whole_window(rep, p, s, explore):
    """hankel_rank against the rank of the whole window that hankel builds,
    and learn against the bare-oracle path on every row and column."""
    f = RecognizableSeries(rep)
    assert hankel_rank(f, p, s) == rank(hankel(f, p, s).entries)
    _check_learn_against_the_oracle(rep, explore)


def _check_learn_against_the_oracle(rep: LinRep, explore: int):
    table = behavior_table(rep, 2 * explore + 2)
    expected, expected_err = _learn_outcome(table.__getitem__, explore, alphabet=rep.alphabet)
    got, got_err = _learn_outcome(RecognizableSeries(rep), explore)
    if expected_err is not None:
        assert got_err is not None and str(got_err) == str(expected_err)
        assert (got_err.r_small, got_err.r_big, got_err.explore) == (
            expected_err.r_small, expected_err.r_big, expected_err.explore)
    elif got_err is None:
        assert got == expected and got.to_json_dict() == expected.to_json_dict()
    else:
        # learn's reps_equal check refutes the window's model
        assert "differs from the operand" in str(got_err)
        window = hankel(RecognizableSeries(rep), explore + 1, explore + 1)
        assert got_err.r_small == got_err.r_big == rank(window.entries)
        assert not reps_equal(expected, rep)
    return got_err


def test_learn_of_a_representation_refuses_the_oracles_model(ab):
    """The (1, 1) window of the indicator of aaa is zero, as is the
    oracle's model; the automaton of dim 4 refutes it."""
    err = _check_learn_against_the_oracle(embed_finite(FiniteSupportSeries.indicator(ab.word("aaa"))), 0)
    assert "differs from the operand" in str(err)


def counting_with_a_hidden_state(ab, hidden: str) -> LinRep:
    """counting_rep with a third state: one lambda never reaches, or one
    that never feeds gamma. The series is still the count of a's."""
    if hidden == "unreachable":
        a, lam, gamma = [[1, 1, 0], [0, 1, 0], [1, 0, 2]], [1, 0, 0], [0, 1, 1]
    else:
        a, lam, gamma = [[1, 1, 1], [0, 1, 0], [0, 0, 2]], [1, 0, 1], [0, 1, 0]
    mu = {l: Matrix(a) if l.symbol == "a" else Matrix.identity(3) for l in ab.letters}
    return LinRep(ab, 3, Matrix.row_vector(lam), mu, Matrix.col_vector(gamma))


def _kept(walk) -> int:
    return sum(1 for _, _, k in walk if k)


@pytest.mark.parametrize("hidden, kept_rows, kept_cols", [("unreachable", 2, 3), ("unobservable", 3, 2)])
def test_learn_of_a_representation_whose_columns_do_or_do_not_span(ab, hidden, kept_rows, kept_cols):
    """With an unreachable state the kept columns span Q^3 and the walk's
    basis is the window's; with an unobservable one they span a plane, and
    the window's basis is the two walk-basis rows independent on it."""
    rep = counting_with_a_hidden_state(ab, hidden)
    f = RecognizableSeries(rep)
    assert _kept(sweedler._walk(rep.lam, dualforms._tables(rep), 4, _Span(3))) == kept_rows
    assert _kept(sweedler._column_walk(rep, 4, _Span(3))) == kept_cols
    assert reps_equal(rep, counting_rep(ab))
    model = learn(RecognizableSeries(counting_rep(ab)), 3)
    assert learn(f, 3) == model == learn(f.coeff, 3, alphabet=ab)
    assert model.dim == hankel_rank(f, 4, 4) == 2
    assert [hankel_rank(f, k, 4) for k in range(3)] == [1, 2, 2]


def test_learn_and_rank_of_a_representation_build_no_window(ab, monkeypatch):
    def refuse(*args):
        raise AssertionError("a representation's Hankel window was built")

    reps = [counting_rep(ab), counting_with_a_hidden_state(ab, "unreachable"),
            counting_with_a_hidden_state(ab, "unobservable"), rep_sum(counting_rep(ab), counting_rep(ab)),
            LinRep(ab, 2, counting_rep(ab).lam, counting_rep(ab).mu, Matrix.col_vector([0, 0]))]
    models = [learn(RecognizableSeries(r), 3) for r in reps]
    ranks = [rank(hankel(RecognizableSeries(r), 4, 4).entries) for r in reps]
    monkeypatch.setattr(sweedler, "_rep_window", refuse)
    assert [learn(RecognizableSeries(r), 3) for r in reps] == models
    assert [hankel_rank(RecognizableSeries(r), 4, 4) for r in reps] == ranks == [2, 2, 2, 2, 0]
    with pytest.raises(AssertionError, match="window was built"):
        hankel(RecognizableSeries(reps[0]), 1, 1)


def test_learn_and_rank_of_a_representation_build_no_matrix_wider_than_its_dim(ab, monkeypatch):
    """A window of a dim-n representation keeps at most n suffix columns:
    no Matrix built has more than rows x n entries, where the whole window
    of learn(counting, 9) has 2047 x 2047."""
    c = RecognizableSeries(counting_rep(ab))
    sizes = []
    init, from_ints = Matrix.__init__, Matrix._from_ints.__func__

    def sized_init(self, rows):
        init(self, rows)
        sizes.append(sum(map(len, self.num)))

    def sized_from_ints(cls, num, den=1):
        m = from_ints(cls, num, den)
        sizes.append(sum(map(len, m.num)))
        return m

    monkeypatch.setattr(Matrix, "__init__", sized_init)
    monkeypatch.setattr(Matrix, "_from_ints", classmethod(sized_from_ints))
    assert learn(c, 9).dim == 2
    assert max(sizes) <= len(list(ab.words(10))) * 2
    sizes.clear()
    assert hankel_rank(c, 9, 9) == 2
    assert max(sizes) <= len(list(ab.words(9))) * 2


def test_learn_checks_a_finite_support_longer_than_its_window(ab, monkeypatch):
    f = FiniteSupportSeries.from_text(ab, "a + aaaaaaaaa")
    # the (4, 4) window misses f(aaaaaaaaa) and agrees on rank 2 with (3, 3)
    with pytest.raises(InconclusiveError, match="differs from the operand") as info:
        learn(f, 3)
    err = info.value
    assert (err.r_small, err.r_big, err.explore) == (2, 2, 3)
    assert str(err) == (
        "learned model of dim 2 differs from the operand; raise the exploration length"
    )
    # a zero window is checked too
    with pytest.raises(InconclusiveError, match="differs from the operand"):
        learn(FiniteSupportSeries.from_text(ab, "aaaa"), 0)
    # a window that holds every support word certifies its model unchecked

    def refuse(r1, r2):
        raise AssertionError("reps_equal called")

    model = learn(f, 9)
    monkeypatch.setattr(dualforms, "reps_equal", refuse)
    assert learn(f, 9) == model and model.dim == 10
    assert learn(FiniteSupportSeries.from_text(ab, "2*ab - b + aaaa"), 3).dim == 5
    # positive control: the patch intercepts a learn that must check its model
    with pytest.raises(AssertionError, match="reps_equal called"):
        learn(FiniteSupportSeries.from_text(ab, "aaaa"), 0)
    monkeypatch.undo()
    assert reps_equal(model, embed_finite(f))


# ---------------------------------------------------------------------------
# the basis walk


def _transposed(rep: LinRep) -> LinRep:
    """(gamma^T, mu(a)^T, lambda^T): its rows are the columns of rep, on the
    reversed words."""
    mu = {a: m.transpose() for a, m in rep.mu.items()}
    return LinRep(rep.alphabet, rep.dim, rep.gamma.transpose(), mu, rep.lam.transpose())


def _reference_rows(rep: LinRep, max_len: int):
    """(w, lambda*mu(w)) for every word w up to max_len in shortlex order,
    each row its own product of letter matrices."""
    return [(w.symbols(), rep.lam * eval_word(rep, w)) for w in rep.alphabet.words(max_len)]


def _greedy_rows(rep: LinRep, max_len: int):
    """The reference rows that a greedy pass over every word keeps."""
    reducer = RowReducer(rep.dim)
    return [(w, row) for w, row in _reference_rows(rep, max_len) if reducer.offer(row.num[0])]


class _CountedReads(dict):
    """A letter-matrix map that counts its reads: the walk reads each letter's
    matrix once, on its first extension."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def _check_walk(rep: LinRep, max_len: int):
    mu = _CountedReads(rep.mu)
    letters = rep.alphabet.sorted_letters
    tables = dualforms._tables(SimpleNamespace(alphabet=rep.alphabet, mu=mu))
    walk = list(sweedler._walk(rep.lam, tables, max_len, RowReducer(rep.dim)))
    kept = [(w, row) for w, row, k in walk if k]
    assert kept == _greedy_rows(rep, max_len)
    # only the rows kept are extended
    assert mu.reads <= len(kept) * len(letters) <= rep.dim * len(letters)
    # it yields every row it computes, each the reference row of its word:
    # the empty word, then the kept words' one-letter extensions, shortlex
    reference = dict(_reference_rows(rep, max_len))
    assert all(row == reference[w] for w, row, _ in walk)
    extended = {w + a.symbol for w, _ in kept if len(w) < max_len for a in letters}
    assert [w for w, _, _ in walk] == [w for w in reference if w in extended or not w]
    for l in range(max_len + 1):
        every = Matrix([row.rows[0] for w, row in reference.items() if len(w) <= l])
        assert sum(1 for w, _ in kept if len(w) <= l) == rank(every)


@given(spanning_operands(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_basis_walk_keeps_the_greedy_shortlex_basis(operand, max_len):
    """Forward from lambda and, for the columns, from gamma^T on the
    transposed representation: the walk keeps exactly the words a greedy
    pass over every row keeps, and for every l its rows of length <= l have
    the rank of all rows of length <= l."""
    _, _, rep = operand
    _check_walk(rep, max_len)
    _check_walk(_transposed(rep), max_len)


def test_basis_walk_from_zero_and_of_a_doubled_rep(ab):
    c = counting_rep(ab)
    zero_gamma = LinRep(ab, 2, c.lam, c.mu, Matrix.col_vector([0, 0]))
    for rep in (c, zero_gamma, rep_sum(c, c), rep_sum(zero_gamma, zero_gamma)):
        for max_len in range(5):
            _check_walk(rep, max_len)
            _check_walk(_transposed(rep), max_len)
    # a zero start is yielded unkept and never extended
    walk = sweedler._walk(zero_gamma.gamma.transpose(), dualforms._tables(c), None, RowReducer(2))
    assert [(w, k) for w, _, k in walk] == [("", False)]
    # gamma = 0 keeps no column, and lambda = 0 no row: rank 0, the zero model
    zero_lam = LinRep(ab, 2, Matrix.row_vector([0, 0]), c.mu, c.gamma)
    for rep in (zero_gamma, zero_lam):
        assert hankel_rank(RecognizableSeries(rep), 2, 2) == 0
        assert learn(RecognizableSeries(rep), 2) == zero_rep(ab)


@given(spanning_operands(), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_unreduced_walk_yields_every_word_in_shortlex_order(operand, max_len):
    """Without a reducer the walk keeps and yields every row up to max_len,
    and the column walk every column mu(v)*gamma, transposed."""
    _, _, rep = operand
    walk = sweedler._walk(rep.lam, dualforms._tables(rep), max_len)
    assert [(w, row, k) for w, row, k in walk] == [(w, row, True) for w, row in _reference_rows(rep, max_len)]
    columns = {v: (row, k) for v, row, k in sweedler._column_walk(rep, max_len)}
    assert columns == {
        w.symbols(): ((eval_word(rep, w) * rep.gamma).transpose(), True)
        for w in rep.alphabet.words(max_len)
    }


def test_rank_and_learn_of_a_representation_cost_at_most_two_dim_letters_plus_one_products(ab, monkeypatch):
    """Rows and columns are both walked with a reducer: at most dim*|A|
    products each, plus the window product, however long the words; every
    prefix row up to length 13 alone is 16,382 products."""
    c = RecognizableSeries(counting_rep(ab))
    bound = 2 * c.rep.dim * len(ab.letters) + 1
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert learn(c, 12).dim == 2
    assert len(calls) <= bound
    calls.clear()
    assert hankel_rank(c, 12, 12) == 2
    assert len(calls) <= bound


def test_spanning_columns_of_a_representation_cost_at_most_dim_letters_plus_one_products(ab, monkeypatch):
    """hankel_rank on a dim-2 rep walks at most dim*|A| + 1 column vectors,
    however long its suffixes; every column up to length 12 is 8,190
    products."""
    c = RecognizableSeries(counting_rep(ab))
    calls = []
    mul = Matrix.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert hankel_rank(c, 1, 12) == 2
    # the prefix rows of length <= 1 take one product a letter, the window one
    row_products, window_product = len(ab.letters), 1
    assert len(calls) - row_products - window_product <= c.rep.dim * len(ab.letters) + 1


# ---------------------------------------------------------------------------
# the sparse walk against a dense one


def _dense_walk(start, mu, letters, max_len, reducer=None):
    """The walk with one dense product row * mu[a] per extension: the
    reference for the sparse walk."""
    pending = deque([("", start)])
    while pending:
        w, row = pending.popleft()
        kept = reducer is None or (reducer.rank < reducer.width and reducer.offer(row.num[0]))
        yield w, row, kept
        if kept and (max_len is None or len(w) < max_len):
            pending.extend((w + a.symbol, row * mu[a]) for a in letters)


@st.composite
def walk_operands(draw):
    """A representation from spanning_operands, the automaton of a random
    finite support of words up to length 7, or the sum or convolution of
    two random reps of dim <= 3."""
    kind = draw(st.sampled_from(["spanning", "finite", "sum", "conv"]))
    if kind == "spanning":
        return draw(spanning_operands())[2]
    alph = draw(SPANNING_ALPHABETS)
    if kind == "finite":
        symbols = "".join(l.symbol for l in alph.letters)
        terms = draw(st.dictionaries(st.text(symbols, max_size=7), RATIONALS.filter(bool), max_size=6))
        return embed_finite(FiniteSupportSeries(NCPoly(alph, {alph.word(w): c for w, c in terms.items()})))
    r1, r2 = draw(linreps(alph, max_dim=3)), draw(linreps(alph, max_dim=3))
    return rep_sum(r1, r2) if kind == "sum" else conv_rep(r1, r2)


@given(walk_operands(), st.integers(0, 4))
@settings(max_examples=80, deadline=None)
def test_sparse_walk_yields_the_triples_of_the_dense_walk(rep, max_len):
    """Rows and columns, unreduced up to max_len, and reduced up to max_len
    and unbounded, with a _Span and with a RowReducer: the same words, the
    same Matrix rows and the same kept flags."""
    letters = rep.alphabet.sorted_letters
    for r in (rep, _transposed(rep)):
        assert list(sweedler._walk(r.lam, dualforms._tables(r), max_len)) == list(
            _dense_walk(r.lam, r.mu, letters, max_len)
        )
        for bound in (max_len, None):
            expected = list(_dense_walk(r.lam, r.mu, letters, bound, RowReducer(r.dim)))
            for reducer in (_Span(r.dim), RowReducer(r.dim)):
                assert list(sweedler._walk(r.lam, dualforms._tables(r), bound, reducer)) == expected


def test_reps_equal_of_a_400_state_automaton_is_fast(ab):
    """The automaton of a finite support has one nonzero per state and
    letter, so reps_equal pays for nonzeros, not for dense products: each
    call took about 9 s with dense products at this size."""
    rng = random.Random(2)
    words = sorted({"".join(rng.choice("ab") for _ in range(12)) for _ in range(54)})
    e = embed_finite(FiniteSupportSeries(NCPoly(ab, {ab.word(w): 1 for w in words})))
    fewer = embed_finite(FiniteSupportSeries(NCPoly(ab, {ab.word(w): 1 for w in words[1:]})))
    assert e.dim == 404
    for other, expected in ((e, True), (fewer, False)):
        t0 = time.perf_counter()
        assert reps_equal(e, other) is expected
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"reps_equal of a {e.dim}-state automaton took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# walks on the operands' own letter matrices


def reps_equal_over_rep_sum(r1: LinRep, r2: LinRep) -> bool:
    """The former reps_equal, kept as the reference: the basis walk of the
    sum representation r1 - r2, built by rep_sum and scale_rep."""
    d = rep_sum(r1, scale_rep(r2, -1))
    walk = sweedler._walk(d.lam, dualforms._tables(d), None, _Span(d.dim))
    gamma = [r[0] for r in d.gamma.num]
    return not any(sum(map(mul, row.num[0], gamma)) for _, row, kept in walk if kept)


@st.composite
def unlike_denominator_reps(draw, alphabet, max_dim=4):
    """A LinRep of dim 1..max_dim with numerators in -2..2 over a
    denominator drawn apart for lambda, for each mu(a) and for gamma."""
    n = draw(st.integers(1, max_dim))

    def entries(count):
        den = draw(st.integers(1, 6))
        return [Fraction(x, den) for x in draw(st.lists(st.integers(-2, 2), min_size=count, max_size=count))]

    mu = {l: Matrix([entries(n) for _ in range(n)]) for l in alphabet.letters}
    return LinRep(alphabet, n, Matrix.row_vector(entries(n)), mu, Matrix.col_vector(entries(n)))


def _rescaled(r: LinRep, c: Fraction) -> LinRep:
    """The same series: lambda times c, gamma over c."""
    return LinRep(r.alphabet, r.dim, r.lam.scale(c), r.mu, r.gamma.scale(1 / c))


@given(st.data(), st.sampled_from([Fraction(1), Fraction(3), Fraction(-2, 5)]))
@settings(max_examples=80, deadline=None)
def test_reps_equal_agrees_with_the_walk_over_rep_sum(data, c):
    """Operands of unlike dims and unlike lambda, mu and gamma denominators,
    over alphabets with and without a group-like letter: the side-by-side
    walk decides as the walk of the sum representation, whose letter tables
    it reads block by block."""
    alph = data.draw(ALPHABETS)
    r1 = data.draw(unlike_denominator_reps(alph))
    r2 = data.draw(st.one_of(
        unlike_denominator_reps(alph),
        st.just(_rescaled(r1, c)),
        st.just(rep_sum(_rescaled(r1, c), zero_rep(alph))),
        basis_ops.map(lambda ops: change_basis(r1, ops)),
    ))
    assert reps_equal(r1, r2) == reps_equal_over_rep_sum(r1, r2) == word_window_equal(r1, r2)
    for columns in (False, True):
        assert list(dualforms._tables(r1, r2, columns=columns)) == list(
            dualforms._tables(rep_sum(r1, r2), columns=columns)
        )
    other = Alphabet.from_decl("a:L,c:L")
    with pytest.raises(DomainError):
        reps_equal(r1, geometric_rep(other, 2))


def test_reps_equal_aligns_unlike_denominators_with_no_fraction_arithmetic(ab, monkeypatch):
    """lambda, mu and gamma over unlike denominators in each operand and
    across them: aligned on integers, with no Fraction added, subtracted,
    multiplied or divided."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    r1 = LinRep(
        ab,
        2,
        Matrix.row_vector([third, 1]),
        {l: Matrix([[half, 0], [Fraction(1, 5), 1]]) if l.symbol == "a" else Matrix([[1, third], [0, 2]])
         for l in ab.letters},
        Matrix.col_vector([Fraction(3, 7), 1]),
    )
    twin = change_basis(_rescaled(r1, Fraction(-6, 5)), [(0, 1, 2), (1, 0, -1)])
    other = _rescaled(r1, Fraction(2, 3))
    other = LinRep(ab, 2, other.lam, other.mu, other.gamma.scale(2))
    bigger = rep_sum(twin, zero_rep(ab))
    expected = [reps_equal_over_rep_sum(r1, r) for r in (twin, other, bigger)]
    assert expected == [True, False, True]

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic in reps_equal")

    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Fraction, op, refuse)
    assert [reps_equal(r1, r) for r in (twin, other, bigger)] == expected
    assert reps_equal(bigger, r1) and not reps_equal(other, bigger)


@given(walk_operands(), st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_column_walk_yields_the_walk_of_the_transposed_rep(rep, max_len):
    """The columns read off each mu(a) in place are the rows of the
    transposed representation: the same triples, with each word reversed,
    for no reducer, a _Span and a RowReducer, bounded and unbounded."""
    t = _transposed(rep)

    def transposed_walk(bound, reducer):
        return [(w[::-1], row, k) for w, row, k in sweedler._walk(t.lam, dualforms._tables(t), bound, reducer)]

    assert list(sweedler._column_walk(rep, max_len)) == transposed_walk(max_len, None)
    for bound in (max_len, None):
        for reducer in (_Span, RowReducer):
            assert list(sweedler._column_walk(rep, bound, reducer(rep.dim))) == transposed_walk(
                bound, reducer(rep.dim)
            )


def _model_from_reducer_coordinates(f, explore: int) -> LinRep:
    """learn's model with every coordinate row, the basis words' included,
    solved by the reducer: the reference for learn's unit basis rows. A
    representation is read off its walks, anything else off its window."""
    alph = f.alphabet
    if isinstance(f, RecognizableSeries):
        _, basis, coords, gamma = sweedler._walk_model(f.rep, explore)
    else:
        window = sweedler._spanning_window(f, explore + 1, explore + 1, None)
        rows = dict(zip([w.symbols() for w in window.rows], window.entries.num))
        reducer = RowReducer(len(window.cols))
        basis = [w for w, row in rows.items() if any(row) and reducer.offer(row)]
        coords = lambda w: reducer.coordinates(rows.get(w, (0,) * len(window.cols)))
        gamma = lambda: Matrix._from_ints(tuple([(rows[w][0],) for w in basis]), window.entries.den)
    if not basis:
        return zero_rep(alph)
    mu = {a: _stacked([coords(w + a.symbol) for w in basis]) for a in alph.letters}
    return LinRep(alph, len(basis), coords(""), mu, gamma())


@given(
    st.one_of(spanning_operands().map(lambda o: o[1]), hidden_state_reps().map(RecognizableSeries)),
    st.integers(0, 3),
)
@settings(max_examples=80, deadline=None)
def test_learn_with_unit_basis_rows_equals_the_model_from_reducer_coordinates(f, explore):
    """Full walks, projected walks (hidden states) and finite-support
    windows: basis word i has the unit row e_i as its coordinates."""
    model, err = _learn_outcome(f, explore)
    if err is None:
        assert model == _model_from_reducer_coordinates(f, explore)


@given(finite_supports, st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_learn_of_a_finite_support_uses_unit_basis_rows(ab_terms, extra):
    """The window path: explore at least the longest support word puts every
    nonzero Hankel entry in the small window, so learn returns a model."""
    ab = Alphabet.from_decl("a:L,b:L")
    f = FiniteSupportSeries(NCPoly(ab, {ab.word(w): c for w, c in ab_terms.items()}))
    explore = max(map(len, ab_terms), default=0) + extra
    assert learn(f, explore) == _model_from_reducer_coordinates(f, explore)


@pytest.mark.parametrize("hidden", ["unreachable", "unobservable"])
def test_learn_of_a_hidden_state_rep_uses_unit_basis_rows(ab, hidden):
    # unobservable: the kept columns span a plane, so the walk is projected
    f = RecognizableSeries(counting_with_a_hidden_state(ab, hidden))
    assert learn(f, 3) == _model_from_reducer_coordinates(f, 3) == learn(RecognizableSeries(counting_rep(ab)), 3)


def test_learn_solves_only_the_extensions_outside_its_basis(ab, monkeypatch):
    """A dim-4 model over two letters has 1 + 4*2 coordinate rows; lambda's
    and the three other basis words' are unit rows, so 5 are solved."""
    rows = {"a": [[-1, 0, 0, 0], [1, 0, -1, -1], [0, -1, 0, 0], [1, -1, 1, 0]],
            "b": [[0, 1, -1, 1], [-1, 0, -1, -1], [-1, 1, 1, -1], [0, 1, -1, 0]]}
    mu = {l: Matrix(rows[l.symbol]) for l in ab.letters}
    f = RecognizableSeries(LinRep(ab, 4, Matrix.row_vector([-1, 1, -1, 0]), mu, Matrix.col_vector([1, -1, 1, -1])))
    calls = []
    coordinates = RowReducer.coordinates

    def counted(self, vec):
        calls.append(vec)
        return coordinates(self, vec)

    monkeypatch.setattr(RowReducer, "coordinates", counted)
    model = learn(f, 3)
    assert model.dim == 4 and len(calls) == 5
    monkeypatch.undo()
    assert model == _model_from_reducer_coordinates(f, 3)
