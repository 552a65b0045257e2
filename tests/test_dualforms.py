import copy
import pickle
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counting_rep, geometric_rep
from hopfwords import (
    Alphabet,
    FiniteSupportSeries,
    LinRep,
    Matrix,
    NCPoly,
    RecognizableSeries,
    Word,
    convolve,
    coproduct,
    dual_unit,
    embed_finite,
    pair,
    reps_equal,
)
from hopfwords import cli, dualforms
from hopfwords.cli import run
from hopfwords.dualforms import _merge_texts
from hopfwords.errors import DomainError


def indicator(alphabet, text):
    return FiniteSupportSeries.indicator(alphabet.word(text))


def convolution_oracle(f, h, w):
    """Definitional route: pair f (x) h against the subword coproduct of w."""
    return sum(
        (c * f.coeff(u) * h.coeff(v) for (u, v), c in coproduct(NCPoly.from_word(w)).terms.items()),
        Fraction(0),
    )


# ---------------------------------------------------------------------------
# pairing


def test_pair_picks_out_coefficients(ab):
    f = indicator(ab, "a")
    assert pair(f, NCPoly.from_text(ab, "3*a + b")) == 3
    assert pair(f, NCPoly.zero(ab)) == 0


def test_pair_with_recognizable(single):
    geo = RecognizableSeries(geometric_rep(single, 2))
    assert pair(geo, NCPoly.from_text(single, "aa")) == 4
    assert pair(geo, NCPoly.from_text(single, "aa - 2*a + 1/2")) == Fraction(1, 2)


def test_pair_alphabet_mismatch(ab, single):
    with pytest.raises(DomainError):
        pair(indicator(ab, "a"), NCPoly.from_text(single, "a"))


# ---------------------------------------------------------------------------
# convolution, finite support


def test_convolve_single_letters_shuffle(ab):
    out = convolve(indicator(ab, "a"), indicator(ab, "b"))
    assert out == FiniteSupportSeries.from_text(ab, "ab + ba")


def test_convolve_repeated_letter_doubles(ab):
    out = convolve(indicator(ab, "a"), indicator(ab, "a"))
    assert out == FiniteSupportSeries.from_text(ab, "2*aa")


def test_convolve_unit_indicator_is_unit_when_all_primitive(ab):
    f = FiniteSupportSeries.from_text(ab, "2*ab - b + 1")
    one = indicator(ab, "1")
    assert convolve(one, f) == f
    assert convolve(f, one) == f


def test_convolve_group_like_synchronizes(grouponly):
    xg = indicator(grouponly, "g")
    assert convolve(xg, xg) == xg
    # a group-like letter cannot pair against the empty word
    assert convolve(xg, indicator(grouponly, "1")) == FiniteSupportSeries.zero(
        grouponly
    )


_MIXED = Alphabet.from_decl("a:L,b:L,g:G")
_TWO_GROUP_LIKE = Alphabet.from_decl("a:L,b:L,g:G,h:G")
_words = st.text(alphabet="abgh", max_size=6).map(lambda s: _TWO_GROUP_LIKE.word(s or "1"))


_supports = st.dictionaries(_words, st.integers(-3, 3).filter(bool), min_size=1, max_size=4).map(
    lambda terms: FiniteSupportSeries(NCPoly(_TWO_GROUP_LIKE, terms))
)


def preflight_total(f, h):
    """The merge count that the CLI's conv preflight passes to its refusal."""
    counts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_refuse", lambda count, *rest: counts.append(count))
        cli._preflight_conv(f, h)
    (total,) = counts
    return total


@given(_supports, _supports)
@settings(max_examples=300, deadline=None)
def test_merge_count_counts_the_enumeration(f, h):
    # the CLI's conv preflight counts merges instead of enumerating them
    group_like = _TWO_GROUP_LIKE.group_like_symbols
    merges = sum(len(_merge_texts(u.symbols(), v.symbols(), group_like)) for u in f.terms for v in h.terms)
    assert preflight_total(f, h) == merges


def recursive_merges(u, v):
    """Oracle: the merges of u and v by recursion on their first letters,
    one generator frame per letter of the merge."""
    group_like = u.alphabet.group_like_symbols
    a, b = u.symbols(), v.symbols()
    na, nb = len(a), len(b)

    def rec(i, j):
        """The symbol string of every merge of a[i:] and b[j:]."""
        if i == na and j == nb:
            yield ""
            return
        if i < na and a[i] not in group_like:
            for rest in rec(i + 1, j):
                yield a[i] + rest
        if j < nb and b[j] not in group_like:
            for rest in rec(i, j + 1):
                yield b[j] + rest
        if i < na and j < nb and a[i] in group_like and a[i] == b[j]:
            for rest in rec(i + 1, j + 1):
                yield a[i] + rest

    return rec(0, 0)


_mixed_words = st.text(alphabet="abg", max_size=6).map(lambda s: _MIXED.word(s or "1"))


@given(_mixed_words, _mixed_words)
@settings(max_examples=300, deadline=None)
def test_merges_match_the_recursive_oracle(u, v):
    merges = _merge_texts(u.symbols(), v.symbols(), u.alphabet.group_like_symbols)
    assert sorted(merges) == sorted(recursive_merges(u, v))


def word_keyed_convolve(f, h):
    """Oracle: the finite-support convolution keyed by Word, one Word and one
    Fraction sum per merge."""
    acc = {}
    for u, cu in f.terms.items():
        for v, cv in h.terms.items():
            for text in _merge_texts(u.symbols(), v.symbols(), f.alphabet.group_like_symbols):
                w = Word(f.alphabet, text)
                acc[w] = acc.get(w, Fraction(0)) + cu * cv
    return FiniteSupportSeries(NCPoly(f.alphabet, acc))


# ±1 and ±2 often cancel
_small_coeffs = st.sampled_from([Fraction(n, d) for n in (1, -1, 2, -2) for d in (1, 1, 3)])


@st.composite
def finite_series(draw):
    """Finite-support series over a:L,b:L,g:G whose words are often
    rearrangements of one word, so that their merges collide and often
    cancel."""
    base = draw(st.text(alphabet="abg", max_size=3))
    word = st.one_of(st.permutations(base).map("".join), st.text(alphabet="abg", max_size=3))
    texts = draw(st.lists(word, min_size=1, max_size=4))
    return FiniteSupportSeries(NCPoly(_MIXED, {_MIXED.word(t or "1"): draw(_small_coeffs) for t in texts}))


@given(finite_series(), finite_series())
@settings(max_examples=150, deadline=None)
def test_finite_convolve_matches_the_word_keyed_oracle(f, h):
    out, expected = convolve(f, h), word_keyed_convolve(f, h)
    assert out == expected and list(out.terms.items()) == list(expected.terms.items())
    assert all(out.terms.values())


@st.composite
def skeleton_series(draw):
    """A finite support over a:L,b:L,g:G,h:G whose words are a long string of
    group-like letters or its reversal, with a few primitive letters put in,
    so that most pairs of words merge and some differ in group-like letters."""
    skeleton = draw(st.text(alphabet="gh", min_size=8, max_size=30))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        text = draw(st.sampled_from([skeleton, skeleton[::-1]]))
        for i, ch in draw(st.lists(st.tuples(st.integers(0, len(text)), st.sampled_from("ab")), max_size=3)):
            text = text[:i] + ch + text[i:]
        terms[_TWO_GROUP_LIKE.word(text)] = draw(_small_coeffs)
    return FiniteSupportSeries(NCPoly(_TWO_GROUP_LIKE, terms))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_convolve_of_long_group_like_runs_matches_the_oracles(data):
    f, h = data.draw(skeleton_series()), data.draw(skeleton_series())
    out, expected = convolve(f, h), word_keyed_convolve(f, h)
    assert out == expected and list(out.terms.items()) == list(expected.terms.items())
    for u in f.terms:
        for v in h.terms:
            merges = _merge_texts(u.symbols(), v.symbols(), _TWO_GROUP_LIKE.group_like_symbols)
            assert sorted(merges) == sorted(recursive_merges(u, v))


def test_unlike_group_like_letters_merge_with_no_interleaving(monkeypatch):
    def refuse(a, b):
        raise AssertionError("_interleavings called")

    monkeypatch.setattr(dualforms, "_interleavings", refuse)
    u, v = _TWO_GROUP_LIKE.word("a" * 13 + "g"), _TWO_GROUP_LIKE.word("b" * 13 + "h")
    assert _merge_texts(u.symbols(), v.symbols(), _TWO_GROUP_LIKE.group_like_symbols) == []
    f, h = FiniteSupportSeries.indicator(u), FiniteSupportSeries.indicator(v)
    assert preflight_total(f, h) == 0
    assert convolve(f, h) == FiniteSupportSeries.zero(_TWO_GROUP_LIKE)
    # positive control: a pair whose group-like letters agree interleaves
    with pytest.raises(AssertionError, match="_interleavings called"):
        _merge_texts(u.symbols(), u.symbols(), _TWO_GROUP_LIKE.group_like_symbols)


def test_conv_of_unlike_group_like_letters_is_fast(capsys):
    """Merges were built letter by letter: every interleaving of the two
    primitive prefixes, 7.5 to 9 s and 2.7 GB for this pair."""
    t0 = time.perf_counter()
    code = run(["conv", "--alphabet", "a:L,b:L,g:G,h:G", "--series", "a" * 13 + "g", "--series", "b" * 13 + "h"])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "0\n")
    assert elapsed < 1.0, f"conv of two unmergeable words took {elapsed:.2f}s"


def test_conv_counts_only_pairs_with_like_group_like_letters(capsys, tmp_path):
    """a g^i against b h^i for i < 600: only a and b merge. The preflight
    counted merges on all 360,000 pairs, splitting both words again for
    each, and conv took 51 s."""
    (tmp_path / "f.txt").write_text(" + ".join("a" + "g" * i for i in range(600)))
    (tmp_path / "h.txt").write_text(" + ".join("b" + "h" * i for i in range(600)))
    t0 = time.perf_counter()
    code = run(["conv", "--alphabet", "a:L,b:L,g:G,h:G", "--series", str(tmp_path / "f.txt"), "--series", str(tmp_path / "h.txt")])
    elapsed = time.perf_counter() - t0
    assert (code, capsys.readouterr().out) == (0, "ab + ba\n")
    assert elapsed < 5.0, f"conv of 600 words against 600 unmergeable words took {elapsed:.2f}s"


def test_self_convolution_of_long_group_like_words_is_fast():
    """Fifty words g^i a g^(400-i), one merge per pair of distinct words and
    two per word with itself: the letter-by-letter table filled 401 x 401
    cells per pair and did not finish in 60 s."""
    ag = Alphabet.from_decl("a:L,g:G")
    f = FiniteSupportSeries.from_text(ag, " + ".join("g" * i + "a" + "g" * (400 - i) for i in range(0, 400, 8)))
    t0 = time.perf_counter()
    out = convolve(f, f)
    elapsed = time.perf_counter() - t0
    assert len(out.terms) == 50 * 51 // 2 and set(out.terms.values()) == {2}
    assert elapsed < 10.0, f"self-convolution of 50 words of length 401 took {elapsed:.2f}s"


def test_finite_convolve_against_the_coproduct_pairing():
    f = FiniteSupportSeries.from_text(_MIXED, "ab - ba + 2*g")
    h = FiniteSupportSeries.from_text(_MIXED, "ba + ab - 1/2*a")
    out = convolve(f, h)
    for w in _MIXED.words(4):
        assert out.coeff(w) == convolution_oracle(f, h, w)


def test_convolve_longer_words_against_oracle(mixed):
    words = list(mixed.words(2))
    for u in words:
        for v in words:
            out = convolve(
                FiniteSupportSeries.indicator(u), FiniteSupportSeries.indicator(v)
            )
            for w in mixed.words(4):
                assert out.coeff(w) == convolution_oracle(
                    FiniteSupportSeries.indicator(u),
                    FiniteSupportSeries.indicator(v),
                    w,
                )


series_terms = st.lists(
    st.tuples(
        st.text(alphabet="ag", min_size=0, max_size=2).map(lambda s: s or "1"),
        st.integers(min_value=-3, max_value=3),
    ),
    min_size=0,
    max_size=3,
)


@given(series_terms, series_terms)
@settings(max_examples=40, deadline=None)
def test_convolve_matches_oracle_on_random_series(ts1, ts2):
    from hopfwords import Alphabet

    alph = Alphabet.from_decl("a:L,g:G")
    f = FiniteSupportSeries(NCPoly(alph, {alph.word(w): c for w, c in ts1}))
    h = FiniteSupportSeries(NCPoly(alph, {alph.word(w): c for w, c in ts2}))
    out = convolve(f, h)
    for w in alph.words(4):
        assert out.coeff(w) == convolution_oracle(f, h, w)


def test_pairing_coproduct_adjunction(mixed):
    f = FiniteSupportSeries.from_text(mixed, "2*ag - b + 1")
    h = FiniteSupportSeries.from_text(mixed, "g + 3*ba")
    fh = convolve(f, h)
    for w in mixed.words(5):
        assert pair(fh, NCPoly.from_word(w)) == convolution_oracle(f, h, w)


def test_commutativity_on_primitive_alphabet(ab):
    f = FiniteSupportSeries.from_text(ab, "ab - 2*b")
    h = FiniteSupportSeries.from_text(ab, "a + 1/2*ba")
    lhs = convolve(f, h)
    rhs = convolve(h, f)
    assert lhs == rhs


def test_dual_associativity_indicators(mixed):
    indicators = [FiniteSupportSeries.indicator(w) for w in mixed.words(2)]
    targets = list(mixed.words(4))
    for fu in indicators[:6]:
        for fv in indicators[:6]:
            uv = convolve(fu, fv)
            for fw in indicators[:6]:
                lhs = convolve(uv, fw)
                rhs = convolve(fu, convolve(fv, fw))
                for t in targets:
                    assert lhs.coeff(t) == rhs.coeff(t)


# ---------------------------------------------------------------------------
# convolution with recognizable operands


def test_mixed_variant_convolution_agrees_with_formula(ab):
    geo = RecognizableSeries(geometric_rep(ab, 2))
    f = FiniteSupportSeries.from_text(ab, "ab - b")
    out = convolve(f, geo)
    assert isinstance(out, RecognizableSeries)
    for w in ab.words(5):
        assert out.coeff(w) == convolution_oracle(f, geo, w)


def test_recognizable_convolution_agrees_with_formula(mixed):
    g2 = RecognizableSeries(geometric_rep(mixed, 2))
    g3 = RecognizableSeries(geometric_rep(mixed, 3))
    out = convolve(g2, g3)
    for w in mixed.words(4):
        assert out.coeff(w) == convolution_oracle(g2, g3, w)


# ---------------------------------------------------------------------------
# dual unit


def test_dual_unit_is_unit_indicator_when_no_group_like(single):
    e = dual_unit(single)
    chi1 = indicator(single, "1")
    assert e == chi1


def test_dual_unit_on_group_like_words(grouponly):
    e = dual_unit(grouponly)
    assert e.coeff(grouponly.word("ggg")) == 1
    assert e.coeff(grouponly.word("1")) == 1


def test_dual_unit_law_both_sides(mixed):
    e = dual_unit(mixed)
    finite = FiniteSupportSeries.from_text(mixed, "2*ag - b + 1/3")
    recog = RecognizableSeries(geometric_rep(mixed, 2))
    for f in (finite, recog):
        left = convolve(e, f)
        right = convolve(f, e)
        for w in mixed.words(4):
            assert left.coeff(w) == f.coeff(w)
            assert right.coeff(w) == f.coeff(w)


# ---------------------------------------------------------------------------
# series vector-space structure


def test_series_addition_and_scaling(ab):
    f = FiniteSupportSeries.from_text(ab, "ab - b")
    h = FiniteSupportSeries.from_text(ab, "b + 1")
    assert f + h == FiniteSupportSeries.from_text(ab, "ab + 1")
    assert f.scale(Fraction(1, 2)) == FiniteSupportSeries.from_text(ab, "1/2*ab - 1/2*b")
    assert 2 * f == FiniteSupportSeries.from_text(ab, "2*ab - 2*b")
    # a number is not a series: Python's TypeError, as for any operand type
    for series in (f, RecognizableSeries(geometric_rep(ab, 2))):
        for op in (lambda x: x + 1, lambda x: x - 1, lambda x: 1 + x, lambda x: 1 - x):
            with pytest.raises(TypeError):
                op(series)


def test_series_addition_with_recognizable(ab):
    geo = RecognizableSeries(geometric_rep(ab, 2))
    f = FiniteSupportSeries.from_text(ab, "ab - b")
    total = geo + f
    assert isinstance(total, RecognizableSeries)
    for w in ab.words(4):
        assert total.coeff(w) == geo.coeff(w) + f.coeff(w)
    diff = total - f
    for w in ab.words(4):
        assert diff.coeff(w) == geo.coeff(w)
    # a recognizable series scaled, by 2 and by -1 in f - geo
    assert reps_equal((2 * geo).rep, (geo + geo).rep)
    assert reps_equal(((f - geo) + geo).rep, embed_finite(f))


def test_finite_series_displayed_as_polynomial(ab):
    f = FiniteSupportSeries.from_text(ab, "1 + 3*ab")
    assert str(f) == "3*ab + 1"


def test_embedding_matches_finite_series(ab):
    f = FiniteSupportSeries.from_text(ab, "2*a - b")
    rep = embed_finite(f)
    for w in ab.words(3):
        assert rep.value(w) == f.coeff(w)


# ---------------------------------------------------------------------------
# decided equality

ALPHABETS = st.sampled_from(["a:L,b:L", "a:L,b:L,g:G"]).map(Alphabet.from_decl)


@st.composite
def finite_series(draw, alphabet):
    """A sum of at most three scaled indicators of words of length <= 3."""
    symbols = "".join(letter.symbol for letter in alphabet.letters)
    terms = draw(st.lists(st.tuples(st.text(symbols, max_size=3), st.integers(-2, 2)), max_size=3))
    f = FiniteSupportSeries.zero(alphabet)
    for text, c in terms:
        f = f + FiniteSupportSeries.indicator(alphabet.word(text or "1"), c)
    return f


@st.composite
def recognizable_series(draw, alphabet):
    """A representation of dim 1-3 with entries in -1..1."""
    n = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
    mu = {l: Matrix(draw(st.lists(vec, min_size=n, max_size=n))) for l in alphabet.letters}
    lam, gamma = Matrix.row_vector(draw(vec)), Matrix.col_vector(draw(vec))
    return RecognizableSeries(LinRep(alphabet, n, lam, mu, gamma))


def _rep_of(f):
    return f.rep if isinstance(f, RecognizableSeries) else embed_finite(f)


@given(st.data(), st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_equality_is_reps_equal_across_presentations(data, c):
    alph = data.draw(ALPHABETS)
    f, h = data.draw(finite_series(alph)), data.draw(finite_series(alph))
    r = data.draw(recognizable_series(alph))
    automaton = RecognizableSeries(embed_finite(f))
    zero = r - r  # a summand whose series is zero, in dimension 2 * r.dim
    assert f == automaton and automaton == f
    pairs = [
        (f, h),
        (automaton, h),
        (f + r, automaton + r),
        (f + r, h + r + zero),
        (c * r, r + r),
        (c * f, automaton.scale(c)),
        (r, r + zero),
        (f, h + zero),
        (zero, FiniteSupportSeries.zero(alph)),
    ]
    for x, y in pairs:
        expected = reps_equal(_rep_of(x), _rep_of(y))
        assert (x == y) is (y == x) is expected
        assert (x != y) is (not expected)


def test_equality_holds_across_presentations_and_after_cancelling(ab, mixed):
    f = FiniteSupportSeries.from_text(ab, "ab - 1/2*ba")
    assert f == RecognizableSeries(embed_finite(f)) and RecognizableSeries(embed_finite(f)) == f
    for r in (RecognizableSeries(geometric_rep(mixed, 2)), RecognizableSeries(counting_rep(mixed))):
        assert (r + r) - r == r
        assert r != 2 * r and 2 * r == r + r
        assert RecognizableSeries(r.rep) == r


def test_series_over_different_alphabets_are_unequal(ab, single):
    finite = FiniteSupportSeries.from_text(single, "a")
    recognizable = RecognizableSeries(embed_finite(finite))
    other = FiniteSupportSeries.from_text(ab, "a")
    for x in (finite, recognizable):
        for y in (other, RecognizableSeries(embed_finite(other))):
            assert not x == y and x != y and not y == x


def test_a_series_never_equals_a_non_series(ab):
    f = FiniteSupportSeries.zero(ab)
    for series in (f, RecognizableSeries(embed_finite(f))):
        assert series.__eq__(0) is NotImplemented
        assert series != 0 and series != f.poly and series != embed_finite(f)


def test_series_are_unhashable(ab):
    f = FiniteSupportSeries.from_text(ab, "ab")
    for series in (f, RecognizableSeries(embed_finite(f))):
        with pytest.raises(TypeError, match="unhashable"):
            hash(series)


def test_a_series_equals_its_pickled_and_copied_selves(mixed):
    f = FiniteSupportSeries.from_text(mixed, "2*ag - b + 1/3")
    g = RecognizableSeries(counting_rep(mixed))
    for series in (f, g, convolve(f, g)):
        for twin in (pickle.loads(pickle.dumps(series)), copy.copy(series), copy.deepcopy(series)):
            assert type(twin) is type(series) and twin == series


def test_convolution_laws_are_decided_on_recognizable_operands(mixed):
    f, g = RecognizableSeries(geometric_rep(mixed, 2)), RecognizableSeries(counting_rep(mixed))
    h, e = RecognizableSeries(embed_finite(FiniteSupportSeries.from_text(mixed, "ag - 1/2*b"))), dual_unit(mixed)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert convolve(e, h) == h == convolve(h, e)
