import copy
import itertools
import os
import pickle
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfwords import (
    Alphabet,
    FiniteSupportSeries,
    Letter,
    LetterKind,
    NCPoly,
    Tensor2,
    Tensor3,
    Word,
    antipode,
    coassoc_lhs,
    coassoc_rhs,
    conc,
    coproduct,
    convolve,
    counit,
    poly_mul,
    splittings,
    tensor2_mul,
)
from hopfwords.errors import DomainError, ParseError


def terms_of(t):
    return {tuple(str(w) for w in k) if isinstance(k, tuple) else str(k): c for k, c in t.terms.items()}


# ---------------------------------------------------------------------------
# words and concatenation


def test_conc(ab):
    assert str(conc(ab.word("ab"), ab.word("ba"))) == "abba"
    w = ab.word("ba")
    assert conc(ab.unit_word(), w) == w
    assert conc(ab.word("a"), ab.unit_word()) == ab.word("a")


def test_conc_alphabet_mismatch(ab, single):
    with pytest.raises(DomainError):
        conc(ab.word("a"), single.word("a"))


def test_word_basics(ab):
    assert len(ab.word("ab")) == 2
    assert str(ab.word("1")) == "1"
    assert ab.word("1").is_unit
    assert ab.word("ab").reverse() == ab.word("ba")
    assert ab.word("ab").subword([1]) == ab.word("b")


def test_word_enumeration_is_shortlex(ab):
    got = [str(w) for w in ab.words(2)]
    assert got == ["1", "a", "b", "aa", "ab", "ba", "bb"]


# ---------------------------------------------------------------------------
# words as dict keys: hash on symbols, equality on symbols and alphabet


def test_words_over_equal_alphabets_share_one_key():
    first = Alphabet.from_decl("a:L,b:L,g:G")
    second = Alphabet.from_decl("a:L,b:L,g:G")
    assert first is not second
    u, v = first.word("agb"), second.word("agb")
    assert u == v and hash(u) == hash(v)
    assert len({u: 1, v: 2}) == 1
    assert NCPoly(first, [(u, 1), (v, 2)]) == NCPoly.from_text(first, "3*agb")


def test_words_over_different_alphabets_are_different_keys(ab, mixed):
    u, v = ab.word("a"), mixed.word("a")
    assert u != v
    assert len({u: 1, v: 2}) == 2
    # same symbol, different tag
    assert Alphabet.from_decl("a:L").word("a") != Alphabet.from_decl("a:G").word("a")


def test_foreign_words_and_letters_are_domain_errors(ab, mixed):
    with pytest.raises(DomainError):
        NCPoly(ab, {mixed.word("a"): 1})
    with pytest.raises(DomainError):
        Word(ab, (Letter("g", LetterKind.GROUP_LIKE),))
    with pytest.raises(DomainError):
        Word(ab, (Letter("a", LetterKind.GROUP_LIKE),))


def test_zero_operands_keep_the_class_and_alphabet_checks(ab, mixed):
    """+ returns the other operand when one is zero, but only after the class
    and alphabet checks; scale(0) is the stored zero ({}, 1)."""
    p, zero = NCPoly.from_text(ab, "1/2*ab - b"), NCPoly(ab)
    assert p + zero == p and zero + p == p and zero + zero == zero
    for x, y in [(p, NCPoly(mixed)), (NCPoly(mixed), p), (zero, NCPoly(mixed))]:
        with pytest.raises(DomainError):
            x + y
    assert zero.__add__(Tensor2(ab)) is NotImplemented
    for c in (0, Fraction(0)):
        assert p.scale(c) == zero and (p.scale(c)._terms, p.scale(c)._den) == ({}, 1)
    with pytest.raises(TypeError):
        p.scale(0.0)


_SRC = Path(__file__).resolve().parent.parent / "src"

_DUMP = """
import pickle, sys
from hopfwords import Alphabet, NCPoly
ab = Alphabet.from_decl("a:L,b:L,g:G")
p = NCPoly.from_text(ab, "3*abgab - 1/2*g + 1")
sys.stdout.buffer.write(pickle.dumps((ab.word("abgab"), p)))
"""

_LOAD = """
import pickle, sys
from fractions import Fraction
from hopfwords import Alphabet
w, p = pickle.loads(sys.stdin.buffer.read())
assert hash(w) == hash("abgab")
assert p.terms[w] == 3
assert hash(p.alphabet) == hash(Alphabet.from_decl("a:L,b:L,g:G"))
assert p.coeff(p.alphabet.word("g")) == Fraction(-1, 2)
print("found")
"""


def _python(code: str, seed: str, data: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join([str(_SRC), env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], input=data, env=env, capture_output=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_pickled_word_is_found_under_another_hash_seed():
    # str hashes are salted per process; a cached hash must not travel
    data = _python(_DUMP, "1")
    assert _python(_LOAD, "2", data) == b"found\n"


def test_word_keys_never_hash_letter_kinds(monkeypatch, mixed):
    def refuse(self):
        raise AssertionError("LetterKind hashed")

    p = NCPoly.from_text(mixed, "agbgab - 2*ga")
    q = NCPoly.from_text(mixed, "1/3*bg + a")
    monkeypatch.setattr(LetterKind, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(LetterKind.PRIMITIVE)
    assert coassoc_lhs(p) == coassoc_rhs(p)
    assert coproduct(p * q) == tensor2_mul(coproduct(p), coproduct(q))


# ---------------------------------------------------------------------------
# exact coefficients


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1", Decimal("0.5")], ids=repr)
def test_inexact_coefficients_are_type_errors(ab, bad):
    w = ab.word("ab")
    t = coproduct(NCPoly.from_word(w))
    for build in (
        lambda: NCPoly(ab, {w: bad}),
        lambda: NCPoly.from_word(w, bad),
        lambda: Tensor2(ab, {(w, w): bad}),
        lambda: NCPoly.from_word(w).scale(bad),
        lambda: t.scale(bad),
        lambda: FiniteSupportSeries.indicator(w).scale(bad),
    ):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            build()


@pytest.mark.parametrize("c", [3, -2, Fraction(-7, 3), Fraction(4, 2)], ids=repr)
def test_int_and_fraction_coefficients_round_trip(ab, c):
    w = ab.word("ba")
    p = NCPoly(ab, {w: c})
    assert p.coeff(w) == c and type(p.coeff(w)) is Fraction
    assert NCPoly.from_text(ab, str(p)) == p
    assert p.scale(c) == NCPoly(ab, {w: Fraction(c) * c})
    t = coproduct(p).scale(c)
    assert t.coeff(ab.word("b"), ab.word("a")) == Fraction(c) * c
    assert Tensor2.from_text(ab, str(t)) == t


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_poly_mul_hand_expansion(ab):
    p = NCPoly.from_text(ab, "a+b")
    q = NCPoly.from_text(ab, "a-b")
    assert str(poly_mul(p, q)) == "aa - ab + ba - bb"


def test_poly_mul_unit_law(ab):
    p = NCPoly.from_text(ab, "2*ab - b + 1/3")
    assert poly_mul(p, NCPoly.one(ab)) == p
    assert poly_mul(NCPoly.one(ab), p) == p


def test_poly_mul_rational_coefficients(ab):
    p = NCPoly.from_text(ab, "2*a")
    q = NCPoly.from_text(ab, "1/2*b")
    assert poly_mul(p, q) == NCPoly.from_text(ab, "ab")


def test_poly_arith_and_cancellation(ab):
    p = NCPoly.from_text(ab, "ab - 2*a")
    assert str(p - p) == "0"
    assert not (p - p)
    assert str(p.scale(Fraction(-1, 2))) == "-1/2*ab + a"
    assert p + NCPoly.from_text(ab, "2*a") == NCPoly.from_text(ab, "ab")


def test_canonical_term_order(ab):
    p = NCPoly.from_text(ab, "1 + b + ab + a")
    assert str(p) == "ab + a + b + 1"


_term_text = st.builds(
    lambda n, d, w: f"{n}/{d}*{w}",
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=5),
    st.text(alphabet="abg", min_size=0, max_size=3).map(lambda s: s or "1"),
)

poly_text = st.builds(
    lambda neg, first, rest: ("-" if neg else "")
    + first
    + "".join(sign + term for sign, term in rest),
    st.booleans(),
    _term_text,
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), _term_text), max_size=3),
)


@given(poly_text, poly_text, poly_text)
@settings(max_examples=60, deadline=None)
def test_poly_mul_associative(s1, s2, s3):
    alph = Alphabet.from_decl("a:L,b:L,g:G")
    p, q, r = (NCPoly.from_text(alph, s) for s in (s1, s2, s3))
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


@given(poly_text)
@settings(max_examples=80, deadline=None)
def test_parse_print_round_trip(text):
    alph = Alphabet.from_decl("a:L,b:L,g:G")
    p = NCPoly.from_text(alph, text)
    assert NCPoly.from_text(alph, str(p)) == p


# ---------------------------------------------------------------------------
# coproduct


def test_coproduct_word_all_primitive(ab):
    t = coproduct(NCPoly.from_word(ab.word("ab")))
    assert terms_of(t) == {
        ("ab", "1"): 1,
        ("a", "b"): 1,
        ("b", "a"): 1,
        ("1", "ab"): 1,
    }
    assert str(t) == "ab(x)1 + a(x)b + b(x)a + 1(x)ab"


def test_coproduct_word_mixed(mixed):
    t = coproduct(NCPoly.from_word(mixed.word("ga")))
    assert terms_of(t) == {("ga", "g"): 1, ("g", "ga"): 1}
    assert str(t) == "ga(x)g + g(x)ga"


def test_coproduct_word_unit(ab):
    assert terms_of(coproduct(NCPoly.from_word(ab.unit_word()))) == {("1", "1"): 1}


def test_coproduct_word_repeated_letters_collect(ab):
    assert terms_of(coproduct(NCPoly.from_word(ab.word("aa")))) == {
        ("aa", "1"): 1,
        ("a", "a"): 2,
        ("1", "aa"): 1,
    }


def test_splitting_count_is_two_to_the_primitives(mixed):
    for w in mixed.words(4):
        n_primitive = sum(1 for l in w.letters if not l.group_like)
        pairs = list(splittings(w))
        assert len(pairs) == 2**n_primitive
        total = sum(coproduct(NCPoly.from_word(w)).terms.values())
        assert total == 2**n_primitive


def test_coproduct_letter_rules(mixed):
    # primitive letters split as x(x)1 + 1(x)x, group-like ones duplicate
    assert str(coproduct(NCPoly.from_text(mixed, "a"))) == "a(x)1 + 1(x)a"
    assert str(coproduct(NCPoly.from_text(mixed, "g"))) == "g(x)g"


def test_coproduct_linearity(ab):
    t = coproduct(NCPoly.from_text(ab, "2*ab + b"))
    assert terms_of(t) == {
        ("ab", "1"): 2,
        ("a", "b"): 2,
        ("b", "a"): 2,
        ("1", "ab"): 2,
        ("b", "1"): 1,
        ("1", "b"): 1,
    }


def _letter_coproduct(letter, alphabet):
    x = Word(alphabet, (letter,))
    if letter.group_like:
        return Tensor2(alphabet, {(x, x): 1})
    u = alphabet.unit_word()
    return Tensor2(alphabet, {(x, u): 1, (u, x): 1})


def coproduct_multiplicative(p):
    """Oracle for coproduct(): the letter rule extended multiplicatively in
    A (x) A, an independent route to the subword-splitting formula."""
    acc = {}
    for w, c in p.terms.items():
        t = Tensor2.one(p.alphabet)
        for letter in w.letters:
            t = tensor2_mul(t, _letter_coproduct(letter, p.alphabet))
        for key, d in t.terms.items():
            acc[key] = acc.get(key, 0) + c * d
    return Tensor2(p.alphabet, acc)


def test_coproduct_agrees_with_multiplicative_extension(mixed):
    for w in mixed.words(5):
        p = NCPoly.from_word(w)
        assert coproduct(p) == coproduct_multiplicative(p)


def test_morphism_property(mixed):
    words = list(mixed.words(3))
    for u in words:
        for v in words:
            lhs = coproduct(NCPoly.from_word(conc(u, v)))
            rhs = tensor2_mul(
                coproduct(NCPoly.from_word(u)), coproduct(NCPoly.from_word(v))
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# counit


def test_counit_values(mixed):
    assert counit(NCPoly.from_text(mixed, "ab")) == 0
    assert counit(NCPoly.from_text(mixed, "gg")) == 1
    assert counit(NCPoly.one(mixed)) == 1
    assert counit(NCPoly.from_text(mixed, "3*gg + ab - 1/2")) == Fraction(5, 2)


def test_counit_contraction_laws(mixed):
    for w in mixed.words(5):
        target = NCPoly.from_word(w)
        left = NCPoly.zero(mixed)
        right = NCPoly.zero(mixed)
        for (u, v), c in coproduct(target).terms.items():
            left = left + NCPoly.from_word(u).scale(c * counit(NCPoly.from_word(v)))
            right = right + NCPoly.from_word(v).scale(c * counit(NCPoly.from_word(u)))
        assert left == target
        assert right == target


# ---------------------------------------------------------------------------
# antipode


def test_antipode_closed_form(ab):
    assert antipode(NCPoly.from_text(ab, "a")) == NCPoly.from_text(ab, "-a")
    assert antipode(NCPoly.from_text(ab, "ab")) == NCPoly.from_text(ab, "ba")
    assert antipode(NCPoly.one(ab)) == NCPoly.one(ab)
    # S(aba) = (-1)^3 aba reversed, S(-2*ab) = -2 * (+1) * ba
    assert antipode(NCPoly.from_text(ab, "aba - 2*ab")) == NCPoly.from_text(
        ab, "-aba - 2*ba"
    )


def test_antipode_requires_no_group_like(mixed, grouponly):
    with pytest.raises(DomainError, match="no antipode: group-like letters present"):
        antipode(NCPoly.from_text(mixed, "a"))
    with pytest.raises(DomainError):
        antipode(NCPoly.one(grouponly))


def recursive_antipode(p):
    """Independent oracle: solve the defining identity degreewise.

    For a nonempty word the splitting (w, 1) appears exactly once, so
    S(w) = -(sum of S(u) v over the remaining splittings); together with
    S(1) = 1 this pins S uniquely.
    """
    alph = p.alphabet
    cache = {}

    def for_word(w):
        if not w.letters:
            return NCPoly.one(alph)
        if w not in cache:
            acc = NCPoly.zero(alph)
            for (u, v), c in coproduct(NCPoly.from_word(w)).terms.items():
                if u == w:
                    continue
                acc = acc + poly_mul(for_word(u), NCPoly.from_word(v)).scale(c)
            cache[w] = acc.scale(-1)
        return cache[w]

    out = NCPoly.zero(alph)
    for w, c in p.terms.items():
        out = out + for_word(w).scale(c)
    return out


def test_antipode_matches_degreewise_solution(ab):
    for w in ab.words(4):
        p = NCPoly.from_word(w)
        assert antipode(p) == recursive_antipode(p)


def test_antipode_antimorphism_and_involution(ab):
    words = list(ab.words(3))
    for u in words:
        for v in words:
            assert antipode(NCPoly.from_word(conc(u, v))) == poly_mul(
                antipode(NCPoly.from_word(v)), antipode(NCPoly.from_word(u))
            )
    for w in ab.words(5):
        p = NCPoly.from_word(w)
        assert antipode(antipode(p)) == p


# ---------------------------------------------------------------------------
# tensors


def test_tensor2_mul_recovers_coproduct(ab):
    da = coproduct(NCPoly.from_text(ab, "a"))
    db = coproduct(NCPoly.from_text(ab, "b"))
    assert tensor2_mul(da, db) == coproduct(NCPoly.from_text(ab, "ab"))


def test_tensor2_mul_unit(ab):
    x = coproduct(NCPoly.from_text(ab, "ab + 2*b"))
    assert tensor2_mul(Tensor2.one(ab), x) == x
    assert tensor2_mul(x, Tensor2.one(ab)) == x


def test_tensor2_mul_group_like(grouponly):
    gg = coproduct(NCPoly.from_text(grouponly, "g"))
    t = tensor2_mul(gg, gg)
    assert terms_of(t) == {("gg", "gg"): 1}


def test_tensor2_text_round_trip(ab):
    t = coproduct(NCPoly.from_text(ab, "ab - 1/2*b"))
    assert Tensor2.from_text(ab, str(t)) == t
    assert Tensor2.from_text(ab, "a⊗b + 1(x)1") == Tensor2.from_text(
        ab, "a(x)b + 1(x)1"
    )


# ---------------------------------------------------------------------------
# one linear-combination type: NCPoly, Tensor2 and Tensor3 differ only in
# the number of words in a key

_CLASSES = {1: NCPoly, 2: Tensor2, 3: Tensor3}
_MIXED = Alphabet.from_decl("a:L,b:L,g:G")
_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _lincomb_terms(arity: int):
    word = st.sampled_from(list(_MIXED.words(2)))
    key = word if arity == 1 else st.tuples(*[word] * arity)
    return st.dictionaries(key, _coeffs, max_size=5)


def _nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def _merged(d1: dict, d2: dict, sign: int) -> dict:
    out = dict(d1)
    for k, c in d2.items():
        out[k] = out.get(k, 0) + sign * c
    return out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_linear_combination_body_against_a_dict(data):
    arity = data.draw(st.integers(min_value=1, max_value=3))
    cls = _CLASSES[arity]
    d1, d2 = data.draw(_lincomb_terms(arity)), data.draw(_lincomb_terms(arity))
    c = data.draw(_coeffs)
    x, y = cls(_MIXED, d1), cls(_MIXED, d2)
    assert x.terms == _nonzero(d1)
    assert cls.from_text(_MIXED, str(x)) == x
    assert (x + y).terms == _nonzero(_merged(d1, d2, 1))
    assert (x - y).terms == _nonzero(_merged(d1, d2, -1))
    assert (-x).terms == _nonzero({k: -v for k, v in d1.items()})
    assert x.scale(c).terms == _nonzero({k: c * v for k, v in d1.items()})
    assert c * x == x * c == x.scale(c)
    for k, v in d1.items():
        assert x.coeff(*((k,) if arity == 1 else k)) == v
    other = _CLASSES[arity % 3 + 1]
    assert x != other(_MIXED, {}) and NCPoly.zero(_MIXED) != Tensor2(_MIXED)
    with pytest.raises(TypeError):
        x * other.one(_MIXED)
    with pytest.raises(TypeError):
        x + other.one(_MIXED)


def test_mixed_arity_product_is_a_type_error(ab):
    p, t = NCPoly.from_text(ab, "a"), Tensor2.from_text(ab, "a(x)b")
    with pytest.raises(TypeError):
        p * t
    with pytest.raises(TypeError):
        t * p
    with pytest.raises(TypeError):
        poly_mul(p, t)
    with pytest.raises(TypeError):
        t.coeff(ab.word("a"))


def test_tensor3_parses_adds_and_multiplies(mixed):
    lhs = coassoc_lhs(NCPoly.from_text(mixed, "ab - 2*g"))
    assert Tensor3.from_text(mixed, str(lhs)) == lhs
    assert lhs - coassoc_rhs(NCPoly.from_text(mixed, "ab - 2*g")) == Tensor3(mixed)
    assert str(Tensor3.one(mixed)) == "1(x)1(x)1"
    x = Tensor3.from_text(mixed, "a(x)1⊗g + 1/2*1(x)b(x)1")
    assert str(x * x) == "aa(x)1(x)gg + a(x)b(x)g + 1/4*1(x)bb(x)1"


def test_coassociativity_small_cases(mixed):
    a = coassoc_lhs(NCPoly.from_text(mixed, "a"))
    assert str(a) == "a(x)1(x)1 + 1(x)a(x)1 + 1(x)1(x)a"
    g = coassoc_lhs(NCPoly.from_text(mixed, "g"))
    assert terms_of(g) == {("g", "g", "g"): 1}
    assert terms_of(coassoc_lhs(NCPoly.one(mixed))) == {("1", "1", "1"): 1}


# ---------------------------------------------------------------------------
# word-tree kernels against index-mask and Word-keyed oracles


def mask_splittings(w):
    """Oracle: the splittings of w by bit masks over its primitive positions,
    highest mask first (bit i set puts the i-th primitive letter on the
    left), each side cut out with Word.subword."""
    group_like = w.alphabet.group_like_symbols
    symbols = w.symbols()
    idx_g = [i for i, ch in enumerate(symbols) if ch in group_like]
    idx_l = [i for i, ch in enumerate(symbols) if ch not in group_like]
    k = len(idx_l)
    for mask in range((1 << k) - 1, -1, -1):
        left = sorted(idx_g + [idx_l[i] for i in range(k) if mask >> i & 1])
        right = sorted(idx_g + [idx_l[i] for i in range(k) if not mask >> i & 1])
        yield w.subword(left), w.subword(right)


def oracle_coproduct(p):
    acc = {}
    for w, c in p.terms.items():
        for pair in mask_splittings(w):
            acc[pair] = acc.get(pair, 0) + c
    return Tensor2(p.alphabet, acc)


def oracle_resplit(p, first):
    acc = {}
    for (u, v), c in oracle_coproduct(p).terms.items():
        for x, y in mask_splittings(u if first else v):
            key = (x, y, v) if first else (u, x, y)
            acc[key] = acc.get(key, 0) + c
    return Tensor3(p.alphabet, acc)


def oracle_mul(x, y):
    acc = {}
    for k1, c in x.terms.items():
        for k2, d in y.terms.items():
            key = conc(k1, k2) if x.arity == 1 else tuple(map(conc, k1, k2))
            acc[key] = acc.get(key, 0) + c * d
    return x.__class__(x.alphabet, acc)


def same(x, y) -> bool:
    """Equal, with the terms in the same order."""
    return x == y and list(x.terms.items()) == list(y.terms.items())


# ±1 and ±2 often cancel
_small_coeffs = st.sampled_from([Fraction(n, d) for n in (1, -1, 2, -2) for d in (1, 1, 3)])


@st.composite
def mixed_polys(draw, max_len=5):
    """Polynomials over a:L,b:L,g:G whose words are often rearrangements of
    one word, so that their splittings collide and often cancel."""
    base = draw(st.text(alphabet="abg", max_size=max_len))
    word = st.one_of(st.permutations(base).map("".join), st.text(alphabet="abg", max_size=max_len))
    texts = draw(st.lists(word, min_size=1, max_size=4))
    return NCPoly(_MIXED, {_MIXED.word(t or "1"): draw(_small_coeffs) for t in texts})


@given(st.text(alphabet="abg", max_size=8))
@settings(max_examples=300, deadline=None)
def test_splittings_match_the_index_mask_oracle_in_order(text):
    w = _MIXED.word(text or "1")
    assert list(splittings(w)) == list(mask_splittings(w))


def test_splittings_match_the_oracle_on_every_short_word():
    for w in _MIXED.words(5):
        assert list(splittings(w)) == list(mask_splittings(w))


@given(mixed_polys())
@settings(max_examples=150, deadline=None)
def test_coproduct_and_resplits_match_the_oracles(p):
    assert same(coproduct(p), oracle_coproduct(p))
    assert same(coassoc_lhs(p), oracle_resplit(p, True))
    assert same(coassoc_rhs(p), oracle_resplit(p, False))


def test_cancelled_pairs_leave_no_terms(mixed):
    p = NCPoly.from_text(mixed, "ab - ba")
    assert str(coproduct(p)) == "ab(x)1 - ba(x)1 + 1(x)ab - 1(x)ba"
    for first in (True, False):
        t = (coassoc_lhs if first else coassoc_rhs)(p)
        assert same(t, oracle_resplit(p, first)) and all(t.terms.values())


@given(mixed_polys(4), mixed_polys(4))
@settings(max_examples=80, deadline=None)
def test_products_match_the_oracle(p, q):
    assert same(poly_mul(p, q), oracle_mul(p, q))
    s, t = coproduct(p), coproduct(q)
    assert same(tensor2_mul(s, t), oracle_mul(s, t))


@given(mixed_polys(2), mixed_polys(2))
@settings(max_examples=40, deadline=None)
def test_tensor3_product_matches_the_oracle(p, q):
    s, t = coassoc_lhs(p), coassoc_rhs(q)
    assert same(s * t, oracle_mul(s, t))


# ---------------------------------------------------------------------------
# term order, fixed on the first read of terms


def canonical_key(key):
    """The printed order, stated independently: factor by factor, longer
    words first, then by their symbols in code order."""
    factors = key if isinstance(key, tuple) else (key,)
    return [(-len(w), [letter.symbol for letter in w.letters]) for w in factors]


@given(mixed_polys(3), mixed_polys(3), _small_coeffs)
@settings(max_examples=100, deadline=None)
def test_terms_are_read_in_canonical_order(p, q, c):
    f, h = FiniteSupportSeries(p), FiniteSupportSeries(q)
    s, t = coproduct(p), coproduct(q)
    for x in (
        p + q, p - q, -p, p.scale(c), poly_mul(p, q),
        s + t, s - t, -s, s.scale(c), poly_mul(s, t),
        coassoc_lhs(p), coassoc_rhs(q), convolve(f, h).poly,
    ):
        keys = list(x.terms)
        assert keys == sorted(keys, key=canonical_key)
        assert list(x.terms) == keys


@given(mixed_polys(3), mixed_polys(3))
@settings(max_examples=60, deadline=None)
def test_equality_and_coeff_do_not_depend_on_reading_terms(p, q):
    def built():
        """Pairs of equal values built by different routes, none read yet."""
        return [
            (p + q, q + p),
            (p - q, p + (-q)),
            (poly_mul(p, q), oracle_mul(p, q)),
            (coproduct(p + q), coproduct(p) + coproduct(q)),
        ]

    missing = _MIXED.word("abgabgabg")
    for read in (None, 0, 1):
        for (x, y), (ref, _) in zip(built(), built()):
            if read is not None:
                (x, y)[read].terms
            assert x == y and y == x
            assert x != x + x.one(_MIXED)
            for key, c in ref.terms.items():
                factors = key if isinstance(key, tuple) else (key,)
                assert x.coeff(*factors) == y.coeff(*factors) == c
            assert x.coeff(*(missing,) * x.arity) == 0


def test_sums_do_not_revalidate_their_operands(monkeypatch):
    import hopfwords.freealg as freealg

    p, q = NCPoly.from_text(_MIXED, "ab - 2*g + 1"), NCPoly.from_text(_MIXED, "2*g - ba")
    s, t, zero = coproduct(p), coproduct(q), NCPoly.zero(_MIXED)
    calls = []
    canonical = freealg._canonical

    def counting(*args):
        calls.append(args)
        return canonical(*args)

    monkeypatch.setattr(freealg, "_canonical", counting)
    assert str(p + q) == "ab - ba + 1"
    assert s - t and p - p == zero
    assert not calls
    NCPoly(_MIXED, {_MIXED.word("a"): 1})
    assert len(calls) == 1


@contextmanager
def counted_words():
    """Counts the Words constructed inside the block."""
    count = [0]
    init = Word.__init__

    def counting(self, *args):
        count[0] += 1
        init(self, *args)

    Word.__init__ = counting
    try:
        yield count
    finally:
        Word.__init__ = init


@pytest.mark.parametrize("kernel", ["coassoc_lhs", "coproduct", "convolve"])
def test_kernels_build_each_distinct_word_once(kernel):
    # repeated letters make repeated splittings and merges; each distinct
    # word of the result is still built once
    p = NCPoly.from_text(_MIXED, "aabgab - 2*abab + 1/2*bgaa")
    f = FiniteSupportSeries.from_text(_MIXED, "ab + aa - 1/2*b")
    h = FiniteSupportSeries.from_text(_MIXED, "ba + 2*a")
    run = {
        "coassoc_lhs": lambda: coassoc_lhs(p),
        "coproduct": lambda: coproduct(p),
        "convolve": lambda: convolve(f, h),
    }[kernel]
    with counted_words() as built:
        result = run()
    distinct = {w for k in result.terms for w in (k if isinstance(k, tuple) else (k,))}
    assert distinct and built[0] <= len(distinct)


# ---------------------------------------------------------------------------
# parsing errors and alphabet validation


def test_parse_errors_name_position(ab):
    with pytest.raises(ParseError, match="position"):
        NCPoly.from_text(ab, "ab +")
    with pytest.raises(ParseError):
        NCPoly.from_text(ab, "")
    with pytest.raises(ParseError, match="zero denominator"):
        NCPoly.from_text(ab, "1/0*a")
    with pytest.raises(ParseError):
        NCPoly.from_text(ab, "3*")
    with pytest.raises(ParseError):
        NCPoly.from_text(ab, "a ++ b")
    with pytest.raises(ParseError):
        NCPoly.from_text(ab, "xy")
    with pytest.raises(ParseError) as info:
        ab.word("abxa")
    assert str(info.value) == "unknown letter 'x' at position 2 in 'abxa'"


@pytest.mark.parametrize(
    "cls,text,result",
    [
        (NCPoly, "3", "3*1"),
        (NCPoly, "1/2", "1/2*1"),
        (Tensor2, "1(x)a", "1(x)a"),
        (Tensor2, "1 (x) 1", "1(x)1"),
        (Tensor2, "2 *1(x)g", "2*1(x)g"),
        (Tensor2, "0", "0"),
        (Tensor3, "0", "0"),
    ],
)
def test_term_grammar_boundary_values(mixed, cls, text, result):
    assert str(cls.from_text(mixed, text)) == result


@pytest.mark.parametrize(
    "cls,text,message",
    [
        (Tensor2, "3", "expected a word at position 1 in '3'"),
        (Tensor2, "1/2", "expected a word at position 3 in '1/2'"),
        (Tensor2, "2(x)a", "expected a word at position 1 in '2(x)a'"),
        (NCPoly, "2(x)a", "expected '+' or '-', found '(' at position 1 in '2(x)a'"),
        (NCPoly, "1(x)a", "expected '+' or '-', found '(' at position 1 in '1(x)a'"),
        (NCPoly, "3*", "expected a word after '*' at position 2 in '3*'"),
        (Tensor2, "3*", "expected a word after '*' at position 2 in '3*'"),
        (Tensor3, "a(x)b", "expected '(x)' at position 5 in 'a(x)b'"),
    ],
)
def test_term_grammar_boundary_errors(mixed, cls, text, message):
    with pytest.raises(ParseError) as info:
        cls.from_text(mixed, text)
    assert str(info.value) == message


def test_alphabet_validation():
    with pytest.raises(ParseError):
        Alphabet.from_decl("a:L,a:G")
    with pytest.raises(ParseError):
        Alphabet.from_decl("ab:L")
    with pytest.raises(ParseError):
        Alphabet.from_decl("a:X")
    with pytest.raises(ParseError):
        Alphabet.from_decl("1:L")
    with pytest.raises(ParseError):
        Alphabet.from_decl("*:L")
    assert Alphabet.from_decl("a:L,b:L,g:G").decl() == "a:L,b:L,g:G"


def test_alphabet_mismatch_in_poly_ops(ab, single):
    p = NCPoly.from_text(ab, "a")
    q = NCPoly.from_text(single, "a")
    with pytest.raises(DomainError):
        poly_mul(p, q)
    with pytest.raises(DomainError):
        p + q


# ---------------------------------------------------------------------------
# the term store is keyed by symbol strings; Words are built on reading terms

_AB = Alphabet.from_decl("a:L,b:L")


def _distinct_words(x) -> set:
    return {w for k in x.terms for w in (k if isinstance(k, tuple) else (k,))}


def test_kernels_build_no_word_until_terms_is_read():
    p = NCPoly.from_text(_MIXED, "aabgab - 2*abab + 1/2*bgaa + g")
    q = NCPoly.from_text(_MIXED, "ab - 1/3*ba + 2*gg")
    r = NCPoly.from_text(_AB, "aab - 2*ba + 1/3*bbb + 1")
    s, t = coproduct(p), coproduct(q)
    f, h = FiniteSupportSeries(p), FiniteSupportSeries(q)
    with counted_words() as built:
        results = [
            coproduct(p),
            coassoc_lhs(p),
            coassoc_rhs(q),
            poly_mul(p, q),
            poly_mul(s, t),
            convolve(f, h).poly,
            antipode(r),
            p + q,
            p - q,
            s - t,
            p.scale(Fraction(-2, 3)),
            s.scale(3),
        ]
        assert p + q == q + p and s != t and results[0] == s
    assert built[0] == 0
    for x in results:
        with counted_words() as built:
            words = _distinct_words(x)
        assert words and built[0] == len(words)
        with counted_words() as built:
            x.terms
        assert built[0] == 0


@st.composite
def twin_terms(draw):
    """An arity and two term maps keyed by symbol strings over "ab", which
    name words of both a:L,b:L and a:L,b:L,g:G."""
    arity = draw(st.integers(min_value=1, max_value=3))
    text = st.text(alphabet="ab", max_size=3)
    key = text if arity == 1 else st.tuples(*[text] * arity)
    pair = [draw(st.dictionaries(key, _coeffs, max_size=4)) for _ in range(2)]
    return arity, pair


def _word_keyed(alphabet, arity: int, texts: dict) -> dict:
    def word(t):
        return alphabet.word(t or "1")

    return {(word(k) if arity == 1 else tuple(map(word, k))): c for k, c in texts.items()}


@given(twin_terms(), st.text(alphabet="abg", min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_coeff_and_equality_agree_with_a_word_keyed_oracle(drawn, probe):
    arity, (d1, d2) = drawn
    cls = _CLASSES[arity]
    values = {}
    for alphabet in (_AB, _MIXED):
        oracles = [_nonzero(_word_keyed(alphabet, arity, d)) for d in (d1, d2)]
        x, y = (cls(alphabet, _word_keyed(alphabet, arity, d)) for d in (d1, d2))
        values[alphabet] = x
        assert (x == y) == (oracles[0] == oracles[1]) == (y == x)
        assert x + y == cls(alphabet, _merged(*oracles, 1)) and x - y == cls(alphabet, _merged(*oracles, -1))
        keys = list(oracles[0]) + list(oracles[1])
        if all(alphabet.find(ch) for ch in probe):
            w = alphabet.word(probe)
            keys.append(w if arity == 1 else (w,) * arity)
        for key in keys:
            factors = key if arity > 1 else (key,)
            assert x.coeff(*factors) == oracles[0].get(key, 0)
    # the same symbol strings over two alphabets: different values, and a
    # word over the other alphabet has coefficient 0
    x_ab, x_mixed = values[_AB], values[_MIXED]
    assert x_ab != x_mixed and x_mixed != x_ab
    for x, other in ((x_ab, _MIXED), (x_mixed, _AB)):
        for key in _word_keyed(other, arity, d1):
            assert x.coeff(*(key if arity > 1 else (key,))) == 0


_ROUND_TRIP_DUMP = """
import pickle, sys
from hopfwords import Alphabet, NCPoly, coassoc_lhs, coproduct
mixed = Alphabet.from_decl("a:L,b:L,g:G")
p = NCPoly.from_text(mixed, "3*abgab - 1/2*g + 1 - 2/3*ba")
values = [p, coproduct(p), coassoc_lhs(p)]
unread = pickle.dumps(values)
for x in values:
    x.terms
sys.stdout.buffer.write(pickle.dumps((unread, pickle.dumps(values), [str(x) for x in values])))
"""

_ROUND_TRIP_LOAD = """
import pickle, sys
from hopfwords import Alphabet, NCPoly, coassoc_lhs, coproduct
mixed = Alphabet.from_decl("a:L,b:L,g:G")
p = NCPoly.from_text(mixed, "3*abgab - 1/2*g + 1 - 2/3*ba")
expected = [p, coproduct(p), coassoc_lhs(p)]
unread, read, printed = pickle.loads(sys.stdin.buffer.read())
for data in (unread, read):
    values = pickle.loads(data)
    assert values == expected and [str(x) for x in values] == printed
    for x, y in zip(values, expected):
        assert list(x.terms.items()) == list(y.terms.items())
        for key, c in y.terms.items():
            assert x.coeff(*(key if isinstance(key, tuple) else (key,))) == c
        assert x - y == y - y and not x - y
print("found")
"""


def test_pickled_values_round_trip_under_another_hash_seed():
    data = _python(_ROUND_TRIP_DUMP, "1")
    assert _python(_ROUND_TRIP_LOAD, "2", data) == b"found\n"


def test_copies_before_and_after_the_first_read_of_terms():
    p = NCPoly.from_text(_MIXED, "3*abgab - 1/2*g + 1 - 2/3*ba")
    for make in (lambda: p, lambda: coproduct(p), lambda: coassoc_rhs(p)):
        for read in (False, True):
            x = make()
            if read:
                x.terms
            for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
                assert type(clone) is type(x) and clone == x and str(clone) == str(x)
                assert list(clone.terms.items()) == list(make().terms.items())
                assert not clone - x


def test_concurrent_first_reads_of_terms_agree():
    # the first read stores the whole Word-keyed map in one slot, so threads
    # racing on it each see a complete, canonically ordered map
    p = NCPoly.from_text(_MIXED, "aabgab - 2*abab + 1/2*bgaa + g")
    expected = [list(x.terms.items()) for x in (coproduct(p), coassoc_lhs(p))]
    values = [(coproduct(p), coassoc_lhs(p)) for _ in range(40)]
    seen, errors = [], []

    def read():
        try:
            for pair in values:
                seen.append([list(x.terms.items()) for x in pair])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(seen) == 4 * len(values) and all(items == expected for items in seen)


# ---------------------------------------------------------------------------
# the store: integer numerators over one denominator, in lowest terms,
# against a plain dict-of-Fraction reference keyed by symbol strings


def store_of(x) -> dict:
    """x's stored value as Fractions, after checking the canonical form:
    _den > 0, nonzero int numerators, lowest terms, and zero is ({}, 1)."""
    numerators = list(x._terms.values())
    assert type(x._den) is int and x._den > 0
    assert all(type(n) is int and n for n in numerators)
    assert gcd(x._den, *numerators) == 1
    return {k: Fraction(n, x._den) for k, n in x._terms.items()}


def ref_nonzero(d: dict) -> dict:
    return {k: c for k, c in d.items() if c}


def ref_add(d1: dict, d2: dict, sign: int = 1) -> dict:
    out = dict(d1)
    for k, c in d2.items():
        out[k] = out.get(k, 0) + sign * c
    return ref_nonzero(out)


def ref_mul(d1: dict, d2: dict) -> dict:
    out = {}
    for k1, c in d1.items():
        for k2, d in d2.items():
            key = k1 + k2 if isinstance(k1, str) else tuple(map(str.__add__, k1, k2))
            out[key] = out.get(key, 0) + c * d
    return ref_nonzero(out)


def ref_splits(text: str, group_like) -> list:
    """Every splitting of text, letter by letter: a group-like letter goes
    to both sides, a primitive one to either."""
    out = [("", "")]
    for ch in text:
        if ch in group_like:
            out = [(l + ch, r + ch) for l, r in out]
        else:
            out = [(l + ch, r) for l, r in out] + [(l, r + ch) for l, r in out]
    return out


def ref_coproduct(d: dict, group_like) -> dict:
    out = {}
    for text, c in d.items():
        for pair in ref_splits(text, group_like):
            out[pair] = out.get(pair, 0) + c
    return ref_nonzero(out)


def ref_resplit(d: dict, group_like, first: bool) -> dict:
    out = {}
    for (u, v), c in ref_coproduct(d, group_like).items():
        for x, y in ref_splits(u if first else v, group_like):
            key = (x, y, v) if first else (u, x, y)
            out[key] = out.get(key, 0) + c
    return ref_nonzero(out)


def ref_convolve(d1: dict, d2: dict, group_like, letters: str) -> dict:
    """(f * h)(w) = sum of f(u) h(v) over the splittings (u, v) of w, on
    every word w no longer than a support word of each side together."""
    n = max(map(len, d1), default=0) + max(map(len, d2), default=0)
    out = {}
    for w in ("".join(t) for k in range(n + 1) for t in itertools.product(letters, repeat=k)):
        out[w] = sum((d1.get(u, 0) * d2.get(v, 0) for u, v in ref_splits(w, group_like)), Fraction(0))
    return ref_nonzero(out)


def built(cls, alphabet: Alphabet, d: dict):
    """The value of class cls with the symbol-string-keyed terms of d."""
    if cls.arity == 1:
        return cls(alphabet, {Word(alphabet, k): c for k, c in d.items()})
    return cls(alphabet, {tuple(Word(alphabet, t) for t in k): c for k, c in d.items()})


_AB = Alphabet.from_decl("a:L,b:L")
_ref_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_ref_coeffs = st.one_of(st.integers(min_value=-4, max_value=4), _ref_fractions)


def ref_terms(arity: int, letters: str = "abg", max_len: int = 2):
    text = st.text(alphabet=letters, max_size=max_len)
    key = text if arity == 1 else st.tuples(*[text] * arity)
    return st.dictionaries(key, _ref_coeffs, max_size=4)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_numerator_store_against_a_fraction_reference(data):
    arity = data.draw(st.integers(min_value=1, max_value=3))
    cls, group_like = _CLASSES[arity], _MIXED.group_like_symbols
    d1, d2 = data.draw(ref_terms(arity)), data.draw(ref_terms(arity))
    x, y = built(cls, _MIXED, d1), built(cls, _MIXED, d2)
    assert store_of(x) == ref_nonzero(d1)
    assert store_of(x + y) == ref_add(d1, d2)
    assert store_of(x - y) == ref_add(d1, d2, -1)
    assert store_of(-x) == ref_add({}, d1, -1)
    for c in (data.draw(st.integers(min_value=-4, max_value=4)), data.draw(_ref_fractions), 0):
        assert store_of(x.scale(c)) == ref_nonzero({k: c * v for k, v in d1.items()})
    assert store_of(poly_mul(x, y)) == ref_mul(d1, d2)
    assert store_of(cls.from_text(_MIXED, str(x))) == store_of(x)
    # the constructor merges repeated keys, which may cancel
    merged = cls(_MIXED, [*x.terms.items(), *[(k, -c) for k, c in y.terms.items()]])
    assert store_of(merged) == ref_add(d1, d2, -1)
    # the public edge still reads Fractions
    assert all(type(c) is Fraction for c in x.terms.values())
    for k, c in ref_nonzero(d1).items():
        words = (Word(_MIXED, k),) if arity == 1 else tuple(Word(_MIXED, t) for t in k)
        assert x.coeff(*words) == c and type(x.coeff(*words)) is Fraction
    # equal values reached by different routes have equal stores
    c = data.draw(_ref_fractions.filter(bool))
    assert (x + y) - y == x and x.scale(c).scale(1 / c) == x and y - (y - x) == x
    assert (x.scale(c) == x) == (c == 1 or not x)
    zero = x - x
    assert zero == cls(_MIXED) and (zero._terms, zero._den) == ({}, 1)
    if arity == 1:
        lhs, rhs = coassoc_lhs(x), coassoc_rhs(x)
        assert store_of(coproduct(x)) == ref_coproduct(d1, group_like)
        assert store_of(lhs) == ref_resplit(d1, group_like, True)
        assert store_of(rhs) == ref_resplit(d1, group_like, False)
        assert lhs == rhs and coproduct(x * y) == coproduct(x) * coproduct(y)
        e = counit(x)
        assert type(e) is Fraction
        assert e == sum((c for t, c in d1.items() if group_like.issuperset(t)), Fraction(0))
        conv = convolve(FiniteSupportSeries(x), FiniteSupportSeries(y)).poly
        assert store_of(conv) == ref_convolve(d1, d2, group_like, "abg")
        d3 = data.draw(ref_terms(1, "ab", 4))
        z = built(NCPoly, _AB, d3)
        s = antipode(z)
        assert store_of(s) == ref_nonzero({t[::-1]: (-1) ** len(t) * c for t, c in d3.items()})
        assert antipode(s) == z


def test_freealg_kernels_do_no_fraction_arithmetic(mixed, ab, monkeypatch):
    """The kernels, sums, differences, equality, integer scaling and the
    antipode run on the stored integer numerators: no Fraction is added,
    subtracted, multiplied, divided or compared. Fractions are built only
    at the edge (parsing, `terms`, `coeff` and `counit`)."""
    p = NCPoly.from_text(mixed, "1/2*agb - 2/3*ba + 3/4*g - 5/6")
    q = NCPoly.from_text(mixed, "2/5*gb + 1/3*a - 7")
    r = NCPoly.from_text(ab, "1/2*aab - 1/3*ba + 3/7*b")
    f, h = FiniteSupportSeries(p), FiniteSupportSeries(q)
    expected = [poly_mul(p, q), coproduct(p), coassoc_lhs(q), p + q, p - q, p.scale(-6), antipode(r),
                convolve(f, h).poly]
    assert str(expected[5]) == "-3*agb + 4*ba - 9/2*g + 5*1"

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic in a freealg kernel")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__eq__"):
        monkeypatch.setattr(Fraction, op, refuse)
    s, t = coproduct(p), coproduct(q)
    assert [poly_mul(p, q), s, coassoc_lhs(q), p + q, p - q, p.scale(-6), antipode(r),
            convolve(f, h).poly] == expected
    assert coassoc_lhs(p) == coassoc_rhs(p) and coproduct(p * q) == s * t
    assert (p + q) - q == p and p.scale(3) == p + p + p and not p - p
    assert antipode(antipode(r)) == r and tensor2_mul(s, t) == coproduct(poly_mul(p, q))
    assert convolve(convolve(f, h), f) == convolve(f, convolve(h, f))
    with pytest.raises(AssertionError):
        Fraction(1, 2) + Fraction(1, 3)
