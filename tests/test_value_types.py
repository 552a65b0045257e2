"""The immutable value types (Letter, Alphabet, Word, HankelSlice) and the
words the library derives from other words as symbol strings: each derived
word must equal, and hash like, the same letters passed to the constructor
Word(alphabet, letters) as a sequence of Letter."""

import copy
import pickle
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfwords import (
    Alphabet,
    FiniteSupportSeries,
    HankelSlice,
    Letter,
    LetterKind,
    Matrix,
    NCPoly,
    RecognizableSeries,
    Word,
    behavior_table,
    conc,
    embed_finite,
    hankel,
    learn,
    shift_left,
    shift_right,
    splittings,
)
from hopfwords.dualforms import _merge_texts
from hopfwords.errors import DomainError, InconclusiveError, ParseError

MIXED = Alphabet.from_decl("a:L,b:L,g:G")


def _values():
    """(value, an equal value built separately, a different value) per type."""
    a = MIXED.word("agb")
    window = hankel(FiniteSupportSeries.from_text(MIXED, "2*ag - b"), 1, 1)
    rows, cols, entries = window.rows, window.cols, window.entries
    return [
        (
            Letter("a", LetterKind.PRIMITIVE),
            Letter("a", LetterKind.PRIMITIVE),
            Letter("a", LetterKind.GROUP_LIKE),
        ),
        (MIXED, Alphabet.from_decl("a:L,b:L,g:G"), Alphabet.from_decl("a:L,b:L")),
        (a, Word(MIXED, tuple(a.letters)), MIXED.word("gab")),
        (window, HankelSlice(rows, cols, entries), HankelSlice(rows, cols, -entries)),
    ]


VALUE_IDS = ["Letter", "Alphabet", "Word", "HankelSlice"]


@pytest.mark.parametrize("value,same,other", _values(), ids=VALUE_IDS)
def test_value_equality_hash_and_pickle(value, same, other):
    assert value == same and hash(value) == hash(same)
    assert value != other
    assert value != object() and value.__eq__(object()) is NotImplemented
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert clone == value and hash(clone) == hash(value)
        assert type(clone) is type(value)
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value,same,other", _values(), ids=VALUE_IDS)
def test_values_are_immutable(value, same, other):
    for name in type(value).__slots__:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == same


def test_value_reprs():
    a = Letter("a", LetterKind.PRIMITIVE)
    g = Letter("g", LetterKind.GROUP_LIKE)
    assert repr(a) == "Letter(symbol='a', kind=<LetterKind.PRIMITIVE: 'L'>)"
    assert repr(Alphabet((a, g))) == (
        "Alphabet(letters=(Letter(symbol='a', kind=<LetterKind.PRIMITIVE: 'L'>), "
        "Letter(symbol='g', kind=<LetterKind.GROUP_LIKE: 'G'>)))"
    )
    alph = Alphabet((a, g))
    assert repr(alph.word("ag")) == "Word(ag)"
    assert repr(alph.unit_word()) == "Word(1)"
    window = hankel(FiniteSupportSeries.from_text(alph, "a"), 0, 1)
    assert repr(window) == (
        "HankelSlice(rows=(Word(1),), cols=(Word(1), Word(a), Word(g)), entries=Matrix[0 1 0])"
    )


def test_constructors_still_check_their_input():
    with pytest.raises(ParseError):
        Letter("ab", LetterKind.PRIMITIVE)
    with pytest.raises(ParseError):
        Letter("+", LetterKind.PRIMITIVE)
    with pytest.raises(ParseError):
        Alphabet((Letter("a", LetterKind.PRIMITIVE), Letter("a", LetterKind.GROUP_LIKE)))
    with pytest.raises(DomainError):
        Word(MIXED, (Letter("a", LetterKind.GROUP_LIKE),))
    with pytest.raises(DomainError):
        Word(Alphabet.from_decl("a:L"), MIXED.word("ab").letters)


def test_word_accepts_its_symbol_string():
    ab = Alphabet.from_decl("a:L,b:L")
    for text in ("ax", "1", "a+", "g"):
        with pytest.raises(DomainError, match="is not in the alphabet"):
            Word(ab, text)
    word = Word(ab, "ab")
    assert word == ab.word("ab") == Word(ab, ab.word("ab").letters)
    assert hash(word) == hash(ab.word("ab")) == hash(Word(ab, ab.word("ab").letters))
    assert word.letters == (ab.find("a"), ab.find("b")) and len(word) == 2
    assert Word(ab, "") == ab.unit_word() == Word(ab, ()) and str(Word(ab, "")) == "1"


def test_pickled_word_keeps_its_letters_checked():
    # a loaded word goes through the checked constructor, never the trusted one
    w = MIXED.word("gab")
    assert Word.__reduce__(w) == (Word, (MIXED, w.letters))


# ---------------------------------------------------------------------------
# derived words


@contextmanager
def built_words():
    """Collects every Word constructed inside the block."""
    built = []
    init = Word.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    Word.__init__ = recording
    try:
        yield built
    finally:
        Word.__init__ = init


def assert_like_checked(words):
    assert words
    for w in words:
        ref = Word(w.alphabet, tuple(w.letters))
        assert w == ref and ref == w
        assert hash(w) == hash(ref)
        assert str(w) == str(ref) and w.symbols() == ref.symbols()


word_text = st.text(alphabet="abg", max_size=6)
support = st.lists(word_text, min_size=1, max_size=4)


@given(word_text, word_text, st.data())
@settings(max_examples=60, deadline=None)
def test_derived_words_equal_checked_words(s, t, data):
    u, v = MIXED.word(s or "1"), MIXED.word(t or "1")
    positions = sorted(data.draw(st.sets(st.integers(0, len(s) - 1)))) if s else []
    with built_words() as built:
        u.subword(positions)
        u.reverse()
        conc(u, v)
        list(splittings(u))
        _merge_texts(u.symbols(), v.symbols(), MIXED.group_like_symbols)
        list(MIXED.words(2))
        NCPoly.from_text(MIXED, f"{s or 1} - 2*{t or 1}")
    assert_like_checked(built)


@given(support, word_text)
@settings(max_examples=40, deadline=None)
def test_series_derived_words_equal_checked_words(texts, s):
    f = FiniteSupportSeries.from_text(MIXED, " + ".join(t or "1" for t in texts))
    w = MIXED.word(s or "1")
    with built_words() as built:
        rep = embed_finite(f)
        behavior_table(rep, 2)
        hankel(RecognizableSeries(rep), 1, 2)
        shift_right(f, w)
        shift_left(f, w)
        try:
            learn(f, 3)
        except InconclusiveError:
            pass
    assert_like_checked(built)


def test_embed_finite_letter_matrices_are_the_suffix_automaton():
    f = FiniteSupportSeries.from_text(MIXED, "ab - 2*gb + 1")
    rep = embed_finite(f)
    # states 1, b, ab, gb in shortlex order; a.v moves to v on the letter a
    a, b, g = (MIXED.find(x) for x in "abg")
    assert rep.mu[a] == Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]])
    assert rep.mu[b] == Matrix([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert rep.mu[g] == Matrix([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]])
    for w in MIXED.words(3):
        assert rep.value(w) == f.coeff(w)
