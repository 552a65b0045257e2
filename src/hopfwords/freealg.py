"""The free algebra over a partitioned alphabet.

Words under concatenation; finite linear combinations with exact rational
coefficients of words and of tensors of words (one type, LinComb, whose
subclasses NCPoly, Tensor2 and Tensor3 fix the number of tensor factors);
the subword coproduct driven by the group-like/primitive partition of the
letters, the counit, and the antipode (which exists exactly when every
letter is primitive).

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share across threads.

A LinComb keeps its terms keyed by symbol strings (a str at arity 1, a tuple
of str otherwise), checked against its alphabet when built, so kernels, sums
and equality hash and compare plain strings and build no Word. The public
`terms`, keyed by Word and in canonical order, is built on its first read.
A Word hashes as its symbol string, computed once at construction, and
equals another Word when both the symbol strings and the alphabets are
equal. str hashes are salted per process, so no cached hash is ever
pickled; words, alphabets and linear combinations are rebuilt from their
parts when loaded. Coefficients are exact: only int and Fraction are
accepted, anything else is a TypeError. They are stored as integer
numerators over one denominator, so every operation here runs on ints and
a Fraction is built only at the edge (`terms`, `coeff`, `counit`).
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from fractions import Fraction
from itertools import product as _cartesian
from math import gcd, lcm
from typing import Iterator, Sequence

from .errors import DomainError, ParseError


class LetterKind(Enum):
    GROUP_LIKE = "G"
    PRIMITIVE = "L"


# characters that collide with the expression grammar and cannot be letters
_RESERVED = set("0123456789+-*/():,⊗")


class _Frozen:
    """Base of the immutable value types: the slots are set once by
    __init__ and every later assignment or deletion raises AttributeError.
    Equality, hash, repr and pickling read the slots in order; a loaded
    value is rebuilt through __init__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__


class Letter(_Frozen):
    """A single alphabet symbol together with its coproduct tag."""

    __slots__ = ("symbol", "kind")

    def __init__(self, symbol: str, kind: LetterKind):
        if len(symbol) != 1 or not (33 <= ord(symbol) <= 126):
            raise ParseError(
                f"letter symbol must be a single printable ASCII character, got {symbol!r}"
            )
        if symbol in _RESERVED:
            raise ParseError(f"letter symbol {symbol!r} collides with the expression grammar")
        _set(self, "symbol", symbol)
        _set(self, "kind", kind)

    def __hash__(self) -> int:
        return hash(self.symbol)

    @property
    def group_like(self) -> bool:
        return self.kind is LetterKind.GROUP_LIKE


class Alphabet(_Frozen):
    """Ordered finite set of tagged letters; the G/L partition is the tags.

    The hash, the symbol-to-letter map and the letter subsets below are
    computed once at construction. The hash is never pickled (see
    __reduce__)."""

    __slots__ = (
        "letters",
        "_letter_set",
        "_by_symbol",
        "_symbol_set",
        "sorted_letters",
        "group_like",
        "group_like_symbols",
        "has_group_like",
        "_hash",
    )

    def __init__(self, letters: tuple[Letter, ...]):
        by_symbol = {}
        for letter in letters:
            if letter.symbol in by_symbol:
                raise ParseError(f"duplicate letter {letter.symbol!r} in alphabet")
            by_symbol[letter.symbol] = letter
        group_like = tuple(l for l in letters if l.group_like)
        _set(self, "letters", letters)
        _set(self, "_letter_set", frozenset(letters))
        _set(self, "_by_symbol", by_symbol)
        _set(self, "_symbol_set", frozenset(by_symbol))
        # ascending symbol-code order; used for word enumeration
        _set(self, "sorted_letters", tuple(sorted(letters, key=lambda l: l.symbol)))
        _set(self, "group_like", group_like)
        _set(self, "group_like_symbols", frozenset(l.symbol for l in group_like))
        _set(self, "has_group_like", bool(group_like))
        _set(self, "_hash", hash(letters))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Alphabet):
            return NotImplemented
        return self._hash == other._hash and self.letters == other.letters

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Alphabet(letters={self.letters!r})"

    def __reduce__(self):
        return Alphabet, (self.letters,)

    @classmethod
    def from_decl(cls, decl: str) -> "Alphabet":
        """Parse a declaration string such as "a:L,b:L,g:G"."""
        letters = []
        for pos, entry in enumerate(decl.split(",")):
            item = entry.strip()
            parts = item.split(":")
            if len(parts) != 2 or not parts[0] or parts[1] not in ("G", "L"):
                raise ParseError(
                    f"bad alphabet entry {item!r} at position {pos}: expected 'symbol:G' or 'symbol:L'"
                )
            letters.append(Letter(parts[0], LetterKind(parts[1])))
        return cls(tuple(letters))

    def decl(self) -> str:
        return ",".join(f"{l.symbol}:{l.kind.value}" for l in self.letters)

    def find(self, symbol: str):
        return self._by_symbol.get(symbol)

    def unit_word(self) -> "Word":
        return Word(self, "")

    def word(self, text: str) -> "Word":
        """Parse a word: "1" is the empty word, otherwise one letter per character."""
        if text == "1":
            return self.unit_word()
        if not self._symbol_set.issuperset(text):
            i = next(i for i, ch in enumerate(text) if ch not in self._symbol_set)
            raise ParseError(f"unknown letter {text[i]!r} at position {i} in {text!r}")
        return Word(self, text)

    def words(self, max_len: int) -> Iterator["Word"]:
        """All words of length <= max_len in ascending shortlex order."""
        symbols = [l.symbol for l in self.sorted_letters]
        for n in range(max_len + 1):
            for text in map("".join, _cartesian(symbols, repeat=n)):
                yield Word(self, text)


class Word(_Frozen):
    """A finite string of letters; the empty word is the multiplicative unit.

    A word is stored as its alphabet and its symbol string, one character
    per letter; `letters` is read off the string through the alphabet.
    `Word(alphabet, letters)` takes either a sequence of Letter or the
    symbol string, and checks every letter against the alphabet either way.

    Key contract: the hash is the hash of the symbol string, computed once at
    construction; two words are equal when their symbol strings and their
    alphabets are equal (so "a" over a:L,b:L and "a" over a:L,b:L,g:G are
    distinct keys). str hashes are salted per process, so the hash is never
    pickled: a word is rebuilt from (alphabet, letters) when loaded.
    """

    __slots__ = ("alphabet", "_symbols", "_hash")

    def __init__(self, alphabet: Alphabet, letters: str | Sequence[Letter]):
        if isinstance(letters, str):
            symbols, allowed = letters, alphabet._symbol_set
        else:
            letters = tuple(letters)
            symbols, allowed = "".join([l.symbol for l in letters]), alphabet._letter_set
        if not allowed.issuperset(letters):
            bad = next(x for x in letters if x not in allowed)
            raise DomainError(f"letter {bad!r} is not in the alphabet")
        _set_alphabet(self, alphabet)
        _set_symbols(self, symbols)
        _set_hash(self, hash(symbols))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Word):
            return NotImplemented
        return self._symbols == other._symbols and (
            self.alphabet is other.alphabet or self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Word, (self.alphabet, self.letters)

    def __len__(self) -> int:
        return len(self._symbols)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(map(self.alphabet._by_symbol.__getitem__, self._symbols))

    @property
    def is_unit(self) -> bool:
        return not self._symbols

    def symbols(self) -> str:
        return self._symbols

    def __str__(self) -> str:
        return self._symbols or "1"

    def __repr__(self) -> str:
        return f"Word({self})"

    def reverse(self) -> "Word":
        return Word(self.alphabet, self._symbols[::-1])

    def subword(self, positions: Sequence[int]) -> "Word":
        """Letters at the given (increasing) positions, in order."""
        symbols = self._symbols
        return Word(self.alphabet, "".join([symbols[i] for i in positions]))


# the slot setters themselves, which bypass _Frozen.__setattr__; cheaper
# than object.__setattr__ on the most frequently built value
_set_alphabet, _set_symbols, _set_hash = (
    Word.__dict__[name].__set__ for name in Word.__slots__
)


def _same_alphabet(a: Alphabet, b: Alphabet):
    if a is not b and a != b:
        raise DomainError("alphabet mismatch")


def _exact(c) -> int | Fraction:
    """A coefficient as an int or a Fraction; only int (not bool) and
    Fraction are exact inputs. Both are immutable, so they are returned as
    they are."""
    if c.__class__ is int or c.__class__ is Fraction:
        return c
    if isinstance(c, Fraction):
        return Fraction(c)
    if isinstance(c, int) and not isinstance(c, bool):
        return int(c)
    raise TypeError(f"coefficient must be an int or a Fraction, got {c!r}")


def _text_order(text: str) -> tuple:
    """Sort key of one tensor factor's symbol string: length descending,
    then symbols ascending; symbols are single characters, so comparing
    symbol strings compares the symbol sequences. Terms are ordered factor
    by factor."""
    return (-len(text), text)


def _canonical(alphabet: Alphabet, terms, arity: int) -> tuple[dict, int]:
    """Validate and merge terms, drop zero coefficients, and clear the
    denominators with one lcm: (numerators, den) in lowest terms. A key is
    a Word at arity 1 and a tuple of `arity` words otherwise; it is stored
    as its symbol strings (a str, or a tuple of str)."""
    single = arity == 1
    acc: dict = {}
    get = acc.get
    items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
    for key, c in items:
        for w in (key,) if single else key:
            if w.alphabet is not alphabet:
                _same_alphabet(w.alphabet, alphabet)
        key = key._symbols if single else tuple([w._symbols for w in key])
        if c.__class__ is not int and c.__class__ is not Fraction:
            c = _exact(c)
        if c:
            old = get(key)
            acc[key] = c if old is None else old + c
    # each merged coefficient is in lowest terms (a zero one has denominator
    # 1), so the numerators over the lcm of their denominators are too
    den = lcm(*[c.denominator for c in acc.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in acc.items() if c}, den


class LinComb:
    """Finite Q-linear combination of tensors of `arity` words: an element
    of A, A (x) A or A (x) A (x) A. Use the subclasses NCPoly, Tensor2 and
    Tensor3, which fix the arity.

    A term's key in `terms` is a Word at arity 1 and a tuple of words
    otherwise. The nonzero terms are kept unordered in _terms, keyed by
    symbol strings (a str at arity 1, a tuple of str otherwise) over the
    value's alphabet, to integer numerators over one denominator _den > 0,
    in lowest terms (zero is ({}, 1)), as Matrix stores its entries. The
    first read of `terms` orders them component by component, by word
    length descending then symbols ascending, so output is deterministic
    and parse(str(x)) == x, and builds each distinct word and Fraction
    once. Values of different arity never compare equal, add or multiply.
    """

    __slots__ = ("alphabet", "_terms", "_den", "_words")
    arity: int

    def __init__(self, alphabet: Alphabet, terms=()):
        self.alphabet = alphabet
        self._terms, self._den = _canonical(alphabet, terms, self.arity)
        self._words = None

    @classmethod
    def _of_checked(cls, alphabet: Alphabet, terms: dict, den: int):
        """The value terms / den, keyed by symbol strings over alphabet and
        already checked, merged, nonzero and in lowest terms: built by
        _lift, or by negating, reversing or taking one word."""
        out = cls.__new__(cls)
        out.alphabet = alphabet
        out._terms = terms
        out._den = den
        out._words = None
        return out

    @property
    def terms(self) -> dict:
        """The terms keyed by Word, in canonical order, with Fraction
        coefficients. Built on the first read, each distinct word once
        through the checked constructor, and stored whole in one slot, so
        concurrent first reads are safe."""
        words = self._words
        if words is None:
            alphabet, store, den = self.alphabet, self._terms, self._den
            coeff = {n: Fraction(n, den) for n in set(store.values())}.__getitem__
            if self.arity == 1:
                words = {
                    Word(alphabet, k): coeff(n)
                    for k, n in sorted(store.items(), key=lambda kv: _text_order(kv[0]))
                }
            else:
                built = {t: Word(alphabet, t) for t in {t for k in store for t in k}}
                get = built.__getitem__
                words = {
                    tuple(map(get, k)): coeff(n)
                    for k, n in sorted(store.items(), key=lambda kv: list(map(_text_order, kv[0])))
                }
            self._words = words
        return words

    def __reduce__(self):
        # rebuilt through the checked constructor from its Word-keyed terms,
        # so a loaded store holds only strings checked against its alphabet
        return self.__class__, (self.alphabet, self.terms)

    @classmethod
    def one(cls, alphabet: Alphabet):
        u = alphabet.unit_word()
        return cls(alphabet, {u if cls.arity == 1 else (u,) * cls.arity: 1})

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str):
        return cls(alphabet, _parse_sum(_Cursor(text), alphabet, cls.arity))

    def _factors(self, key) -> tuple:
        """The words of a term key, one per tensor factor."""
        return (key,) if self.arity == 1 else key

    def coeff(self, *words: Word) -> Fraction:
        """The coefficient of the term with these words, one per factor; 0
        when a word is over another alphabet."""
        if len(words) != self.arity:
            raise TypeError(f"coeff of a {type(self).__name__} takes {self.arity} word(s)")
        alphabet = self.alphabet
        for w in words:
            if not isinstance(w, Word) or (w.alphabet is not alphabet and w.alphabet != alphabet):
                return Fraction(0)
        key = words[0]._symbols if self.arity == 1 else tuple([w._symbols for w in words])
        n = self._terms.get(key)
        return Fraction(0) if n is None else Fraction(n, self._den)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return (
            other.__class__ is self.__class__
            and self._den == other._den
            and self.alphabet == other.alphabet
            and self._terms == other._terms
        )

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        _same_alphabet(self.alphabet, other.alphabet)
        if not (self._terms and other._terms):
            return self if self._terms else other
        den = lcm(self._den, other._den)
        k_a, k_b = den // self._den, den // other._den
        acc = dict(self._terms) if k_a == 1 else {k: c * k_a for k, c in self._terms.items()}
        get = acc.get
        for k, c in other._terms.items():
            acc[k] = get(k, 0) + c * k_b
        return _lift(self.__class__, self.alphabet, acc, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of_checked(self.alphabet, {k: -c for k, c in self._terms.items()}, self._den)

    def __mul__(self, other):
        if other.__class__ is self.__class__:
            return poly_mul(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _exact(c)
        if not c:
            return self._of_checked(self.alphabet, {}, 1)
        p = c.numerator
        acc = {k: p * v for k, v in self._terms.items()}
        return _lift(self.__class__, self.alphabet, acc, self._den * c.denominator)

    def __str__(self) -> str:
        single = self.arity == 1
        parts = []
        for k, c in self.terms.items():
            n, d = c.numerator, c.denominator
            body = str(k) if single else "(x)".join(map(str, k))
            mag = f"{abs(n)}" if d == 1 else f"{abs(n)}/{d}"
            text = body if mag == "1" else f"{mag}*{body}"
            if parts:
                parts.append(("+ " if n > 0 else "- ") + text)
            else:
                parts.append(text if n > 0 else "-" + text)
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class NCPoly(LinComb):
    """Noncommutative polynomial: a finite Q-linear combination of words."""

    __slots__ = ()
    arity = 1

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "NCPoly":
        return cls(alphabet)

    @classmethod
    def from_word(cls, w: Word, coeff=1) -> "NCPoly":
        c = _exact(coeff)
        return cls._of_checked(w.alphabet, {w._symbols: c.numerator} if c else {}, c.denominator)


class Tensor2(LinComb):
    """Finite Q-linear combination of word pairs: an element of A (x) A."""

    __slots__ = ()
    arity = 2


class Tensor3(LinComb):
    """Finite Q-linear combination of word triples: an element of A (x) A (x) A."""

    __slots__ = ()
    arity = 3


# ---------------------------------------------------------------------------
# operations


def conc(u: Word, v: Word) -> Word:
    """Juxtaposition uv."""
    _same_alphabet(u.alphabet, v.alphabet)
    return Word(u.alphabet, u._symbols + v._symbols)


def _numerators(x: LinComb) -> tuple:
    """x's stored terms and denominator: ((key, numerator) pairs, den),
    each key the term's symbol strings (a str at arity 1, a tuple of str
    otherwise). The kernels below add these ints, which is far cheaper than
    adding Fractions, and _lift brings their sums to lowest terms."""
    return x._terms.items(), x._den


def _lift(cls, alphabet: Alphabet, acc: dict, den: int) -> LinComb:
    """The LinComb of class cls with the nonzero terms of acc, which maps
    symbol strings (a str at arity 1, a tuple of str otherwise) to integer
    numerators over den > 0. The strings are kernel output over alphabet,
    so they are stored as they are; numerators and den are brought to
    lowest terms by one gcd, and zero is stored as ({}, 1)."""
    terms = {k: n for k, n in acc.items() if n}
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {k: n // g for k, n in terms.items()}
            den //= g
    return cls._of_checked(alphabet, terms, den)


def poly_mul(x: LinComb, y: LinComb) -> LinComb:
    """Bilinear extension of concatenation, componentwise on tensors:
    (u1 (x) v1)(u2 (x) v2) = u1u2 (x) v1v2. Operands of different arity
    are a TypeError."""
    if x.__class__ is not y.__class__:
        raise TypeError(f"cannot multiply {type(x).__name__} by {type(y).__name__}")
    _same_alphabet(x.alphabet, y.alphabet)
    (left, dx), (right, dy) = _numerators(x), _numerators(y)
    acc: dict = {}
    get = acc.get
    if x.arity == 1:
        for s, c in left:
            for t, d in right:
                key = s + t
                acc[key] = get(key, 0) + c * d
    else:
        for s, c in left:
            for t, d in right:
                key = tuple(map(str.__add__, s, t))
                acc[key] = get(key, 0) + c * d
    return _lift(x.__class__, x.alphabet, acc, dx * dy)


# the product on A (x) A is the same componentwise product
tensor2_mul = poly_mul


def _split_table(text: str, group_like, memo: dict) -> list:
    """The (left, right) symbol-string pairs of every splitting of text, in
    the order splittings yields them, read down the word tree: a primitive
    letter a gives D(ua) = D(u)(a (x) 1) + D(u)(1 (x) a), and a run G of
    group-like letters gives D(uG) = D(u)(G (x) G).

    memo holds the table of every prefix that ends in a primitive letter,
    and of every text asked for, so one memo per call expands each shared
    prefix and each repeated subword once. A text of k primitive letters
    adds fewer than 3 * 2^k pairs to it, against the 2^k of its own table."""
    table = memo.get(text)
    if table is not None:
        return table
    ends = [i + 1 for i, ch in enumerate(text) if ch not in group_like]
    # resume from the longest prefix already expanded
    done = len(ends)
    while done and (table := memo.get(text[: ends[done - 1]])) is None:
        done -= 1
    if table is None:
        table, pos = [("", "")], 0
    else:
        pos = ends[done - 1]
    for end in ends[done:]:
        run = text[pos : end - 1]
        ran = run + text[end - 1]
        table = [(l + ran, r + run) for l, r in table] + [(l + run, r + ran) for l, r in table]
        memo[text[:end]] = table
        pos = end
    if pos < len(text) or not ends:
        run = text[pos:]
        table = [(l + run, r + run) for l, r in table]
        memo[text] = table
    return table


def splittings(w: Word) -> Iterator[tuple[Word, Word]]:
    """All 2^k two-sided subword splittings of w, k the number of primitive
    positions. Group-like positions are kept on both sides; repeated letters
    make repeated pairs, one per splitting. Each distinct subword is built
    once per call."""
    alphabet = w.alphabet
    table = _split_table(w._symbols, alphabet.group_like_symbols, {})
    words = {text: Word(alphabet, text) for text in {t for pair in table for t in pair}}
    for left, right in table:
        yield words[left], words[right]


def _split_all(p: NCPoly, memo: dict) -> tuple[dict, int]:
    """The coproduct of p on symbol-string pairs, as integer numerators over
    one denominator (see _numerators), zero pairs included."""
    group_like = p.alphabet.group_like_symbols
    terms, den = _numerators(p)
    acc: dict = {}
    get = acc.get
    for text, c in terms:
        for pair in _split_table(text, group_like, memo):
            acc[pair] = get(pair, 0) + c
    return acc, den


def coproduct(p: NCPoly) -> Tensor2:
    """Linear extension of the word coproduct."""
    return _lift(Tensor2, p.alphabet, *_split_all(p, {}))


def counit(p: NCPoly) -> Fraction:
    """1 on words of group-like letters only (the empty word included),
    0 elsewhere, extended linearly."""
    group_like = p.alphabet.group_like_symbols
    return Fraction(sum([c for text, c in p._terms.items() if group_like.issuperset(text)]), p._den)


def _check_antipode_domain(alphabet: Alphabet):
    """The antipode exists exactly when every letter is primitive."""
    if alphabet.has_group_like:
        raise DomainError("no antipode: group-like letters present")


def antipode(p: NCPoly) -> NCPoly:
    """Sign-reversed word reversal, defined only when no letter is group-like."""
    _check_antipode_domain(p.alphabet)
    # reversal is a bijection on words, so the terms stay merged and nonzero
    return NCPoly._of_checked(
        p.alphabet,
        {text[::-1]: (c if len(text) % 2 == 0 else -c) for text, c in p._terms.items()},
        p._den,
    )


def _resplit(p: NCPoly, first: bool) -> Tensor3:
    """Split p, then split again the first or the second component."""
    group_like = p.alphabet.group_like_symbols
    memo: dict = {}
    pairs, den = _split_all(p, memo)
    acc: dict = {}
    get = acc.get
    for (u, v), c in pairs.items():
        if not c:
            continue
        if first:
            keys = [(x, y, v) for x, y in _split_table(u, group_like, memo)]
        else:
            keys = [(u, x, y) for x, y in _split_table(v, group_like, memo)]
        for key in keys:
            acc[key] = get(key, 0) + c
    return _lift(Tensor3, p.alphabet, acc, den)


def coassoc_lhs(p: NCPoly) -> Tensor3:
    """Split, then resplit the first component."""
    return _resplit(p, True)


def coassoc_rhs(p: NCPoly) -> Tensor3:
    """Split, then resplit the second component."""
    return _resplit(p, False)


# ---------------------------------------------------------------------------
# text grammar
#
#   sum    := ["+"|"-"] term (("+"|"-") term)*
#   term   := [rational "*"?]? word ("(x)" word)*    (arity - 1 separators)
#   rational := int | int "/" posint
#   word   := "1" | letter+
#
# At arity 1 a bare rational is a coefficient of the unit word. In a tensor
# the bare token "1" stands for the unit word and the bare token "0" is a
# whole term, the zero element, so the zero of every arity prints and parses
# as "0". The Unicode tensor sign is accepted in place of "(x)" on input only.


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def fail(self, msg: str):
        raise ParseError(f"{msg} at position {self.pos} in {self.text!r}")


# ASCII only: str.isdigit also accepts digits such as "²" that int() refuses
_DIGITS = frozenset("0123456789")


def _parse_uint(cur: _Cursor) -> int:
    start = cur.pos
    while cur.peek() in _DIGITS:
        cur.advance()
    if cur.pos == start:
        cur.fail("expected digits")
    try:
        return int(cur.text[start : cur.pos])
    except ValueError:  # more digits than int() converts
        cur.fail(f"number of {cur.pos - start} digits is too long")


def _parse_rational(cur: _Cursor) -> int | Fraction:
    num = _parse_uint(cur)
    if cur.peek() == "/":
        cur.advance()
        den = _parse_uint(cur)
        if den == 0:
            cur.fail("zero denominator")
        return Fraction(num, den)
    return num


def _parse_word_opt(cur: _Cursor, alphabet: Alphabet):
    cur.skip_ws()
    if cur.peek() == "1":
        cur.advance()
        return alphabet.unit_word()
    text, start, end = cur.text, cur.pos, cur.pos
    symbols = alphabet._symbol_set
    while end < len(text) and text[end] in symbols:
        end += 1
    if end == start:
        return None
    cur.pos = end
    return Word(alphabet, text[start:end])


def _parse_term(cur: _Cursor, alphabet: Alphabet, arity: int):
    """One term: its coefficient and its key (a Word at arity 1, a tuple of
    `arity` words otherwise)."""
    cur.skip_ws()
    if cur.peek() in _DIGITS:
        start = cur.pos
        coeff = _parse_rational(cur)
        cur.skip_ws()
        starred = cur.peek() == "*"
        if starred:
            cur.advance()
        first = _parse_word_opt(cur, alphabet)
        if first is None:
            if starred:
                cur.fail("expected a word after '*'")
            # a bare rational is the coefficient of the unit word; in a
            # tensor the bare token "1" is the unit word and the bare token
            # "0" the whole term, zero
            token = cur.text[start : cur.pos].strip()
            if arity > 1 and token == "0":
                return coeff, (alphabet.unit_word(),) * arity
            if arity > 1 and token != "1":
                cur.fail("expected a word")
            first = alphabet.unit_word()
    else:
        coeff = 1
        first = _parse_word_opt(cur, alphabet)
        if first is None:
            cur.fail("expected a term")
    if arity == 1:
        return coeff, first
    comps = [first]
    for _ in range(arity - 1):
        cur.skip_ws()
        if cur.peek() == "⊗":
            cur.advance()
        elif cur.text.startswith("(x)", cur.pos):
            cur.pos += 3
        else:
            cur.fail("expected '(x)'")
        w = _parse_word_opt(cur, alphabet)
        if w is None:
            cur.fail("expected a word after '(x)'")
        comps.append(w)
    return coeff, tuple(comps)


def _parse_sum(cur: _Cursor, alphabet: Alphabet, arity: int):
    """The (key, coefficient) of each term, in the order written."""
    if cur.done():
        cur.fail("empty expression")
    sign = 1
    cur.skip_ws()
    if cur.peek() in "+-":
        sign = -1 if cur.advance() == "-" else 1
    while True:
        c, key = _parse_term(cur, alphabet, arity)
        yield key, sign * c
        if cur.done():
            return
        ch = cur.peek()
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            cur.fail(f"expected '+' or '-', found {ch!r}")
        cur.advance()
