"""Linear forms on the free algebra, i.e. series on words.

Two computable presentations are supported: finite support (a polynomial of
coefficients) and recognizable (a LinRep, the linear representation type of
the rep module). Both expose coeff(word); the convolution product dual to the
coproduct works on either, and its unit is the counit seen as a series.
embed_finite turns a finite-support series into a LinRep, so mixed operands
are combined at the representation level.

Equality of series is decided, not sampled: == compares two finite
supports by their polynomials and any other pair with reps_equal, which
walks the word tree (_walk) down a basis of r1 - r2's rows, in place.
Series are unhashable: an identity hash would contradict that equality.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import compress
from math import comb, lcm, prod
from operator import mul

from .freealg import Alphabet, NCPoly, Word, _lift, _numerators, _same_alphabet
from .linalg import Matrix, _Span
from .rep import LinRep, conv_rep, rep_sum, scale_rep, trivial_rep


class Series:
    """A linear form on the free algebra, given by a computable coefficient
    function. Concrete classes: FiniteSupportSeries, RecognizableSeries."""

    alphabet: Alphabet

    def coeff(self, w: Word) -> Fraction:
        raise NotImplementedError

    def scale(self, c) -> "Series":
        raise NotImplementedError

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        _same_alphabet(self.alphabet, other.alphabet)
        if isinstance(self, FiniteSupportSeries) and isinstance(
            other, FiniteSupportSeries
        ):
            return FiniteSupportSeries(self.poly + other.poly)
        return RecognizableSeries(rep_sum(_to_linrep(self), _to_linrep(other)))

    def __sub__(self, other: "Series") -> "Series":
        return self + other.scale(-1) if isinstance(other, Series) else NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if isinstance(self, FiniteSupportSeries) and isinstance(other, FiniteSupportSeries):
            return self.poly == other.poly
        return self.alphabet == other.alphabet and reps_equal(_to_linrep(self), _to_linrep(other))


class FiniteSupportSeries(Series):
    """Series with finitely many nonzero coefficients; it is displayed (and
    parsed) as its support polynomial."""

    __slots__ = ("poly", "alphabet")

    def __init__(self, poly: NCPoly):
        self.poly = poly
        self.alphabet = poly.alphabet

    @classmethod
    def zero(cls, alphabet: Alphabet) -> "FiniteSupportSeries":
        return cls(NCPoly.zero(alphabet))

    @classmethod
    def indicator(cls, w: Word, coeff=1) -> "FiniteSupportSeries":
        return cls(NCPoly.from_word(w, coeff))

    @classmethod
    def from_text(cls, alphabet: Alphabet, text: str) -> "FiniteSupportSeries":
        return cls(NCPoly.from_text(alphabet, text))

    @property
    def terms(self) -> dict[Word, Fraction]:
        return self.poly.terms

    def coeff(self, w: Word) -> Fraction:
        _same_alphabet(self.alphabet, w.alphabet)
        return self.poly.coeff(w)

    def scale(self, c) -> "FiniteSupportSeries":
        return FiniteSupportSeries(self.poly.scale(c))

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"FiniteSupportSeries({self.poly})"


class RecognizableSeries(Series):
    """Series presented by a linear representation (lambda, mu, gamma)."""

    __slots__ = ("rep", "alphabet")

    def __init__(self, rep: LinRep):
        self.rep = rep
        self.alphabet = rep.alphabet

    def coeff(self, w: Word) -> Fraction:
        return self.rep.value(w)

    def scale(self, c) -> "RecognizableSeries":
        return RecognizableSeries(scale_rep(self.rep, c))

    def __repr__(self) -> str:
        return f"RecognizableSeries(dim={self.rep.dim} over {self.alphabet.decl()})"


def _to_linrep(f: Series) -> LinRep:
    if isinstance(f, RecognizableSeries):
        return f.rep
    return embed_finite(f)


def pair(f: Series, p: NCPoly) -> Fraction:
    """<f, p> = sum of coefficient(p at w) * f(w)."""
    _same_alphabet(f.alphabet, p.alphabet)
    total = Fraction(0)
    for w, c in p.terms.items():
        total += c * f.coeff(w)
    return total


def _runs(text: str, group_like) -> tuple[str, list[str]]:
    """The group-like letters of the symbol string text in order, and the
    runs of primitive letters before, between and after them."""
    if group_like.isdisjoint(text):
        return "", [text]
    marks = [i for i, ch in enumerate(text) if ch in group_like]
    cuts = [-1, *marks, len(text)]
    return "".join(text[i] for i in marks), [text[i + 1 : j] for i, j in zip(cuts, cuts[1:])]


def _interleavings(a: str, b: str) -> list[str]:
    """Every interleaving of the strings a and b, once per choice of the places
    of a's letters, built row by row: entry j of row i holds those of a[:i], b[:j]."""
    if not a or not b:
        return [a + b]
    row = [[b[:j]] for j in range(len(b) + 1)]
    for i, x in enumerate(a, 1):
        above, row = row, [[a[:i]]]
        for j, y in enumerate(b):
            row.append([m + y for m in row[j]] + [m + x for m in above[j + 1]])
    return row[-1]


def _merge_runs(marks: str, xs: list[str], ys: list[str]) -> list[str]:
    """_merge_texts of two words split by _runs into the group-like letters marks and runs xs, ys."""
    merges = _interleavings(xs[0], ys[0])
    for g, x, y in zip(marks, xs[1:], ys[1:]):
        merges = [m + g + tail for tail in _interleavings(x, y) for m in merges]
    return merges


def _count_merges(xs: list[str], ys: list[str]) -> int:
    """len(_merge_runs(marks, xs, ys)) in O(|xs| + |ys|): C(p + q, p) per pair of runs of p and q letters."""
    return prod(comb(len(x) + len(y), len(x)) for x, y in zip(xs, ys))


def _merge_texts(a: str, b: str, group_like) -> list[str]:
    """The symbol string of every word that admits the symbol strings
    (a, b) among its subword splittings, once per splitting: none unless
    their group-like letters (in group_like) agree in order, one comparison;
    then each appears once and the primitive runs between them interleave
    run by run."""
    (marks, xs), (other, ys) = _runs(a, group_like), _runs(b, group_like)
    return _merge_runs(marks, xs, ys) if marks == other else []


def _support_pairs(f: FiniteSupportSeries, h: FiniteSupportSeries):
    """Yield (marks, xs, ys, cu * cv) for each word u of f and v of h with the same group-like
    letters marks, runs xs, ys by _runs and numerators cu, cv: each word split once, h's grouped."""
    group_like, by_marks = f.alphabet.group_like_symbols, {}
    for v, cv in _numerators(h.poly)[0]:
        marks, ys = _runs(v, group_like)
        by_marks.setdefault(marks, []).append((ys, cv))
    for u, cu in _numerators(f.poly)[0]:
        marks, xs = _runs(u, group_like)
        for ys, cv in by_marks.get(marks, ()):
            yield marks, xs, ys, cu * cv


def convolve(f: Series, h: Series) -> Series:
    """The product dual to the coproduct: (f * h)(w) = <f (x) h, coproduct(w)>.

    Finite-support operands merge their _support_pairs (the result is again
    finite support); as soon as a recognizable operand is involved both
    sides are turned into linear representations and multiplied."""
    _same_alphabet(f.alphabet, h.alphabet)
    if isinstance(f, FiniteSupportSeries) and isinstance(h, FiniteSupportSeries):
        acc = {}
        get = acc.get
        for marks, xs, ys, c in _support_pairs(f, h):
            for text in _merge_runs(marks, xs, ys):
                acc[text] = get(text, 0) + c
        return FiniteSupportSeries(_lift(NCPoly, f.alphabet, acc, _numerators(f.poly)[1] * _numerators(h.poly)[1]))
    return RecognizableSeries(conv_rep(_to_linrep(f), _to_linrep(h)))


def dual_unit(alphabet: Alphabet) -> RecognizableSeries:
    """The counit as a series: 1 on words of group-like letters (including
    the empty word), 0 elsewhere. Unit of the convolution product; returned
    as a one-state recognizable series over the trivial representation."""
    mu = trivial_rep(alphabet).assign
    return RecognizableSeries(LinRep(alphabet, 1, Matrix([[1]]), mu, Matrix([[1]])))


def embed_finite(f: FiniteSupportSeries) -> LinRep:
    """Automaton whose states are the suffix closure of the support; its
    behavior equals f on every word of every length.

    State a.v moves to state v on the letter a, so each letter matrix has
    at most one nonzero entry per row and is built from those entries."""
    alph = f.alphabet
    numerators, den = _numerators(f.poly)
    coeffs = dict(numerators)
    states = _suffix_closure(coeffs)
    n = len(states)
    pos = {text: i for i, text in enumerate(states)}
    zero = (0,) * n
    rows = {letter.symbol: [zero] * n for letter in alph.letters}
    for i, text in enumerate(states):
        if text:
            row = [0] * n
            row[pos[text[1:]]] = 1
            rows[text[0]][i] = tuple(row)
    mu = {alph.find(symbol): Matrix._from_ints(tuple(m)) for symbol, m in rows.items()}
    lam = Matrix._from_ints((tuple([coeffs.get(text, 0) for text in states]),), den)
    gamma = Matrix.col_vector([0 if text else 1 for text in states])
    return LinRep(alph, n, lam, mu, gamma)


def _suffix_trie(texts, max_len: int | None = None, max_nodes: int | None = None) -> list[tuple[int, str, int]]:
    """The trie of the reversed symbol strings `texts`, cut at depth
    max_len: one node (parent, letter, depth) per distinct suffix of length
    depth <= max_len, the empty suffix first. A node's suffix is its letter
    followed by the suffix of its parent, an earlier node. Built in the
    strings' total length without slicing a suffix, so its node count (the
    states of embed_finite) and depth sum (their characters) are known
    before any suffix is listed. Building stops at the first node past
    max_nodes."""
    nodes = [(0, "", 0)]
    kids: dict[tuple[int, str], int] = {}
    for text in texts:
        node = depth = 0
        for ch in reversed(text):
            if depth == max_len:
                break
            depth += 1
            child = kids.get((node, ch))
            if child is None:
                child = kids[node, ch] = len(nodes)
                nodes.append((node, ch, depth))
                if max_nodes is not None and len(nodes) > max_nodes:
                    return nodes
            node = child
    return nodes


def _suffix_closure(texts, max_len: int | None = None) -> list[str]:
    """The suffixes of _suffix_trie(texts, max_len), in shortlex order."""
    suffixes = [""]
    for parent, letter, _ in _suffix_trie(texts, max_len)[1:]:
        suffixes.append(letter + suffixes[parent])
    return sorted(suffixes, key=lambda text: (len(text), text))


def _tables(*reps: LinRep, columns: bool = False):
    """For each sorted letter a, (a's symbol, den, table): table[i] lists the
    nonzeros (j, x) of row i (with columns, of column i, gathered by one
    compress scan per row) of the block-diagonal matrix of the reps' mu(a)
    over the lcm den of their denominators."""
    for a in reps[0].alphabet.sorted_letters:
        blocks = [r.mu[a] for r in reps]
        den, table = lcm(*[m.den for m in blocks]), []
        for m in blocks:
            k, off = den // m.den, len(table)
            if not columns:
                table += [[(off + j, k * r[j]) for j in compress(range(len(r)), r)] for r in m.num]
                continue
            table += [[] for _ in m.num]
            for i, r in enumerate(m.num, off):
                for j in compress(range(len(r)), r):
                    table[off + j].append((i, k * r[j]))
        yield a.symbol, den, table


def _walk(start: Matrix, tables, max_len: int | None, reducer: _Span | None = None):
    """Yield (w, start*mu(w), kept), w a symbol string, for each row computed
    breadth first, in shortlex order, up to length max_len (None: no bound).
    Only a kept row is extended, one product per letter, over the nonzeros
    of the row and of the letter's table, read once on the first extension.
    Without a reducer (a _Span, such as a RowReducer) every row is kept;
    with one, each row that enlarges the span of those kept before it. As
    row(ua) = row(u) mu(a), a row in the span of the rows before it has
    every extension in theirs, so for every l the kept words of length <= l
    are the shortlex-first basis of all rows of length <= l (Berstel &
    Reutenauer, ch. 2). Once they span the space, the rows already computed
    are yielded unkept and nothing more is multiplied."""
    pending = deque([("", start)])
    sparse = None
    while pending:
        w, row = pending.popleft()
        kept = reducer is None or reducer.offer(row.num[0])
        yield w, row, kept
        if kept and (max_len is None or len(w) < max_len):
            if sparse is None:
                sparse = list(tables)
            x = [(i, r[i]) for r in row.num for i in compress(range(len(r)), r)]
            for symbol, den, m in sparse:
                out = [0] * len(m)
                for i, v in x:
                    for j, y in m[i]:
                        out[j] += v * y
                pending.append((w + symbol, Matrix._from_ints((tuple(out),), row.den * den)))


def reps_equal(r1: LinRep, r2: LinRep) -> bool:
    """Exact equality of the recognized series, decided in polynomial time:
    r1 - r2 is zero exactly when (gamma1, gamma2) annihilates the basis walk
    of the rows (lambda1, -lambda2)*mu(w), n = dim1 + dim2 (Tzeng 1992): at
    most n*|A| sparse products and a span-only echelon, on both operands'
    letter tables side by side (_tables), with no sum representation built."""
    _same_alphabet(r1.alphabet, r2.alphabet)
    walk = _walk(r1.lam.hstack(-r2.lam), _tables(r1, r2), None, _Span(r1.dim + r2.dim))
    gamma = [x for (x,) in r1.gamma.vstack(r2.gamma).num]
    return not any(sum(map(mul, row.num[0], gamma)) for _, row, kept in walk if kept)
