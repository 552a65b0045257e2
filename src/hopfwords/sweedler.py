"""Recognizable series made constructive.

A series belongs to the (convolution-closed) dual of the free algebra
exactly when a finite linear representation (lambda, mu, gamma) computes it,
equivalently when its Hankel matrix has finite rank. The representation
type LinRep, with its sums, scalings and convolutions, lives in the rep
module, and equality of series (reps_equal) and the walk it runs on live in
dualforms; this module holds finite Hankel windows with exact rank, shifted
series, minimal-model learning from coefficients, the splitting of a series
into rank-one factors and the transposed antipode.

Every vector of a representation comes from one breadth-first walk down
the word tree (dualforms._walk): the prefix rows lambda*mu(u), and the
suffix columns mu(v)*gamma as rows on reversed words, read off the columns
of each mu(a) in place. Walked whole, they give behavior_table and the
Hankel window (one product). A finite-support window is filled straight
from the support. Windows, ranks and row reduction run on integer numerators.

hankel_rank and learn read a representation off its two reduced walks,
with no window: H = P Q^T for the prefix rows P and the suffix columns Q
(Berstel & Reutenauer, ch. 2), so the rank is that of the kept rows times
the kept columns, the smaller count with no product when either spans Q^n.
A row dependent in Q^n is dependent in H, so the window's shortlex-first
basis (the closed table of Beimel et al., "Learning functions represented
as multiplicity automata") is the walk's kept rows or, when the kept
columns miss part of Q^n, those independent on them. A finite support
keeps its empty word and its support words' suffixes as columns C (every
other column is zero): H = H[:, C] T with T of full row rank, so the rows
of H and H[:, C] satisfy the same relations. Its rows are its empty word
and the prefixes its support fills: every other row is zero. An oracle
keeps everything.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from . import linalg
from .dualforms import FiniteSupportSeries, RecognizableSeries, Series, _suffix_closure, _tables, _walk
from .errors import InconclusiveError, InternalInvariantError
from .freealg import Alphabet, NCPoly, Word, _Frozen, _check_antipode_domain, _lift, _numerators, _same_alphabet, conc
from .linalg import Matrix, RowReducer, _Span, _stacked
from .rep import LinRep, zero_rep


def _column_walk(rep: LinRep, max_len: int, reducer: _Span | None = None):
    """_walk of the columns mu(v)*gamma as rows, on the columns of each mu(a)
    read in place, yielded with the reversed word v read back."""
    walk = _walk(rep.gamma.transpose(), _tables(rep, columns=True), max_len, reducer)
    return ((w[::-1], row, kept) for w, row, kept in walk)


def behavior_table(rep: LinRep, max_len: int) -> dict[Word, Fraction]:
    """Values on all words up to max_len in ascending shortlex order, from
    the unreduced walk of the prefix rows: shared prefixes multiply once."""
    if max_len < 0:
        raise ValueError(f"window lengths must be nonnegative, got {max_len}")
    walk = _walk(rep.lam, _tables(rep), max_len)
    return {Word(rep.alphabet, w): (row * rep.gamma).scalar() for w, row, _ in walk}


# ---------------------------------------------------------------------------
# shifts


def shift_right(f: Series, s: Word) -> Series:
    """f_s with f_s(x) = f(s x)."""
    _same_alphabet(f.alphabet, s.alphabet)
    if isinstance(f, FiniteSupportSeries):
        (numerators, den), prefix = _numerators(f.poly), s.symbols()
        acc = {text[len(prefix) :]: x for text, x in numerators if text.startswith(prefix)}
        return FiniteSupportSeries(_lift(NCPoly, f.alphabet, acc, den))
    rep = f.rep
    lam = reduce(lambda row, a: row * rep.mu[a], s.letters, rep.lam)
    return RecognizableSeries(LinRep(rep.alphabet, rep.dim, lam, rep.mu, rep.gamma))


def shift_left(f: Series, s: Word) -> Series:
    """The mirror shift: (shift_left(f, s))(x) = f(x s)."""
    _same_alphabet(f.alphabet, s.alphabet)
    if isinstance(f, FiniteSupportSeries):
        (numerators, den), suffix = _numerators(f.poly), s.symbols()
        acc = {text[: len(text) - len(suffix)]: x for text, x in numerators if text.endswith(suffix)}
        return FiniteSupportSeries(_lift(NCPoly, f.alphabet, acc, den))
    rep = f.rep
    gamma = reduce(lambda col, a: rep.mu[a] * col, reversed(s.letters), rep.gamma)
    return RecognizableSeries(LinRep(rep.alphabet, rep.dim, rep.lam, rep.mu, gamma))


# ---------------------------------------------------------------------------
# Hankel windows


class HankelSlice(_Frozen):
    """Finite window of the Hankel matrix: entry(u, v) = f(uv); hankel
    enumerates its prefixes and suffixes in ascending shortlex order."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: tuple[Word, ...], cols: tuple[Word, ...], entries: Matrix):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)


def _coeff_fn(f, alphabet: Alphabet | None):
    if isinstance(f, Series):
        _same_alphabet(f.alphabet, alphabet or f.alphabet)
        return f.coeff, f.alphabet
    if callable(f):
        if alphabet is None:
            raise ValueError("a bare coefficient oracle needs an explicit alphabet")
        return f, alphabet
    raise TypeError(f"expected a Series or a coefficient oracle, got {type(f)!r}")


def _finite_window(f: FiniteSupportSeries, rows: tuple[Word, ...], cols: tuple[Word, ...]) -> HankelSlice:
    """The window of a finite-support series on rows and columns listed in
    shortlex order up to lengths p and s, filled from its support: each
    word w = uv with u in rows and v in cols sets the entry (u, v), and
    every other entry is zero. cols lists every suffix of a support word up
    to length s, rows every prefix that fills an entry (hankel all words,
    rank and learn the empty word and the prefixes the support fills)."""
    p, s = len(rows[-1]), len(cols[-1])
    row_index = {u.symbols(): i for i, u in enumerate(rows)}
    col_index = {v.symbols(): j for j, v in enumerate(cols)}
    numerators, den = _numerators(f.poly)
    table = [[0] * len(cols) for _ in rows]
    for text, x in numerators:
        n = len(text)
        for i in range(max(0, n - s), min(p, n) + 1):
            table[row_index[text[:i]]][col_index[text[i:]]] = x
    return HankelSlice(rows, cols, Matrix._from_ints(tuple([tuple(r) for r in table]), den))


def _rep_window(alph: Alphabet, rows, cols) -> HankelSlice:
    """The window on the (u, lambda*mu(u), kept) triples of a walk `rows` and
    the (v, transposed mu(v)*gamma, kept) triples `cols`: the product of the
    stacked rows and columns."""
    (us, row_vecs, _), (vs, col_vecs, _) = zip(*rows), zip(*cols)
    entries = _stacked(row_vecs) * _stacked(col_vecs).transpose()
    return HankelSlice(tuple(Word(alph, u) for u in us), tuple(Word(alph, v) for v in vs), entries)


def _spanning_window(f, p: int, s: int, alphabet: Alphabet | None) -> HankelSlice:
    """The (p, s) window of a finite support on its spanning columns C and its
    empty word and filled prefixes (every other row is zero), and of an oracle on all."""
    if isinstance(f, FiniteSupportSeries):
        texts = [text for text, _ in _numerators(f.poly)[0]]
        suffixes = _suffix_closure(texts, s)
        # a prefix u of a support word uv with |u| <= p fills a row when |v| <= k, the longest column
        k = len(suffixes[-1])
        prefixes = {t[:i] for t in texts for i in range(max(0, len(t) - k), min(p, len(t)) + 1)}
        words = lambda side: tuple([Word(f.alphabet, t) for t in side])
        return _finite_window(f, words(sorted(prefixes | {""}, key=lambda t: (len(t), t))), words(suffixes))
    return hankel(f, p, s, alphabet)


def hankel(f, p: int, s: int, alphabet: Alphabet | None = None) -> HankelSlice:
    """The window with prefixes of length <= p and suffixes of length <= s.

    For a RecognizableSeries the window is the product of the prefix rows
    lambda*mu(u) and the suffix columns mu(v)*gamma, each computed once, so
    an entry costs one dot product of length dim. A finite-support series
    fills its window from its support words. Only a bare coefficient oracle
    (which needs `alphabet`) is asked for f(uv) entry by entry."""
    if min(p, s) < 0:
        raise ValueError(f"window lengths must be nonnegative, got {p} and {s}")
    cf, alph = _coeff_fn(f, alphabet)
    if isinstance(f, FiniteSupportSeries):
        return _finite_window(f, tuple(alph.words(p)), tuple(alph.words(s)))
    if isinstance(f, RecognizableSeries):
        rep = f.rep
        rows = _walk(rep.lam, _tables(rep), p)
        # back in shortlex order of the suffix, from that of its reversal
        cols = sorted(_column_walk(rep, s), key=lambda c: (len(c[0]), c[0]))
        return _rep_window(rep.alphabet, rows, cols)
    rows, cols = tuple(alph.words(p)), tuple(alph.words(s))
    return HankelSlice(rows, cols, Matrix([[cf(conc(u, v)) for v in cols] for u in rows]))


def _product_rank(rows: list[Matrix], cols: list[Matrix], n: int) -> int:
    """rank(P Q^T) for independent 1 x n rows P and Q; no product when either spans Q^n."""
    if min(len(rows), len(cols)) == 0 or n in (len(rows), len(cols)):
        return min(len(rows), len(cols))
    return linalg.rank(_stacked(rows) * _stacked(cols).transpose())


def hankel_rank(f, p: int, s: int, alphabet: Alphabet | None = None) -> int:
    """Exact rank over Q of the (p, s) Hankel window, read off the two basis
    walks of a representation and otherwise off the window restricted to a
    spanning set of its suffix columns (see the module docstring)."""
    if min(p, s) < 0:
        raise ValueError(f"window lengths must be nonnegative, got {p} and {s}")
    _coeff_fn(f, alphabet)
    if isinstance(f, RecognizableSeries):
        rep = f.rep
        rows = [r for _, r, k in _walk(rep.lam, _tables(rep), p, _Span(rep.dim)) if k]
        return _product_rank(rows, [c for _, c, k in _column_walk(rep, s, _Span(rep.dim)) if k], rep.dim)
    return linalg.rank(_spanning_window(f, p, s, alphabet).entries)


# ---------------------------------------------------------------------------
# learning


def _walk_model(rep: LinRep, explore: int):
    """learn's inputs for a representation, read off its two basis walks."""
    n, reducer = rep.dim, RowReducer(rep.dim)
    walk = list(_walk(rep.lam, _tables(rep), explore + 1, reducer))
    rows, basis = {w: row for w, row, _ in walk}, [w for w, _, k in walk if k]
    cols = [(v, c) for v, c, k in _column_walk(rep, explore + 1, _Span(n)) if k]
    r_small = _product_rank([rows[w] for w in basis if len(w) <= explore], [c for v, c in cols if len(v) <= explore], n)
    row_of = rows.__getitem__
    if not cols:  # gamma = 0
        basis = []
    elif len(cols) < n:
        # a row dependent in Q^n is dependent in H, so the window's greedy
        # basis is the walk-basis rows independent on the kept columns
        qt = _stacked([c for _, c in cols]).transpose()
        reducer = RowReducer(len(cols))
        basis = [w for w in basis if reducer.offer((rows[w] * qt).num[0])]
        row_of = lambda w: rows[w] * qt
    dens = [row_of(w).den for w in basis]

    def coords(w: str) -> Matrix | None:
        # the reducer took the basis rows' numerators: rescale by their dens
        row = row_of(w)
        a = reducer.coordinates(row.num[0])
        return None if a is None else Matrix._from_ints((tuple(map(mul, a.num[0], dens)),), a.den * row.den)

    return r_small, basis, coords, lambda: _stacked([rows[w] for w in basis]) * rep.gamma


def learn(f, explore: int, alphabet: Alphabet | None = None) -> LinRep:
    """Reconstruct a minimal representation from coefficients alone.

    Works on the (explore+1, explore+1) Hankel window. The rank must agree
    between the (explore, explore) and (explore+1, explore+1) windows,
    otherwise the data is inconclusive and the caller has to raise the
    exploration length. The state basis is the first maximal independent set
    of prefix rows in shortlex order, which is prefix-closed and makes the
    learned model deterministic; transitions are solved exactly against that
    basis. The result reproduces f on every word the window certifies
    (length <= 2*explore + 1) and everywhere when f is genuinely
    recognizable with rank reached inside the window.

    A representation is learned from its two basis walks, with no window; a
    finite support, or with `alphabet` a bare coefficient oracle, on the
    window restricted to its spanning suffix columns (module docstring). A
    rank that agrees between two windows may still grow, so the model is
    checked with the decided == against a RecognizableSeries of larger
    dimension than that rank, and a finite support with a word longer than
    explore + 1; a shorter support has every nonzero Hankel entry inside the
    window, which certifies the model. The InconclusiveError, raised when
    the ranks differ or the check fails, carries the two window ranks and
    the exploration length as attributes r_small, r_big and explore.
    """
    if explore < 0:
        raise ValueError("exploration length must be nonnegative")
    _, alph = _coeff_fn(f, alphabet)
    if isinstance(f, RecognizableSeries):
        r_small, basis, coords, gamma = _walk_model(f.rep, explore)
    else:
        window = _spanning_window(f, explore + 1, explore + 1, alphabet)
        num = window.entries.num
        # integer rows: a common denominator changes no rank, basis or coordinate
        n_small = sum(1 for w in window.rows if len(w) <= explore)
        # the columns of length <= explore come first and span the small window
        c_small = sum(1 for v in window.cols if len(v) <= explore)
        r_small = linalg.rank(Matrix._from_ints(tuple([row[:c_small] for row in num[:n_small]])))
        # one elimination gives the window's rank and basis; zero rows are not offered, unlisted ones are zero
        reducer = RowReducer(len(window.cols))
        rows = dict(zip([w.symbols() for w in window.rows], num))
        basis = [w for w, row in rows.items() if any(row) and reducer.offer(row)]
        coords = lambda w: reducer.coordinates(rows.get(w, (0,) * len(window.cols)))
        # the column of the empty suffix holds f on the basis words
        gamma = lambda: Matrix._from_ints(tuple([(rows[w][0],) for w in basis]), window.entries.den)
    r_big = len(basis)
    if r_small != r_big:
        raise InconclusiveError(
            f"hankel rank not stabilized: {r_small} at window {explore}, "
            f"{r_big} at window {explore + 1}; raise the exploration length",
            r_small=r_small,
            r_big=r_big,
            explore=explore,
        )
    if r_big == 0:
        model = zero_rep(alph)
    else:
        if any(len(w) > explore for w in basis):
            raise InternalInvariantError("stabilized basis contains a maximal-length row")
        # basis word i is the i-th row its reducer accepted: its coordinates are e_i
        solve = lambda w: Matrix._from_ints((tuple([int(u == w) for u in basis]),)) if w in basis else coords(w)
        lam, mu = solve(""), {a: [solve(w + a.symbol) for w in basis] for a in alph.letters}
        if lam is None or any(None in m for m in mu.values()):
            raise InternalInvariantError("hankel row escaped the selected basis")
        model = LinRep(alph, r_big, lam, {a: _stacked(m) for a, m in mu.items()}, gamma())
    if (
        isinstance(f, RecognizableSeries) and r_big < f.rep.dim
        or isinstance(f, FiniteSupportSeries) and not _window_holds_support(f, explore)
    ) and f != RecognizableSeries(model):
        raise InconclusiveError(
            f"learned model of dim {r_big} differs from the operand; raise the exploration length",
            r_small=r_small,
            r_big=r_big,
            explore=explore,
        )
    return model


def _window_holds_support(f: FiniteSupportSeries, explore: int) -> bool:
    """Whether learn's (explore+1, explore+1) window holds every nonzero
    Hankel entry of f: no support word is longer than explore + 1."""
    return all(len(text) <= explore + 1 for text, _ in _numerators(f.poly)[0])


# ---------------------------------------------------------------------------
# coproduct, counit and antipode on the dual side


def split(rep: LinRep) -> list[tuple[RecognizableSeries, RecognizableSeries]]:
    """Rank-one factorization of the two-variable behavior: pairs (g_i, h_i)
    with f(xy) = sum of g_i(x) * h_i(y); this is the coproduct of the series
    landing inside (recognizable) (x) (recognizable)."""
    pairs = []
    for i in range(rep.dim):
        e = [1 if j == i else 0 for j in range(rep.dim)]
        g = LinRep(rep.alphabet, rep.dim, rep.lam, rep.mu, Matrix.col_vector(e))
        h = LinRep(rep.alphabet, rep.dim, Matrix.row_vector(e), rep.mu, rep.gamma)
        pairs.append((RecognizableSeries(g), RecognizableSeries(h)))
    return pairs


def transpose_antipode(rep: LinRep) -> LinRep:
    """Representation of w -> (-1)^len(w) * f(reverse(w)), the antipode
    transported to the dual; only defined when no letter is group-like."""
    _check_antipode_domain(rep.alphabet)
    mu = {l: (-rep.mu[l]).transpose() for l in rep.alphabet.letters}
    return LinRep(
        rep.alphabet, rep.dim, rep.gamma.transpose(), mu, rep.lam.transpose()
    )


def dual_counit(rep: LinRep) -> Fraction:
    """Evaluation at the empty word, the counit of the dual-side coproduct."""
    return (rep.lam * rep.gamma).scalar()
