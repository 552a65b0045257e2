"""Recognizable series made constructive.

A series belongs to the (convolution-closed) dual of the free algebra
exactly when a finite linear representation (lambda, mu, gamma) computes it,
equivalently when its Hankel matrix has finite rank. The representation
type LinRep, with its sums, scalings and convolutions, lives in the rep
module; this module holds finite Hankel windows with exact rank, shifted
series, minimal-model learning from coefficients, the splitting of a series
into rank-one factors, the transposed antipode and equality of
representations.

Every vector of a representation comes from one breadth-first walk down
the word tree (_walk): the prefix rows lambda*mu(u), and the suffix columns
mu(v)*gamma as rows of the transposed representation on reversed words.
Walked whole, they give behavior_table and the Hankel window (one product).
Walked with a reducer, the walk extends only the shortlex-first basis of the
rows, at most n*|A| sparse products x*mu(a) in dimension n, each summed over
the nonzeros of x and mu(a); reps_equal checks gamma on that basis
(polynomial time). A reducer that reads no coordinates is a linalg._Span,
with no change of basis. A finite-support window is filled straight from
the support. Windows, ranks and row reduction run on integer numerators.

hankel_rank and learn walk both sides with a reducer: the closed table of
Beimel et al. ("Learning functions represented as multiplicity automata").
The columns are a set C spanning the column space, chosen breadth first
with the empty suffix first, so its columns of length <= l also span those
of length <= l: the kept columns, at most n, or for a finite support the
empty word and its support words' suffixes (every other column is zero).
Then H = H[:, C] T with T of full row rank, so the rows of H and H[:, C]
satisfy the same linear relations. The rows of a representation are its
basis words and their one-letter extensions, at most 1 + n*|A|; every other
row is a combination of basis rows before it. So the rank, the shortlex-first
independent rows and each row's coordinates over them are the whole
window's. A bare coefficient oracle keeps every row and column.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import compress
from operator import mul

from . import linalg
from .dualforms import FiniteSupportSeries, RecognizableSeries, Series, _suffix_closure, embed_finite
from .errors import InconclusiveError, InternalInvariantError
from .freealg import Alphabet, Letter, NCPoly, Word, _Frozen, _check_antipode_domain, _numerators, _same_alphabet, conc
from .linalg import Matrix, RowReducer, _Span, _stacked
from .rep import LinRep, eval_word, rep_sum, scale_rep, zero_rep


def _walk(start: Matrix, mu: dict[Letter, Matrix], letters, max_len: int | None, reducer: _Span | None = None):
    """Yield (w, start*mu(w), kept), w a symbol string, for each row computed
    breadth first, in shortlex order, up to length max_len (None: no bound).
    Only a kept row is extended, one product per letter, over the nonzeros
    of the row and of the letter matrix, read once on the first extension.
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
                sparse = [(a.symbol, *_sparse(mu[a])) for a in letters]
            _, (x,) = _sparse(row)
            for symbol, den, m in sparse:
                out = [0] * len(m)
                for i, v in x:
                    for j, y in m[i]:
                        out[j] += v * y
                pending.append((w + symbol, Matrix._from_ints((tuple(out),), row.den * den)))


def _sparse(m: Matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """m's denominator, and each numerator row as its nonzeros' (column,
    entry) pairs."""
    return m.den, [[(j, r[j]) for j in compress(range(len(r)), r)] for r in m.num]


def _column_walk(rep: LinRep, max_len: int, reducer: _Span | None = None):
    """_walk of the columns mu(v)*gamma, transposed: the rows gamma^T
    mu(v_k)^T ... mu(v_1)^T of the transposed representation, yielded with
    the reversed word v read back."""
    mu_t = {a: m.transpose() for a, m in rep.mu.items()}
    walk = _walk(rep.gamma.transpose(), mu_t, rep.alphabet.sorted_letters, max_len, reducer)
    return ((w[::-1], row, kept) for w, row, kept in walk)


def behavior_table(rep: LinRep, max_len: int) -> dict[Word, Fraction]:
    """Values on all words up to max_len in ascending shortlex order, from
    the unreduced walk of the prefix rows: shared prefixes multiply once."""
    walk = _walk(rep.lam, rep.mu, rep.alphabet.sorted_letters, max_len)
    return {Word(rep.alphabet, w): (row * rep.gamma).scalar() for w, row, _ in walk}


# ---------------------------------------------------------------------------
# shifts


def shift_right(f: Series, s: Word) -> Series:
    """f_s with f_s(x) = f(s x)."""
    _same_alphabet(f.alphabet, s.alphabet)
    if isinstance(f, FiniteSupportSeries):
        prefix, k = s.symbols(), len(s)
        terms = {
            Word(f.alphabet, w.symbols()[k:]): c
            for w, c in f.terms.items()
            if w.symbols().startswith(prefix)
        }
        return FiniteSupportSeries(NCPoly(f.alphabet, terms))
    rep = f.rep
    return RecognizableSeries(
        LinRep(rep.alphabet, rep.dim, rep.lam * eval_word(rep, s), rep.mu, rep.gamma)
    )


def shift_left(f: Series, s: Word) -> Series:
    """The mirror shift: (shift_left(f, s))(x) = f(x s)."""
    _same_alphabet(f.alphabet, s.alphabet)
    if isinstance(f, FiniteSupportSeries):
        suffix, k = s.symbols(), len(s)
        terms = {
            Word(f.alphabet, w.symbols()[: len(w) - k]): c
            for w, c in f.terms.items()
            if w.symbols().endswith(suffix)
        }
        return FiniteSupportSeries(NCPoly(f.alphabet, terms))
    rep = f.rep
    return RecognizableSeries(
        LinRep(rep.alphabet, rep.dim, rep.lam, rep.mu, eval_word(rep, s) * rep.gamma)
    )


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
        return f.coeff, f.alphabet
    if callable(f):
        if alphabet is None:
            raise ValueError("a bare coefficient oracle needs an explicit alphabet")
        return f, alphabet
    raise TypeError(f"expected a Series or a coefficient oracle, got {type(f)!r}")


def _finite_window(f: FiniteSupportSeries, p: int, cols: tuple[Word, ...]) -> HankelSlice:
    """The window of a finite-support series on the prefixes of length <= p
    and the suffix columns `cols`, filled from its support: each word w = uv
    with |u| <= p and v in cols sets the one entry (u, v), and every other
    entry is zero. cols is in shortlex order and holds every suffix of a
    support word up to the length of its last column. Costs the zero table
    plus the sum of |w| over the support; no coefficient is looked up."""
    alph = f.alphabet
    rows = tuple(alph.words(p))
    s = len(cols[-1])
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
    """The (p, s) window on the rows and spanning columns C that the module
    docstring describes. C keeps the empty suffix even when gamma = 0: learn
    reads gamma from its column."""
    if isinstance(f, FiniteSupportSeries):
        suffixes = _suffix_closure([text for text, _ in _numerators(f.poly)[0]], s)
        return _finite_window(f, p, tuple(Word(f.alphabet, v) for v in suffixes))
    if isinstance(f, RecognizableSeries):
        rep = f.rep
        rows = _walk(rep.lam, rep.mu, rep.alphabet.sorted_letters, p, _Span(rep.dim))
        cols = [(v, c, k) for v, c, k in _column_walk(rep, s, _Span(rep.dim)) if k or not v]
        return _rep_window(rep.alphabet, rows, cols)
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
    if isinstance(f, FiniteSupportSeries):
        return _finite_window(f, p, tuple(f.alphabet.words(s)))
    if isinstance(f, RecognizableSeries):
        rep = f.rep
        rows = _walk(rep.lam, rep.mu, rep.alphabet.sorted_letters, p)
        # back in shortlex order of the suffix, from that of its reversal
        cols = sorted(_column_walk(rep, s), key=lambda c: (len(c[0]), c[0]))
        return _rep_window(rep.alphabet, rows, cols)
    cf, alph = _coeff_fn(f, alphabet)
    rows, cols = tuple(alph.words(p)), tuple(alph.words(s))
    return HankelSlice(rows, cols, Matrix([[cf(conc(u, v)) for v in cols] for u in rows]))


def hankel_rank(f, p: int, s: int, alphabet: Alphabet | None = None) -> int:
    """Exact rank over Q of the (p, s) Hankel window, computed on the
    window restricted to a spanning set of its suffix columns, which has
    the same rank (see the module docstring)."""
    if min(p, s) < 0:
        raise ValueError(f"window lengths must be nonnegative, got {p} and {s}")
    return linalg.rank(_spanning_window(f, p, s, alphabet).entries)


# ---------------------------------------------------------------------------
# learning


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

    f is a Series or, with `alphabet`, a bare coefficient oracle, learned on
    the window restricted to its spanning suffix columns (see the module
    docstring). A rank that agrees between two windows may still grow, so
    the model is checked with reps_equal against a RecognizableSeries of
    larger dimension than that rank, and against a finite support with a
    word longer than explore + 1; a shorter support has every nonzero
    Hankel entry inside the window, which certifies the model. The
    InconclusiveError, raised when the ranks differ or the check fails,
    carries the two window ranks and the exploration length as attributes
    r_small, r_big and explore.
    """
    if explore < 0:
        raise ValueError("exploration length must be nonnegative")
    window = _spanning_window(f, explore + 1, explore + 1, alphabet)
    alph = window.rows[0].alphabet
    # integer rows: the window's common denominator scales every row alike,
    # which changes no rank, no accepted row and no coordinate
    num = window.entries.num
    n_small = sum(1 for w in window.rows if len(w) <= explore)
    # the columns of length <= explore come first and span the small window
    c_small = sum(1 for v in window.cols if len(v) <= explore)
    r_small = linalg.rank(Matrix._from_ints(tuple([row[:c_small] for row in num[:n_small]])))
    # one elimination of the window gives its rank and the basis; a zero
    # row enlarges no span, so it is not offered
    reducer = RowReducer(len(window.cols))
    basis = [i for i, row in enumerate(num) if any(row) and reducer.offer(row)]
    r_big = reducer.rank
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
        index = {w.symbols(): i for i, w in enumerate(window.rows)}
        basis_words = [window.rows[i] for i in basis]
        if any(len(w) > explore for w in basis_words):
            raise InternalInvariantError("stabilized basis contains a maximal-length row")
        lam = reducer.coordinates(num[0])
        if lam is None:
            raise InternalInvariantError("empty-word row escaped the selected basis")
        mu: dict[Letter, Matrix] = {}
        for letter in alph.letters:
            rows = []
            for w in basis_words:
                coords = reducer.coordinates(num[index[w.symbols() + letter.symbol]])
                if coords is None:
                    raise InternalInvariantError("hankel row escaped the selected basis")
                rows.append(coords)
            mu[letter] = _stacked(rows)
        # column of the empty suffix holds f on the basis words
        gamma = Matrix._from_ints(tuple([(num[i][0],) for i in basis]), window.entries.den)
        model = LinRep(alph, r_big, lam, mu, gamma)
    if isinstance(f, RecognizableSeries) and r_big < f.rep.dim:
        reference = f.rep
    elif isinstance(f, FiniteSupportSeries) and not _window_holds_support(f, explore):
        reference = embed_finite(f)
    else:
        return model
    if not reps_equal(model, reference):
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
    return all(len(w) <= explore + 1 for w in f.terms)


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


def reps_equal(r1: LinRep, r2: LinRep) -> bool:
    """Exact equality of the recognized series, decided in polynomial time:
    the difference r1 - r2 is the zero series exactly when its gamma
    annihilates the basis walk of its rows lambda*mu(w), n = dim1 + dim2
    (Tzeng 1992): at most n*|A| sparse products and a span-only echelon,
    O(n^3 |A|) for dense operands and far less for sparse ones."""
    d = rep_sum(r1, scale_rep(r2, -1))
    walk = _walk(d.lam, d.mu, d.alphabet.sorted_letters, None, _Span(d.dim))
    gamma = [r[0] for r in d.gamma.num]
    return not any(sum(map(mul, row.num[0], gamma)) for _, row, kept in walk if kept)
