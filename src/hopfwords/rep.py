"""Finite-dimensional matrix representations of the free algebra.

A representation is a free assignment of a square matrix to every letter,
extended to words by multiplication and to polynomials by linearity. The
coproduct drives the tensor product of representations (Kronecker product
for group-like letters, Kronecker sum for primitive ones), the counit gives
the one-dimensional trivial representation, and the antipode turns dual row
vectors back into a left action.

A linear representation (LinRep) is a representation together with a row
vector lambda and a column vector gamma; it recognizes the series
w -> lambda * mu(w) * gamma. LinRep lives here, with the representation
calculus it shares: sums and convolutions of series are direct sums and
tensor products of their representations.

Dual vectors are plain 1 x n matrices; column vectors are n x 1. The
antipode audit applies coproduct and antipode, then runs on integer
numerators: one length-n vector product per distinct prefix psi . rho(w)
or suffix rho(v) . x, and no n x n product.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import DomainError, ParseError
from .freealg import (
    Alphabet,
    Letter,
    NCPoly,
    Word,
    _check_antipode_domain,
    _numerators,
    _same_alphabet,
    antipode,
    coproduct,
    counit,
)
from .linalg import Matrix, _parse_rational, _scaled, tensor_scheme


def _json_matrix(rows) -> Matrix:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise TypeError(f"expected a list of rows, got {rows!r}")
    return Matrix([[_parse_rational(x) for x in r] for r in rows])


class MatRep:
    """Letter-to-matrix assignment, freely extended to the whole algebra."""

    __slots__ = ("alphabet", "dim", "assign")
    _json_kind = "representation"

    def __init__(self, alphabet: Alphabet, dim: int, assign: dict[Letter, Matrix]):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if set(assign) != set(alphabet.letters):
            raise ValueError("assignment must cover exactly the alphabet letters")
        for letter, m in assign.items():
            if m.nrows != dim or m.ncols != dim:
                raise ValueError(
                    f"matrix for {letter.symbol!r} is {m.nrows}x{m.ncols}, expected {dim}x{dim}"
                )
        self.alphabet = alphabet
        self.dim = dim
        self.assign = dict(assign)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.alphabet == other.alphabet
            and self.dim == other.dim
            and self.assign == other.assign
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim} over {self.alphabet.decl()})"

    def _letters_json(self) -> dict:
        return {l.symbol: self.assign[l].to_strings() for l in self.alphabet.letters}

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.decl(),
            "dim": self.dim,
            "assign": self._letters_json(),
        }

    @classmethod
    def from_json_dict(cls, data) -> "MatRep":
        """Inverse of to_json_dict. `dim` must be an integer and every matrix
        entry a rational string "p" or "p/q"; anything else is a ParseError."""
        try:
            decl = data["alphabet"]
            if not isinstance(decl, str):
                raise TypeError(f"alphabet must be a declaration string, got {decl!r}")
            alphabet = Alphabet.from_decl(decl)
            dim = data["dim"]
            if type(dim) is not int:
                raise ValueError(f"dim must be an integer, got {dim!r}")
            return cls._from_json_fields(alphabet, dim, data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {cls._json_kind} JSON: {exc}") from exc

    @classmethod
    def _from_json_fields(cls, alphabet: Alphabet, dim: int, data) -> "MatRep":
        assign = {l: _json_matrix(data["assign"][l.symbol]) for l in alphabet.letters}
        return cls(alphabet, dim, assign)


class LinRep(MatRep):
    """Weighted-automaton presentation of a series: a row vector lambda, one
    square matrix per letter (the representation mu, stored as `assign`),
    and a column vector gamma. The value on a word a1..ak is
    lambda * mu(a1) * ... * mu(ak) * gamma."""

    __slots__ = ("lam", "gamma")
    _json_kind = "linear-representation"

    def __init__(
        self,
        alphabet: Alphabet,
        dim: int,
        lam: Matrix,
        mu: dict[Letter, Matrix],
        gamma: Matrix,
    ):
        super().__init__(alphabet, dim, mu)
        if lam.nrows != 1 or lam.ncols != dim:
            raise ValueError(f"lambda must be 1x{dim}")
        if gamma.nrows != dim or gamma.ncols != 1:
            raise ValueError(f"gamma must be {dim}x1")
        self.lam = lam
        self.gamma = gamma

    @property
    def mu(self) -> dict[Letter, Matrix]:
        return self.assign

    def value(self, w: Word) -> Fraction:
        _same_alphabet(self.alphabet, w.alphabet)
        mu = self.assign
        row = self.lam
        for letter in w.letters:
            row = row * mu[letter]
        return (row * self.gamma).scalar()

    def __eq__(self, other) -> bool:
        return (
            super().__eq__(other)
            and self.lam == other.lam
            and self.gamma == other.gamma
        )

    def to_json_dict(self) -> dict:
        return {
            "alphabet": self.alphabet.decl(),
            "dim": self.dim,
            "lambda": [str(x) for x in self.lam.row(0)],
            "mu": self._letters_json(),
            "gamma": [[str(x)] for x in self.gamma.col(0)],
        }

    @classmethod
    def _from_json_fields(cls, alphabet: Alphabet, dim: int, data) -> "LinRep":
        lam = _json_matrix([data["lambda"]])
        mu = {l: _json_matrix(data["mu"][l.symbol]) for l in alphabet.letters}
        return cls(alphabet, dim, lam, mu, _json_matrix(data["gamma"]))


def eval_word(r: MatRep, w: Word) -> Matrix:
    """rho(w); the empty word maps to the identity."""
    _same_alphabet(r.alphabet, w.alphabet)
    if w.is_unit:
        return Matrix.identity(r.dim)
    first, *rest = w.letters
    out = r.assign[first]
    for letter in rest:
        out = out * r.assign[letter]
    return out


def eval_rep(r: MatRep, p: NCPoly) -> Matrix:
    """rho(p), the unique algebra-morphism extension of the letter matrices."""
    _same_alphabet(r.alphabet, p.alphabet)
    out = Matrix.zeros(r.dim, r.dim)
    for w, c in p.terms.items():
        out = out + eval_word(r, w).scale(c)
    return out


def direct_sum(r1: MatRep, r2: MatRep) -> MatRep:
    """Block-diagonal representation on the sum of the two spaces."""
    _same_alphabet(r1.alphabet, r2.alphabet)
    assign = {
        l: r1.assign[l].direct_sum(r2.assign[l]) for l in r1.alphabet.letters
    }
    return MatRep(r1.alphabet, r1.dim + r2.dim, assign)


def tensor_rep(r1: MatRep, r2: MatRep) -> MatRep:
    """Representation on the tensor product, following the letter scheme:
    Kronecker product on group-like letters, Kronecker sum on primitive ones.
    Basis order is the standard row-major Kronecker order."""
    _same_alphabet(r1.alphabet, r2.alphabet)
    assign = {
        l: tensor_scheme(r1.assign[l], r2.assign[l], l.group_like)
        for l in r1.alphabet.letters
    }
    return MatRep(r1.alphabet, r1.dim * r2.dim, assign)


def trivial_rep(alphabet: Alphabet) -> MatRep:
    """The one-dimensional representation realizing the counit."""
    assign = {
        l: Matrix([[1 if l.group_like else 0]]) for l in alphabet.letters
    }
    return MatRep(alphabet, 1, assign)


def zero_rep(alphabet: Alphabet) -> LinRep:
    """One dead state; the zero series."""
    mu = {l: Matrix([[0]]) for l in alphabet.letters}
    return LinRep(alphabet, 1, Matrix([[0]]), mu, Matrix([[0]]))


def scale_rep(rep: LinRep, c) -> LinRep:
    return LinRep(rep.alphabet, rep.dim, rep.lam.scale(c), rep.mu, rep.gamma)


def rep_sum(r1: LinRep, r2: LinRep) -> LinRep:
    """Representation of the pointwise sum of the two series: the direct sum
    of the two representations, with lambda and gamma stacked."""
    s = direct_sum(r1, r2)
    return LinRep(
        s.alphabet, s.dim, r1.lam.hstack(r2.lam), s.assign, r1.gamma.vstack(r2.gamma)
    )


def conv_rep(r1: LinRep, r2: LinRep) -> LinRep:
    """Representation of the convolution of the two series: the tensor
    product of the two representations, with lambda and gamma Kronecker
    multiplied."""
    t = tensor_rep(r1, r2)
    return LinRep(
        t.alphabet, t.dim, r1.lam.kron(r2.lam), t.assign, r1.gamma.kron(r2.gamma)
    )


def _as_row(psi, dim: int) -> Matrix:
    m = psi if isinstance(psi, Matrix) else Matrix.row_vector(psi)
    if m.nrows != 1 or m.ncols != dim:
        raise DomainError(f"expected a 1x{dim} row vector, got {m.nrows}x{m.ncols}")
    return m


def _as_col(x, dim: int) -> Matrix:
    m = x if isinstance(x, Matrix) else Matrix.col_vector(x)
    if m.ncols != 1 or m.nrows != dim:
        raise DomainError(f"expected a {dim}x1 column vector, got {m.nrows}x{m.ncols}")
    return m


def _walked(cache: dict, mats: dict, text: str) -> tuple:
    """The integer vector of text in cache (which holds ""), computed if
    missing from its longest cached prefix: one product with the rows of
    mats[letter] per further letter, each stored."""
    k = len(text)
    while (vec := cache.get(text[:k])) is None:
        k -= 1
    for k in range(k, len(text)):
        vec = cache[text[: k + 1]] = tuple([sum(map(mul, vec, c)) for c in mats[text[k]]])
    return vec


def dual_action(r: MatRep, g: NCPoly, psi) -> Matrix:
    """Left action on the dual through the antipode: psi . rho(S(g))."""
    _check_antipode_domain(r.alphabet)
    _same_alphabet(r.alphabet, g.alphabet)
    row = _as_row(psi, r.dim)
    return row * eval_rep(r, antipode(g))


def pairing_invariance_check(
    r: MatRep, g: NCPoly, psi, x
) -> tuple[Fraction, Fraction]:
    """Audit of the antipode axiom on a representation.

    Returns the two numbers that the axiom forces to coincide: the sum of
    <g_(1) acting on psi, g_(2) acting on x> over the coproduct of g, and
    counit(g) * <psi, x>.
    """
    _check_antipode_domain(r.alphabet)
    _same_alphabet(r.alphabet, g.alphabet)
    row, col = _as_row(psi, r.dim), _as_col(x, r.dim)
    # the letter matrices as integer rows and columns over the lcm of their denominators
    den = lcm(*[m.den for m in r.assign.values()])
    rows = {l.symbol: _scaled(m.num, den // m.den) for l, m in r.assign.items()}
    cols = {a: tuple(zip(*m)) for a, m in rows.items()}
    prefixes, suffixes = {"": row.num[0]}, {"": tuple([y for (y,) in col.num])}
    images: dict = {}
    sums: dict = {}  # integer numerators keyed by their denominators
    pairs, cden = _numerators(coproduct(g))
    for (u, v), c in pairs:
        if u not in images:
            images[u] = _numerators(antipode(NCPoly._of_checked(r.alphabet, {u: 1}, 1)))
        terms, sden = images[u]
        # rho(v) . x, walked as the reversed v on the transposed letter matrices
        right = _walked(suffixes, rows, v[::-1])
        for w, s in terms:
            q = sden * den ** (len(w) + len(v))
            sums[q] = sums.get(q, 0) + c * s * sum(map(mul, _walked(prefixes, cols, w), right))
    q = lcm(*sums)
    lhs = Fraction(sum([n * (q // d) for d, n in sums.items()]), cden * q * row.den * col.den)
    e, dot = counit(g), sum(map(mul, prefixes[""], suffixes[""]))
    return lhs, Fraction(e.numerator * dot, e.denominator * row.den * col.den)
