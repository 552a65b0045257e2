"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line with its runtime; run with `pytest -v -s` to see
them. Time budgets are asserted alongside the mathematical content.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from cli_cases import CASES, GOLDEN, run_cli
from conftest import counting_rep, geometric_rep
from hopfwords import (
    Alphabet,
    FiniteSupportSeries,
    Matrix,
    MatRep,
    NCPoly,
    RecognizableSeries,
    antipode,
    behavior_table,
    conc,
    conv_rep,
    coproduct,
    counit,
    embed_finite,
    eval_word,
    hankel_rank,
    learn,
    pairing_invariance_check,
    splittings,
    split,
    tensor2_mul,
    tensor_rep,
    trivial_rep,
)
from hopfwords.cli import run
from hopfwords.errors import DomainError

MIXED = Alphabet.from_decl("a:L,b:L,g:G")
AB = Alphabet.from_decl("a:L,b:L")


def _finish(num, budget, started, label):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"
    print(f"PASS criterion {num:2d} [{elapsed:5.2f}s < {budget:2d}s] {label}")


def _verifier_line(capsys, *argv):
    """The one stdout line of an in-process check-* run, which must exit 0."""
    code = run(list(argv))
    out, err = capsys.readouterr()
    assert (code, err) == (0, ""), err
    return out


def test_criterion_01_coassociativity(capsys):
    t0 = time.monotonic()
    out = _verifier_line(capsys, "check-coassoc", "--alphabet", "a:L,b:L,g:G", "--maxlen", "5")
    assert out == "coassoc: OK (364 checks, maxlen=5)\n"
    _finish(1, 5, t0, "coassociativity exact on all 364 words of length <= 5")


def test_criterion_02_bialgebra_morphism():
    t0 = time.monotonic()
    words = list(MIXED.words(3))
    pairs = 0
    for u in words:
        for v in words:
            lhs = coproduct(NCPoly.from_word(conc(u, v)))
            rhs = tensor2_mul(
                coproduct(NCPoly.from_word(u)), coproduct(NCPoly.from_word(v))
            )
            assert lhs == rhs, f"coproduct is not multiplicative at ({u}, {v})"
            pairs += 1
    assert pairs == 1600
    _finish(2, 5, t0, "coproduct(uv) = coproduct(u) * coproduct(v) on 1600 pairs")


def test_criterion_03_antipode_axiom(capsys):
    t0 = time.monotonic()
    out = _verifier_line(capsys, "check-antipode", "--alphabet", "a:L,b:L", "--maxlen", "5")
    assert out == "antipode: OK (63 checks, maxlen=5)\n"
    for decl in ("g:G", "a:L,g:G", "a:L,b:L,g:G"):
        alph = Alphabet.from_decl(decl)
        with pytest.raises(DomainError):
            antipode(NCPoly.one(alph))
    _finish(3, 2, t0, "antipode identity on words <= 5; domain error when G is nonempty")


def test_criterion_04_counit_laws():
    t0 = time.monotonic()
    for w in MIXED.words(5):
        target = NCPoly.from_word(w)
        left = NCPoly.zero(MIXED)
        right = NCPoly.zero(MIXED)
        for (u, v), c in coproduct(target).terms.items():
            left = left + NCPoly.from_word(u).scale(c * counit(NCPoly.from_word(v)))
            right = right + NCPoly.from_word(v).scale(c * counit(NCPoly.from_word(u)))
        assert left == target, f"right-counit contraction fails at {w}"
        assert right == target, f"left-counit contraction fails at {w}"
    _finish(4, 2, t0, "both counit contractions return the word, length <= 5")


def test_criterion_05_dual_associativity(capsys):
    t0 = time.monotonic()
    for decl in ("a:L,b:L", "a:L,g:G"):
        out = _verifier_line(capsys, "check-dual-assoc", "--alphabet", decl, "--maxlen", "6")
        assert out == "dual-assoc: OK (343 checks, maxlen=6)\n", decl
    _finish(5, 10, t0, "triple convolutions of indicator series associate exactly")


def _reference_reps():
    return [
        ("geometric", geometric_rep(Alphabet.from_decl("a:L"), 2)),
        ("counting", counting_rep(AB)),
        ("chi_ab", embed_finite(FiniteSupportSeries.indicator(AB.word("ab")))),
    ]


def test_criterion_06_split_factorization():
    t0 = time.monotonic()
    for name, rep in _reference_reps():
        pairs = split(rep)
        words = list(rep.alphabet.words(3))
        for x in words:
            for y in words:
                total = sum((g.coeff(x) * h.coeff(y) for g, h in pairs), Fraction(0))
                assert total == rep.value(conc(x, y)), (name, x, y)
    _finish(6, 5, t0, "f(xy) = sum g_i(x) h_i(y) for the three reference series")


def test_criterion_07_rank_and_learning():
    t0 = time.monotonic()
    for name, rep in _reference_reps():
        f = RecognizableSeries(rep)
        for p in range(5):
            for s in range(5):
                assert hankel_rank(f, p, s) <= rep.dim, (name, p, s)
        model = learn(f, 3)
        assert model.dim <= rep.dim
        assert model.dim == hankel_rank(f, 4, 4), name
        for w in rep.alphabet.words(7):
            assert model.value(w) == rep.value(w), (name, w)
    _finish(7, 10, t0, "hankel rank <= dim; learning round-trips at minimal rank")


def test_criterion_08_convolution_vs_oracle():
    t0 = time.monotonic()
    for decl in ("a:L,b:L", "g:G", "a:L,g:G"):
        alph = Alphabet.from_decl(decl)
        refs = [geometric_rep(alph, 2), geometric_rep(alph, 3)]
        first = alph.sorted_letters[0]
        refs.append(
            embed_finite(
                FiniteSupportSeries.indicator(alph.word(first.symbol * 2))
            )
        )
        tables = [behavior_table(r, 6) for r in refs]
        for r1, t1 in zip(refs, tables):
            for r2, t2 in zip(refs, tables):
                table = behavior_table(conv_rep(r1, r2), 6)
                for w in alph.words(6):
                    expected = sum(
                        (t1[u] * t2[v] for u, v in splittings(w)), Fraction(0)
                    )
                    assert table[w] == expected, (decl, w)
    single = Alphabet.from_decl("a:L")
    conv = conv_rep(geometric_rep(single, 2), geometric_rep(single, 3))
    for n in range(6):
        w = single.word("a" * n if n else "1")
        binomial = sum(math.comb(n, k) * 2**k * 3 ** (n - k) for k in range(n + 1))
        assert binomial == 5**n
        assert conv.value(w) == binomial
    _finish(8, 10, t0, "conv_rep equals the splitting formula; geometric conv is 5^n")


def test_criterion_09_representation_calculus():
    t0 = time.monotonic()
    rng = random.Random(20240809)

    def rand_rep(alph, dim):
        assign = {
            l: Matrix([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
            for l in alph.letters
        }
        return MatRep(alph, dim, assign)

    r1, r2, r3 = (rand_rep(MIXED, 2) for _ in range(3))
    left = tensor_rep(tensor_rep(r1, r2), r3)
    right = tensor_rep(r1, tensor_rep(r2, r3))
    for l in MIXED.letters:
        assert left.assign[l] == right.assign[l]
    for w in MIXED.words(3):
        assert eval_word(left, w) == eval_word(right, w)
    triv = trivial_rep(MIXED)
    for w in MIXED.words(3):
        assert eval_word(tensor_rep(r1, triv), w) == eval_word(r1, w)
        assert eval_word(tensor_rep(triv, r1), w) == eval_word(r1, w)
    rep = rand_rep(AB, 2)
    for w in AB.words(4):
        psi = Matrix.row_vector([rng.randint(-2, 2) for _ in range(2)])
        x = Matrix.col_vector([rng.randint(-2, 2) for _ in range(2)])
        lhs, rhs = pairing_invariance_check(rep, NCPoly.from_word(w), psi, x)
        assert lhs == rhs, w
    _finish(9, 5, t0, "strict tensor associativity, unit laws, pairing invariance")


def test_criterion_10_cli_goldens_and_round_trip():
    t0 = time.monotonic()
    for name, args in CASES:
        proc = run_cli(args)
        assert proc.returncode == 0, (name, proc.stderr.decode())
        assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes(), name
    rng = random.Random(99)
    words = list(MIXED.words(3))
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            num = rng.choice([n for n in range(-9, 10) if n])
            terms[rng.choice(words)] = Fraction(num, rng.randint(1, 7))
        poly = NCPoly(MIXED, terms)
        assert NCPoly.from_text(MIXED, str(poly)) == poly
    _finish(10, 5, t0, "byte-identical golden outputs; 100 parse/print round-trips")
