import gc
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfwords.rep
from hopfwords import (
    Alphabet,
    Matrix,
    MatRep,
    NCPoly,
    Tensor2,
    antipode,
    conc,
    coproduct,
    counit,
    direct_sum,
    dual_action,
    eval_rep,
    eval_word,
    pairing_invariance_check,
    tensor_rep,
    trivial_rep,
)
from hopfwords.errors import DomainError, ParseError


def rep_of(alphabet, **mats):
    dims = {m.nrows for m in mats.values()}
    (dim,) = dims
    assign = {alphabet.find(s): m for s, m in mats.items()}
    return MatRep(alphabet, dim, assign)


def random_rep(alphabet, dim, rng):
    assign = {
        l: Matrix([[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)])
        for l in alphabet.letters
    }
    return MatRep(alphabet, dim, assign)


def test_eval_nilpotent_square(ab):
    r = rep_of(ab, a=Matrix([[0, 1], [0, 0]]), b=Matrix.zeros(2, 2))
    assert eval_rep(r, NCPoly.from_text(ab, "aa")) == Matrix.zeros(2, 2)


def test_eval_unit_is_identity(ab):
    rng = random.Random(0)
    r = random_rep(ab, 2, rng)
    assert eval_rep(r, NCPoly.one(ab)) == Matrix.identity(2)


def test_eval_affine_combination(single):
    r = rep_of(single, a=Matrix([[2]]))
    assert eval_rep(r, NCPoly.from_text(single, "3*a + 1")) == Matrix([[7]])


def test_eval_is_multiplicative(ab):
    rng = random.Random(1)
    r = random_rep(ab, 2, rng)
    for u in ab.words(3):
        for v in ab.words(2):
            assert eval_word(r, conc(u, v)) == eval_word(r, u) * eval_word(r, v)


def test_eval_alphabet_mismatch(ab, single):
    r = rep_of(single, a=Matrix([[2]]))
    with pytest.raises(DomainError):
        eval_rep(r, NCPoly.from_text(ab, "a"))


def test_direct_sum_blocks(single):
    r1 = rep_of(single, a=Matrix([[2]]))
    r2 = rep_of(single, a=Matrix([[3]]))
    s = direct_sum(r1, r2)
    assert s.assign[single.find("a")] == Matrix([[2, 0], [0, 3]])


def test_direct_sum_eval_is_block_diagonal(ab):
    rng = random.Random(2)
    r1 = random_rep(ab, 2, rng)
    r2 = random_rep(ab, 1, rng)
    s = direct_sum(r1, r2)
    for w in ab.words(3):
        m = eval_word(s, w)
        m1 = eval_word(r1, w)
        m2 = eval_word(r2, w)
        assert m == m1.direct_sum(m2)
        # off-diagonal interaction blocks stay zero
        assert all(m[i, 2] == 0 for i in range(2))
        assert all(m[2, j] == 0 for j in range(2))


def test_direct_sum_eval_commutes_on_polynomials(ab):
    rng = random.Random(3)
    r1 = random_rep(ab, 2, rng)
    r2 = random_rep(ab, 2, rng)
    p = NCPoly.from_text(ab, "2*ab - b + 1/2")
    assert eval_rep(direct_sum(r1, r2), p) == eval_rep(r1, p).direct_sum(
        eval_rep(r2, p)
    )


def test_tensor_rep_scalar_cases(single, grouponly):
    r1 = rep_of(single, a=Matrix([[2]]))
    r2 = rep_of(single, a=Matrix([[3]]))
    assert tensor_rep(r1, r2).assign[single.find("a")] == Matrix([[5]])
    g1 = rep_of(grouponly, g=Matrix([[2]]))
    g2 = rep_of(grouponly, g=Matrix([[3]]))
    assert tensor_rep(g1, g2).assign[grouponly.find("g")] == Matrix([[6]])


def test_tensor_with_trivial_is_identity_on_letters_and_words(mixed):
    rng = random.Random(4)
    r = random_rep(mixed, 2, rng)
    triv = trivial_rep(mixed)
    left = tensor_rep(r, triv)
    right = tensor_rep(triv, r)
    for l in mixed.letters:
        assert left.assign[l] == r.assign[l]
        assert right.assign[l] == r.assign[l]
    for w in mixed.words(4):
        assert eval_word(left, w) == eval_word(r, w)
        assert eval_word(right, w) == eval_word(r, w)


def test_tensor_rep_strict_associativity(mixed):
    rng = random.Random(5)
    r1, r2, r3 = (random_rep(mixed, 2, rng) for _ in range(3))
    left = tensor_rep(tensor_rep(r1, r2), r3)
    right = tensor_rep(r1, tensor_rep(r2, r3))
    for l in mixed.letters:
        assert left.assign[l] == right.assign[l]
    for w in mixed.words(3):
        assert eval_word(left, w) == eval_word(right, w)


def test_tensor_rep_is_a_representation(mixed):
    rng = random.Random(6)
    r1 = random_rep(mixed, 2, rng)
    r2 = random_rep(mixed, 2, rng)
    t = tensor_rep(r1, r2)
    for u in mixed.words(2):
        for v in mixed.words(2):
            assert eval_word(t, conc(u, v)) == eval_word(t, u) * eval_word(t, v)


def test_trivial_rep_realizes_counit(mixed):
    triv = trivial_rep(mixed)
    assert triv.assign[mixed.find("g")] == Matrix([[1]])
    assert triv.assign[mixed.find("a")] == Matrix([[0]])
    assert eval_word(triv, mixed.word("ga")) == Matrix([[0]])
    for text in ("3*gg + ab", "ga - 1/2", "g + a"):
        p = NCPoly.from_text(mixed, text)
        assert eval_rep(triv, p) == Matrix([[counit(p)]])


def test_dual_action_examples(single, ab):
    r = rep_of(single, a=Matrix([[2]]))
    psi = Matrix.row_vector([1])
    assert dual_action(r, NCPoly.from_text(single, "a"), psi) == Matrix([[-2]])
    assert dual_action(r, NCPoly.one(single), psi) == psi
    r2 = rep_of(ab, a=Matrix([[2]]), b=Matrix([[3]]))

    # dim-1 letters commute, so only the reversal sign matters: S(ab) = ba
    assert dual_action(
        r2, NCPoly.from_text(ab, "ab"), Matrix.row_vector([Fraction(1, 2)])
    ) == Matrix([[3]])


def test_dual_action_needs_antipode(mixed):
    r = trivial_rep(mixed)
    with pytest.raises(DomainError, match="no antipode"):
        dual_action(r, NCPoly.one(mixed), Matrix.row_vector([1]))


def test_pairing_invariance_hand_cases(ab):
    r = rep_of(ab, a=Matrix([[0, 1], [0, 0]]), b=Matrix([[0, 0], [1, 0]]))
    psi = Matrix.row_vector([1, 0])
    x = Matrix.col_vector([0, 1])
    lhs, rhs = pairing_invariance_check(r, NCPoly.from_text(ab, "a"), psi, x)
    assert (lhs, rhs) == (0, 0)
    lhs, rhs = pairing_invariance_check(r, NCPoly.one(ab), psi, x)
    assert lhs == rhs == (psi * x).scalar()
    lhs, rhs = pairing_invariance_check(r, NCPoly.from_text(ab, "ab"), psi, x)
    assert lhs == rhs


def test_pairing_invariance_randomized(ab):
    rng = random.Random(7)
    r = random_rep(ab, 2, rng)
    for w in ab.words(4):
        psi = Matrix.row_vector([rng.randint(-2, 2) for _ in range(2)])
        x = Matrix.col_vector([rng.randint(-2, 2) for _ in range(2)])
        lhs, rhs = pairing_invariance_check(r, NCPoly.from_word(w), psi, x)
        assert lhs == rhs


def test_pairing_invariance_dimension_mismatch(ab):
    rng = random.Random(8)
    r = random_rep(ab, 2, rng)
    with pytest.raises(DomainError):
        pairing_invariance_check(
            r, NCPoly.one(ab), Matrix.row_vector([1]), Matrix.col_vector([1, 0])
        )


def test_matrep_validation(ab):
    a, b = ab.find("a"), ab.find("b")
    with pytest.raises(ValueError):
        MatRep(ab, 2, {a: Matrix.identity(2)})
    with pytest.raises(ValueError):
        MatRep(ab, 2, {a: Matrix.identity(2), b: Matrix.identity(3)})


def test_matrep_json_round_trip(mixed):
    rng = random.Random(9)
    r = random_rep(mixed, 2, rng)
    data = json.loads(json.dumps(r.to_json_dict()))
    assert MatRep.from_json_dict(data) == r
    with pytest.raises(ParseError):
        MatRep.from_json_dict({"alphabet": "a:L", "dim": 1})
    # dim must be a JSON integer; entries must be "p" or "p/q" strings
    for dim, entry in [(True, "1"), ("1", "1"), (1, "1e3"), (1, "0.5"), (1, 0.1), (1, 1)]:
        with pytest.raises(ParseError):
            MatRep.from_json_dict({"alphabet": "a:L", "dim": dim, "assign": {"a": [[entry]]}})


# ---------------------------------------------------------------------------
# the antipode audit on integer vectors, against the Fraction reference


def reference_dual_action(r, g, psi):
    """psi . rho(S(g)) by matrix products over Fractions."""
    return psi * eval_rep(r, antipode(g))


def reference_pairing(r, g, psi, x):
    """The audit as n x n matrix products and a Fraction sum."""
    lhs = Fraction(0)
    for (u, v), c in coproduct(g).terms.items():
        acted = reference_dual_action(r, NCPoly.from_word(u), psi)
        lhs += c * (acted * eval_word(r, v) * x).scalar()
    return lhs, counit(g) * (psi * x).scalar()


RATIONALS = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)])


@st.composite
def audit_operands(draw):
    """A representation of dim 1-4 over a:L or a:L,b:L whose letter matrices
    have unlike denominators, rational psi and x, and g over words of
    length <= 5 with rational coefficients."""
    alphabet = Alphabet.from_decl(draw(st.sampled_from(["a:L", "a:L,b:L"])))
    dim = draw(st.integers(1, 4))
    assign = {
        l: Matrix([[draw(RATIONALS) for _ in range(dim)] for _ in range(dim)]).scale(
            Fraction(1, draw(st.integers(1, 4)))
        )
        for l in alphabet.letters
    }
    words = list(alphabet.words(5))
    terms = draw(st.dictionaries(st.sampled_from(words), RATIONALS, max_size=4))
    vec = st.lists(RATIONALS, min_size=dim, max_size=dim)
    psi, x = Matrix.row_vector(draw(vec)), Matrix.col_vector(draw(vec))
    return MatRep(alphabet, dim, assign), NCPoly(alphabet, terms), psi, x


@given(audit_operands())
@settings(max_examples=80, deadline=None)
def test_audit_matches_the_fraction_reference(operands):
    r, g, psi, x = operands
    lhs, rhs = pairing_invariance_check(r, g, psi, x)
    assert (lhs, rhs) == reference_pairing(r, g, psi, x)
    assert type(lhs) is Fraction and type(rhs) is Fraction and lhs == rhs
    # psi and x given as entry lists
    assert pairing_invariance_check(r, g, psi.row(0), x.col(0)) == (lhs, rhs)


def pinned_audit(ab):
    r = rep_of(ab, a=Matrix([[1, 1], [0, 1]]), b=Matrix([[Fraction(1, 2), 0], [1, 2]]))
    g = NCPoly.from_text(ab, "ab - 1/3*a + 2")
    return r, g, Matrix.row_vector([1, 2]), Matrix.col_vector([3, -1])


@pytest.mark.parametrize(
    "fault",
    [
        lambda p: NCPoly(p.alphabet, {w.reverse(): c for w, c in p.terms.items()}),
        lambda p: antipode(p).scale(Fraction(1, 2)),
    ],
    ids=["unsigned", "halved"],
)
def test_audit_catches_a_faulty_antipode(ab, monkeypatch, fault):
    r, g, psi, x = pinned_audit(ab)
    lhs, rhs = pairing_invariance_check(r, g, psi, x)
    assert lhs == rhs == 2
    monkeypatch.setattr(hopfwords.rep, "antipode", fault)
    lhs, rhs = pairing_invariance_check(r, g, psi, x)
    assert lhs != rhs
    assert dual_action(r, g, psi) != reference_dual_action(r, g, psi)


def test_audit_catches_a_coproduct_with_a_term_dropped(ab, monkeypatch):
    r, g, psi, x = pinned_audit(ab)
    full = coproduct

    def dropped(p):
        t = full(p)
        key, c = next(iter(t.terms.items()))
        return t - Tensor2(p.alphabet, {key: c})

    monkeypatch.setattr(hopfwords.rep, "coproduct", dropped)
    lhs, rhs = pairing_invariance_check(r, g, psi, x)
    assert lhs != rhs


def test_audit_leaves_no_cyclic_garbage(ab):
    """Each call frees what it builds by reference counting alone."""
    r, g, psi, x = pinned_audit(ab)
    gc.collect()
    gc.disable()
    try:
        pairing_invariance_check(r, g, psi, x)
        dual_action(r, g, psi)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_audit_does_no_fraction_arithmetic(ab, monkeypatch):
    """pairing_invariance_check builds Fractions only at the edge, the
    counit's and each returned number, on both sides."""
    r, g, psi, x = pinned_audit(ab)
    expected = reference_pairing(r, g, psi, x)

    def refuse(self, other):
        raise AssertionError("Fraction arithmetic in the audit")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", refuse)
        monkeypatch.setattr(Fraction, f"__r{op}__", refuse)
    assert pairing_invariance_check(r, g, psi, x) == expected
    with pytest.raises(AssertionError):
        Fraction(1, 2) * 3
