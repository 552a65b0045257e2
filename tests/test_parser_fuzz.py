"""Fuzzing of every parser that reads outside input: each returns a value
or raises ParseError, or the TypeError/ValueError its docstring names;
nothing else escapes, and no example takes long."""

import argparse
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfwords import Alphabet, LinRep, MatRep, NCPoly, Tensor2, Tensor3
from hopfwords.cli import _load_json_rep
from hopfwords.errors import ParseError
from hopfwords.linalg import _parse_rational

MIXED = Alphabet.from_decl("a:L,b:L,g:G")
FUZZ = settings(max_examples=200, deadline=1000)

# characters of the grammars, so that most examples get past the first token
decl_text = st.text(alphabet="abgGL:, \t+1é", max_size=20) | st.text(max_size=20)
expr_text = st.text(alphabet="abg1230/*+- ()x⊗\t", max_size=30) | st.text(max_size=30)
json_scalar = (
    st.none() | st.booleans() | st.integers() | st.text(alphabet="0123/-ab:LG,.e", max_size=8)
)
json_key = st.sampled_from(["alphabet", "dim", "assign", "lambda", "mu", "gamma", "a"])
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_key, inner, max_size=6),
    max_leaves=12,
)
LONG_NUMBER = "1" * 5000


@FUZZ
@given(decl_text)
@example("a:L,a:G")
@example("+:L")
def test_alphabet_declaration(text):
    try:
        alph = Alphabet.from_decl(text)
    except ParseError:
        return
    assert Alphabet.from_decl(alph.decl()) == alph


@FUZZ
@given(expr_text)
@example(LONG_NUMBER + "*a")
@example("1/0*a")
def test_polynomial_text(text):
    try:
        p = NCPoly.from_text(MIXED, text)
    except ParseError:
        return
    assert NCPoly.from_text(MIXED, str(p)) == p


@FUZZ
@given(expr_text)
@example("a(x)" + LONG_NUMBER)
@example("1 (x) 1")
@example("2*a(x)1⊗g - 1 (x) 1 (x) " + LONG_NUMBER)
def test_tensor_text(text):
    for cls in (Tensor2, Tensor3):
        try:
            t = cls.from_text(MIXED, text)
        except ParseError:
            continue
        assert cls.from_text(MIXED, str(t)) == t


@FUZZ
@given(json_value)
@example({"alphabet": 5, "dim": 1, "assign": {}})
@example({"alphabet": "a:L", "dim": 1, "assign": {"a": [["1/0"]]}})
@example({"alphabet": "a:L", "dim": 1, "assign": {"a": [[LONG_NUMBER]]}})
def test_representation_json_dict(data):
    for cls in (MatRep, LinRep):
        try:
            rep = cls.from_json_dict(data)
        except ParseError:
            continue
        assert cls.from_json_dict(rep.to_json_dict()) == rep


@FUZZ
@given(json_value.map(json.dumps) | st.text(alphabet='{}[]":,0123./e-aL', max_size=40))
@example('{"alphabet": "a:L", "dim": ' + LONG_NUMBER + "}")
@example('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
@example('{"alphabet": "a:L", "dim": 1, "assign": {"a": [[0.5]]}}')
def test_representation_operand(content):
    args = argparse.Namespace(alphabet=None)
    for cls in (MatRep, LinRep):
        try:
            _load_json_rep(args, content, cls)
        except ParseError:
            pass


@FUZZ
@given(st.text(alphabet="0123456789/-+ .e_", max_size=12) | st.from_type(object))
@example(LONG_NUMBER)
@example("1/0")
def test_rational_entry(x):
    # the one documented failure is ValueError
    try:
        q = _parse_rational(x)
    except ValueError:
        return
    assert _parse_rational(str(q)) == q
