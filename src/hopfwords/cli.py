"""Command-line front end.

Every operation of the library sits behind a subcommand with deterministic
text/JSON output, suitable for scripting and byte-exact golden tests.

Exit codes: 0 success, 1 parse/usage error, 2 domain error, 3 inconclusive
(learning rank not stabilized), 4 invariant check found a counterexample.

Polynomial operands use the text grammar ("3*ab - 1/2*ba + 1"); series
operands are either polynomial text (finite support) or a linear
representation in JSON, inline or as a file path. An operand that is valid
inline text for its position is inline; only otherwise is the file it names
read. Inline operands of 1024 bytes or more must be passed as files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .dualforms import (
    FiniteSupportSeries,
    RecognizableSeries,
    Series,
    _merge_count,
    _to_linrep,
    convolve,
    embed_finite,
    pair,
)
from .errors import DomainError, InconclusiveError, ParseError
from .freealg import (
    _DIGITS,
    Alphabet,
    LinComb,
    NCPoly,
    Word,
    _check_antipode_domain,
    antipode,
    coassoc_lhs,
    coassoc_rhs,
    coproduct,
    coproduct_word,
    counit,
    poly_mul,
    splittings,
)
from .linalg import Matrix
from .rep import LinRep, MatRep, conv_rep, direct_sum, eval_rep, tensor_rep
from .sweedler import (
    _window_holds_support,
    behavior_table,
    hankel,
    hankel_rank,
    learn,
    split,
    transpose_antipode,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_INCONCLUSIVE = 3
EXIT_COUNTEREXAMPLE = 4

_INLINE_LIMIT = 1024
_MAXLEN_CAP = 7
# most entries of a Hankel window (hankel, rank, learn), most terms of a
# coproduct or a product before merging (coprod, mul), most letter-matrix
# entries of the automaton of a finite-support operand (split, dualS, conv),
# of a convolution's or a tensor product's representation and of split's
# output, and most merged words of a convolution of two finite supports,
# checked before any word is enumerated or any matrix built
_WINDOW_CAP = 1 << 20
# most characters of the words a Hankel window lists: above the most of any
# window over two or more letters within _WINDOW_CAP entries (18,874,370, a
# two-letter side of 2^20 - 1 words), so it bounds one-letter sides alone
_WORD_CHARS_CAP = 20 * _WINDOW_CAP


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument(
        "--alphabet",
        metavar="DECL",
        help="alphabet declaration, e.g. 'a:L,b:L,g:G' (required for text operands)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def build_parser(command: str | None = None) -> _Parser:
    """The argument parser with every subcommand, or with `command` alone.
    A run needs only the subparser its first argument names: the top-level
    usage names SUBCOMMAND rather than listing the choices, so usage, help
    and error text are the same either way. The one text that lists the
    choices, the invalid-choice error, comes from a run whose first argument
    names no subcommand, which gets the full parser."""
    parser = _Parser(prog="hopfwords", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    names = _COMMANDS if command is None else (command,)
    for name in names:
        _, help_, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        _add_common(p)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# operand loading


def _operand(arg: str, parse):
    """parse() of an operand's stripped text. The operand is inline when
    parse accepts it; only when it raises a ParseError and the operand names
    an existing file is the file read instead, so a file never shadows valid
    inline text (a path such as ./ab is never inline)."""
    try:
        if len(arg.encode()) >= _INLINE_LIMIT:
            raise ParseError("inline operand is 1024 bytes or larger; pass it as a file path")
        return parse(arg.strip())
    except ParseError:
        if not os.path.isfile(arg):
            raise
    try:
        with open(arg, encoding="utf-8") as fh:
            content = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read operand file {arg!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"operand file {arg!r} is not UTF-8: invalid byte at offset {exc.start}") from exc
    return parse(content.strip())


def _need_alphabet(args) -> Alphabet:
    if not args.alphabet:
        raise ParseError("--alphabet is required for text operands")
    return Alphabet.from_decl(args.alphabet)


def _load_poly(args, raw: str, alphabet: Alphabet | None = None) -> NCPoly:
    return _operand(raw, lambda text: NCPoly.from_text(alphabet or _need_alphabet(args), text))


def _reject_json_number(text: str):
    raise ParseError(f"JSON number {text} is not allowed; write rationals as strings 'p' or 'p/q'")


def _load_json_rep(args, content: str, cls: type[MatRep]) -> MatRep:
    """Parse a representation operand. The decoder refuses JSON numbers with
    a fraction or an exponent; cls.from_json_dict checks the fields."""
    try:
        data = json.loads(
            content, parse_float=_reject_json_number, parse_constant=_reject_json_number
        )
    # ValueError covers JSONDecodeError and an integer of more digits than
    # int() converts; RecursionError, arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad JSON operand: {exc}") from exc
    rep = cls.from_json_dict(data)
    if args.alphabet and Alphabet.from_decl(args.alphabet) != rep.alphabet:
        raise DomainError("operand alphabet differs from --alphabet declaration")
    return rep


def _parse_series(args, text: str) -> Series:
    if text.startswith("{"):
        return RecognizableSeries(_load_json_rep(args, text, LinRep))
    return FiniteSupportSeries.from_text(_need_alphabet(args), text)


def _series_args(args, count: int) -> list[Series]:
    got = getattr(args, "series", [])
    if len(got) != count:
        raise ParseError(f"expected exactly {count} --series operand(s), got {len(got)}")
    return [_operand(raw, lambda text: _parse_series(args, text)) for raw in got]


def _rep_args(args, count: int) -> list[MatRep]:
    got = getattr(args, "rep", [])
    if len(got) != count:
        raise ParseError(f"expected exactly {count} --rep operand(s), got {len(got)}")

    def parse(text: str) -> MatRep:
        if not text.startswith("{"):
            raise ParseError("--rep operand must be representation JSON")
        return _load_json_rep(args, text, MatRep)

    return [_operand(raw, parse) for raw in got]


def _natural(text: str) -> int:
    """A nonnegative integer of one or more ASCII digits, as the term grammar
    reads one; int() alone also takes a sign, '_', spaces and other digits."""
    if not text or not set(text) <= _DIGITS:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer in ASCII digits, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got one of {len(text)} digits") from None


def _window(args) -> tuple[int, int]:
    if not getattr(args, "hankel", None):
        raise ParseError("--hankel P,S is required")
    try:
        p, s = map(_natural, args.hankel.split(","))
    except (ValueError, argparse.ArgumentTypeError):
        raise ParseError(f"bad --hankel value {args.hankel!r}: expected two nonnegative integers 'p,s'")
    return p, s


def _window_side(nletters: int, maxlen: int) -> int:
    """Number of words of length <= maxlen, or _WINDOW_CAP + 1 once it is
    known to be larger; counted, not enumerated."""
    total, level = 0, 1
    for _ in range(maxlen + 1):
        total += level
        if total > _WINDOW_CAP:
            return _WINDOW_CAP + 1
        level *= nletters
    return total


def _word_chars(nletters: int, maxlen: int) -> int:
    """Total length of the words of length <= maxlen; counted, not
    enumerated. Over two or more letters the entry checks bound maxlen by
    20, over one letter by 2^20, so that sum has a closed form."""
    if nletters == 1:
        return maxlen * (maxlen + 1) // 2
    return sum(i * nletters**i for i in range(maxlen + 1))


def _preflight_window(alphabet: Alphabet, p: int, s: int, f: Series | None = None):
    """Refuse a (p, s) Hankel window with a side of more than _WINDOW_CAP
    words, or with more than _WINDOW_CAP entries filled. hankel fills the
    whole window. rank and learn pass their operand f and fill rows x k
    entries, k the spanning columns that sweedler keeps: min(dim, cols) for
    a representation, and for a finite support the empty suffix plus every
    suffix of a support word of length <= s. A representation's rows are at
    most its 1 + dim*|A| basis words and their one-letter extensions, each
    at most min(p, dim) letters long. Then refuse a window whose words,
    every row word and for hankel every column word, have more than
    _WORD_CHARS_CAP characters in all: over one letter a side of 2^20 words
    lists words up to 2^20 letters long."""
    n = len(alphabet.letters)
    rows, cols = _window_side(n, p), _window_side(n, s)
    where = f"prefixes <= {p}, suffixes <= {s} over {n} letter(s)"
    shape = " x ".join(f">{_WINDOW_CAP}" if k > _WINDOW_CAP else str(k) for k in (rows, cols))
    chars = None
    if isinstance(f, RecognizableSeries):
        cols = min(f.rep.dim, cols)
        if rows > 1 + f.rep.dim * n:
            rows = 1 + f.rep.dim * n
            chars = rows * min(p, f.rep.dim)
    if rows * cols > _WINDOW_CAP:
        window = f"Hankel window of {shape} words ({where})"
        if f is None or rows > _WINDOW_CAP or cols > _WINDOW_CAP:
            raise ParseError(f"{window} exceeds the cap of {_WINDOW_CAP} entries")
        k = _suffix_states(f, s) if isinstance(f, FiniteSupportSeries) else cols
        if rows * k > _WINDOW_CAP:
            raise ParseError(
                f"{window} on {k} spanning column(s) fills {rows * k} entries, "
                f"which exceeds the cap of {_WINDOW_CAP} entries"
            )
    if chars is None:
        chars = _word_chars(n, p) + (_word_chars(n, s) if f is None else 0)
    if chars > _WORD_CHARS_CAP:
        raise ParseError(
            f"Hankel window ({where}) lists words of {chars} characters, "
            f"which exceeds the cap of {_WORD_CHARS_CAP} characters"
        )


def _suffix_states(f: FiniteSupportSeries, max_len: int | None = None) -> int:
    """Number of distinct suffixes of the support words, the empty word
    included (the states of embed_finite), or only of those of length <=
    max_len. Counted as the nodes of the trie of the reversed words, in the
    support's total length."""
    root: dict = {}
    n = 1
    for w in f.terms:
        node = root
        text = w.symbols()
        if max_len is not None:
            text = text[max(0, len(text) - max_len) :]
        for ch in reversed(text):
            child = node.get(ch)
            if child is None:
                child = node[ch] = {}
                n += 1
            node = child
    return n


def _preflight_embed(f: Series) -> int:
    """Refuse a finite-support operand whose automaton (embed_finite) has
    more than _WINDOW_CAP letter-matrix entries: n^2 per letter for n
    states. Returns the dimension of the operand's representation: n, or
    the dimension of a recognizable operand, which passes."""
    if not isinstance(f, FiniteSupportSeries):
        return f.rep.dim
    n, k = _suffix_states(f), len(f.alphabet.letters)
    if n * n * k > _WINDOW_CAP:
        raise ParseError(
            f"automaton of {n} states over {k} letter(s) has {n * n * k} letter-matrix "
            f"entries, which exceeds the cap of {_WINDOW_CAP} entries"
        )
    return n


def _preflight_conv(f: Series, h: Series):
    """Refuse a convolution that would enumerate more than _WINDOW_CAP
    merged words (two finite supports), or whose representation (dimension
    d1*d2) would have more than _WINDOW_CAP letter-matrix entries."""
    if isinstance(f, FiniteSupportSeries) and isinstance(h, FiniteSupportSeries):
        total = 0
        for u in f.terms:
            for v in h.terms:
                total += _merge_count(u, v)
                if total > _WINDOW_CAP:
                    raise ParseError(
                        f"convolution of the finite supports merges {total} or more "
                        f"words, which exceeds the cap of {_WINDOW_CAP} words"
                    )
        return
    _preflight_product("convolution", _preflight_embed(f), _preflight_embed(h), f.alphabet)


def _preflight_product(what: str, d1: int, d2: int, alphabet: Alphabet):
    """Refuse a product representation of dimension d1*d2 (a convolution or
    a tensor product) with more than _WINDOW_CAP letter-matrix entries."""
    d, k = d1 * d2, len(alphabet.letters)
    if d * d * k > _WINDOW_CAP:
        raise ParseError(
            f"{what} of dimension {d1} x {d2} = {d} over {k} letter(s) has "
            f"{d * d * k} letter-matrix entries, which exceeds the cap of {_WINDOW_CAP} entries"
        )


def _maxlen(args) -> int:
    n = getattr(args, "maxlen", None)
    if n is None:
        raise ParseError("--maxlen N is required")
    if n > _MAXLEN_CAP:
        raise ParseError(f"--maxlen out of range: {n} (allowed 0..{_MAXLEN_CAP})")
    return n


# ---------------------------------------------------------------------------
# output formatting


def _finish(args, text, json_obj) -> tuple[str, int]:
    """The rendering --format asks for, text() or json_obj() as JSON; both
    are callables, so the other rendering is never built."""
    body = json.dumps(json_obj()) if args.format == "json" else text()
    return body + "\n", EXIT_OK


def _out_json(obj) -> tuple[str, int]:
    """A result whose text rendering is its JSON document, so both formats
    print the same."""
    return json.dumps(obj) + "\n", EXIT_OK


def _out_terms(args, x: LinComb):
    """A polynomial or tensor: its text, or JSON rows of the words of each
    term followed by the coefficient."""

    def json_obj():
        return {
            "alphabet": x.alphabet.decl(),
            "terms": [[*map(str, x._factors(k)), str(c)] for k, c in x.terms.items()],
        }

    return _finish(args, x.__str__, json_obj)


def _out_rational(args, c: Fraction):
    return _finish(args, lambda: str(c), lambda: {"value": str(c)})


def _out_matrix(args, m: Matrix):
    return _finish(args, lambda: json.dumps(m.to_strings()), lambda: {"matrix": m.to_strings()})


def _out_check(args, name: str, maxlen: int, checked: int, counterexample=None):
    status = "OK" if counterexample is None else "FAIL"
    obj = {
        "check": name,
        "maxlen": maxlen,
        "status": status,
        "checked": checked,
        "counterexample": None if counterexample is None else str(counterexample),
    }
    if counterexample is None:
        text = f"{name}: OK ({checked} checks, maxlen={maxlen})"
        code = EXIT_OK
    else:
        text = f"{name}: FAIL at {counterexample} ({checked} checks passed, maxlen={maxlen})"
        code = EXIT_COUNTEREXAMPLE
    body = json.dumps(obj) + "\n" if args.format == "json" else text + "\n"
    return body, code


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_coprod(args):
    p = _load_poly(args, args.poly)
    # a word with k primitive letters splits 2^k ways; counted, not enumerated
    count = sum(1 << sum(not l.group_like for l in w.letters) for w in p.terms)
    if count > _WINDOW_CAP:
        raise ParseError(
            f"coproduct of {count} terms before merging exceeds the cap of {_WINDOW_CAP} terms"
        )
    return _out_terms(args, coproduct(p))


def _cmd_mul(args):
    alph = _need_alphabet(args)
    p = _load_poly(args, args.poly, alph)
    q = _load_poly(args, args.poly2, alph)
    count = len(p.terms) * len(q.terms)
    if count > _WINDOW_CAP:
        raise ParseError(
            f"product of {count} terms before merging exceeds the cap of {_WINDOW_CAP} terms"
        )
    return _out_terms(args, poly_mul(p, q))


def _cmd_counit(args):
    return _out_rational(args, counit(_load_poly(args, args.poly)))


def _cmd_antipode(args):
    return _out_terms(args, antipode(_load_poly(args, args.poly)))


def _cmd_pair(args):
    (f,) = _series_args(args, 1)
    p = _load_poly(args, args.poly, f.alphabet)
    return _out_rational(args, pair(f, p))


def _cmd_conv(args):
    f, h = _series_args(args, 2)
    _preflight_conv(f, h)
    result = convolve(f, h)
    if isinstance(result, FiniteSupportSeries):
        return _out_terms(args, result.poly)
    return _out_json(result.rep.to_json_dict())


def _cmd_tensor(args):
    r1, r2 = _rep_args(args, 2)
    _preflight_product("tensor product", r1.dim, r2.dim, r1.alphabet)
    return _out_json(tensor_rep(r1, r2).to_json_dict())


def _cmd_dsum(args):
    r1, r2 = _rep_args(args, 2)
    return _out_json(direct_sum(r1, r2).to_json_dict())


def _cmd_eval(args):
    (r,) = _rep_args(args, 1)
    p = _load_poly(args, args.poly, r.alphabet)
    return _out_matrix(args, eval_rep(r, p))


def _cmd_hankel(args):
    (f,) = _series_args(args, 1)
    p, s = _window(args)
    _preflight_window(f.alphabet, p, s)
    slice_ = hankel(f, p, s)
    obj = {
        "rows": [str(w) for w in slice_.rows],
        "cols": [str(w) for w in slice_.cols],
        "entries": slice_.entries.to_strings(),
    }
    return _out_json(obj)


def _cmd_rank(args):
    (f,) = _series_args(args, 1)
    p, s = _window(args)
    _preflight_window(f.alphabet, p, s, f)
    r = hankel_rank(f, p, s)
    return _finish(args, lambda: str(r), lambda: {"rank": r})


def _cmd_learn(args):
    (f,) = _series_args(args, 1)
    explore = getattr(args, "explore", None)
    if explore is None:
        raise ParseError("--explore L (nonnegative) is required")
    _preflight_window(f.alphabet, explore + 1, explore + 1, f)
    # learn checks its model against the automaton of a support too long
    # for the window to certify it
    if isinstance(f, FiniteSupportSeries) and not _window_holds_support(f, explore):
        _preflight_embed(f)
    return _out_json(learn(f, explore).to_json_dict())


def _cmd_split(args):
    (f,) = _series_args(args, 1)
    d, k = _preflight_embed(f), len(f.alphabet.letters)
    # d pairs of two representations with d^2 entries per letter each
    count = 2 * d**3 * k
    if count > _WINDOW_CAP:
        raise ParseError(
            f"split of dimension {d} over {k} letter(s) prints {count} "
            f"letter-matrix entries, which exceeds the cap of {_WINDOW_CAP} entries"
        )
    pairs = split(_to_linrep(f))
    obj = {
        "pairs": [
            {"g": g.rep.to_json_dict(), "h": h.rep.to_json_dict()} for g, h in pairs
        ]
    }
    return _out_json(obj)


def _cmd_dualS(args):
    (f,) = _series_args(args, 1)
    _preflight_embed(f)
    return _out_json(transpose_antipode(_to_linrep(f)).to_json_dict())


def _run_check(args, name: str, alph: Alphabet, cases):
    """Walk the (label, ok) cases of one verifier up to the first failure."""
    maxlen = _maxlen(args)
    checked = 0
    for label, ok in cases(alph, maxlen):
        if not ok:
            return _out_check(args, name, maxlen, checked, label)
        checked += 1
    return _out_check(args, name, maxlen, checked)


def _coassoc_cases(alph: Alphabet, maxlen: int):
    for w in alph.words(maxlen):
        p = NCPoly.from_word(w)
        yield w, coassoc_lhs(p) == coassoc_rhs(p)


def _antipode_cases(alph: Alphabet, maxlen: int):
    def add(acc: dict, p: NCPoly, c):
        for x, d in p.terms.items():
            acc[x] = acc.get(x, 0) + c * d

    for w in alph.words(maxlen):
        target = NCPoly.one(alph).scale(counit(NCPoly.from_word(w)))
        # each side's terms summed in one dict, made an NCPoly once
        left: dict = {}
        right: dict = {}
        for (u, v), c in coproduct_word(w).terms.items():
            up, vp = NCPoly.from_word(u), NCPoly.from_word(v)
            add(left, poly_mul(antipode(up), vp), c)
            add(right, poly_mul(up, antipode(vp)), c)
        yield w, NCPoly(alph, left) == target and NCPoly(alph, right) == target


def _dual_assoc_cases(alph: Alphabet, maxlen: int):
    def trimmed(f: FiniteSupportSeries):
        return {w: c for w, c in f.terms.items() if len(w) <= maxlen}

    indicators = [(w, FiniteSupportSeries.indicator(w)) for w in alph.words(2)]
    for wu, fu in indicators:
        for wv, fv in indicators:
            uv = convolve(fu, fv)
            for ww, fw in indicators:
                lhs = convolve(uv, fw)
                rhs = convolve(fu, convolve(fv, fw))
                yield f"({wu},{wv},{ww})", trimmed(lhs) == trimmed(rhs)


def _conv_oracle_cases(alph: Alphabet, maxlen: int):
    def geometric(c):
        mu = {l: Matrix([[c]]) for l in alph.letters}
        return LinRep(alph, 1, Matrix.row_vector([1]), mu, Matrix.col_vector([1]))

    refs = [("geometric(2)", geometric(2)), ("geometric(3)", geometric(3))]
    refs.append(
        ("indicator(1)", embed_finite(FiniteSupportSeries.indicator(alph.unit_word())))
    )
    for letter in alph.sorted_letters:
        w = Word(alph, letter.symbol)
        refs.append((f"indicator({letter.symbol})", embed_finite(FiniteSupportSeries.indicator(w))))

    tables = {name: behavior_table(rep, maxlen) for name, rep in refs}
    words = list(alph.words(maxlen))
    for n1, r1 in refs:
        for n2, r2 in refs:
            table = behavior_table(conv_rep(r1, r2), maxlen)
            t1, t2 = tables[n1], tables[n2]
            for w in words:
                expected = sum(
                    (t1[u] * t2[v] for u, v in splittings(w)), Fraction(0)
                )
                yield f"{n1}*{n2} at {w}", table[w] == expected


def _cmd_check_coassoc(args):
    return _run_check(args, "coassoc", _need_alphabet(args), _coassoc_cases)


def _cmd_check_antipode(args):
    alph = _need_alphabet(args)
    _check_antipode_domain(alph)
    return _run_check(args, "antipode", alph, _antipode_cases)


def _cmd_check_dual_assoc(args):
    return _run_check(args, "dual-assoc", _need_alphabet(args), _dual_assoc_cases)


def _cmd_check_conv_oracle(args):
    return _run_check(args, "conv-oracle", _need_alphabet(args), _conv_oracle_cases)


_POLY = (("poly",), {})
_SERIES = (("--series",), {"action": "append", "default": [], "metavar": "S"})
_REP = (("--rep",), {"action": "append", "default": [], "metavar": "R"})
_HANKEL = (("--hankel",), {"metavar": "P,S", "help": "prefix/suffix length bounds"})
_EXPLORE = (("--explore",), {"type": _natural, "metavar": "L", "help": "exploration length"})
_MAXLEN = (("--maxlen",), {"type": _natural, "metavar": "N", "help": "word length bound (<= 7)"})

# subcommand -> (handler, help, arguments after the common ones), in --help order
_COMMANDS = {
    "coprod": (_cmd_coprod, "coproduct of a polynomial, as a sum of word pairs", [_POLY]),
    "mul": (_cmd_mul, "concatenation product of two polynomials", [_POLY, (("poly2",), {})]),
    "counit": (_cmd_counit, "counit of a polynomial (a rational)", [_POLY]),
    "antipode": (
        _cmd_antipode,
        "antipode of a polynomial (all letters must be primitive)",
        [_POLY],
    ),
    "pair": (_cmd_pair, "pairing <series, polynomial>", [_SERIES, _POLY]),
    "conv": (_cmd_conv, "convolution product of two series", [_SERIES]),
    "tensor": (_cmd_tensor, "tensor product of two matrix representations", [_REP]),
    "dsum": (_cmd_dsum, "direct sum of two matrix representations", [_REP]),
    "eval": (_cmd_eval, "evaluate a matrix representation on a polynomial", [_REP, _POLY]),
    "hankel": (_cmd_hankel, "finite Hankel window of a series", [_SERIES, _HANKEL]),
    "rank": (_cmd_rank, "exact rank of a Hankel window", [_SERIES, _HANKEL]),
    "learn": (
        _cmd_learn,
        "learn a minimal linear representation from a series",
        [_SERIES, _EXPLORE],
    ),
    "split": (
        _cmd_split,
        "rank-one splitting f(xy) = sum g_i(x) h_i(y) of a series",
        [_SERIES],
    ),
    "dualS": (_cmd_dualS, "transposed antipode of a recognizable series", [_SERIES]),
    "check-coassoc": (
        _cmd_check_coassoc,
        "verify coassociativity on all words up to --maxlen",
        [_MAXLEN],
    ),
    "check-antipode": (
        _cmd_check_antipode,
        "verify the antipode identity on all words up to --maxlen",
        [_MAXLEN],
    ),
    "check-dual-assoc": (
        _cmd_check_dual_assoc,
        "verify associativity of the convolution of indicator series "
        "(indicators of words up to length 2, targets up to --maxlen)",
        [_MAXLEN],
    ),
    "check-conv-oracle": (
        _cmd_check_conv_oracle,
        "verify the representation-level convolution against the "
        "subword-splitting formula on reference series, words up to --maxlen",
        [_MAXLEN],
    ),
}


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        out, code = _COMMANDS[args.command][0](args)
    except ParseError as exc:
        print(f"hopfwords: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"hopfwords: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except InconclusiveError as exc:
        print(f"hopfwords: inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    sys.stdout.write(out)
    return code


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
