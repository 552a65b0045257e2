import itertools
import json
import os
import random
import time

import pytest

from cli_cases import CASES, FIXTURES, GOLDEN, regen_requested, run_cli
from hopfwords import (
    Alphabet, FiniteSupportSeries, LinRep, NCPoly, RecognizableSeries, Tensor2, coassoc_rhs, conv_rep, convolve,
)
from hopfwords.cli import _COMMANDS, _preflight_window, build_parser, run
from hopfwords.dualforms import _suffix_trie
from hopfwords.errors import ParseError
from hopfwords.freealg import LinComb
from hopfwords.linalg import tensor_scheme


# finite-support operands turned into an automaton by embed_finite; kept
# out of CASES, the table the benchmark replays
EMBED_CASES = [
    ("split_finite", ["split", "--alphabet", "a:L,b:L", "--series", "ab + 2*b"]),
    ("dualS_finite", ["dualS", "--alphabet", "a:L,b:L", "--series", "ab - 1/2*ba"]),
    ("conv_mixed", ["conv", "--alphabet", "a:L", "--series", "3*aa - a", "--series", "geo2.json"]),
]


@pytest.mark.parametrize("name,args", CASES + EMBED_CASES, ids=[c[0] for c in CASES + EMBED_CASES])
def test_golden_invocation(name, args):
    proc = run_cli(args)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    golden_path = GOLDEN / f"{name}.out"
    if regen_requested():
        golden_path.write_bytes(proc.stdout)
    assert golden_path.exists(), f"golden file missing; run with HOPFWORDS_REGEN_GOLDEN=1"
    assert proc.stdout == golden_path.read_bytes()


def test_identical_invocations_are_byte_identical():
    first = run_cli(CASES[0][1])
    second = run_cli(CASES[0][1])
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "args",
    [
        ["coprod", "--alphabet", "a:L,b:L,g:G", "abgab - 2*bagba + 1/2*gaab"],
        ["mul", "--alphabet", "a:L,b:L,g:G", "a + bg - 2*ab + gg", "ga - 1/3*b + ab + 1"],
        ["check-coassoc", "--alphabet", "a:L,b:L,g:G", "--maxlen", "3"],
        ["conv", "--alphabet", "a:L,b:L,g:G", "--series", "ab - g + 2*ba", "--series", "ga + 1/2*b + ab"],
    ],
    ids=["coprod", "mul", "check_coassoc", "conv_finite"],
)
def test_output_does_not_depend_on_the_hash_seed(args, monkeypatch):
    # the kernels accumulate on str keys, whose hashes are salted per
    # process; no dict or set order may leak into the output
    outputs = []
    for seed in ("1", "2"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and outputs[0]


def test_parse_error_exit_code_and_silence():
    proc = run_cli(["coprod", "--alphabet", "a:L,b:L", "ab +"])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"position" in proc.stderr


def test_unknown_letter_is_parse_error():
    proc = run_cli(["mul", "--alphabet", "a:L", "ab", "a"])
    assert proc.returncode == 1
    assert proc.stdout == b""


def test_missing_alphabet_for_text_operand():
    proc = run_cli(["coprod", "ab"])
    assert proc.returncode == 1
    assert b"--alphabet" in proc.stderr


def test_domain_error_exit_code():
    proc = run_cli(["antipode", "--alphabet", "a:L,g:G", "a"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"no antipode: group-like letters present" in proc.stderr


def test_check_antipode_without_antipode_is_domain_error():
    proc = run_cli(["check-antipode", "--alphabet", "g:G", "--maxlen", "2"])
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"hopfwords: domain error: no antipode: group-like letters present\n"


def _reversed(p):
    """p with every word reversed and no sign change."""
    return NCPoly(p.alphabet, {w.reverse(): c for w, c in p.terms.items()})


def _no_constant_term(f, h):
    """convolve with the coefficient of the empty word dropped."""
    terms = convolve(f, h).terms
    return FiniteSupportSeries(NCPoly(f.alphabet, {w: c for w, c in terms.items() if len(w)}))


def _sum_scheme_on_group_like(r1, r2):
    """conv_rep with a group-like letter given a (x) I + I (x) b, the
    primitive letters' scheme, in place of a (x) b."""
    good = conv_rep(r1, r2)
    mu = {l: tensor_scheme(r1.mu[l], r2.mu[l], False) for l in good.mu}
    return LinRep(good.alphabet, good.dim, good.lam, mu, good.gamma)


# one fault seeded into the kernel each verifier exercises, under the name
# the CLI looks it up by: (name, fault, alphabet, the first failing case,
# the cases passed before it, the whole text output at --maxlen 2)
SEEDED_FAULTS = {
    "coassoc": (
        "hopfwords.cli.coassoc_rhs", lambda p: coassoc_rhs(_reversed(p)), "a:L,g:G", "ag", 4,
        "coassoc: FAIL at ag (4 checks passed, maxlen=2)",
    ),
    "antipode": (
        "hopfwords.cli.antipode", _reversed, "a:L,b:L", "a", 1,
        "antipode: FAIL at a (1 checks passed, maxlen=2)",
    ),
    "dual-assoc": (
        "hopfwords.dualforms.convolve", _no_constant_term, "a:L,b:L", "(1,1,a)", 1,
        "dual-assoc: FAIL at (1,1,a) (1 checks passed, maxlen=2)",
    ),
    "conv-oracle": (
        "hopfwords.rep.conv_rep", _sum_scheme_on_group_like, "a:L,g:G", "geometric(2)*geometric(3) at g", 9,
        "conv-oracle: FAIL at geometric(2)*geometric(3) at g (9 checks passed, maxlen=2)",
    ),
}


@pytest.mark.parametrize("target, fault, decl, label, checked, line", SEEDED_FAULTS.values(), ids=SEEDED_FAULTS)
def test_each_verifier_reports_a_seeded_fault(capsys, monkeypatch, target, fault, decl, label, checked, line):
    name = line.split(":")[0]
    argv = [f"check-{name}", "--alphabet", decl, "--maxlen", "2"]
    monkeypatch.setattr(target, fault)
    out, err, code = _outcome(capsys, lambda: run(argv))
    assert (code, out, err) == (4, line + "\n", "")
    out, err, code = _outcome(capsys, lambda: run([*argv, "--format", "json"]))
    assert (code, err) == (4, "")
    assert json.loads(out) == {"check": name, "maxlen": 2, "status": "FAIL", "checked": checked,
                               "counterexample": label}


def test_inconclusive_exit_code():
    proc = run_cli(
        ["learn", "--alphabet", "a:L", "--explore", "1", "--series", "aaaa"]
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"not stabilized" in proc.stderr


def test_learn_from_a_representation_checks_the_model(tmp_path):
    # conv of three dim-2 reps: the windows at explore 3 agree on rank 4,
    # but the operand has rank 8, so the dim-4 model is refused
    reps = []
    for c in (2, 3, 5):
        path = tmp_path / f"rep{c}.json"
        m = [[str(c), "1"], ["0", "1"]]
        data = {"alphabet": "a:L,b:L", "dim": 2, "lambda": ["1", "0"], "mu": {"a": m, "b": m},
                "gamma": [["0"], ["1"]]}
        path.write_text(json.dumps(data))
        reps.append(str(path))
    conv = tmp_path / "conv.json"
    first = run_cli(["conv", "--series", reps[0], "--series", reps[1]])
    assert first.returncode == 0
    conv.write_bytes(first.stdout)
    both = run_cli(["conv", "--series", str(conv), "--series", reps[2]])
    assert both.returncode == 0
    conv.write_bytes(both.stdout)
    proc = run_cli(["learn", "--explore", "3", "--series", str(conv)])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"differs from the operand" in proc.stderr


def test_maxlen_out_of_range_is_usage_error():
    proc = run_cli(["check-coassoc", "--alphabet", "a:L", "--maxlen", "8"])
    assert proc.returncode == 1
    assert b"--maxlen" in proc.stderr


def test_oversized_hankel_window_is_refused_before_enumeration():
    # 2^21 - 1 prefixes by 2^21 - 1 suffixes: counted, never enumerated
    for args in (
        ["rank", "--alphabet", "a:L,b:L", "--hankel", "20,20", "--series", "a"],
        ["learn", "--alphabet", "a:L,b:L", "--explore", "30", "--series", "a"],
    ):
        t0 = time.perf_counter()
        proc = run_cli(args)
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert b"Hankel window of >1048576 x >1048576 words" in proc.stderr


def test_finite_support_window_just_under_the_cap_is_fast():
    # 1023 x 1023 words: the window is filled from the support words, not
    # by one coefficient lookup per entry
    t0 = time.perf_counter()
    proc = run_cli(["rank", "--alphabet", "a:L,b:L", "--hankel", "9,9", "--series", "a"])
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"2\n"


def test_oversized_coproduct_is_refused_before_enumeration():
    # 40 primitive letters split 2^40 ways; 8 of them (2^8 terms) still run
    t0 = time.perf_counter()
    proc = run_cli(["coprod", "--alphabet", "a:L,b:L,g:G", "ab" * 20 + "g"])
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert str(1 << 40).encode() in proc.stderr
    mixed = Alphabet.from_decl("a:L,b:L,g:G")
    proc = run_cli(["coprod", "--alphabet", mixed.decl(), "abgbaggabba"])
    assert proc.returncode == 0
    assert sum(Tensor2.from_text(mixed, proc.stdout.decode().strip()).terms.values()) == 256


def test_oversized_finite_support_automaton_is_refused_before_embedding(tmp_path):
    # 300 words of length 14 have about 2,000 distinct suffixes: about 8e6
    # letter-matrix entries over two letters, never built. The count stops
    # one state past 725 = isqrt(2^20 / 2) + 1, the first count the cap
    # refuses, and is reported as a lower bound
    rng = random.Random(7)
    words = ["".join(rng.choice("ab") for _ in range(14)) for _ in range(300)]
    support = tmp_path / "support.txt"
    support.write_text(" + ".join(words))
    assert len({w[k:] for w in words for k in range(len(w) + 1)}) > 726
    message = b"automaton of more than 725 states over 2 letter(s) has more than 1051250 letter-matrix entries"
    geo = tmp_path / "geo.json"
    geo.write_text(
        '{"alphabet": "a:L,b:L", "dim": 1, "lambda": ["1"], '
        '"mu": {"a": [["2"]], "b": [["2"]]}, "gamma": [["1"]]}'
    )
    for args in (
        ["split", "--alphabet", "a:L,b:L", "--series", str(support)],
        ["dualS", "--alphabet", "a:L,b:L", "--series", str(support)],
        ["conv", "--alphabet", "a:L,b:L", "--series", str(support), "--series", str(geo)],
        ["conv", "--alphabet", "a:L,b:L", "--series", str(geo), "--series", str(support)],
    ):
        t0 = time.perf_counter()
        proc = run_cli(args)
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert message in proc.stderr
    # one word of 300,000 letters: its trie is cut at 1,026 of its 300,001 nodes
    long = tmp_path / "long.txt"
    long.write_text("a" * 300_000)
    proc = run_cli(["dualS", "--alphabet", "a:L", "--series", str(long)])
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"automaton of more than 1025 states over 1 letter(s) has more than 1050625 " in proc.stderr


def test_oversized_finite_convolution_is_refused_before_enumeration():
    # a^20 and b^20 merge C(40, 20), about 1.4e11, ways: counted pair by
    # pair, never enumerated
    t0 = time.perf_counter()
    proc = run_cli(["conv", "--alphabet", "a:L,b:L", "--series", "a" * 20, "--series", "b" * 20])
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"137846528820" in proc.stderr
    # group-like letters merge pairwise: g^20 with g^20 has one merge
    proc = run_cli(["conv", "--alphabet", "a:L,g:G", "--series", "g" * 20, "--series", "g" * 20])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"g" * 20 + b"\n"


def _rep_json(dim: int, letters: str) -> str:
    """A dim x dim representation over the primitive letters: lambda and
    gamma the first unit vectors, every letter the identity."""
    unit = [["1" if i == j else "0" for j in range(dim)] for i in range(dim)]
    return json.dumps({
        "alphabet": ",".join(f"{l}:L" for l in letters),
        "dim": dim,
        "lambda": [row[0] for row in unit],
        "mu": {l: unit for l in letters},
        "gamma": [[row[0]] for row in unit],
    })


def test_oversized_convolution_representation_is_refused(tmp_path):
    # the result has dimension d1 * d2 and (d1 * d2)^2 entries per letter;
    # each operand alone is far under the cap
    rng = random.Random(11)
    words = ["".join(rng.choice("ab") for _ in range(9)) for _ in range(60)]
    states = len({w[k:] for w in words for k in range(len(w) + 1)})
    assert 200 <= states <= 300 and states * states * 2 < 1 << 20
    support = tmp_path / "support.txt"
    support.write_text(" + ".join(words))
    rep4, rep40 = tmp_path / "rep4.json", tmp_path / "rep40.json"
    rep4.write_text(_rep_json(4, "ab"))
    rep40.write_text(_rep_json(40, "ab"))
    for args, dims in (
        (["--series", str(support), "--series", str(rep4)], (states, 4)),
        (["--series", str(rep4), "--series", str(support)], (4, states)),
        (["--series", str(rep40), "--series", str(rep40)], (40, 40)),
    ):
        t0 = time.perf_counter()
        proc = run_cli(["conv", "--alphabet", "a:L,b:L", *args])
        assert time.perf_counter() - t0 < 10
        assert proc.returncode == 1
        assert proc.stdout == b""
        d = dims[0] * dims[1]
        assert f"dimension {dims[0]} x {dims[1]} = {d}".encode() in proc.stderr
        assert str(d * d * 2).encode() in proc.stderr


def _outcome(capsys, call):
    """(stdout, stderr, exit code) of a CLI call that may exit through argparse."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _mat_json(dim: int, letters: str) -> str:
    """The letters of _rep_json as a matrix representation."""
    data = json.loads(_rep_json(dim, letters))
    return json.dumps({"alphabet": data["alphabet"], "dim": dim, "assign": data["mu"]})


# each size bound of the CLI once: (argv, operand files, the whole stderr)
REFUSALS = {
    "coprod": (
        ["coprod", "--alphabet", "a:L,b:L,g:G", "ab" * 20 + "g"],
        {},
        "coproduct of 1099511627776 terms before merging exceeds the cap of 1048576 terms",
    ),
    "mul": (
        ["mul", "--alphabet", "a:L", "p.txt", "p.txt"],
        {"p.txt": " + ".join(["1", *("a" * k for k in range(1, 1025))])},
        "product of 1050625 terms before merging exceeds the cap of 1048576 terms",
    ),
    "eval": (
        ["eval", "--rep", "rep.json", "--alphabet", "a:L,b:L", "ab"],
        {"rep.json": _mat_json(128, "ab")},
        "eval of dimension 128 on 1 term(s) takes 2113536 multiply-adds, which exceeds the cap of 1048576",
    ),
    "split": (
        ["split", "--series", "rep.json"],
        {"rep.json": _rep_json(65, "ab")},
        "split of dimension 65 over 2 letter(s) prints 1098500 letter-matrix entries, "
        "which exceeds the cap of 1048576 entries",
    ),
    "automaton": (
        ["dualS", "--alphabet", "a:L", "--series", "f.txt"],
        {"f.txt": "a" * 1024},
        "automaton of 1025 states over 1 letter(s) has 1050625 letter-matrix entries, "
        "which exceeds the cap of 1048576 entries",
    ),
    "product": (
        ["tensor", "--rep", "rep.json", "--rep", "rep.json"],
        {"rep.json": _mat_json(25, "abg")},
        "tensor product of dimension 25 x 25 = 625 over 3 letter(s) has 1171875 letter-matrix "
        "entries, which exceeds the cap of 1048576 entries",
    ),
    "finite-conv": (
        ["conv", "--alphabet", "a:L,b:L", "--series", "a" * 20, "--series", "b" * 20],
        {},
        "convolution of the finite supports merges 137846528820 or more words, "
        "which exceeds the cap of 1048576 words",
    ),
    "window-shape": (
        ["rank", "--alphabet", "a:L,b:L", "--hankel", "20,20", "--series", "a"],
        {},
        "Hankel window of >1048576 x >1048576 words (prefixes <= 20, suffixes <= 20 over 2 letter(s)) "
        "exceeds the cap of 1048576 entries",
    ),
    "window-columns": (
        ["rank", "--alphabet", "a:L", "--hankel", "2000,2000", "--series", "a" * 600],
        {},
        "Hankel window of 2001 x 2001 words (prefixes <= 2000, suffixes <= 2000 over 1 letter(s)) "
        "on 601 spanning column(s) fills 1202601 entries, which exceeds the cap of 1048576 entries",
    ),
    "window-chars": (
        ["hankel", "--alphabet", "a:L", "--hankel", "0,1048575", "--series", "a"],
        {},
        "Hankel window (prefixes <= 0, suffixes <= 1048575 over 1 letter(s)) lists words of "
        "549755289600 characters, which exceeds the cap of 20971520 characters",
    ),
    "window-work": (
        ["hankel", "--series", "rep.json", "--hankel", "12,0"],
        {"rep.json": _rep_json(60, "ab")},
        "hankel of dimension 60 on 8191 x 1 words takes 29975460 multiply-adds, which exceeds the cap of 1048576",
    ),
    "check-cases": (
        ["check-conv-oracle", "--alphabet", "a:L,b:L,c:L,d:L,e:L,f:L,h:L,i:L", "--maxlen", "7"],
        {},
        "conv-oracle over 8 letter(s) with maxlen=7 checks 290006145 cases, which exceeds the cap of 1048576 cases",
    ),
    "walk-work": (
        ["rank", "--series", "rep.json", "--hankel", "20,20"],
        {"rep.json": _rep_json(80, "ab")},
        "basis walks of dimension 80 (prefixes <= 20, suffixes <= 20 over 2 letter(s)) take 4121600 "
        "multiply-adds, which exceeds the cap of 1048576",
    ),
}


@pytest.mark.parametrize("argv, files, message", REFUSALS.values(), ids=REFUSALS)
def test_each_size_bound_refuses_with_its_exact_message(capsys, tmp_path, monkeypatch, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    out, err, code = _outcome(capsys, lambda: run(list(argv)))
    assert (code, out, err) == (1, "", f"hopfwords: parse error: {message}\n")


def _refuse_ordered_terms(monkeypatch):
    """Make a read of LinComb.terms, which orders the operand and builds a
    Word and a Fraction per term, fail the test."""

    def ordered(self):
        raise AssertionError(f"a {type(self).__name__} of {len(self._terms)} terms was ordered")

    monkeypatch.setattr(LinComb, "terms", property(ordered))


@pytest.mark.parametrize("argv, files, message", REFUSALS.values(), ids=REFUSALS)
def test_each_size_bound_counts_from_the_term_store(capsys, tmp_path, monkeypatch, argv, files, message):
    """Every refusal counts its operands from the unordered term store: with
    the ordered terms unreadable, each refuses with the same message."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    _refuse_ordered_terms(monkeypatch)
    out, err, code = _outcome(capsys, lambda: run(list(argv)))
    assert (code, out, err) == (1, "", f"hopfwords: parse error: {message}\n")


def test_learn_checks_a_large_support_without_ordering_it(capsys, monkeypatch):
    # the window preflight, the automaton preflight, the window and the
    # model check of learn --explore 3 all read the support's term store
    _refuse_ordered_terms(monkeypatch)
    argv = ["learn", "--explore", "3", "--alphabet", "a:L,b:L", "--series", str(FIXTURES / "words40.txt")]
    out, err, code = _outcome(capsys, lambda: run(argv))
    assert (code, out) == (3, "")
    assert err == "hopfwords: inconclusive: learned model of dim 0 differs from the operand; raise the exploration length\n"


def test_rank_of_a_finite_support_lists_only_the_rows_it_fills(capsys):
    """The (19, 0) window of 40 words of length 12 has 2^20 - 1 prefix rows,
    of which the support fills 40 and the empty word is listed: rank lists
    those 41 rows, not every word of length <= 19."""
    argv = ["rank", "--alphabet", "a:L,b:L", "--hankel", "19,0", "--series", str(FIXTURES / "words40.txt")]
    t0 = time.perf_counter()
    out, err, code = _outcome(capsys, lambda: run(argv))
    elapsed = time.perf_counter() - t0
    assert (code, out, err) == (0, "1\n", "")
    assert elapsed < 1.0, f"rank of the (19, 0) window of a 40-word support took {elapsed:.2f}s"


# each option that a run needs and argparse does not require, missing or
# given the wrong number of times: (argv, the whole stderr)
MISSING_OPTIONS = {
    "rep-count": (["tensor", "--rep", "mat_a2.json"], "expected exactly 2 --rep operand(s), got 1"),
    "hankel": (["hankel", "--alphabet", "a:L", "--series", "a"], "--hankel P,S is required"),
    "maxlen": (["check-coassoc", "--alphabet", "a:L"], "--maxlen N is required"),
    # read before check-antipode's first case meets the group-like letter
    "maxlen-group-like": (["check-antipode", "--alphabet", "g:G"], "--maxlen N is required"),
    "explore": (["learn", "--alphabet", "a:L", "--series", "a"], "--explore L (nonnegative) is required"),
}


@pytest.mark.parametrize("argv, message", MISSING_OPTIONS.values(), ids=MISSING_OPTIONS)
def test_each_missing_option_is_refused_with_its_exact_message(capsys, monkeypatch, argv, message):
    monkeypatch.chdir(FIXTURES)
    out, err, code = _outcome(capsys, lambda: run(list(argv)))
    assert (code, out, err) == (1, "", f"hopfwords: parse error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["coprod", "--help"], ["frobnicate"], ["coprod", "--alphabet", "a:L"], []],
    ids=["help", "coprod-help", "unknown", "missing-operand", "empty"],
)
def test_per_run_parser_matches_the_full_parser(capsys, argv):
    per_run = _outcome(capsys, lambda: run(list(argv)))
    full = _outcome(capsys, lambda: build_parser().parse_args(list(argv)))
    assert per_run == full
    assert per_run[2] == (0 if "--help" in argv else 1)


def test_each_subcommand_parser_alone_matches_the_full_parser(capsys):
    for name in _COMMANDS:
        alone = _outcome(capsys, lambda: build_parser(name).parse_args([name, "--help"]))
        full = _outcome(capsys, lambda: build_parser().parse_args([name, "--help"]))
        assert alone == full, name


def test_json_number_operand_is_parse_error():
    # a float would leak into exact arithmetic as its binary expansion
    bad = '{"alphabet":"a:L","dim":true,"assign":{"a":[[0.1]]}}'
    proc = run_cli(["tensor", "--rep", bad, "--rep", "mat_a2.json"])
    assert proc.returncode == 1
    assert proc.stdout == b""


def test_unknown_subcommand_exits_one():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 1


def test_alphabet_mismatch_with_series_file():
    proc = run_cli(["rank", "--alphabet", "b:L", "--hankel", "1,1", "--series", "geo2.json"])
    assert proc.returncode == 2


def test_conv_requires_two_series():
    proc = run_cli(["conv", "--alphabet", "a:L", "--series", "a"])
    assert proc.returncode == 1


def test_cli_round_trip_through_mul(capsys):
    # multiplying by the unit word echoes the canonical form back
    code = run(["mul", "--alphabet", "a:L,b:L,g:G", "2*ga - 1/3*b + 1", "1"])
    out = capsys.readouterr().out
    assert code == 0
    alph = Alphabet.from_decl("a:L,b:L,g:G")
    assert NCPoly.from_text(alph, out.strip()) == NCPoly.from_text(
        alph, "2*ga - 1/3*b + 1"
    )


def test_parse_print_round_trip_randomized():
    from fractions import Fraction

    alph = Alphabet.from_decl("a:L,b:L,g:G")
    words = list(alph.words(3))
    rng = random.Random(2024)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            num = rng.choice([n for n in range(-9, 10) if n])
            terms[rng.choice(words)] = Fraction(num, rng.randint(1, 7))
        poly = NCPoly(alph, terms)  # canonical form
        assert NCPoly.from_text(alph, str(poly)) == poly


def test_json_format_parses_as_json():
    proc = run_cli(["rank", "--hankel", "2,2", "--series", "geo2.json", "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"rank": 1}


def test_learn_output_is_valid_series_operand(tmp_path):
    proc = run_cli(["learn", "--explore", "2", "--series", "geo2.json"])
    assert proc.returncode == 0
    learned = tmp_path / "learned.json"
    learned.write_bytes(proc.stdout)
    proc2 = run_cli(["rank", "--hankel", "3,3", "--series", str(learned)])
    assert proc2.returncode == 0
    assert proc2.stdout == b"1\n"


def test_oversized_inline_operand_rejected():
    proc = run_cli(["coprod", "--alphabet", "a:L", "a + " * 400 + "a"])
    assert proc.returncode == 1
    assert b"file" in proc.stderr


def test_learn_from_a_long_finite_support_checks_the_model():
    # the (4, 4) window misses aaaaaaaaa, so its dim-2 model is refused
    proc = run_cli(["learn", "--alphabet", "a:L,b:L", "--explore", "3", "--series", "a + aaaaaaaaa"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"differs from the operand" in proc.stderr
    # the check embeds the support, so the embedding's cap applies first
    proc = run_cli(["learn", "--alphabet", "a:L,b:L", "--explore", "3", "--series", "a" * 730])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"automaton of more than 725 states" in proc.stderr
    # a support the window holds is certified without the check or its cap
    proc = run_cli(["learn", "--alphabet", "a:L,b:L", "--explore", "5", "--series", "a + aaaaa"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 6


def test_valid_inline_operand_is_not_shadowed_by_a_file(tmp_path):
    (tmp_path / "ab").write_text("b")
    args = ["coprod", "--alphabet", "a:L,b:L"]
    proc = run_cli([*args, "ab"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "coprod.out").read_bytes()
    # a path is never valid polynomial text, so it names the file
    proc = run_cli([*args, "./ab"], cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == b"b(x)1 + 1(x)b\n"
    # text that does not parse inline still reads the file it names
    proc = run_cli(["coprod", "ab"], cwd=tmp_path)
    assert proc.returncode == 1
    assert b"--alphabet is required" in proc.stderr
    (tmp_path / "op.txt").write_text("a")
    proc = run_cli([*args, "op.txt"], cwd=tmp_path)
    assert proc.stdout == b"a(x)1 + 1(x)a\n"


def test_window_preflight_counts_the_entries_rank_and_learn_fill():
    # learn keeps the empty suffix and the 9 suffixes of the support as its
    # columns: a 2047 x 10 window, far under the cap
    proc = run_cli(["learn", "--alphabet", "a:L,b:L", "--explore", "9", "--series", "a + aaaaaaaaa"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["dim"] == 10
    # hankel returns the whole 2047 x 2047 window, so it is still refused
    proc = run_cli(["hankel", "--alphabet", "a:L,b:L", "--hankel", "10,10", "--series", "a + aaaaaaaaa"])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"Hankel window of 2047 x 2047 words" in proc.stderr
    # a representation of dim 1 fills one column of 1101 rows
    proc = run_cli(["rank", "--hankel", "1100,1100", "--series", "geo2.json"])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"1\n"
    # 2001 rows on the 601 suffix columns of a^600 are over the cap
    proc = run_cli(["rank", "--alphabet", "a:L", "--hankel", "2000,2000", "--series", "a" * 600])
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"on 601 spanning column(s) fills 1202601 entries" in proc.stderr


COUNTING = (
    '{"alphabet":"a:L,b:L","dim":2,"lambda":["1","0"],'
    '"mu":{"a":[["1","1"],["0","1"]],"b":[["1","0"],["0","1"]]},"gamma":[["0"],["1"]]}'
)


def test_window_preflight_counts_the_rows_a_representation_walks():
    """rank and learn of a representation walk at most 1 + dim*|A| rows,
    however many words the window has: the whole 2^20 - 1 word side of
    this window would fill 2,097,150 entries on the 2 spanning columns."""
    proc = run_cli(["rank", "--hankel", "19,19", "--series", COUNTING])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == b"2\n"
    # the (19, 19) window side of the hankel command is still refused
    proc = run_cli(["hankel", "--hankel", "19,19", "--series", COUNTING])
    assert proc.returncode == 1
    assert b"Hankel window of 1048575 x 1048575 words" in proc.stderr


def test_learn_checks_a_large_support_against_its_automaton():
    """40 words of length 12, a 319-state automaton: the (4, 4) window sees
    none of them, so the zero model is checked with reps_equal and refused."""
    f = FiniteSupportSeries.from_text(Alphabet.from_decl("a:L,b:L"), (FIXTURES / "words40.txt").read_text().strip())
    assert len(_suffix_trie(w.symbols() for w in f.terms)) == 319
    proc = run_cli(["learn", "--explore", "3", "--alphabet", "a:L,b:L", "--series", "words40.txt"])
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert proc.stderr == (
        b"hopfwords: inconclusive: learned model of dim 0 differs from the operand; "
        b"raise the exploration length\n"
    )


def test_window_preflight_counts_the_characters_of_the_words_it_lists():
    # over one letter a side of 2^20 words lists words up to 2^20 letters
    # long: counted, never enumerated
    single = Alphabet.from_decl("a:L")
    a = NCPoly.from_text(single, "a")
    for p, s, f, chars in (
        (0, 1048575, None, 549755289600),
        (1048574, 0, None, 549754241025),
        (1048574, 0, FiniteSupportSeries(a), 549754241025),
        (6476, 0, None, 20972526),
    ):
        with pytest.raises(ParseError, match=f"lists words of {chars} characters") as info:
            _preflight_window(single, p, s, f)
        assert "cap of 20971520 characters" in str(info.value)
    _preflight_window(single, 6475, 0)
    # rank and learn list only the row words of a representation operand
    geo = json.loads((FIXTURES / "geo2.json").read_text())
    _preflight_window(single, 0, 1048575, RecognizableSeries(LinRep.from_json_dict(geo)))
    # the most a window over two letters lists within the entry cap: a side
    # of 2^20 - 1 words, 18,874,370 characters
    ab = Alphabet.from_decl("a:L,b:L")
    _preflight_window(ab, 19, 0)
    _preflight_window(ab, 0, 19)


def test_window_preflight_counts_the_characters_of_the_spanning_suffixes(capsys, tmp_path):
    # rank keeps every suffix of a^20000 of length <= s as a column: s(s+1)/2
    # characters, counted from the suffix trie before any suffix is built
    (tmp_path / "long.txt").write_text("a" * 20000)
    argv = ["rank", "--alphabet", "a:L", "--series", str(tmp_path / "long.txt"), "--hankel"]
    t0 = time.perf_counter()
    out, err, code = _outcome(capsys, lambda: run([*argv, "0,20000"]))
    assert time.perf_counter() - t0 < 10
    assert (code, out) == (1, "")
    assert err == (
        "hopfwords: parse error: Hankel window (prefixes <= 0, suffixes <= 20000 over 1 letter(s)) "
        "lists words of 200010000 characters, which exceeds the cap of 20971520 characters\n"
    )
    out, err, code = _outcome(capsys, lambda: run([*argv, "0,6476"]))
    assert (code, out) == (1, "")
    assert "lists words of 20972526 characters" in err
    out, err, code = _outcome(capsys, lambda: run([*argv, "0,6475"]))
    assert (code, out, err) == (0, "0\n", "")


def test_window_of_long_one_letter_words_is_refused_before_enumeration():
    t0 = time.perf_counter()
    proc = run_cli(["hankel", "--alphabet", "a:L", "--hankel", "0,1048575", "--series", "a"])
    assert time.perf_counter() - t0 < 10
    assert proc.returncode == 1
    assert proc.stdout == b""
    assert b"lists words of 549755289600 characters" in proc.stderr


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["rank", "--alphabet", "a:L", "--hankel", "1_0,1", "--series", "a"], "--hankel", "1_0,1"),
        (["rank", "--alphabet", "a:L", "--hankel", "\u0663,1", "--series", "a"], "--hankel", "\u0663,1"),
        (["rank", "--alphabet", "a:L", "--hankel", "+1,1", "--series", "a"], "--hankel", "+1,1"),
        (["rank", "--alphabet", "a:L", "--hankel", " 1,1", "--series", "a"], "--hankel", " 1,1"),
        (["learn", "--alphabet", "a:L", "--explore", "\u0662", "--series", "a"], "--explore", "\u0662"),
        (["learn", "--alphabet", "a:L", "--explore", "+2", "--series", "a"], "--explore", "+2"),
        (["check-coassoc", "--alphabet", "a:L", "--maxlen", "0_3"], "--maxlen", "0_3"),
        (["check-coassoc", "--alphabet", "a:L", "--maxlen", "-1"], "--maxlen", "-1"),
    ],
    ids=["hankel-underscore", "hankel-arabic-indic", "hankel-plus", "hankel-space",
         "explore-arabic-indic", "explore-plus", "maxlen-underscore", "maxlen-negative"],
)
def test_integer_options_take_ascii_digits_only(capsys, argv, option, value):
    out, err, code = _outcome(capsys, lambda: run(list(argv)))
    assert code == 1
    assert out == ""
    assert option in err and repr(value) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["learn", "--alphabet", "a:L", "--explore", "9" * 5000, "--series", "a"],
        ["check-coassoc", "--alphabet", "a:L", "--maxlen", "9" * 5000],
    ],
    ids=["explore", "maxlen"],
)
def test_integer_option_of_thousands_of_digits_is_a_usage_error(capsys, argv):
    # the digits pass the ASCII check; an integer too long for int() is
    # refused with the option's own wording
    out, err, code = _outcome(capsys, lambda: run(list(argv)))
    assert code == 1
    assert out == ""
    assert "_natural" not in err
    assert argv[3] in err


def test_operand_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    poly = tmp_path / "bad.txt"
    poly.write_bytes(b"a\xff")
    rep = tmp_path / "bad.json"
    rep.write_bytes(b'{"alphabet": "a:L", "dim": 1, "lambda": ["\xfe1"]}')
    for argv, path in (
        (["counit", "--alphabet", "a:L,b:L", str(poly)], poly),
        (["hankel", "--hankel", "1,1", "--series", str(rep)], rep),
    ):
        offset = next(i for i, x in enumerate(path.read_bytes()) if x > 127)
        out, err, code = _outcome(capsys, lambda: run(argv))
        assert code == 1
        assert out == ""
        assert err == (
            f"hopfwords: parse error: operand file {str(path)!r} is not UTF-8: "
            f"invalid byte at offset {offset}\n"
        )


def test_operand_that_is_not_utf8_is_a_parse_error(tmp_path):
    # an argv byte that is not UTF-8 reaches the CLI as a surrogate escape:
    # it fails to parse like any other text, or names a file that is read
    for argv, message in (
        ([b"coprod", b"--alphabet", b"a:L", b"\xff"], b"expected a term at position 0 in '\\udcff'"),
        ([b"pair", b"--series", b"\xff", b"a"], b"--alphabet is required for text operands"),
    ):
        proc = run_cli(argv)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == b"hopfwords: parse error: " + message + b"\n"
    (tmp_path / os.fsdecode(b"ab\xff")).write_text("ab")
    proc = run_cli([b"coprod", b"--alphabet", b"a:L,b:L", b"ab\xff"], cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == run_cli(["coprod", "--alphabet", "a:L,b:L", "ab"]).stdout


def test_split_output_is_bounded(capsys, tmp_path):
    # split prints d pairs of two representations with d^2 entries per
    # letter each: 2 * d^3 * |A| entries, counted before any is built
    rep64, rep65 = tmp_path / "rep64.json", tmp_path / "rep65.json"
    rep64.write_text(_rep_json(64, "ab"))
    rep65.write_text(_rep_json(65, "ab"))
    out, err, code = _outcome(capsys, lambda: run(["split", "--series", str(rep65)]))
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: split of dimension 65 over 2 letter(s) prints 1098500 "
        "letter-matrix entries, which exceeds the cap of 1048576 entries\n"
    )
    # the 319-state automaton of words40.txt passes the embedding's cap
    # but not this one
    out, err, code = _outcome(
        capsys,
        lambda: run(["split", "--alphabet", "a:L,b:L", "--series", str(FIXTURES / "words40.txt")]),
    )
    assert code == 1
    assert out == ""
    assert "split of dimension 319 over 2 letter(s) prints 129847036 letter-matrix entries" in err
    # 2 * 64^3 * 2 entries is the cap itself
    out, err, code = _outcome(capsys, lambda: run(["split", "--series", str(rep64)]))
    assert code == 0, err
    assert len(json.loads(out)["pairs"]) == 64


def test_product_of_too_many_terms_is_refused(capsys, tmp_path):
    # all 2,047 words of length <= 10 times themselves: 4,190,209 terms
    # before merging, counted, never multiplied
    words = ["".join(t) for n in range(1, 11) for t in itertools.product("ab", repeat=n)]
    big = tmp_path / "big.txt"
    big.write_text(" + ".join(["1", *words]))
    out, err, code = _outcome(capsys, lambda: run(["mul", "--alphabet", "a:L,b:L", str(big), str(big)]))
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: product of 4190209 terms before merging "
        "exceeds the cap of 1048576 terms\n"
    )
    # 1,024 x 1,024 terms is the cap itself
    powers = tmp_path / "powers.txt"
    powers.write_text(" + ".join(["1", *("a" * k for k in range(1, 1024))]))
    out, err, code = _outcome(capsys, lambda: run(["mul", "--alphabet", "a:L", str(powers), str(powers)]))
    assert code == 0, err
    assert out.count(" + ") == 2046


def test_oversized_tensor_product_is_refused_like_a_convolution(capsys, tmp_path):
    # two dim-25 operands over three letters give (25 * 25)^2 * 3 =
    # 1,171,875 letter-matrix entries: counted, never built
    rep25, rep4, rep3 = tmp_path / "rep25.json", tmp_path / "rep4.json", tmp_path / "rep3.json"
    for path, dim in ((rep25, 25), (rep4, 4), (rep3, 3)):
        data = json.loads(_rep_json(dim, "abg"))
        # a matrix representation names its letter matrices "assign"
        path.write_text(json.dumps({**data, "assign": data["mu"]}))
    out, err, code = _outcome(capsys, lambda: run(["tensor", "--rep", str(rep25), "--rep", str(rep25)]))
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: tensor product of dimension 25 x 25 = 625 over 3 letter(s) "
        "has 1171875 letter-matrix entries, which exceeds the cap of 1048576 entries\n"
    )
    # conv refuses the same size through the same check, in its own words
    out, err, code = _outcome(capsys, lambda: run(["conv", "--series", str(rep25), "--series", str(rep25)]))
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: convolution of dimension 25 x 25 = 625 over 3 letter(s) "
        "has 1171875 letter-matrix entries, which exceeds the cap of 1048576 entries\n"
    )
    out, err, code = _outcome(capsys, lambda: run(["tensor", "--rep", str(rep3), "--rep", str(rep4)]))
    assert code == 0, err
    assert json.loads(out)["dim"] == 12


def test_eval_work_is_bounded(capsys, tmp_path):
    # a term of length n takes n - 1 products of d x d matrices, d^3
    # multiply-adds each, and a scaled sum of d^2 (the empty word builds the
    # identity): sum (max(n - 1, 0) * d^3 + d^2), counted before any product
    data = json.loads(_rep_json(64, "ab"))
    rep64 = tmp_path / "rep64.json"
    rep64.write_text(json.dumps({"alphabet": data["alphabet"], "dim": 64, "assign": data["mu"]}))
    words = ["".join(t) for n in range(1, 11) for t in itertools.product("ab", repeat=n)]
    big = tmp_path / "big.txt"
    big.write_text(" + ".join(["1", *words]))
    t0 = time.perf_counter()
    out, err, code = _outcome(capsys, lambda: run(["eval", "--rep", str(rep64), str(big)]))
    assert time.perf_counter() - t0 < 10
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: eval of dimension 64 on 2047 term(s) takes 4304400384 "
        "multiply-adds, which exceeds the cap of 1048576\n"
    )
    # high dimension, short word: one product of two dim-128 letters is
    # 128^3 multiply-adds, refused before it is taken
    data = json.loads(_rep_json(128, "ab"))
    rep128 = tmp_path / "rep128.json"
    rep128.write_text(json.dumps({"alphabet": data["alphabet"], "dim": 128, "assign": data["mu"]}))
    t0 = time.perf_counter()
    out, err, code = _outcome(capsys, lambda: run(["eval", "--rep", str(rep128), "--alphabet", "a:L,b:L", "ab"]))
    assert time.perf_counter() - t0 < 10
    assert code == 1
    assert out == ""
    assert err == (
        "hopfwords: parse error: eval of dimension 128 on 1 term(s) takes 2113536 "
        "multiply-adds, which exceeds the cap of 1048576\n"
    )
    # on dimension 4, 1 + a + b + a^16384 is the cap itself: 16383 products
    # of 64 multiply-adds and four sums of 16; a letter more is refused
    data = json.loads(_rep_json(4, "ab"))
    rep4 = tmp_path / "rep4.json"
    rep4.write_text(json.dumps({"alphabet": data["alphabet"], "dim": 4, "assign": data["mu"]}))
    poly = tmp_path / "poly.txt"
    poly.write_text("1 + a + b + " + "a" * (1 << 14))
    out, err, code = _outcome(capsys, lambda: run(["eval", "--rep", str(rep4), str(poly)]))
    assert code == 0, err
    assert json.loads(out) == [["4" if i == j else "0" for j in range(4)] for i in range(4)]
    poly.write_text("1 + a + b + " + "a" * ((1 << 14) + 1))
    out, err, code = _outcome(capsys, lambda: run(["eval", "--rep", str(rep4), str(poly)]))
    assert code == 1
    assert out == ""
    assert "eval of dimension 4 on 4 term(s) takes 1048640 multiply-adds" in err
