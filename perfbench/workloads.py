"""Seeded inputs and self-checking jobs for the three benchmark workloads.

Every job is a user task whose result the benchmark can check exactly:

* ``coalgebra``: bialgebra-law checks on random polynomials (the time goes to
  ``freealg``);
* ``series``: learn a minimal model, check its size against the Hankel rank
  and its behaviour against the reference representation (the time goes to
  ``linalg`` and ``sweedler``);
* ``cli``: one ``python -m hopfwords`` invocation, either a golden case of
  the test suite or a generated operand whose output is large next to its
  compute (the time goes to interpreter start, import, parsing and rendering).

The inputs depend only on the workload name and the seed. Python's string
hashing is salted per process, so nothing here iterates over a set or a
dict keyed by strings.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import hopfwords as hw

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

AB_DECL = "a:L,b:L"
MIXED_DECL = "a:L,b:L,g:G"

# jobs in one seeded list; a run cycles through the list until its time is up
JOB_COUNTS = {"coalgebra": 500, "series": 60, "cli": 60}
# the traced run replays this fixed prefix of the list, so its counters repeat
TRACE_JOBS = {"coalgebra": 500, "series": 10, "cli": 60}


class Job:
    """One task. ``run()`` does the work and returns whether the result is
    correct; a ``run`` written as a generator yields between its steps,
    where the runner may sample the host speed. ``desc`` serializes the
    inputs for the determinism digest."""

    __slots__ = ("kind", "desc", "run")

    def __init__(self, kind: str, desc: str, run):
        self.kind = kind
        self.desc = desc
        self.run = run


class CliJob:
    """One CLI invocation: argument vector, working directory and a check of
    the bytes written to stdout (exit code 0 is checked by the runner)."""

    __slots__ = ("kind", "desc", "argv", "cwd", "check")

    def __init__(self, kind: str, desc: str, argv: list, cwd: Path, check):
        self.kind = kind
        self.desc = desc
        self.argv = argv
        self.cwd = cwd
        self.check = check


def inputs_digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.kind.encode())
        h.update(b"\0")
        h.update(job.desc.encode())
        h.update(b"\n")
    return h.hexdigest()


def make_jobs(workload: str, seed: int, workdir: Path | None = None) -> list:
    """The seeded job list of a workload. ``cli`` writes its operand files
    into ``workdir``."""
    rng = random.Random(f"perfbench/{workload}/{seed}")
    if workload == "coalgebra":
        return _coalgebra_jobs(rng, JOB_COUNTS[workload])
    if workload == "series":
        return _series_jobs(rng, JOB_COUNTS[workload])
    if workload == "cli":
        if workdir is None:
            raise ValueError("the cli workload needs a directory for its operand files")
        return _cli_jobs(rng, JOB_COUNTS[workload], workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# random building blocks


def _rand_coeff(rng) -> Fraction:
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 6))


def _rand_text_word(rng, symbols: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(symbols) for _ in range(rng.randint(lo, hi))) or "1"


def _rand_poly(rng, alphabet, nterms: int, lo: int, hi: int):
    symbols = "".join(l.symbol for l in alphabet.letters)
    words: list[str] = []
    while len(words) < nterms:
        w = _rand_text_word(rng, symbols, lo, hi)
        if w not in words:
            words.append(w)
    return hw.NCPoly(alphabet, {alphabet.word(w): _rand_coeff(rng) for w in words})


def _rand_int_matrix(rng, n: int, values) -> list[list[int]]:
    return [[rng.choice(values) for _ in range(n)] for _ in range(n)]


def _int_rank(vectors) -> int:
    """Rank of integer vectors by fraction-free elimination. Used only to
    pick learnable inputs; the library is measured, not trusted, here."""
    rows = [list(v) for v in vectors if any(v)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c:
                rows[i] = [x * p[col] - c * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _reach_rank(start, mats, transpose: bool) -> int:
    """Rank of start*mu(u), or of mu(u)*start, over the words u of length <= 3."""
    n = len(start)
    level, vectors = [start], [start]
    for _ in range(3):
        if transpose:
            level = [[sum(row[j] * v[j] for j in range(n)) for row in m] for v in level for m in mats]
        else:
            level = [[sum(v[i] * m[i][j] for i in range(n)) for j in range(n)] for v in level for m in mats]
        vectors += level
    return _int_rank(vectors)


def _is_minimal(lam, mats, gamma) -> bool:
    """Whether words of length <= 3 already reach and observe the whole
    space. Then the Hankel rank is the dimension, learn(f, 3) sees all of
    it, and every job of one kind does the same amount of linear algebra."""
    n = len(lam)
    return _reach_rank(lam, mats, False) == n and _reach_rank(gamma, mats, True) == n


def _rand_int_rep(rng, nletters: int, dim: int):
    """(lambda, letter matrices, gamma) with entries in {-1, 0, 1} and a
    nonzero value on the empty word."""
    while True:
        lam = [rng.choice((-1, 0, 1)) for _ in range(dim)]
        gamma = [rng.choice((-1, 0, 1)) for _ in range(dim)]
        if sum(x * y for x, y in zip(lam, gamma)):
            return lam, [_rand_int_matrix(rng, dim, (-1, 0, 1)) for _ in range(nletters)], gamma


def _linrep(alphabet, lam, mats, gamma):
    mu = {l: hw.Matrix(m) for l, m in zip(alphabet.letters, mats)}
    return hw.LinRep(alphabet, len(lam), hw.Matrix.row_vector(lam), mu, hw.Matrix.col_vector(gamma))


def _rand_minimal_linrep(rng, alphabet, dim: int):
    while True:
        lam, mats, gamma = _rand_int_rep(rng, len(alphabet.letters), dim)
        if _is_minimal(lam, mats, gamma):
            return _linrep(alphabet, lam, mats, gamma)


def _kron(x, y):
    return [[a * b for a in rx for b in ry] for rx in x for ry in y]


def _rand_conv_pair(rng, alphabet):
    """Two dim-2 reps over primitive letters whose convolution, the
    Kronecker sum per letter, is minimal of dimension 4."""
    eye = [[1, 0], [0, 1]]
    while True:
        (l1, m1, g1), (l2, m2, g2) = (_rand_int_rep(rng, len(alphabet.letters), 2) for _ in range(2))
        mats = [
            [[p + q for p, q in zip(rp, rq)] for rp, rq in zip(_kron(a, eye), _kron(eye, b))]
            for a, b in zip(m1, m2)
        ]
        if _is_minimal(_kron([l1], [l2])[0], mats, [x * y for x in g1 for y in g2]):
            return _linrep(alphabet, l1, m1, g1), _linrep(alphabet, l2, m2, g2)


# ---------------------------------------------------------------------------
# coalgebra: exact bialgebra identities


def _coalgebra_jobs(rng, count: int) -> list:
    ab = hw.Alphabet.from_decl(AB_DECL)
    mixed = hw.Alphabet.from_decl(MIXED_DECL)
    makers = (_job_coassoc, _job_multiplicative, _job_antipode_counit, _job_convolve_assoc, _job_pairing)
    jobs = []
    for i in range(count):
        alphabet = mixed if (i // len(makers)) % 2 else ab
        jobs.append(makers[i % len(makers)](rng, alphabet, ab))
    return jobs


def _job_coassoc(rng, alphabet, ab) -> Job:
    """Coassociativity on a polynomial led by a 6-letter primitive word: its
    3^6 triple splittings dominate, so these jobs cost about the same and
    form a steady tail."""
    lead = _rand_text_word(rng, "ab", 6, 6)
    rest = _rand_poly(rng, alphabet, rng.randint(1, 3), 1, 4)
    p = rest + hw.NCPoly.from_word(alphabet.word(lead), _rand_coeff(rng))
    return Job("coassoc", f"{alphabet.decl()}|{p}", lambda: hw.coassoc_lhs(p) == hw.coassoc_rhs(p))


def _job_multiplicative(rng, alphabet, ab) -> Job:
    p = _rand_poly(rng, alphabet, rng.randint(2, 4), 0, 3)
    q = _rand_poly(rng, alphabet, rng.randint(2, 4), 0, 3)

    def run():
        return hw.coproduct(p * q) == hw.tensor2_mul(hw.coproduct(p), hw.coproduct(q))

    return Job("multiplicative", f"{alphabet.decl()}|{p}|{q}", run)


def _job_antipode_counit(rng, alphabet, ab) -> Job:
    """m(S (x) id)D = m(id (x) S)D = e and (e (x) id)D = (id (x) e)D = id.
    The antipode needs an all-primitive alphabet, so this job always uses one."""

    lead = _rand_text_word(rng, "ab", 6, 6)
    p = _rand_poly(rng, ab, rng.randint(1, 3), 1, 4) + hw.NCPoly.from_word(ab.word(lead), _rand_coeff(rng))

    def run():
        zero = hw.NCPoly.zero(ab)
        s_left, s_right, e_left, e_right = zero, zero, zero, zero
        for (u, v), c in hw.coproduct(p).terms.items():
            up, vp = hw.NCPoly.from_word(u), hw.NCPoly.from_word(v)
            s_left = s_left + hw.poly_mul(hw.antipode(up), vp).scale(c)
            s_right = s_right + hw.poly_mul(up, hw.antipode(vp)).scale(c)
            e_left = e_left + vp.scale(c * hw.counit(up))
            e_right = e_right + up.scale(c * hw.counit(vp))
        unit = hw.NCPoly.one(ab).scale(hw.counit(p))
        return s_left == unit and s_right == unit and e_left == p and e_right == p

    return Job("antipode_counit", f"{ab.decl()}|{p}", run)


def _job_convolve_assoc(rng, alphabet, ab) -> Job:
    f, g, h = (
        hw.FiniteSupportSeries(_rand_poly(rng, alphabet, rng.randint(2, 4), 0, 2))
        for _ in range(3)
    )

    def run():
        return hw.convolve(hw.convolve(f, g), h) == hw.convolve(f, hw.convolve(g, h))

    return Job("convolve_assoc", f"{alphabet.decl()}|{f}|{g}|{h}", run)


def _job_pairing(rng, alphabet, ab) -> Job:
    """Antipode axiom on a random representation, plus the unit law of the
    tensor product with the trivial representation."""

    dim = rng.randint(2, 3)
    r = hw.MatRep(ab, dim, {l: hw.Matrix(_rand_int_matrix(rng, dim, range(-2, 3))) for l in ab.letters})
    g = _rand_poly(rng, ab, rng.randint(2, 4), 0, 4)
    psi = hw.Matrix.row_vector([rng.randint(-2, 2) for _ in range(dim)])
    x = hw.Matrix.col_vector([rng.randint(-2, 2) for _ in range(dim)])

    def run():
        lhs, rhs = hw.pairing_invariance_check(r, g, psi, x)
        return lhs == rhs and hw.tensor_rep(r, hw.trivial_rep(ab)) == r

    desc = f"{json.dumps(r.to_json_dict(), sort_keys=True)}|{g}|{psi!r}|{x!r}"
    return Job("pairing", desc, run)


# ---------------------------------------------------------------------------
# series: learn a minimal model and verify it


# One cycle of series kinds. Dimension <= 5 keeps every job to a few seconds
# (reps_equal enumerates words up to dim1 + dim2). The two dimension-4 kinds
# cost about the same and fill the middle four sevenths of the latency
# distribution, so that the median and the tail percentile of a run of 35
# to 65 jobs land inside that band rather than on the edge between kinds.
_SERIES_KINDS = ("finite", "rand3", "conv", "rand4", "rand5", "rand4", "conv")


def _series_jobs(rng, count: int) -> list:
    ab = hw.Alphabet.from_decl(AB_DECL)
    return [_series_job(rng, ab, _SERIES_KINDS[i % len(_SERIES_KINDS)]) for i in range(count)]


def _series_job(rng, ab, kind: str) -> Job:
    if kind == "conv":
        r1, r2 = _rand_conv_pair(rng, ab)
        s1, s2 = hw.RecognizableSeries(r1), hw.RecognizableSeries(r2)
        desc = json.dumps([r1.to_json_dict(), r2.to_json_dict()], sort_keys=True)

        def series():
            f = hw.convolve(s1, s2)
            return f, f.rep

    elif kind == "finite":
        f_fin = hw.FiniteSupportSeries(_rand_finite_support(rng, ab))
        desc = str(f_fin)

        def series():
            return f_fin, hw.embed_finite(f_fin)

    else:
        rep = _rand_minimal_linrep(rng, ab, int(kind[-1]))
        f_rec = hw.RecognizableSeries(rep)
        desc = json.dumps(rep.to_json_dict(), sort_keys=True)

        def series():
            return f_rec, rep

    def run():
        f, reference = series()
        model = hw.learn(f, 3)
        yield
        rank = hw.hankel_rank(f, 4, 4)
        yield
        return model.dim == rank and hw.reps_equal(model, reference)

    return Job(kind, desc, run)


def _rand_finite_support(rng, ab):
    """2-3 words of length 1-3 whose suffix closure has at most 5 states, so
    that reps_equal against embed_finite stays small."""
    while True:
        words: list[str] = []
        for _ in range(rng.randint(2, 3)):
            w = _rand_text_word(rng, "ab", 1, 3)
            if w not in words:
                words.append(w)
        states = {w[k:] for w in words for k in range(len(w) + 1)}
        if len(words) >= 2 and len(states) <= 5:
            return hw.NCPoly(ab, {ab.word(w): _rand_coeff(rng) for w in words})


# ---------------------------------------------------------------------------
# cli: golden cases and generated file operands


def golden_jobs() -> list:
    """One job per golden case of the test suite's CLI table, checked
    against its stored output bytes."""
    spec = importlib.util.spec_from_file_location("_perfbench_cli_cases", TESTS / "cli_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    jobs = []
    for name, argv in module.CASES:
        expected = (TESTS / "golden" / f"{name}.out").read_bytes()
        jobs.append(CliJob(f"golden:{name}", " ".join(argv), list(argv), TESTS / "fixtures",
                           lambda out, expected=expected: out == expected))
    return jobs


def _cli_jobs(rng, count: int, workdir: Path) -> list:
    mixed = hw.Alphabet.from_decl(MIXED_DECL)
    goldens = golden_jobs()
    makers = (_cli_coprod_text, _cli_coprod_json, _cli_mul, _cli_tensor, _cli_dsum, _cli_conv)
    jobs = []
    for i in range(count):
        if i % 2 == 0:
            jobs.append(goldens[(i // 2) % len(goldens)])
        else:
            maker = makers[(i // 2) % len(makers)]
            jobs.append(maker(rng, workdir, f"op{i:03d}", mixed))
    return jobs


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text, encoding="utf-8")
    return name


def _lazy(compute):
    """Memoized expected value: computed at the first check, outside the
    timed invocation, and reused on later passes over the job list."""
    box = []

    def get():
        if not box:
            box.append(compute())
        return box[0]

    return get


def _coprod_word(rng) -> str:
    """8 primitive letters and 0-4 group-like ones: 2^8 output terms each."""
    letters = [rng.choice("ab") for _ in range(8)]
    for _ in range(rng.randint(0, 4)):
        letters.insert(rng.randint(0, len(letters)), "g")
    return "".join(letters)


def _cli_coprod_text(rng, workdir, tag, mixed) -> CliJob:
    word = _coprod_word(rng)
    expected = _lazy(lambda: hw.coproduct(hw.NCPoly.from_text(mixed, word)))
    name = _write(workdir, f"{tag}.txt", word + "\n")

    def check(out: bytes) -> bool:
        return hw.Tensor2.from_text(mixed, out.decode().strip()) == expected()

    return CliJob("coprod", word, ["coprod", "--alphabet", mixed.decl(), name], workdir, check)


def _cli_coprod_json(rng, workdir, tag, mixed) -> CliJob:
    word = _coprod_word(rng)
    expected = _lazy(lambda: hw.coproduct(hw.NCPoly.from_text(mixed, word)))
    name = _write(workdir, f"{tag}.txt", word + "\n")

    def check(out: bytes) -> bool:
        data = json.loads(out)
        terms = {(mixed.word(u), mixed.word(v)): Fraction(c) for u, v, c in data["terms"]}
        return data["alphabet"] == mixed.decl() and hw.Tensor2(mixed, terms) == expected()

    argv = ["coprod", "--alphabet", mixed.decl(), "--format", "json", name]
    return CliJob("coprod_json", word, argv, workdir, check)


def _cli_mul(rng, workdir, tag, mixed) -> CliJob:
    # 20-40 terms each and 60 in all, so every product has 800-900 terms
    n = rng.randint(20, 40)
    p = _rand_poly(rng, mixed, n, 0, 4)
    q = _rand_poly(rng, mixed, 60 - n, 0, 4)
    expected = _lazy(lambda: hw.poly_mul(p, q))
    np_ = _write(workdir, f"{tag}p.txt", f"{p}\n")
    nq = _write(workdir, f"{tag}q.txt", f"{q}\n")

    def check(out: bytes) -> bool:
        return hw.NCPoly.from_text(mixed, out.decode().strip()) == expected()

    return CliJob("mul", f"{p}|{q}", ["mul", "--alphabet", mixed.decl(), np_, nq], workdir, check)


def _rand_rational_matrix(rng, n: int):
    return hw.Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)])


def _rand_dims(rng):
    """Dimensions 3 and 4 in random order: every product has dimension 12."""
    return rng.choice(((3, 4), (4, 3)))


def _rand_matrep(rng, alphabet, dim: int):
    return hw.MatRep(alphabet, dim, {l: _rand_rational_matrix(rng, dim) for l in alphabet.letters})


def _cli_rep_pair(rng, workdir, tag, alphabet, command, combine) -> CliJob:
    r1, r2 = (_rand_matrep(rng, alphabet, dim) for dim in _rand_dims(rng))
    d1, d2 = (json.dumps(r.to_json_dict()) for r in (r1, r2))
    n1 = _write(workdir, f"{tag}r1.json", d1)
    n2 = _write(workdir, f"{tag}r2.json", d2)
    expected = _lazy(lambda: combine(r1, r2))

    def check(out: bytes) -> bool:
        return hw.MatRep.from_json_dict(json.loads(out)) == expected()

    return CliJob(command, f"{d1}|{d2}", [command, "--rep", n1, "--rep", n2], workdir, check)


def _cli_tensor(rng, workdir, tag, mixed) -> CliJob:
    return _cli_rep_pair(rng, workdir, tag, mixed, "tensor", hw.tensor_rep)


def _cli_dsum(rng, workdir, tag, mixed) -> CliJob:
    return _cli_rep_pair(rng, workdir, tag, mixed, "dsum", hw.direct_sum)


def _cli_conv(rng, workdir, tag, mixed) -> CliJob:
    def rand_linrep(dim):
        mu = {l: _rand_rational_matrix(rng, dim) for l in mixed.letters}
        lam = hw.Matrix.row_vector([rng.randint(-3, 3) for _ in range(dim)])
        gamma = hw.Matrix.col_vector([rng.randint(-3, 3) for _ in range(dim)])
        return hw.LinRep(mixed, dim, lam, mu, gamma)

    r1, r2 = (rand_linrep(dim) for dim in _rand_dims(rng))
    d1, d2 = (json.dumps(r.to_json_dict()) for r in (r1, r2))
    n1 = _write(workdir, f"{tag}s1.json", d1)
    n2 = _write(workdir, f"{tag}s2.json", d2)
    expected = _lazy(lambda: hw.conv_rep(r1, r2))

    def check(out: bytes) -> bool:
        return hw.LinRep.from_json_dict(json.loads(out)) == expected()

    return CliJob("conv", f"{d1}|{d2}", ["conv", "--series", n1, "--series", n2], workdir, check)
