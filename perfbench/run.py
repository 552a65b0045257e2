"""hopfwords benchmark: one single-client, closed-loop workload per run.

    python3 perfbench/run.py --workload coalgebra|series|cli --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; the library is imported from
``src/`` and every child process gets the absolute ``src`` path on
``PYTHONPATH``, so nothing has to be installed.

``--trace 0`` runs the seeded job list, cycling through it, for ``--seconds``
seconds and reports the end-to-end metrics. ``--trace 1`` replays a fixed
prefix of the list twice, untraced and then traced, and reports the
per-layer metrics (see ``tracer.py``), the tracing overhead and a few
context probes. Both modes time a fixed stdlib kernel between jobs, so a
slow phase of the host can be told apart from a slower program.

Every job checks its own result. The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is nonzero when any job failed.
"""

from __future__ import annotations

import argparse
import bisect
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("coalgebra", "series", "cli")

SETUP_PROBES = 5  # fresh processes timed per run for setup_s
CALIB_EVERY_S = 0.1  # least time between host-speed samples, taken between jobs
REF_KERNEL_MS = 5.0  # kernel time of the reference host speed
# Across runs on a 2-vCPU VM whose speed flips between two levels, job time
# grew as kernel time to the power 0.65-0.9, depending on the workload.
HOST_EXPONENT = 0.7
CONTEXT_PROBES = 7  # spawn and import probes per traced run
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout()


def run_child(argv, cwd, stderr_file):
    """Run one child to completion: (stdout bytes, exit code, peak RSS in
    KiB, wall seconds). The child's own rusage comes from wait4, so probes
    run by the benchmark do not mix into the peak."""
    stderr_file.seek(0)
    stderr_file.truncate()
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=stderr_file)
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
    except _Timeout:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S}s: {argv}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss, wall


def calib_kernel_ms() -> float:
    """Fixed stdlib kernel (exact rational accumulation) as a host-speed probe."""
    t0 = perf_counter()
    s = Fraction(0)
    for k in range(1, 2001):
        s += Fraction(1, k % 97 + 1)
    return (perf_counter() - t0) * 1000


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartile_spread(xs) -> float:
    if len(xs) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it:
    (value, percentile, sample count)."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(0, n - TAIL_BEYOND - 1)
    return xs[k], 100.0 * (k + 1) / n, n


# ---------------------------------------------------------------------------
# setup: fresh process to ready


def setup_probe(workload: str, seed: int) -> int:
    """Child side of the setup_s probe: import, generate, report, exit."""
    sys.path.insert(0, str(HERE))
    import workloads

    work = OUT / f"probe-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.make_jobs(workload, seed, work)
        banned = [m for m in ("numpy", "sympy") if m in sys.modules]
        print("ready", workloads.inputs_digest(jobs), ",".join(banned) or "-", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def time_setup(workload: str, seed: int, digest: str, stderr_file) -> float:
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    out, code, _, wall = run_child(argv, ROOT, stderr_file)
    if code != 0 or out.decode().split() != ["ready", digest, "-"]:
        raise RuntimeError(f"setup probe disagrees: exit {code}, output {out[:200]!r}")
    return wall


# ---------------------------------------------------------------------------
# running jobs


class Runner:
    def __init__(self, workload, seed, jobs, stderr_file):
        self.workload = workload
        self.seed = seed
        self.jobs = jobs
        self.stderr_file = stderr_file
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.child_rss_kib = 0
        self.out_bytes = 0
        self.last_out = None

    def fail(self, job, detail):
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{job.kind}: {detail}"

    def run_job(self, job, between=lambda: None, in_process_cli: bool = False,
                expected_out: bytes | None = None) -> list[tuple[float, float]]:
        """Run one job and check it. Returns its timed segments as (start,
        seconds); the job's latency is their sum. A job whose ``run`` is a
        generator is timed step by step, and ``between`` runs untimed at each
        of its yields. A CLI job given ``expected_out`` is checked by byte
        equality alone, so that a traced replay does not trace the library
        calls of its check."""
        self.attempted += 1
        if self.workload != "cli":
            ok, detail, segments = _run_steps(job, between)
            if not ok:
                self.fail(job, detail)
            return segments
        start = perf_counter()
        if in_process_cli:
            out, code, wall = run_cli_in_process(job)
        else:
            argv = [sys.executable, "-m", "hopfwords", *job.argv]
            out, code, rss, wall = run_child(argv, job.cwd, self.stderr_file)
            self.child_rss_kib = max(self.child_rss_kib, rss)
        self.out_bytes += len(out)
        self.last_out = out
        try:
            ok = code == 0 and (job.check(out) if expected_out is None else out == expected_out)
            detail = f"exit {code}" if code else "wrong output"
        except Exception:
            ok, detail = False, traceback.format_exc(limit=3)
        if not ok:
            self.fail(job, detail)
        return [(start, wall)]


def _run_steps(job, between):
    """(ok, failure detail, timed segments) of an in-process job."""
    segments = []
    t0 = perf_counter()
    try:
        result = job.run()
        if isinstance(result, types.GeneratorType):
            steps = result
            while True:
                try:
                    next(steps)
                except StopIteration as stop:
                    result = stop.value
                    break
                segments.append((t0, perf_counter() - t0))
                between()
                t0 = perf_counter()
    except Exception:
        segments.append((t0, perf_counter() - t0))
        return False, traceback.format_exc(limit=3), segments
    segments.append((t0, perf_counter() - t0))
    return bool(result), "wrong result", segments


def job_time(segments) -> float:
    return sum(d for _, d in segments)


def run_cli_in_process(job):
    import hopfwords.cli

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(job.cwd)
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = hopfwords.cli.run(job.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        wall = perf_counter() - t0
        os.chdir(cwd)
    return out.getvalue().encode(), code, wall


class HostClock:
    """Host-speed samples taken between jobs. The CPU of a shared host can
    run at half speed for seconds to minutes at a time, and wall time moves
    with it. Scaling a job's wall time by the kernel times just around it
    turns it into time at a fixed reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.kernel_ms: list[float] = []

    def sample(self):
        self.times.append(perf_counter())
        self.kernel_ms.append(calib_kernel_ms())

    def maybe_sample(self):
        if perf_counter() - self.times[-1] >= CALIB_EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """(REF_KERNEL_MS / k) ** HOST_EXPONENT, k the mean of the samples
        just before and just after time ``t``."""
        i = bisect.bisect_right(self.times, t)
        near = self.kernel_ms[max(i - 1, 0) : i + 1]
        return (REF_KERNEL_MS * len(near) / sum(near)) ** HOST_EXPONENT


def timed_run(runner: Runner, seconds: float, digest: str):
    """Cycle through the job list for ``seconds``. Setup probes and host
    samples are spread over the run, outside the job timings. Returns the
    host-scaled job latencies and setup times, and the raw latencies."""
    clock = HostClock()
    runs, setups = [], []
    start = perf_counter()
    deadline = start + seconds
    next_setup = start
    i = 0
    clock.sample()
    while perf_counter() < deadline or not runs:
        if perf_counter() >= next_setup and len(setups) < SETUP_PROBES:
            setups.append(timed_setup(runner, digest, clock))
            next_setup += seconds / SETUP_PROBES
            continue
        clock.maybe_sample()
        runs.append(runner.run_job(runner.jobs[i % len(runner.jobs)], clock.maybe_sample))
        i += 1
    clock.sample()
    while len(setups) < SETUP_PROBES:
        setups.append(timed_setup(runner, digest, clock))
    raw = [job_time(segments) for segments in runs]
    scaled = [sum(d * clock.scale(t) for t, d in segments) for segments in runs]
    return scaled, setups, raw, clock


def timed_setup(runner: Runner, digest: str, clock: HostClock) -> float:
    clock.sample()
    t = perf_counter()
    wall = time_setup(runner.workload, runner.seed, digest, runner.stderr_file)
    clock.sample()
    return wall * clock.scale(t)


def end_to_end_metrics(runner: Runner, latencies, setups, raw):
    tail_s, tail_pct, n = tail(latencies)
    if runner.workload == "cli":
        rss_kib = runner.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (median(setups), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_ms_p50": (median(latencies) * 1000, "ms"),
        "job_ms_tail": (tail_s * 1000, "ms"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    raw_tail = tail(raw)[0]
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "jobs_per_s": f"raw wall {len(raw) / sum(raw):.4f}",
        "job_ms_p50": f"raw wall {median(raw) * 1000:.3f}",
        "job_ms_tail": f"p{tail_pct:.1f} of {n} jobs; raw wall {raw_tail * 1000:.3f}",
        "ok_ratio": f"fail_ratio {runner.failed / runner.attempted:.6f}",
    }
    return metrics, notes


def context_probes(runner: Runner):
    """Interpreter-start floor, import time and in-process cli.run time on
    the golden cases; diagnostics for the cli layer."""
    import workloads

    spawn, imports, banned = [], [], set()
    code = (
        "import sys, time; t = time.perf_counter(); import hopfwords.cli; "
        "print((time.perf_counter() - t) * 1000, *[m for m in ('numpy', 'sympy') if m in sys.modules])"
    )
    for _ in range(CONTEXT_PROBES):
        _, rc, _, wall = run_child([sys.executable, "-c", "pass"], ROOT, runner.stderr_file)
        if rc:
            raise RuntimeError("python -c pass failed")
        spawn.append(wall * 1000)
        out, rc, _, _ = run_child([sys.executable, "-c", code], ROOT, runner.stderr_file)
        if rc:
            raise RuntimeError("import probe failed")
        fields = out.decode().split()
        imports.append(float(fields[0]))
        banned.update(fields[1:])
    golden = []
    for job in workloads.golden_jobs():
        runner.attempted += 1
        out, rc, wall = run_cli_in_process(job)
        if rc != 0 or not job.check(out):
            runner.fail(job, "in-process golden mismatch")
        golden.append(wall * 1000)
    return {
        "cli.spawn_ms_p50": median(spawn),
        "cli.import_ms_p50": median(imports),
        "cli.run_ms_p50": median(golden),
    }, sorted(banned)


def traced_run(runner: Runner, trace_jobs: int):
    import tracer as tracing

    jobs = runner.jobs[:trace_jobs]
    cli = runner.workload == "cli"
    clock = HostClock()
    clock.sample()
    probes, banned = context_probes(runner)

    outputs, untraced = [], 0.0
    for job in jobs:
        clock.maybe_sample()
        untraced += job_time(runner.run_job(job, in_process_cli=cli))
        outputs.append(runner.last_out)
    clock.sample()

    tr = tracing.Tracer()
    tr.install()
    runner.out_bytes = 0
    try:
        traced = 0.0
        t0 = perf_counter()
        for i, job in enumerate(jobs):
            tr.current_job = i
            traced += job_time(runner.run_job(job, in_process_cli=cli, expected_out=outputs[i]))
        wall = perf_counter() - t0
    finally:
        tr.uninstall()
    clock.sample()

    metrics = tr.metrics(wall)
    metrics.update(probes)
    metrics["cli.out_bytes"] = runner.out_bytes
    metrics["trace.overhead_ratio"] = traced / untraced
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{runner.workload}-{runner.seed}.json"
    tr.write(spans_path, t0)
    notes = {"spans": f"{tr.span_count()} spans in {spans_path.relative_to(ROOT)}",
             "traced_jobs": f"{len(jobs)} jobs, job time untraced {untraced:.3f}s, traced {traced:.3f}s"}
    return metrics, clock.kernel_ms, banned, notes


def units_of(name: str) -> str:
    if name.endswith("_ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_spread")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def run_context() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "hopfwords" / "__init__.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no hopfwords source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    sys.path.insert(0, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        with open(work / "child.stderr", "w+b") as stderr_file:
            jobs = workloads.make_jobs(args.workload, args.seed, work)
            digest = workloads.inputs_digest(jobs)
            runner = Runner(args.workload, args.seed, jobs, stderr_file)
            if args.trace:
                raw, calib, banned, notes = traced_run(runner, workloads.TRACE_JOBS[args.workload])
                raw["host.calib_ms_p50"] = median(calib)
                raw["host.calib_spread"] = quartile_spread(calib)
                metrics = {k: (v, units_of(k)) for k, v in raw.items()}
            else:
                latencies, setups, raw, clock = timed_run(runner, args.seconds, digest)
                metrics, notes = end_to_end_metrics(runner, latencies, setups, raw)
                calib = clock.kernel_ms
                banned = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    banned = sorted(set(banned) | {m for m in ("numpy", "sympy") if m in sys.modules})

    print(f"context: {json.dumps(run_context())} inputs_sha256={digest}")
    print(f"host: calib_ms_p50={median(calib):.3f} quartile_spread={quartile_spread(calib):.3f} samples={len(calib)}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"{name:32s} {text} {unit}" + (f"  ({note})" if note else ""))
    for key in ("spans", "traced_jobs"):
        if key in notes:
            print(f"{key}: {notes[key]}")
    if banned:
        print(f"perfbench: zero-dependency promise broken, imported {banned}", file=sys.stderr)
    if runner.first_failure:
        print(f"perfbench: first failure: {runner.first_failure}", file=sys.stderr)
    correct = runner.failed == 0 and not banned
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
