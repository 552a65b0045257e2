"""Determinism self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload it makes three traced runs, seed 1 twice and seed 2
once, and one short untraced run. The digest of the generated inputs and the
exact counters must be identical for the two runs with the same seed, and
both must differ between the seeds. Single counters may repeat across
seeds: ``sweedler.hankel_entries`` and ``sweedler.value_calls`` are set by
the fixed Hankel window shapes. Every run must report ``correct`` and
exactly the metrics, with the units, that ``BENCHMARK.json`` names. Exits
nonzero on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT_COUNTERS = (
    "freealg.terms_out",
    "sweedler.hankel_entries",
    "sweedler.value_calls",
    "sweedler.behavior_table_words",
    "linalg.max_bits",
    "cli.out_bytes",
)


SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int):
    """(correct, input digest, metrics) of one run of the benchmark."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next(l.split("inputs_sha256=")[1] for l in lines if "inputs_sha256=" in l)
    return result["correct"], digest, result["metrics"]


def unit_problems(workload: str, trace: int, metrics: dict) -> list[str]:
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in metrics.items()}
    if declared == reported:
        return []
    return [f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(declared.items()) ^ set(reported.items()))}"]


def main() -> int:
    problems = []
    for workload in [w["name"] for w in SPEC["workloads"]]:
        e_ok, _, e = bench(workload, 3, 0)
        a_ok, a_digest, a = bench(workload, 1, 1)
        b_ok, b_digest, b = bench(workload, 1, 1)
        c_ok, c_digest, c = bench(workload, 2, 1)
        problems += unit_problems(workload, 0, e) + unit_problems(workload, 1, a)
        a, b, c = ({k: m[k]["value"] for k in EXACT_COUNTERS} for m in (a, b, c))
        if not (e_ok and a_ok and b_ok and c_ok):
            problems.append(f"{workload}: a run reported correct=false")
        if a_digest != b_digest or a != b:
            problems.append(f"{workload}: same seed, different inputs or counters: {a} vs {b}")
        if a_digest == c_digest:
            problems.append(f"{workload}: seeds 1 and 2 generated the same inputs")
        if a == c:
            problems.append(f"{workload}: seeds 1 and 2 gave the same counters {a}")
        print(f"{workload}: seed 1 {a}\n{' ' * len(workload)}  seed 2 {c}")
    for p in problems:
        print("FAIL", p)
    print("selfcheck:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
