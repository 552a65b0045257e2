"""Shared table of canonical CLI invocations and their golden outputs.

Each case runs with the fixtures directory as working directory so the
argument vectors (and therefore the outputs) contain no absolute paths.
Regenerate the stored outputs with HOPFWORDS_REGEN_GOLDEN=1 after a
deliberate format change, then review the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

CASES = [
    ("coprod", ["coprod", "--alphabet", "a:L,b:L", "ab"]),
    ("coprod_json", ["coprod", "--alphabet", "a:L,b:L", "--format", "json", "ab"]),
    ("mul", ["mul", "--alphabet", "a:L,b:L", "a+b", "a-b"]),
    ("counit", ["counit", "--alphabet", "a:L,g:G", "3*gg + ga"]),
    ("antipode", ["antipode", "--alphabet", "a:L,b:L", "ab - 2*a"]),
    ("pair", ["pair", "--alphabet", "a:L,b:L", "--series", "a + 2*b", "3*a + b"]),
    ("conv_finite", ["conv", "--alphabet", "a:L,b:L", "--series", "a", "--series", "b"]),
    ("conv_recognizable", ["conv", "--series", "geo2.json", "--series", "geo3.json"]),
    ("tensor", ["tensor", "--rep", "mat_a2.json", "--rep", "mat_a3.json"]),
    ("dsum", ["dsum", "--rep", "mat_a2.json", "--rep", "mat_a3.json"]),
    ("eval", ["eval", "--rep", "counting_mat.json", "abab"]),
    ("hankel", ["hankel", "--hankel", "1,1", "--series", "geo2.json"]),
    ("rank", ["rank", "--hankel", "3,3", "--series", "geo2.json"]),
    ("learn", ["learn", "--explore", "2", "--series", "geo2.json"]),
    ("split", ["split", "--series", "geo2.json"]),
    ("dualS", ["dualS", "--series", "geo2.json"]),
    ("check_coassoc", ["check-coassoc", "--alphabet", "a:L,g:G", "--maxlen", "3"]),
    ("check_antipode", ["check-antipode", "--alphabet", "a:L,b:L", "--maxlen", "3"]),
    ("check_dual_assoc", ["check-dual-assoc", "--alphabet", "a:L,g:G", "--maxlen", "4"]),
    ("check_conv_oracle", ["check-conv-oracle", "--alphabet", "a:L,g:G", "--maxlen", "3"]),
]


def run_cli(args, cwd=FIXTURES):
    """Run the CLI from source; the absolute src path leads PYTHONPATH so a
    relative entry (as in PYTHONPATH=src) cannot break under cwd."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return subprocess.run(
        [sys.executable, "-m", "hopfwords", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )


def regen_requested() -> bool:
    return os.environ.get("HOPFWORDS_REGEN_GOLDEN") == "1"
