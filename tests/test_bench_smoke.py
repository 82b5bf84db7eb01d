"""One round of each bench workload, answered in-process and judged by the
bench's own checkers, without timing.

The bench refuses a run whose answers its oracles reject; this test asks
the same of one round, so a package change that would fail that gate fails
here first.  It only reads `bench/`: the session round is answered through
`workloads.session_answer` and checked by `workloads.check_session`, and
each cold CLI query runs through `workloads.cli_query` and is judged by
`workloads.judge_cli` with the workload's checker.  One traced run of all
three workloads goes through `bench/run.py` itself.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402


def test_library_session_round_passes_the_bench_check():
    queries = workloads.session_round(1, 0, None)
    answers = [workloads.session_answer(q) for q in queries]
    assert workloads.check_session(queries, answers) is None


@pytest.mark.parametrize("make, check, folded", [
    (workloads.posets_round, workloads.check_posets_answer, False),
    (workloads.branching_round, workloads.check_branching_answer, True),
], ids=["posets", "branching"])
def test_cli_round_passes_the_bench_check(make, check, folded):
    context = workloads.describe_folded(workloads.cli_query) if folded else None
    queries = make(1, 0, context)
    assert queries
    verdicts = {" ".join(q["argv"]): workloads.judge_cli(q, workloads.cli_query(q["argv"]), check, context)
                for q in queries}
    assert {argv: v for argv, v in verdicts.items() if v != (False, None)} == {}


def test_traced_run_of_every_workload_is_correct():
    """The tracer reads `cache_info()` on each traced call of
    `rep.irreducible_character`, which has no cache, so a workload that
    reached that function would crash the traced run: none does."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"),
         "--workload", "all", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert (summary["correct"], summary["failed"]) == (True, 0)
