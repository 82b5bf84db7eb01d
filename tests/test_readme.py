"""The examples in README.md, read from the file itself, run as documented:
the library tour in a fresh interpreter with the values its comments give,
every `twisted-satake` example line, and `describe` on the JSON datum.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import twisted_satake

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def run_fresh(*argv):
    src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


CLI_EXAMPLES = [
    shlex.split(line, comments=True)[1:]
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("twisted-satake ")
]

# Each checked line of the tour, with the value its comment gives.
_TOUR_CHECKS = """
from fractions import Fraction
assert average_map(su3, cls) == (Fraction(1, 2), Fraction(1, 2))
assert stratum(su3, ((2,), ())).dim == 4
assert [up for _lo, ((up,), _t) in closure_poset(su3, cls=((3,), ())).covers] == [1, 2, 3]
print("ok")
"""


def test_library_tour_runs_with_its_commented_values():
    (tour,) = blocks("python")
    assert re.search(r"^average_map\(su3, cls\) +# \(1/2, 1/2\)", tour, flags=re.M)
    assert re.search(r"^stratum\(su3, \(\(2,\), \(\)\)\)\.dim +# 4$", tour, flags=re.M)
    proc = run_fresh("-c", tour + _TOUR_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_cli_examples_are_found():
    assert ["tensor", "SL2", "1", "1"] in CLI_EXAMPLES
    assert ["branch", "SU3", "--weight", "1,0"] in CLI_EXAMPLES


@pytest.mark.parametrize("argv", CLI_EXAMPLES, ids=" ".join)
def test_cli_example_exits_zero(argv):
    proc = run_fresh("-m", "twisted_satake.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    expected = {("tensor", "SL2", "1", "1"): "V(2) + V(0)\n",
                ("branch", "SU3", "--weight", "1,0"): "V(1)\n"}.get(tuple(argv))
    if expected is not None:
        assert proc.stdout == expected


def test_json_datum_describes_under_its_name(tmp_path):
    (datum,) = blocks("json")
    path = tmp_path / "datum.json"
    path.write_text(datum)
    proc = run_fresh("-m", "twisted_satake.cli", "describe", "--file", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("datum: my-datum  ")
