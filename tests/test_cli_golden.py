"""Golden digests of the command line: each argv's exit code and the md5 of
its stdout and stderr, compared with `tests/cli_golden.txt`.

Every argv runs in this process through `cli.main`, in the order of the
file, so the run also checks that answers do not depend on what the
process computed before.  The argv cover `describe` and `verify all` on
every fixed preset and SU7, Schubert posets and dominant images at several
bounds, `branch` and `tensor` on the five branch presets, `mv`, `conv` and
`corr`, the README command lines, input errors, a `--file` datum whose
coinvariants are Z + Z/2, and `verify` on data whose Weyl groups the orbit
oracle walks (SU9, |W| = 362,880) or refuses (SU11, |W| = 39,916,800),
Schubert posets and dominant images at the sizes the benchmark queries,
two `--file` data in no registry that fold (E6 and Spin8 with diagram
automorphisms), SL2 times a rank-2 torus rotated by an automorphism of
order 6, whose base has central directions but whose X_*(T)_I = Z has no
invariant one, and the heaviest `branch` inputs of the benchmark's data
(Spin8-triality at 4,4,4,4, SU7 at 2,1,1,1,1,2).

A line of the golden file is `<exit code> <md5 stdout> <md5 stderr> <argv
as JSON>`.  After a change that is meant to alter output, regenerate it
with

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.txt

and say in the change which lines moved and why.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().with_name("cli_golden.txt")

FIXED = ("SL2", "PGL2", "SL3", "PGL3", "Sp4", "G2", "SL2xSL2-swap", "SU3", "SU5",
         "PSU3", "SU4", "Spin8-triality", "torus-rank-1", "torus-rank-2")
BRANCH = ("SU3", "SU4", "SU5", "SL2xSL2-swap", "Spin8-triality")
SEMISIMPLE = tuple(p for p in FIXED if not p.startswith("torus"))

# The rank-3 A2 lattice with the flip (a,b,c) -> (-c,-b,-a): X_*(T)_I = Z + Z/2.
# No preset has torsion in its coinvariants, so this datum carries the torsion paths.
FILES = {
    "torsion.json": {
        "name": "u3-like",
        "base": {"rank": 3, "simple_roots": [[1, -1, 0], [0, 1, -1]],
                 "simple_coroots": [[1, -1, 0], [0, 1, -1]]},
        "generators": [{"lattice_map": [[0, 0, -1], [0, -1, 0], [-1, 0, 0]],
                        "root_permutation": [1, 0]}],
    },
    "nonsquare.json": {
        "base": {"rank": 2, "simple_roots": [[2, -1], [-1, 2]],
                 "simple_coroots": [[1, 0], [0, 1]]},
        "generators": [{"lattice_map": [[0, 1]], "root_permutation": [1, 0]}],
    },
    # E6 with its diagram flip folds to F4 (|W| = 1152), and Spin8 with
    # the whole S3 of diagram automorphisms (two generators) to G2: no
    # registry entry, so the fold is read from the datum alone.
    "e6-flip.json": {
        "name": "E6-flip",
        "base": {"rank": 6,
                 "simple_roots": [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
                                  [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]],
                 "simple_coroots": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
                                    [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]},
        "generators": [{"lattice_map": [[0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0],
                                        [0, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 0]],
                        "root_permutation": [5, 1, 4, 3, 2, 0]}],
    },
    "d4-s3.json": {
        "name": "D4-S3",
        "base": {"rank": 4,
                 "simple_roots": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
                 "simple_coroots": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
        "generators": [{"lattice_map": [[0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]],
                        "root_permutation": [2, 1, 3, 0]},
                       {"lattice_map": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        "root_permutation": [0, 1, 3, 2]}],
    },
    # SL2 x T2, with I acting on the torus by a rotation of order 6: X_*(T)_I = Z
    # needs no box, the base and its dual do.
    "sl2-rot6.json": {
        "name": "SL2xT2-rot6",
        "base": {"rank": 3, "simple_roots": [[2, 0, 0]], "simple_coroots": [[1, 0, 0]]},
        "generators": [{"lattice_map": [[1, 0, 0], [0, 1, -1], [0, 1, 0]],
                        "root_permutation": [0]}],
    },
    "badname.json": {
        "name": 7,
        "base": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
    },
}

README_LINES = (
    "describe SU3",
    "schubert SU3 --bound 6",
    "schubert SU4 --bound 4 --format dot",
    "dominant-image SU3 --bound 10",
    "mv SU3 --mu=-1 --lam=1",
    "conv SU3 --mu=-1 --mu2=1 --lam=1 --lam2=1",
    "branch SU3 --weight 1,0",
    "branch SU3 --weight 1,0 --coeff Fl:2",
    "tensor SL2 1 1",
    "tensor SU3 1 1 --coeff Fl:2",
    "corr SU3 --levi none --vector 1,0",
    "verify SU3 all",
)

INPUT_ERRORS = (
    ["describe"],
    ["describe", "NoSuchGroup"],
    ["describe", "SU6"],
    ["describe", "SU(4)"],
    ["describe", "SU3", "--coeff", "Fl:x"],
    ["describe", "SU3", "--coeff", "Fl:4"],
    ["describe", "SU3", "--coeff", "Qp:3"],
    ["describe", "--file", "missing.json"],
    ["describe", "--file", "nonsquare.json"],
    ["describe", "--file", "badname.json"],
    ["frobnicate", "SU3"],
    ["schubert", "SU3", "--bound", "0"],
    ["schubert", "SU3", "--bound", "x"],
    ["schubert", "torus-rank-2", "--bound", "2"],
    ["dominant-image", "torus-rank-1", "--bound", "2", "--coord-bound", "0"],
    ["mv", "SU3", "--mu", "1,0", "--lam", "1"],
    ["mv", "SU3", "--mu", "1;1", "--lam", "1"],
    ["mv", "SU3", "--mu", "a", "--lam", "1"],
    ["mv", "SU5", "--mu", "1", "--lam", "1,0"],
    ["mv", "SU3", "--mu", "1", "--lam=-1"],
    ["conv", "SU3", "--mu", "1", "--mu2", "1", "--lam", "1,1", "--lam2", "1"],
    ["branch", "SU3", "--weight", "-1,0"],
    ["branch", "SU3", "--weight", "1"],
    ["branch", "SU3", "--weight", "x"],
    ["tensor", "SU3", "1,0", "1"],
    ["tensor", "SU3", "1;0", "1"],
    ["tensor", "SU3", "-1", "1"],
    ["tensor", "SU5", "1", "1,0"],
    ["corr", "SU3", "--vector", "1,0,0"],
    ["corr", "SU3", "--levi", "5", "--vector", "1,0"],
    ["corr", "SU3", "--levi", "x", "--vector", "1,0"],
    ["verify", "SU3", "nosuchsuite"],
    ["verify", "--file", "nonsquare.json", "all"],
)

HEAVY = (
    "verify SU9 all",
    "verify SU11 weyl-oracle",
    "verify SU11 all",
    "verify SU17 orbits",
)

# Posets at the sizes the benchmark queries: long chains of strata, wide
# bounded cones, and a torus box.
WORKLOAD = tuple(
    [f"schubert {p} --bound 52{fmt}" for p in ("SU3", "PSU3", "SL2xSL2-swap")
     for fmt in ("", " --format json", " --format dot")]
    + [f"schubert {p} --bound 18 --format json" for p in ("SU4", "SU5", "Spin8-triality")]
    + ["schubert SU7 --bound 7 --format json",
       "schubert SU9 --bound 3 --format json",
       "dominant-image SU3 --bound 100 --format json",
       "dominant-image SU5 --bound 10 --format json",
       "schubert torus-rank-2 --bound 6 --coord-bound 3 --format json"]
)

# Point queries whose mu takes a long chamber walk to its dominant
# representative (8-9 of SU7's 9 reflections, 6 of Spin8-triality's 6),
# with entries up to 60: nonempty and empty cells, both formats.
LONG_WALKS = (
    "mv SU7 --mu=-45,-39,-30 --lam=45,39,30 --format json",
    "mv SU7 --mu=-45,-39,-30 --lam=60,60,31",
    "mv SU7 --mu=-51,-38,-24 --lam=45,39,30 --format json",
    "conv SU7 --mu=-45,-39,-30 --mu2=-51,-38,-24 --lam=45,39,30 --lam2=51,38,24",
    "conv SU7 --mu=-45,-39,-30 --mu2=-51,-38,-24 --lam=45,39,30 --lam2=45,39,30 --format json",
    "mv Spin8-triality --mu=-35,-60 --lam=35,60 --format json",
    "mv Spin8-triality --mu=-30,-56 --lam=35,60",
    "mv Spin8-triality --mu=-35,-60 --lam=30,56",
    "conv Spin8-triality --mu=-35,-60 --mu2=-30,-56 --lam=35,60 --lam2=30,56 --format json",
)

# The heaviest branch inputs: V(4,4,4,4) of Spin8-triality (95,569 weights)
# and V(2,1,1,1,1,2) of SU7 (115,627 weights), restricted and straightened.
HEAVY_BRANCHES = (
    "branch Spin8-triality --weight 4,4,4,4 --format json",
    "branch SU7 --weight 2,1,1,1,1,2 --format json",
)


def _fmt(vec):
    return ",".join(str(x) for x in vec)


def _box(rank, lo, hi):
    return list(itertools.product(range(lo, hi + 1), repeat=rank))


# (rank, rank of X_*(T)_I) per preset, and the rank of each branch preset's folded datum.
SHAPES = {"SL2": (1, 1), "PGL2": (1, 1), "SL3": (2, 2), "PGL3": (2, 2), "Sp4": (2, 2),
          "G2": (2, 2), "SL2xSL2-swap": (2, 1), "SU3": (2, 1), "SU5": (4, 2), "PSU3": (2, 1),
          "SU4": (3, 2), "Spin8-triality": (4, 2), "torus-rank-1": (1, 1),
          "torus-rank-2": (2, 2), "SU7": (6, 3)}
FOLDED_RANK = {"SU3": 1, "SU4": 2, "SU5": 2, "SL2xSL2-swap": 1, "Spin8-triality": 2}


def golden_argvs():
    """Every argv the golden file records, in order."""
    out = []
    for p in FIXED + ("SU7",):
        out += [["describe", p], ["describe", p, "--format", "json"],
                ["describe", p, "--coeff", "Fl:2"]]
    for p in FIXED + ("SU7",):
        out += [["verify", p, "all"], ["verify", p, "all", "--format", "json"]]
    for p in SEMISIMPLE:
        for b in range(1, 6):
            out.append(["schubert", p, "--bound", str(b)])
        out += [["schubert", p, "--bound", "3", "--format", "json"],
                ["schubert", p, "--bound", "3", "--format", "dot"]]
        for b in (1, 2, 4):
            out.append(["dominant-image", p, "--bound", str(b)])
        out.append(["dominant-image", p, "--bound", "3", "--format", "json"])
    for b in (12, 25, 40):
        out += [["schubert", "SU3", "--bound", str(b), "--format", "json"],
                ["dominant-image", "SU3", "--bound", str(b)]]
    for b in (2, 3):
        out += [["schubert", "SU7", "--bound", str(b), "--format", "json"],
                ["dominant-image", "SU7", "--bound", str(b)]]
    for p in ("torus-rank-1", "torus-rank-2"):
        out += [["schubert", p, "--bound", "2", "--coord-bound", "2"],
                ["dominant-image", p, "--bound", "2", "--coord-bound", "2", "--format", "json"]]
    for p in BRANCH:
        rank = SHAPES[p][0]
        hi = 2 if rank == 2 else 1
        weights = [w for w in _box(rank, 0, hi) if any(w)]
        for w in weights:
            out += [["branch", p, "--weight", _fmt(w)],
                    ["branch", p, "--weight", _fmt(w), "--format", "json"]]
        for w, coeff in zip(weights[:6], itertools.cycle(("Fl:2", "Zl:3", "Fl:5"))):
            out.append(["branch", p, "--weight", _fmt(w), "--coeff", coeff, "--format", "json"])
    for p in BRANCH:
        classes = [c for c in _box(FOLDED_RANK[p], 0, 2) if any(c)]
        for a, b in itertools.product(classes, repeat=2):
            out.append(["tensor", p, _fmt(a), _fmt(b), "--format", "json"])
        out.append(["tensor", p, _fmt(classes[-1]), _fmt(classes[-1]), "--coeff", "Zl:3"])
    for p in SEMISIMPLE + ("SU7",):
        # lam runs over a box of nonnegative classes, some of them dominant
        pairs = list(itertools.product(_box(SHAPES[p][1], -1, 2), _box(SHAPES[p][1], 0, 2)))
        for mu, lam in pairs[::len(pairs) // 60 + 1]:
            out.append(["mv", p, f"--mu={_fmt(mu)}", f"--lam={_fmt(lam)}", "--format", "json"])
        quads = list(itertools.product(pairs, repeat=2))
        for (mu, lam), (mu2, lam2) in quads[::len(quads) // 20 + 1]:
            out.append(["conv", p, f"--mu={_fmt(mu)}", f"--mu2={_fmt(mu2)}",
                        f"--lam={_fmt(lam)}", f"--lam2={_fmt(lam2)}"])
    for p in FIXED + ("SU7",):
        for levi in ("all", "none", "0"):
            for v in _box(SHAPES[p][0], -1, 1)[::3 ** SHAPES[p][0] // 9 + 1]:
                out.append(["corr", p, "--levi", levi, f"--vector={_fmt(v)}"])
    torsion = ["--file", "torsion.json"]
    out += [["describe", *torsion], ["describe", *torsion, "--format", "json"],
            ["verify", *torsion, "all"], ["verify", *torsion, "all", "--format", "json"]]
    for b in range(1, 5):
        out += [["schubert", *torsion, "--bound", str(b), "--format", "json"],
                ["dominant-image", *torsion, "--bound", str(b)]]
    torsion_classes = [f"{f};{t}" for f in range(-2, 3) for t in (0, 1, 2, -1)]
    for mu, lam in itertools.product(torsion_classes[::2], repeat=2):
        out.append(["mv", *torsion, f"--mu={mu}", f"--lam={lam}"])
    for quad in itertools.islice(itertools.product(torsion_classes[::3], repeat=4), 0, None, 29):
        out.append(["conv", *torsion] + [f"--{k}={c}" for k, c in zip(("mu", "mu2", "lam", "lam2"), quad)])
    for v in _box(3, -1, 1)[::4]:
        out.append(["corr", *torsion, "--levi", "all", f"--vector={_fmt(v)}"])
    out += [["branch", *torsion, "--weight", "1,0,0"], ["branch", *torsion, "--weight", "1,0,-1"]]
    out += [line.split() for line in README_LINES]
    out += [list(argv) for argv in INPUT_ERRORS]
    out += [line.split() for line in HEAVY]
    out += [line.split() for line in WORKLOAD]
    out += [line.split() for line in LONG_WALKS]
    # Each folded datum: the first fundamental weight, and the top class of
    # its branch tensored with itself.
    for name, weight, top in (("e6-flip.json", "1,0,0,0,0,0", "0,0,0,1"),
                              ("d4-s3.json", "1,0,0,0", "0,1")):
        out += [["describe", "--file", name], ["branch", "--file", name, "--weight", weight],
                ["tensor", "--file", name, top, top], ["verify", "--file", name, "all"]]
    rot6 = ["--file", "sl2-rot6.json"]
    out += [["describe", *rot6], ["verify", *rot6, "all"], ["branch", *rot6, "--weight", "1,0,0"],
            ["dominant-image", *rot6, "--bound", "2", "--coord-bound", "2"],
            ["dominant-image", *rot6, "--bound", "2"]]
    out += [line.split() for line in HEAVY_BRANCHES]
    return [list(argv) for argv in dict.fromkeys(map(tuple, out))]


def run_argv(argv):
    """(exit code, md5 of stdout, md5 of stderr) of one in-process run."""
    from twisted_satake import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (code, hashlib.md5(out.getvalue().encode()).hexdigest(),
            hashlib.md5(err.getvalue().encode()).hexdigest())


def golden_line(argv):
    code, out, err = run_argv(argv)
    return f"{code} {out} {err} {json.dumps(argv)}"


def write_files(directory):
    for name, data in FILES.items():
        (Path(directory) / name).write_text(json.dumps(data))


def _read_golden():
    lines = GOLDEN.read_text().splitlines()
    return [(line, json.loads(line.split(" ", 3)[3])) for line in lines]


RECORDS = _read_golden() if GOLDEN.exists() else []


@pytest.fixture(scope="module")
def datum_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_files(path)
    return path


def test_golden_file_lists_every_argv_in_order():
    assert [argv for _line, argv in RECORDS] == golden_argvs()


@pytest.mark.parametrize("expected, argv", RECORDS, ids=[" ".join(a) for _l, a in RECORDS])
def test_cli_output_matches_golden(expected, argv, datum_dir, monkeypatch):
    monkeypatch.chdir(datum_dir)
    assert golden_line(argv) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        os.chdir(directory)
        for argv in golden_argvs():
            sys.stdout.write(golden_line(argv) + "\n")
