"""The command-line surface: verbs, formats, exit codes, file input."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys

import pytest

import twisted_satake
from twisted_satake import cli
from twisted_satake.abelian import InvariantViolation
from twisted_satake.cli import EXIT_DEFECT, EXIT_INPUT, EXIT_OK, EXIT_PROPERTY, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv, timeout=60):
    """One CLI run in a fresh interpreter: nothing cached, no lookup history."""
    src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-m", "twisted_satake.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestDescribe:
    def test_su3_table(self, capsys):
        code, out, _err = run(capsys, "describe", "SU3")
        assert code == EXIT_OK
        assert "coinvariants X_*(T)_I: Z" in out
        assert "adjacent-pair" in out
        assert "pi1(G)_I: 0" in out
        assert "relative Weyl order: 2" in out
        assert "ell2-quasi-reductive=True" in out

    def test_pgl2_component_group(self, capsys):
        code, out, _ = run(capsys, "describe", "PGL2")
        assert code == EXIT_OK
        assert "pi1(G)_I: Z/2" in out

    def test_sl2_trivial(self, capsys):
        code, out, _ = run(capsys, "describe", "SL2")
        assert code == EXIT_OK
        assert "|I| 1" in out
        assert "pi1(G)_I: 0" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "describe", "SU3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["result"]["coinvariants"] == "Z"

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "describe", "SU4", "--format", "json")
        _, out2, _ = run(capsys, "describe", "SU4", "--format", "json")
        assert out1 == out2


class TestSchubert:
    def test_su3_bound_six(self, capsys):
        code, out, _ = run(capsys, "schubert", "SU3", "--bound", "6")
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("stratum")]
        assert len(lines) == 7
        dims = [int(l.split("dim")[1].split("component")[0]) for l in lines]
        assert dims == [0, 2, 4, 6, 8, 10, 12]

    def test_dot_format(self, capsys):
        code, out, _ = run(capsys, "schubert", "SL2", "--bound", "2", "--format", "dot")
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "schubert", "SU3", "--bound", "2", "--format", "json")
        doc = json.loads(out)
        assert [n["dim"] for n in doc["result"]["nodes"]] == [0, 2, 4]


class TestCells:
    def test_mv(self, capsys):
        code, out, _ = run(capsys, "mv", "SU3", "--mu=-1", "--lam=1")
        assert code == EXIT_OK
        assert "nonempty, dim 0" in out

    def test_mv_empty(self, capsys):
        code, out, _ = run(capsys, "mv", "SU3", "--mu=-3", "--lam=1")
        assert code == EXIT_OK
        assert "empty" in out

    def test_conv(self, capsys):
        code, out, _ = run(
            capsys, "conv", "SU3", "--mu=-1", "--mu2=1", "--lam=1", "--lam2=1"
        )
        assert code == EXIT_OK
        assert "nonempty, dim 2" in out

    def test_mv_non_dominant_lam(self, capsys):
        code, _out, err = run(capsys, "mv", "SU3", "--mu=0", "--lam=-1")
        assert code == EXIT_INPUT
        assert "input error" in err


class TestBranchTensor:
    def test_tensor_sl2(self, capsys):
        code, out, _ = run(capsys, "tensor", "SL2", "1", "1")
        assert code == EXIT_OK
        assert out.strip() == "V(2) + V(0)"

    def test_branch_su3(self, capsys):
        code, out, _ = run(capsys, "branch", "SU3", "--weight", "1,0")
        assert code == EXIT_OK
        assert out.strip() == "V(1)"

    def test_branch_swap(self, capsys):
        code, out, _ = run(capsys, "branch", "SL2xSL2-swap", "--weight", "1,1")
        assert code == EXIT_OK
        assert out.strip() == "V(2) + V(0)"

    def test_branch_modular_refusal_keeps_restriction(self, capsys):
        code, out, _ = run(
            capsys, "branch", "SU3", "--weight", "1,0", "--coeff", "Fl:2"
        )
        assert code == EXIT_OK
        assert "unsupported decomposition" in out
        assert "multiplicity 1" in out

    def test_tensor_modular_refusal(self, capsys):
        code, out, _ = run(capsys, "tensor", "SU3", "1", "1", "--coeff", "Fl:2")
        assert code == EXIT_OK
        assert out.startswith("unsupported decomposition: ")
        assert len(out.splitlines()) == 1
        code, out, _ = run(capsys, "tensor", "SU3", "1", "2", "--coeff", "Zl:3",
                           "--format", "json")
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert "error" in result and "summands" not in result

    def test_bad_prime_rejected(self, capsys):
        code, _out, err = run(capsys, "branch", "SU3", "--weight", "1,0", "--coeff", "Fl:4")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("text", ["Fl:x", "Zl:", "Fl:2.0", "Qp:3"])
    def test_unparsable_profile_is_named(self, capsys, text):
        code, out, err = run(capsys, "describe", "SU3", "--coeff", text)
        assert (code, out, err) == (
            EXIT_INPUT, "", f"input error: cannot parse coefficient profile {text!r}\n")

    def test_large_prime_answers(self, capsys):
        code, out, _err = run(capsys, "branch", "SU3", "--weight", "1,0",
                              "--coeff", "Fl:1000000000000000003")
        assert code == EXIT_OK
        assert out.startswith("unsupported decomposition: profile Fl:1000000000000000003 ")

    @pytest.mark.parametrize("ell,message", [
        ("1000000000000000001", "input error: profile needs a prime ell\n"),
        (str(2**64 + 13), f"input error: profile needs a prime ell below 2^64, got {2**64 + 13}\n"),
    ])
    def test_large_ell_refused(self, capsys, ell, message):
        code, out, err = run(capsys, "branch", "SU3", "--weight", "1,0", "--coeff", "Fl:" + ell)
        assert (code, out, err) == (EXIT_INPUT, "", message)

    @pytest.mark.parametrize("argv", [
        ["tensor", "SL2", "1;1", "1"],
        ["tensor", "SU3", "1;0", "1"],
        ["tensor", "SU3", "1", "1;0"],
    ])
    def test_tensor_rejects_malformed_classes(self, capsys, argv):
        """X^*(s)_I has no torsion coordinate for SL2 or SU3, so a class
        with one is an input error, as it is for mv."""
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "input error: class does not match this presentation\n"

    def test_tensor_modular_refusal_precedes_class_check(self, capsys):
        code, out, _err = run(capsys, "tensor", "SU3", "1;0", "1", "--coeff", "Fl:2")
        assert code == EXIT_OK
        assert out.startswith("unsupported decomposition: ")


class TestDominantImage:
    def test_su3_exact_image(self, capsys):
        code, out, _ = run(capsys, "dominant-image", "SU3", "--bound", "10")
        assert code == EXIT_OK
        line = [l for l in out.splitlines() if l.startswith("image")][0]
        assert line == "image: {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}"
        assert "surjective within bound: False" in out

    def test_psu3_saturates(self, capsys):
        code, out, _ = run(capsys, "dominant-image", "PSU3", "--bound", "4")
        assert code == EXIT_OK
        assert "image: {0, 1, 2, 3, 4}" in out
        assert "surjective within bound: True" in out


class TestCorr:
    def test_full_levi(self, capsys):
        code, out, _ = run(capsys, "corr", "SU3", "--levi", "all", "--vector", "1,0")
        assert code == EXIT_OK
        assert "corr = 0" in out

    def test_torus_levi(self, capsys):
        code, out, _ = run(capsys, "corr", "SU3", "--levi", "none", "--vector", "1,0")
        assert code == EXIT_OK
        assert "corr = 2" in out

    @pytest.mark.parametrize("levi", ["x", "0,x", "1.0"])
    def test_unparsable_levi_is_named(self, capsys, levi):
        code, out, err = run(capsys, "corr", "SU3", "--levi", levi, "--vector", "1,0")
        assert (code, out, err) == (EXIT_INPUT, "", f"input error: cannot parse --levi {levi!r}\n")


class TestVerify:
    def test_su3_all(self, capsys):
        code, out, _ = run(capsys, "verify", "SU3", "all")
        assert code == EXIT_OK
        assert "pass:" in out

    def test_pgl2_exactness_records_cokernel(self, capsys):
        code, out, _ = run(capsys, "verify", "PGL2", "exactness")
        assert code == EXIT_OK
        assert "Z/2" in out

    def test_json_records(self, capsys):
        code, out, _ = run(capsys, "verify", "SL2", "orbits", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["result"]["passed"] is True

    def test_pinning_violation_fails_suite(self, capsys, tmp_path):
        bad = {
            "base": {
                "rank": 2,
                "simple_roots": [[2, -1], [-1, 2]],
                "simple_coroots": [[1, 0], [0, 1]],
            },
            # Swap matrix with the identity permutation: pinning violated.
            "generators": [{"lattice_map": [[0, 1], [1, 0]], "root_permutation": [0, 1]}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "verify", "--file", str(path), "all")
        assert code == EXIT_PROPERTY
        assert "FAIL" in out


class TestFileInput:
    def test_valid_file(self, capsys, tmp_path):
        datum = {
            "name": "user-su3",
            "base": {
                "rank": 2,
                "simple_roots": [[2, -1], [-1, 2]],
                "simple_coroots": [[1, 0], [0, 1]],
            },
            "generators": [{"lattice_map": [[0, 1], [1, 0]], "root_permutation": [1, 0]}],
        }
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(datum))
        code, out, _ = run(capsys, "describe", "--file", str(path))
        assert code == EXIT_OK
        assert "coinvariants X_*(T)_I: Z" in out

    def test_malformed_json_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _out, err = run(capsys, "describe", "--file", str(path))
        assert code == EXIT_INPUT
        assert "line 1" in err

    def test_missing_field_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"base": {"rank": 1, "simple_roots": []}}))
        code, _out, err = run(capsys, "describe", "--file", str(path))
        assert code == EXIT_INPUT
        assert "simple_coroots" in err


_SU3_BASE = {"rank": 2, "simple_roots": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}
_SU3_FLIP = {"lattice_map": [[0, 1], [1, 0]], "root_permutation": [1, 0]}

# (file contents, the field its one error line must name)
MALFORMED_FILES = {
    "float-roots": ({"name": "x", "base": {"rank": 1, "simple_roots": [[2.9]],
                                           "simple_coroots": [[1.2]]}},
                    "base.simple_roots[0][0]"),
    "float-rank": ({"base": dict(_SU3_BASE, rank=2.7), "generators": [_SU3_FLIP]}, "base.rank"),
    "float-lattice-map": ({"base": _SU3_BASE, "generators": [
        dict(_SU3_FLIP, lattice_map=[[0, 1.9], [1, 0]])]}, "generators[0].lattice_map[0][1]"),
    "float-root-permutation": ({"base": _SU3_BASE, "generators": [
        dict(_SU3_FLIP, root_permutation=[1.5, 0])]}, "generators[0].root_permutation[0]"),
    "bool-coroot": ({"base": dict(_SU3_BASE, simple_coroots=[[True, 0], [0, 1]])},
                    "base.simple_coroots[0][0]"),
    "string-rank": ({"base": dict(_SU3_BASE, rank="2")}, "base.rank"),
    "base-not-object": ({"base": 5}, "base"),
    "generators-not-list": ({"base": _SU3_BASE, "generators": 5}, "generators"),
    "generator-not-object": ({"base": _SU3_BASE, "generators": [5]}, "generators[0]"),
    "name-null": ({"name": None, "base": _SU3_BASE}, "name"),
    "name-list": ({"name": ["a"], "base": _SU3_BASE}, "name"),
    "name-number": ({"name": 3, "base": _SU3_BASE}, "name"),
    "negative-rank": ({"base": {"rank": -1, "simple_roots": [], "simple_coroots": []}},
                      "base.rank"),
}


@pytest.mark.parametrize("command", [["describe"], ["verify", "all"]], ids=" ".join)
@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_file_is_one_input_error(tmp_path, command, case):
    """A file whose fields have the wrong JSON type is refused with exit 2
    and one line naming the field: never truncated and answered, never a
    traceback."""
    doc, field = MALFORMED_FILES[case]
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    proc = run_cold(*command, "--file", str(path))
    assert proc.returncode == EXIT_INPUT, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"input error: {path}: ")
    assert proc.stderr.count("\n") == 1
    assert f"'{field}'" in proc.stderr


def test_non_square_lattice_map_is_refused_as_such(tmp_path):
    """The square check comes before the matrix order is computed, so the
    message says what is wrong rather than reporting a product mismatch."""
    path = tmp_path / "non-square.json"
    path.write_text(json.dumps({
        "base": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
        "generators": [{"lattice_map": [[1, 0]], "root_permutation": [0]}]}))
    proc = run_cold("describe", "--file", str(path))
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == f"input error: {path}: bad generator 0: lattice map must be square\n"


class TestExitCodes:
    def test_unknown_preset(self, capsys):
        code, _out, err = run(capsys, "describe", "NOPE")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("name", ["SU6", "SU(4)", "SU2"])
    def test_unknown_unitary_rank_quotes_only_the_name(self, capsys, name):
        code, out, err = run(capsys, "describe", name)
        assert (code, out, err) == (
            EXIT_INPUT, "", f"input error: unknown preset {name!r}: only odd unitary "
            "ranks >= 3 are provided (SU4 is a fixed preset)\n")

    def test_usage_error(self, capsys):
        code, _out, _err = run(capsys, "schubert", "SU3", "--bound", "x")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _out, _err = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_nonpositive_bound(self, capsys):
        code, _out, err = run(capsys, "schubert", "SU3", "--bound", "0")
        assert code == EXIT_INPUT
        assert "positive" in err

    def test_invariant_violation_is_internal_defect(self, capsys, monkeypatch):
        def broken(args, t):
            raise InvariantViolation("Freudenthal denominator must be positive")

        monkeypatch.setattr(cli, "cmd_branch", broken)
        code, out, err = run(capsys, "branch", "SU3", "--weight", "1,0")
        assert code == EXIT_DEFECT
        assert out == ""
        assert err == ("internal defect: InvariantViolation: "
                       "Freudenthal denominator must be positive\n")

    @pytest.mark.parametrize("argv", [
        ["schubert", "torus-rank-1", "--bound", "2"],
        ["dominant-image", "torus-rank-2", "--bound", "2"],
    ], ids=" ".join)
    def test_missing_coord_bound_names_the_flag(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1
        assert "--coord-bound" in err

    def test_enumeration_bound_is_input_error(self, capsys):
        """W(A10) has 39,916,800 elements, past the oracle's bound: a valid
        datum the suite cannot check, refused before any walk."""
        for suite in ("weyl-oracle", "all"):
            code, out, err = run(capsys, "verify", "SU11", suite)
            assert code == EXIT_INPUT
            assert out == ""
            assert err == "input error: Weyl group of order 39916800 exceeds bound 1000000\n"

    @pytest.mark.parametrize("buffering", ["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["describe", "SU4"], ["-h"]], ids=" ".join)
    def test_closed_stdout_exits_141_without_traceback(self, argv, buffering):
        """`twisted-satake describe SU4 | head -0`: the reader is gone before
        the answer is written (unbuffered) or flushed (buffered).  Help is
        written by argparse, which drops a failed write, so unbuffered help
        still exits 0."""
        src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "twisted_satake.cli", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        expected = 0 if argv == ["-h"] and buffering == "unbuffered" else cli.EXIT_PIPE
        assert (proc.returncode, proc.stderr) == (expected, b"")
        assert cli.EXIT_PIPE == 141


def _su7_file_datum():
    """SU7 written out by hand: the A6 Cartan columns as roots, the standard
    basis as coroots, and the flip of the diagram as the inertia generator."""
    n = 6
    cartan = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)]
              for i in range(n)]
    flip = [n - 1 - i for i in range(n)]
    return {
        "name": "SU7",
        "base": {
            "rank": n,
            "simple_roots": [[cartan[i][j] for i in range(n)] for j in range(n)],
            "simple_coroots": [[int(i == j) for i in range(n)] for j in range(n)],
        },
        "generators": [{
            "lattice_map": [[int(flip[j] == i) for j in range(n)] for i in range(n)],
            "root_permutation": flip,
        }],
    }


class TestFoldingFromDatum:
    """Folded data depend on the datum alone, whichever way it arrives."""

    def test_file_equal_to_su7_matches_preset(self, tmp_path):
        path = tmp_path / "su7.json"
        path.write_text(json.dumps(_su7_file_datum()))
        for rest in (["describe"], ["describe", "--format", "json"],
                     ["branch", "--weight", "1,0,0,0,0,0"],
                     ["branch", "--weight", "1,0,0,0,0,0", "--format", "json"]):
            from_file = run_cold(rest[0], "--file", str(path), *rest[1:])
            from_preset = run_cold(rest[0], "SU7", *rest[1:])
            assert from_file.returncode == from_preset.returncode == EXIT_OK, rest
            assert from_file.stdout == from_preset.stdout, rest
        assert "label=B3" in run_cold("describe", "--file", str(path)).stdout

    def test_cold_describe_su9_finishes(self):
        # The absolute Weyl group of SU9 has 9! elements; describe must not
        # enumerate it.
        proc = run_cold("describe", "SU9", "--format", "json", timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        fixed = json.loads(proc.stdout)["result"]["fixed_group"]
        assert fixed["label"] == "B4"
        assert fixed["folded_cartan"]["type"] == "B4"


class TestColdSU9Posets:
    """The bounded cone of SU9 is walked, not scanned, so these finish cold."""

    def test_schubert_su9_bound_12(self):
        proc = run_cold("schubert", "SU9", "--bound", "12", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["result"]["nodes"]) == 8

    def test_dominant_image_su9_bound_12(self):
        proc = run_cold("dominant-image", "SU9", "--bound", "12", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["result"]["dominant_cone"]) == 8


PARSE_CASES = [
    ["describe", "SU3", "--format", "json"],
    ["schubert", "SU3", "--bound", "4", "--coord-bound", "2"],
    ["mv", "SU3", "--mu", "1", "--lam", "2"],
    ["conv", "SU3", "--mu", "1", "--mu2", "1", "--lam", "2", "--lam2", "2"],
    ["branch", "SU5", "--weight", "1,0,0,1", "--coeff", "Fl:3"],
    ["tensor", "SL2", "1", "1", "--format", "json"],
    ["dominant-image", "SU3", "--bound", "5"],
    ["corr", "SU3", "--levi", "none", "--vector", "1,0"],
    ["verify", "--file", "x.json", "all"],
]

# The flags each command accepted without reading them, and `--format dot`
# everywhere but schubert: usage errors now.
COEFF, COORD, DOT = ["--coeff", "char0"], ["--coord-bound", "2"], ["--format", "dot"]
MV_ARGS = ["--mu", "1", "--lam", "1"]
CONV_ARGS = ["--mu", "1", "--mu2", "1", "--lam", "1", "--lam2", "1"]
REMOVED_FLAGS = [
    [command, "SU3", *extra, *flag]
    for command, extra, flags in (
        ("describe", [], [COORD, DOT]),
        ("schubert", [], [COEFF]),
        ("mv", MV_ARGS, [COEFF, COORD, DOT]),
        ("conv", CONV_ARGS, [COEFF, COORD, DOT]),
        ("branch", ["--weight", "1,0"], [COORD, DOT]),
        ("tensor", ["1", "1"], [COORD, DOT]),
        ("dominant-image", [], [COEFF, DOT]),
        ("corr", ["--vector", "1,0"], [COEFF, COORD, DOT]),
        ("verify", ["all"], [COEFF, COORD, DOT]),
    )
    for flag in flags
]

USAGE_ERRORS = REMOVED_FLAGS + [
    [],
    ["frobnicate"],
    ["--format", "json"],
    ["branch", "SU5"],
    ["schubert", "SU3", "--bound", "x"],
    ["verify", "SU3", "nope"],
    ["describe", "SU3", "--bogus"],
    ["tensor", "SL2"],
    ["describe", "SU3", "--format", "xml"],
]


def _subcommand_names(parser):
    (action,) = parser._subparsers._group_actions
    return list(action.choices)


class TestOneSubcommandParser:
    def test_each_command_takes_only_the_flags_it_reads(self):
        flags = {
            name: [flag for flag, _spec in arguments if flag.startswith("-")]
            for name, _help, arguments in cli.SUBCOMMANDS
        }
        assert sum(len(f) for f in flags.values()) == 34
        assert [name for name, f in flags.items() if "--coeff" in f] == \
            ["describe", "branch", "tensor"]
        assert [name for name, f in flags.items() if "--coord-bound" in f] == \
            ["schubert", "dominant-image"]

    def test_cases_cover_every_subcommand(self):
        assert [argv[0] for argv in PARSE_CASES] == [name for name, _h, _a in cli.SUBCOMMANDS]
        assert _subcommand_names(cli.build_parser()) == [argv[0] for argv in PARSE_CASES]

    @pytest.mark.parametrize("argv", PARSE_CASES, ids=[argv[0] for argv in PARSE_CASES])
    def test_namespace_matches_full_parser(self, argv):
        parser = cli.build_parser(argv)
        assert _subcommand_names(parser) == [argv[0]]
        assert parser.parse_args(argv) == cli.build_parser().parse_args(argv)

    @pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--format", "json"]])
    def test_no_known_command_builds_all(self, argv):
        assert _subcommand_names(cli.build_parser(argv)) == [argv[0] for argv in PARSE_CASES]

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [[argv[0], "-h"] for argv in PARSE_CASES])
    def test_help_matches_full_parser(self, argv, capsys):
        outputs = []
        for parser in (cli.build_parser(argv), cli.build_parser()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: twisted-satake")

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) or "empty" for a in USAGE_ERRORS])
    def test_usage_error_matches_full_parser(self, argv, capsys):
        with pytest.raises(cli.UsageExit) as exc:
            cli.build_parser().parse_args(argv)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"usage error: {exc.value}\n"

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["twisted-satake", "describe", "SL2"])
        assert main() == EXIT_OK
        assert "|I| 1" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The table parser against argparse

# A valid value for each argument, per subcommand where it differs; every
# plain argv built from these is a cheap answer or a cheap input error.
ARG_VALUES = {
    "preset": "SU3", "lam": "1", "mu": "1", "suite": "all",
    "--file": "no-such-datum.json", "--format": "json", "--coeff": "char0",
    "--bound": "2", "--coord-bound": "3", "--mu": "1", "--mu2": "1",
    "--lam": "2", "--lam2": "2", "--weight": "1,0", "--levi": "none",
    "--vector": "1,0",
}
COMMAND_VALUES = {"tensor": {"preset": "SL2"}}
OTHER_VALUES = {"--format": "table", "--coeff": "Fl:2", "--bound": "3", "--levi": "all",
                "suite": "orbits"}


def _value(command, name):
    return COMMAND_VALUES.get(command, {}).get(name, ARG_VALUES[name])


def _split(arguments):
    positionals = [name for name, _spec in arguments if not name.startswith("-")]
    options = [(name, spec) for name, spec in arguments if name.startswith("-")]
    return positionals, options


def plain_argvs(command, arguments, rng):
    """<command> <every positional> (--flag value)*: all options in table
    order, only the required ones, and random subsets in random order."""
    positionals, options = _split(arguments)
    head = [command] + [_value(command, name) for name in positionals]
    orders = [[f for f, _s in options], [f for f, spec in options if spec.get("required")]]
    for _ in range(8):
        chosen = [f for f, spec in options if spec.get("required") or rng.random() < 0.5]
        rng.shuffle(chosen)
        orders.append(chosen)
    argvs = []
    for flags in orders:
        argv = list(head)
        for flag in flags:
            argv += [flag, _value(command, flag)]
        argvs.append(argv)
    return argvs


def flat(pairs):
    return [token for pair in pairs for token in pair]


def mutated_argvs(command, arguments, argv, rng):
    """Shapes the table parser must leave to argparse, made from one plain
    argv whose options start after its positionals."""
    positionals, options = _split(arguments)
    n = 1 + len(positionals)
    head, pairs = argv[:n], [argv[i:i + 2] for i in range(n, len(argv), 2)]
    out = [head + flat(pairs[::-1])]
    if pairs:
        i = rng.randrange(len(pairs))
        flag, value = pairs[i]
        out += [
            head + flat(pairs[:i]) + [f"{flag}={value}"] + flat(pairs[i + 1:]),
            head + flat(pairs[:i]) + [flag[:-1], value] + flat(pairs[i + 1:]),
            head + flat(pairs[:i]) + [flag[:4], value] + flat(pairs[i + 1:]),
            argv + [flag, value],
            argv + [flag, OTHER_VALUES.get(flag, value)],
            head + flat(pairs[:i]) + [flag, "-1"] + flat(pairs[i + 1:]),
            head + flat(pairs[:i]) + [flag, "-1,0"] + flat(pairs[i + 1:]),
            head + flat(pairs[:i]) + [flag] + flat(pairs[i + 1:]),
            [command] + flat(pairs) + argv[1:n],
            argv[:1] + flat(pairs) + argv[1:n],
        ]
    for flag, spec in options:
        if spec.get("required"):
            out.append(head + flat(p for p in pairs if p[0] != flag))
        if spec.get("type") is int:
            out += [argv + [flag, "x"], argv + [flag, "1.5"], argv + [flag, "0"]]
        if "choices" in spec:
            out.append(argv + [flag, "xml"])
    for k, name in enumerate(positionals, start=1):
        out.append(argv[:k] + ["-2"] + argv[k + 1:])
        out.append(argv[:k] + argv[k + 1:])
        if name == "suite":
            out.append(argv[:k] + ["nope"] + argv[k + 1:])
    out += [argv + ["extra"], head + ["extra"] + argv[n:], argv + ["--bogus", "1"],
            [command.upper()] + argv[1:], argv[:1]]
    for k in range(1, len(argv) + 1):
        for token in ("-h", "--help", "--"):
            out.append(argv[:k] + [token] + argv[k:])
    return out


def corpus(command):
    """A seeded argv corpus for one subcommand: (plain argvs, other argvs)."""
    (arguments,) = [a for name, _h, a in cli.SUBCOMMANDS if name == command]
    rng = random.Random(f"cli-corpus:{command}")
    plain = plain_argvs(command, arguments, rng)
    others = [m for argv in plain[:4] for m in mutated_argvs(command, arguments, argv, rng)]
    return plain, others


COMMANDS = [name for name, _h, _a in cli.SUBCOMMANDS]


def argparse_vars(argv):
    """vars() of the full argparse Namespace, or None when argparse prints
    help or reports a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except (cli.UsageExit, SystemExit):
            return None


def main_outcome(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = ("SystemExit", e.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTableParser:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_plain_argvs_are_answered_from_the_table(self, command):
        plain, _others = corpus(command)
        for argv in plain:
            expected = argparse_vars(argv)
            assert expected is not None, argv
            assert cli._parse_plain(argv) == expected, argv

    @pytest.mark.parametrize("command", COMMANDS)
    def test_other_argvs_decline_or_agree(self, command):
        _plain, others = corpus(command)
        for argv in others:
            got = cli._parse_plain(argv)
            if got is not None:
                assert got == argparse_vars(argv), argv

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["--"], ["frobnicate"], ["--format", "json"],
        ["mv", "SU3", "--mu=-1", "--lam=1"], ["describe", "SU3", "--form", "json"],
        ["describe", "SU3", "--format", "json", "--format", "table"],
        ["schubert", "SU3", "--bound", "-1"], ["tensor", "SL2", "-1", "1"],
        ["verify", "all", "--file", "x.json"], ["describe", "--format", "json", "SU3"],
    ])
    def test_declines(self, argv):
        assert cli._parse_plain(argv) is None

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_matches_argparse_main(self, command, capsys, monkeypatch):
        plain, others = corpus(command)
        outcomes = [main_outcome(argv, capsys) for argv in plain + others]
        monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
        forced = [main_outcome(argv, capsys) for argv in plain + others]
        for argv, got, expected in zip(plain + others, outcomes, forced):
            assert got == expected, argv
        assert any(code == EXIT_OK for code, _out, _err in outcomes[:len(plain)])


def test_answers_load_no_argparse():
    """A fresh interpreter answers well-formed queries without importing
    argparse, gettext or locale, nor dataclasses and the introspection
    modules it pulls in; help still goes through argparse."""
    code = (
        "import contextlib, io, sys\n"
        "from twisted_satake.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    codes = [main(['schubert', 'SU3', '--bound', '2', '--format', 'json']),\n"
        "             main(['branch', 'SU3', '--weight', '1,0'])]\n"
        "print(codes, out.getvalue().splitlines()[-1])\n"
        "print(sorted(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "             if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0] V(1)", "[]", "[]"]
    help_proc = run_cold("-h")
    assert help_proc.returncode == 0
    assert help_proc.stdout.startswith("usage: twisted-satake")
