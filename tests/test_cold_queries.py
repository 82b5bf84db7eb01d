"""Cold `branch` and `tensor` queries, each in a fresh interpreter.

The guard tests answer each query with `fractions.Fraction.__new__`
counting, and then with `suites._regular_orbit` and `suites._w0_orbit`, the
package's only group walks, raising: a cold query builds no Fraction and
walks no group orbit.  Every command but `verify`, on the five branch
presets, and `describe` on SU13 and SU17 (|W0| = 46,080 and 10,321,920) are
answered under the same refusal.  Cold `schubert`, `dominant-image` and
`corr` commands build no W0 either: they read heights and dominance from
the orbit rows alone, so they answer as before with `weyl.relative_weyl`
raising in every module that reads it.  A cold `corr` pairs the coweight
with one character and builds no coinvariant presentation: no
`galois.coinvariants` build, and it answers with `smith_normal_form`
raising in every module that reads it.  A cold
char-0 `tensor` computes exactly one folded character (one build of
`rep._dominant_character`), and a refused modular one computes none.
Builds are counted by wrapping the memo's underlying function.

A cold `dominant-image` builds neither the pi_1(G)_I presentation nor the
order inverse, which only the dominance order reads; a cold `schubert`
builds each once.  Cold `mv` and `conv` build no dominant cone, which only
the bounded enumeration reads, and run three Smith normal forms; a cold
`schubert` or `dominant-image` builds the cone once per datum it
enumerates.

The order test runs describe/branch/tensor queries in one interpreter,
forward and reversed, and requires each to print what it prints alone:
per-datum caches (validation among them) must not leak one query's state
into another's answer.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import twisted_satake
from twisted_satake.cli import main
from twisted_satake.presets import preset

GUARDED = [
    ["branch", "SU3", "--weight", "1,1"],
    ["branch", "SU4", "--weight", "1,0,1"],
    ["branch", "SU5", "--weight", "1,0,0,1", "--format", "json"],
    ["branch", "SL2xSL2-swap", "--weight", "1,2"],
    ["branch", "Spin8-triality", "--weight", "1,0,1,0"],
    ["tensor", "SU3", "1", "2"],
    ["tensor", "SU4", "1,0", "0,1"],
    ["tensor", "SU5", "1,0", "0,1", "--format", "json"],
    ["tensor", "SL2xSL2-swap", "1", "2"],
    ["tensor", "Spin8-triality", "1,0", "0,1"],
    ["branch", "SU11", "--weight", "1,0,0,0,0,0,0,0,0,0"],
    ["tensor", "SU3", "1", "2", "--coeff", "Fl:2", "--format", "json"],
]

# (class, absolute weight, tensor factors, cocharacter) per branch preset
_BRANCH_PRESET_ARGS = {
    "SU3": ("1", "1,1", ["1", "2"], "1,0"),
    "SU4": ("1,1", "1,0,1", ["1,0", "0,1"], "1,0,0"),
    "SU5": ("1,1", "1,0,0,1", ["1,0", "0,1"], "1,0,0,0"),
    "SL2xSL2-swap": ("1", "1,2", ["1", "2"], "1,0"),
    "Spin8-triality": ("1,2", "1,0,1,0", ["1,0", "0,1"], "1,0,0,0"),
}


def _every_command(name, lam, weight, factors, vector):
    neg = ",".join(str(-int(x)) for x in lam.split(","))
    return [
        ["describe", name],
        ["schubert", name, "--bound", "4"],
        ["mv", name, f"--mu={neg}", "--lam", lam],
        ["conv", name, f"--mu={neg}", "--mu2", lam, "--lam", lam, "--lam2", lam],
        ["branch", name, "--weight", weight],
        ["tensor", name, *factors],
        ["dominant-image", name, "--bound", "4"],
        ["corr", name, "--vector", vector],
    ]


CLOSURE_FREE = [
    argv for name, args in _BRANCH_PRESET_ARGS.items() for argv in _every_command(name, *args)
] + [["describe", "SU13"], ["describe", "SU17", "--format", "json"]]

_RUN = """
import contextlib, hashlib, io, json, sys
from twisted_satake.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps([out, COUNT()]))
"""

COUNT_FRACTIONS = """
import fractions
made = [0]
real_new = fractions.Fraction.__new__
def counting_new(cls, *args, **kwargs):
    made[0] += 1
    return real_new(cls, *args, **kwargs)
fractions.Fraction.__new__ = counting_new
COUNT = lambda: made[0]
"""

REFUSE_ENUMERATION = """
from twisted_satake import suites
def refuse(*args, **kwargs):
    raise AssertionError("a Weyl group was enumerated")
suites._regular_orbit = refuse
suites._w0_orbit = refuse
COUNT = lambda: 0
"""

REFUSE_W0 = """
import sys
import twisted_satake.cli
def refuse(*args, **kwargs):
    raise AssertionError("W0 was built")
for name, module in list(sys.modules.items()):
    if name.startswith("twisted_satake") and hasattr(module, "relative_weyl"):
        module.relative_weyl = refuse
COUNT = lambda: 0
"""

COUNT_CHARACTERS = """
from twisted_satake import rep
built = []
real = rep._dominant_character.__wrapped__
rep._dominant_character.__wrapped__ = lambda d, lam: built.append(lam) or real(d, lam)
COUNT = lambda: len(built)
"""


def run_fresh(prelude, queries):
    """([code, stdout] per query, counter) from one fresh interpreter."""
    src = os.path.dirname(os.path.dirname(twisted_satake.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", prelude + _RUN, json.dumps(queries)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def answer(argv):
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = main(list(argv))
    return [code, buf.getvalue()]


@pytest.mark.parametrize("argv", GUARDED, ids=" ".join)
def test_cold_query_builds_no_fraction(argv):
    results, made = run_fresh(COUNT_FRACTIONS, [argv])
    assert results == [answer(argv)]
    assert made == 0


@pytest.mark.parametrize("argv", GUARDED, ids=" ".join)
def test_cold_query_enumerates_no_weyl_group(argv):
    results, _ = run_fresh(REFUSE_ENUMERATION, [argv])
    assert results == [answer(argv)]
    assert results[0][0] == 0


@pytest.mark.parametrize("argv", CLOSURE_FREE, ids=" ".join)
def test_cold_command_builds_no_closure(argv):
    results, _ = run_fresh(REFUSE_ENUMERATION, [argv])
    assert results == [answer(argv)]
    assert results[0][0] == 0


W0_FREE = [argv for argv in CLOSURE_FREE if argv[0] in ("schubert", "dominant-image", "corr")]


@pytest.mark.parametrize("argv", W0_FREE, ids=" ".join)
def test_cold_schubert_command_builds_no_w0(argv):
    results, _ = run_fresh(REFUSE_W0, [argv])
    assert results == [answer(argv)]
    assert results[0][0] == 0


def test_w0_refusal_stops_mv():
    """The refusal reaches the chamber walk's reflection rows, so the guard
    above would see a command that built W0."""
    with pytest.raises(AssertionError, match="W0 was built"):
        run_fresh(REFUSE_W0, [["mv", "SU3", "--mu=-1", "--lam", "1"]])


COUNT_COINVARIANTS = """
from twisted_satake import galois
built = []
real = galois.coinvariants.__wrapped__
galois.coinvariants.__wrapped__ = lambda t: built.append(t) or real(t)
COUNT = lambda: len(built)
"""

REFUSE_SMITH = """
import sys
import twisted_satake.cli
def refuse(*args, **kwargs):
    raise AssertionError("a Smith normal form was computed")
for name, module in list(sys.modules.items()):
    if name.startswith("twisted_satake") and hasattr(module, "smith_normal_form"):
        module.smith_normal_form = refuse
COUNT = lambda: 0
"""

COLD_CORR = ["corr", "SU7", "--levi", "0", "--vector", "1,0,0,0,0,0"]


def test_cold_corr_builds_no_presentation():
    results, misses = run_fresh(COUNT_COINVARIANTS, [COLD_CORR])
    assert results == [[0, "corr = 0\n"]] == [answer(COLD_CORR)]
    assert misses == 0
    results, _ = run_fresh(REFUSE_SMITH, [COLD_CORR])
    assert results == [[0, "corr = 0\n"]]


def test_smith_refusal_stops_mv():
    """The refusal reaches the coinvariant presentation, so the guard above
    would see a `corr` that built one."""
    with pytest.raises(AssertionError, match="a Smith normal form was computed"):
        run_fresh(REFUSE_SMITH, [["mv", "SU7", "--mu=-1,0,0", "--lam", "1,0,0"]])


@pytest.mark.parametrize("suite", ["weyl-oracle", "orbits"])
def test_refusal_stops_verify(suite):
    """The refusal reaches the walks that `verify` reads, so the guards above
    would see a command that walked a group."""
    with pytest.raises(AssertionError, match="a Weyl group was enumerated"):
        run_fresh(REFUSE_ENUMERATION, [["verify", "SU3", suite]])


@pytest.mark.parametrize("argv", [argv for argv in GUARDED if argv[0] == "tensor"], ids=" ".join)
def test_cold_tensor_computes_one_character(argv):
    results, misses = run_fresh(COUNT_CHARACTERS, [argv])
    assert results == [answer(argv)]
    assert misses == (0 if "--coeff" in argv else 1)


FORM_BUILT = """
from twisted_satake.presets import preset
from twisted_satake.rootdatum import full_root_system
built = []
real = full_root_system.__wrapped__
full_root_system.__wrapped__ = lambda d: built.append(d) or real(d)
COUNT = lambda: [len(built) > 0, "form" in vars(full_root_system(preset("SU7").base))]
"""


@pytest.mark.parametrize("argv,built", [
    ([["schubert", "SU7", "--bound", "5"], ["describe", "SU7"]], False),
    ([["branch", "SU7", "--weight", "1,0,0,0,0,1"]], True),
], ids=["posets", "branch"])
def test_invariant_form_is_built_on_first_use(argv, built):
    """Cold `schubert` and `describe` build SU7's root system but not its
    invariant form, which only the Freudenthal recursion reads; a `branch`
    at the adjoint weight (not minuscule, so the recursion runs) builds it."""
    results, (had_records, form) = run_fresh(FORM_BUILT, argv)
    assert results == [answer(a) for a in argv]
    assert had_records and form is built


ORDER_BUILT = """
from twisted_satake import coweights, galois
built = []
real_inverse = coweights._scaled_inverse
def counting_inverse(rows):
    built.append(rows)
    return real_inverse(rows)
coweights._scaled_inverse = counting_inverse
presentations = []
real_presentation = galois.pi1_coinvariants_presentation.__wrapped__
galois.pi1_coinvariants_presentation.__wrapped__ = (
    lambda t: presentations.append(t) or real_presentation(t))
COUNT = lambda: [len(presentations), len(built)]
"""


@pytest.mark.parametrize("argv,built", [
    (["dominant-image", "SU7", "--bound", "3"], [0, 0]),
    (["schubert", "SU7", "--bound", "3"], [1, 1]),
], ids=["dominant-image", "schubert"])
def test_order_data_are_built_on_first_use(argv, built):
    """A cold `dominant-image` reads dominance and heights alone, so it
    builds neither SU7's pi_1(G)_I presentation nor the order inverse den
    A^-1 (`coweights._scaled_inverse`, which the cone reads from
    `rootdatum` under its own binding); a cold `schubert` builds each once."""
    results, counts = run_fresh(ORDER_BUILT, [argv])
    assert results == [answer(argv)]
    assert counts == built


CONE_BUILT = """
import sys
import twisted_satake.cli
from twisted_satake import abelian, rootdatum
calls = {"cone": 0, "smith": 0}
def counting(key, real):
    def call(*args, **kwargs):
        calls[key] += 1
        return real(*args, **kwargs)
    return call
reals = {"_dominant_cone": rootdatum._dominant_cone, "smith_normal_form": abelian.smith_normal_form}
wrapped = {"_dominant_cone": counting("cone", reals["_dominant_cone"]),
           "smith_normal_form": counting("smith", reals["smith_normal_form"])}
for name, module in list(sys.modules.items()):
    if name.startswith("twisted_satake"):
        for attr, real in reals.items():
            if getattr(module, attr, None) is real:
                setattr(module, attr, wrapped[attr])
COUNT = lambda: [calls["cone"], calls["smith"]]
"""


@pytest.mark.parametrize("argv,built", [
    (["mv", "SU7", "--mu=-1,0,0", "--lam", "2,2,1"], [0, 3]),
    (["conv", "SU7", "--mu=-1,0,0", "--mu2=-1,-1,-1", "--lam", "2,2,1", "--lam2", "1,1,1"], [0, 3]),
    (["schubert", "SU7", "--bound", "3"], [1, 4]),
    (["dominant-image", "SU7", "--bound", "3"], [2, 4]),
], ids=["mv", "conv", "schubert", "dominant-image"])
def test_cone_is_built_on_first_use(argv, built):
    """Cold `mv` and `conv` read no dominant cone: they call
    `rootdatum._dominant_cone` in no module and run 3 Smith normal forms
    (SU7's coinvariants, pi_1(G)_I and the order inverse).  `schubert`
    builds SU7's cone once, and `dominant-image` once for SU7 and once for
    its split base, whose dominant coweights it projects."""
    results, counts = run_fresh(CONE_BUILT, [argv])
    assert results == [answer(argv)]
    assert results[0][0] == 0
    assert counts == built


def _su3_file(tmp_path):
    t = preset("SU3")
    doc = {
        "name": "my-unitary-3",
        "base": {
            "rank": t.rank,
            "simple_roots": [list(r) for r in t.base.simple_roots],
            "simple_coroots": [list(c) for c in t.base.simple_coroots],
        },
        "generators": [
            {"lattice_map": g.lattice_map.row_list(), "root_permutation": list(g.root_permutation)}
            for g in t.generators
        ],
    }
    path = tmp_path / "su3-copy.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_answers_do_not_depend_on_query_order(tmp_path):
    path = _su3_file(tmp_path)
    queries = [argv for argv in GUARDED if "--coeff" not in argv and argv[1] != "SU11"]
    queries += [["describe", name] for name in ("SU3", "SU4", "SU5", "SL2xSL2-swap",
                                                "Spin8-triality", "SL2", "PGL2")]
    queries += [["describe", "--file", path], ["branch", "--file", path, "--weight", "1,1"],
                ["tensor", "--file", path, "1", "2", "--format", "json"]]
    alone = [run_fresh("COUNT = lambda: 0\n", [argv])[0][0] for argv in queries]
    forward, _ = run_fresh("COUNT = lambda: 0\n", queries)
    backward, _ = run_fresh("COUNT = lambda: 0\n", queries[::-1])
    assert forward == alone
    assert backward[::-1] == alone
    assert all(code == 0 for code, _out in alone)
