"""The three workloads: seeded query lists, how each query runs, and how its
answer is checked.

A round is one fixed-shape list of queries: one query from each cost class
("stratum"), then shuffled.  The shape never depends on the seed.  A cold
stratum is a list of ROUNDS_MAX or more distinct inputs sorted by cost;
round r asks the input `walk(stratum, offset, r)`, where the seed sets the
offset.  The walk steps through the list by a stride near m/phi, so a run of
consecutive rounds samples each stratum's cost range evenly whatever the
seed, and no cold query repeats within a run of at most ROUNDS_MAX rounds.
The failing tensor queries alone do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import resource
import time

import checks
import oracles as o
from data import DATA, su_half_rank

ROUNDS_MAX = 17   # the length of the shortest cold stratum


def walk(stratum, offset, index):
    """Input `index` of the walk through a cost-sorted stratum."""
    m = len(stratum)
    stride = int(m * 0.618)
    while math.gcd(stride, m) != 1:
        stride += 1
    return stratum[(offset + index * stride) % m]


def _offsets(seed, strata):
    rng = random.Random(f"offsets:{seed}")
    return [rng.randrange(len(stratum)) for stratum in strata]


def _fmt(vec):
    return ",".join(str(x) for x in vec)


# ---------------------------------------------------------------------------
# posets-cli: schubert and dominant-image through cli.main, one cold child each

def _bounds(command, preset, bounds):
    return tuple((command, preset, b) for b in bounds)


POSET_STRATA = tuple(
    _bounds("schubert", preset, bounds)
    for preset in ("SU3", "PSU3", "SL2xSL2-swap")
    for bounds in (range(2, 19), range(19, 36), range(36, 53))
) + tuple(
    _bounds("schubert", preset, range(2, 19)) for preset in ("SU4", "SU5", "Spin8-triality")
) + (
    # box scans on the larger unitary groups, in order of cost
    (("dominant-image", "SU5", 2), ("dominant-image", "SU5", 3), ("dominant-image", "SU5", 4),
     ("schubert", "SU7", 2), ("dominant-image", "SU7", 2), ("schubert", "SU7", 3),
     ("dominant-image", "SU5", 6), ("schubert", "SU7", 4), ("dominant-image", "SU5", 8),
     ("schubert", "SU9", 2), ("dominant-image", "SU7", 3), ("schubert", "SU7", 5),
     ("schubert", "SU9", 3), ("dominant-image", "SU9", 2), ("dominant-image", "SU5", 10),
     ("schubert", "SU7", 6), ("schubert", "SU7", 7)),
    _bounds("dominant-image", "SU3", range(4, 103, 6)),
)


def posets_round(seed, index, _context):
    rng = random.Random(f"{seed}:{index}")
    queries = []
    for stratum, offset in zip(POSET_STRATA, _offsets(seed, POSET_STRATA)):
        command, preset, bound = walk(stratum, offset, index)
        argv = [command, preset, "--bound", str(bound), "--format", "json"]
        queries.append({"argv": argv, "preset": preset, "bound": bound})
    rng.shuffle(queries)
    return queries


def check_posets_answer(query, doc, _context):
    result = doc["result"]
    preset, bound = query["preset"], query["bound"]
    n = su_half_rank(preset)
    if query["argv"][0] == "dominant-image":
        return checks.check_su_dominant_image(result, DATA[preset], n, bound)
    if n is not None:
        return checks.check_su_poset(result, n, bound)
    if preset in ("PSU3", "SL2xSL2-swap"):
        return checks.check_chain_poset(result, bound)
    return checks.check_poset_properties(result, bound)


# ---------------------------------------------------------------------------
# branching-cli: branch and tensor through cli.main, one cold child each

BRANCH_PRESETS = ("SU3", "SU4", "SU5", "SL2xSL2-swap", "Spin8-triality")
MODULAR_PRESETS = ("SU3", "SU4", "SU5", "Spin8-triality")
MODULAR_PROFILES = ("Fl:2", "Zl:2", "Fl:3", "Zl:3", "Fl:5", "Zl:5")


def weights_by_dimension(preset):
    """Nonzero dominant weights (labels) of the absolute datum in a box,
    sorted by Weyl dimension."""
    cartan = DATA[preset].cartan()
    box = range(9) if len(cartan) == 2 else range(5)
    weights = [w for w in itertools.product(box, repeat=len(cartan)) if any(w)]
    return sorted(weights, key=lambda w: (o.weyl_dimension(cartan, w), w))


def branch_strata():
    """(preset, coefficient profile or None for char0, inputs) per stratum:
    the 51 smallest weights of each datum in three char0 strata, and the
    17 smallest under cycling modular profiles."""
    strata = []
    for preset in BRANCH_PRESETS:
        weights = weights_by_dimension(preset)
        for k in range(3):
            chunk = weights[k * ROUNDS_MAX:(k + 1) * ROUNDS_MAX]
            strata.append((preset, tuple((w, "char0") for w in chunk)))
    for preset in MODULAR_PRESETS:
        weights = weights_by_dimension(preset)[:ROUNDS_MAX]
        strata.append((preset, tuple((w, MODULAR_PROFILES[i % len(MODULAR_PROFILES)])
                                     for i, w in enumerate(weights))))
    return tuple(strata)


BRANCH_STRATA = branch_strata()


def tensor_candidates(folded, box=8):
    """The ROUNDS_MAX unordered pairs of nonzero dominant folded weights
    with the smallest dim V(a) * dim V(b)."""
    rank = len(folded.roots[0])
    weights = [w for w in itertools.product(range(-box, box + 1), repeat=rank)
               if any(w) and folded.is_dominant(w)]
    pairs = sorted(itertools.combinations_with_replacement(sorted(weights), 2),
                   key=lambda ab: (folded.dim(ab[0]) * folded.dim(ab[1]), ab))
    return tuple(pairs[:ROUNDS_MAX])


def failing_tensor_queries(index):
    """Round `index`'s two modular tensor queries: they do not depend on the
    seed, and the refusal escapes cli.main as an exception."""
    return (["tensor", "SU3", str(index + 1), "1", "--coeff", "Fl:2", "--format", "json"],
            ["tensor", "SU3", "1", str(index + 2), "--coeff", "Zl:3", "--format", "json"])


def branching_round(seed, index, folded):
    rng = random.Random(f"{seed}:{index}")
    tensor_strata = tuple((p, tensor_candidates(folded[p])) for p in BRANCH_PRESETS)
    strata = BRANCH_STRATA + tensor_strata
    queries = []
    for (preset, stratum), offset in zip(strata, _offsets(seed, [s for _p, s in strata])):
        x, y = walk(stratum, offset, index)
        if isinstance(y, str):
            argv = ["branch", preset, "--weight", _fmt(x), "--coeff", y, "--format", "json"]
            queries.append({"argv": argv, "preset": preset, "weight": x})
        else:
            a, b = (y, x) if rng.random() < 0.5 else (x, y)
            argv = ["tensor", preset, _fmt(a), _fmt(b), "--format", "json"]
            queries.append({"argv": argv, "preset": preset, "a": a, "b": b})
    for argv in failing_tensor_queries(index):
        queries.append({"argv": argv, "preset": argv[1], "refusal": True})
    rng.shuffle(queries)
    return queries


def check_branching_answer(query, doc, folded):
    result = doc["result"]
    f = folded[query["preset"]]
    if query.get("refusal"):
        return None if "error" in result else "modular decomposition was not refused"
    if query["argv"][0] == "branch":
        return checks.check_branch(result, DATA[query["preset"]].cartan(), query["weight"], f)
    return checks.check_tensor(result, f, query["a"], query["b"])


def describe_folded(run_cli):
    """The folded root data `describe` reports, asked in cold children."""
    folded = {}
    for preset in BRANCH_PRESETS:
        outcome = run_cli(["describe", preset, "--format", "json"])
        cartan = json.loads(outcome["out"])["result"]["fixed_group"]["folded_cartan"]
        folded[preset] = checks.Folded(cartan["simple_roots"], cartan["simple_coroots"])
    return folded


# ---------------------------------------------------------------------------
# Cold CLI queries


def cli_query(argv):
    """Run one CLI query in this (forked) process: the exit code and stdout,
    or the exception that escaped cli.main."""
    from twisted_satake import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # an escaped exception is the failure being counted
        return {"code": None, "exception": type(e).__name__, "out": out.getvalue()}
    return {"code": code, "out": out.getvalue()}


def judge_cli(query, outcome, check, context):
    """(failed, error): failed when the query did not end with a documented
    exit code; error when a finished answer is wrong."""
    if outcome["code"] is None:
        return True, None
    if query.get("refusal"):
        # a refusal must end with a documented code and no traceback
        if outcome["code"] == 2:
            return False, None
        if outcome["code"] != 0:
            return True, None
    elif outcome["code"] != 0:
        return True, None
    try:
        doc = json.loads(outcome["out"])
    except json.JSONDecodeError:
        return False, f"{' '.join(query['argv'])}: output is not JSON"
    err = check(query, doc, context)
    return False, (f"{' '.join(query['argv'])}: {err}" if err else None)


# ---------------------------------------------------------------------------
# library-session: one warm process walks the library API

SESSION_DATA = ("SU3", "SU5", "SU7", "Spin8-triality", "PSU3", "SL2xSL2-swap",
                "SU4", "G2", "Sp4", "torus-rank-2")
SESSION_COUNTS = {"mv": 40, "conv": 20, "corr": 80}   # per datum; each conv adds its 2 mv halves
NO_SUITE = ("SU7",)


def _random_coweight(d, rng, box):
    return tuple(rng.randint(-box, box) for _ in range(d.rank))


def _conjugate(d, rng, x, steps=6):
    """A W-conjugate of x by a random word in the simple reflections."""
    for _ in range(steps if d.num_simple else 0):
        x = o.reflect(d, rng.randrange(d.num_simple), x)
    return x


def _dominant(d, rng, box):
    return o.make_dominant(d, _random_coweight(d, rng, box))


def session_round(seed, index, _context):
    """Per datum: describe, then the shuffled point queries, then the suites.
    Coweights are absolute; the class map runs inside the timed query."""
    rng = random.Random(f"{seed}:{index}")
    queries = []
    for name in SESSION_DATA:
        d = DATA[name]
        n_orbits = len(o.simple_orbits(d)[0])
        point = []
        for _ in range(SESSION_COUNTS["mv"]):
            lam = _dominant(d, rng, 3)
            mu = _conjugate(d, rng, _dominant(d, rng, 3))
            point.append(("mv", name, mu, lam))
        for _ in range(SESSION_COUNTS["conv"]):
            halves = [(_conjugate(d, rng, _dominant(d, rng, 2)), _dominant(d, rng, 2))
                      for _ in range(2)]
            point.append(("conv", name, halves[0][0], halves[1][0], halves[0][1], halves[1][1]))
            point.extend(("mv", name, mu, lam) for mu, lam in halves)
        for _ in range(SESSION_COUNTS["corr"]):
            levi = tuple(i for i in range(n_orbits) if rng.random() < 0.5)
            point.append(("corr", name, levi, _random_coweight(d, rng, 4)))
        rng.shuffle(point)
        queries.append(("describe", name))
        queries.extend(point)
        if name not in NO_SUITE:
            queries.append(("suite", name))
    return queries


def session_answer(query):
    """Answer one session query through the library API, as plain data."""
    import twisted_satake as ts
    from twisted_satake import suites

    kind, name = query[0], query[1]
    t = ts.preset(name)
    if kind == "describe":
        desc = ts.fixed_group_descriptor(t)
        w0 = ts.relative_weyl(t)
        pi1 = ts.kottwitz_components(t)
        folded = desc.folded_cartan.datum.cartan_matrix() if desc.folded_cartan else None
        return {"relative_weyl_order": w0.order, "pi1_free_rank": pi1.free_rank,
                "pi1_torsion": list(pi1.invariant_factors),
                "folded_cartan": [list(r) for r in folded] if folded else None}
    if kind == "suite":
        return [(r.suite, r.name, r.passed) for r in suites.run_suite(t, "all")]
    c = ts.coinvariants(t)
    if kind == "mv":
        cell = ts.mv_cell(t, c.class_of(query[2]), c.class_of(query[3]))
        return [cell.nonempty, cell.dim]
    if kind == "conv":
        mu, mu2, lam, lam2 = (c.class_of(x) for x in query[2:])
        cell = ts.conv_cell(t, mu, mu2, lam, lam2)
        return [cell.nonempty, cell.dim]
    return ts.corr(t, query[2], query[3])


def run_session(queries):
    """The whole session in this (forked) process: answers and latencies."""
    answers, latencies = [], []
    for q in queries:
        t0 = time.perf_counter()
        answers.append(session_answer(q))
        latencies.append(time.perf_counter() - t0)
    return {"answers": answers, "latencies": latencies,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def check_session(queries, answers):
    """Every answer against the oracles; conv cells also against the mv
    answers of their two halves in the same session."""
    mv_seen = {}
    for q, a in zip(queries, answers):
        if q[0] == "mv":
            mv_seen[(q[1], q[2], q[3])] = a
    for q, a in zip(queries, answers):
        d = DATA[q[1]]
        if q[0] == "describe":
            err = checks.check_describe(d, a)
        elif q[0] == "suite":
            err = checks.check_suite(a)
        elif q[0] == "mv":
            err = checks.check_cell(d, q[2], q[3], a)
        elif q[0] == "conv":
            err = checks.check_conv(a, mv_seen[(q[1], q[2], q[4])], mv_seen[(q[1], q[3], q[5])])
        else:
            err = checks.check_corr(d, q[2], q[3], a)
        if err:
            return f"{q[0]} {q[1]} {q[2:]}: {err}"
    return None
