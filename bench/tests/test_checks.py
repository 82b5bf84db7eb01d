"""Each checker accepts a right answer and rejects a perturbed one.

Right answers are built from the oracles (posets, relabelled by an
arbitrary unimodular change of basis, as the program's Smith-normal-form
coordinates would be) or written out by hand (branching of SU3)."""

import copy

import checks
import oracles as o
from data import DATA


def _label(vec):
    return ",".join(str(x) for x in vec)


def _poset_doc(dims, edges, relabel, component="0"):
    return {
        "nodes": [{"label": _label(relabel(u)), "dim": d, "component": component}
                  for u, d in sorted(dims.items())],
        "edges": [{"lower": _label(relabel(a)), "upper": _label(relabel(b))}
                  for a, b in sorted(edges)],
    }


def _su5_relabel(u):
    # partitions -> program coordinates through the unimodular [[1, 1], [0, 1]]
    return (u[0] + u[1], u[1])


def _su5_doc():
    dims, edges = o.su_poset(2, 6)
    return _poset_doc(dims, edges, _su5_relabel)


def test_su_poset_accepts_a_relabelled_oracle_poset():
    assert checks.check_su_poset(_su5_doc(), 2, 6) is None


def test_su_poset_rejects_an_extra_hasse_edge():
    doc = _su5_doc()
    doc["edges"].append({"lower": _label(_su5_relabel((0, 0))),
                         "upper": _label(_su5_relabel((1, 1)))})
    assert checks.check_su_poset(doc, 2, 6) is not None


def test_su_poset_rejects_a_dropped_stratum():
    doc = _su5_doc()
    dropped = _label(_su5_relabel((3, 0)))
    doc["nodes"] = [n for n in doc["nodes"] if n["label"] != dropped]
    doc["edges"] = [e for e in doc["edges"] if dropped not in (e["lower"], e["upper"])]
    assert checks.check_su_poset(doc, 2, 6) is not None


def test_su_poset_rejects_a_wrong_dimension():
    doc = _su5_doc()
    doc["nodes"][-1]["dim"] += 2
    assert checks.check_su_poset(doc, 2, 6) is not None


def test_poset_properties():
    doc = _su5_doc()
    assert checks.check_poset_properties(doc, 6) is None
    transitive = copy.deepcopy(doc)
    transitive["edges"].append({"lower": _label(_su5_relabel((0, 0))),
                                "upper": _label(_su5_relabel((1, 1)))})
    assert "not a cover" in checks.check_poset_properties(transitive, 6)
    flipped = copy.deepcopy(doc)
    edge = flipped["edges"][0]
    edge["lower"], edge["upper"] = edge["upper"], edge["lower"]
    assert checks.check_poset_properties(flipped, 6) is not None
    split = copy.deepcopy(doc)
    split["nodes"][-1]["component"] = "1"
    assert checks.check_poset_properties(split, 6) is not None


def test_chain_poset():
    dims, edges = o.chain_poset(4)
    doc = _poset_doc({(k,): d for k, d in dims.items()},
                     {((a,), (b,)) for a, b in edges}, lambda u: (-u[0],))
    assert checks.check_chain_poset(doc, 4) is None
    doc["edges"].pop()
    assert checks.check_chain_poset(doc, 4) is not None


def test_su3_dominant_image():
    cone = [str(k) for k in range(11)]
    image = [str(k) for k in range(11) if k != 1]
    good = {"dominant_cone": cone, "image": image, "surjective_within_bound": False}
    assert checks.check_su_dominant_image(good, DATA["SU3"], 1, 10) is None
    assert checks.check_su_dominant_image(dict(good, image=cone), DATA["SU3"], 1, 10)
    assert checks.check_su_dominant_image(dict(good, surjective_within_bound=True),
                                          DATA["SU3"], 1, 10)
    assert checks.check_su_dominant_image(dict(good, dominant_cone=cone[:-1]),
                                          DATA["SU3"], 1, 10)


# SU3: the fixed group is PGL2 with folded root 1 and coroot 2, and V(1,0)
# restricts to its 3-dimensional irreducible V(1).
SU3_FOLDED = checks.Folded([[1]], [[2]])
SU3_BRANCH = {"restriction": [["-1", 1], ["0", 1], ["1", 1]],
              "summands": [["1", 1]], "total_dimension": 3}


def test_branch():
    cartan = DATA["SU3"].cartan()
    assert checks.check_branch(SU3_BRANCH, cartan, (1, 0), SU3_FOLDED) is None
    wrong_mult = dict(SU3_BRANCH, summands=[["1", 2]])
    assert checks.check_branch(wrong_mult, cartan, (1, 0), SU3_FOLDED) is not None
    lopsided = dict(SU3_BRANCH, restriction=[["0", 2], ["1", 1]])
    assert "invariant" in checks.check_branch(lopsided, cartan, (1, 0), SU3_FOLDED)
    refusal = {"error": "restriction only", "restriction": SU3_BRANCH["restriction"]}
    assert checks.check_branch(refusal, cartan, (1, 0), SU3_FOLDED) is None
    short = {"error": "restriction only", "restriction": [["0", 1], ["1", 1]]}
    assert checks.check_branch(short, cartan, (1, 0), SU3_FOLDED) is not None


def test_tensor():
    good = {"summands": [["0", 1], ["1", 1], ["2", 1]]}   # V(1) x V(1) = V(2)+V(1)+V(0)
    assert checks.check_tensor(good, SU3_FOLDED, (1,), (1,)) is None
    assert checks.check_tensor({"summands": [["1", 1], ["2", 1]]}, SU3_FOLDED, (1,), (1,))
    assert checks.check_tensor({"summands": [["0", 1], ["1", 1], ["2", 2]]},
                               SU3_FOLDED, (1,), (1,))


def test_cells_and_corr():
    su5, g2 = DATA["SU5"], DATA["G2"]
    lam = (1, 1, 1, 1)
    want = o.su_mv_cell((1, 0, 0, 0), lam)
    assert checks.check_cell(su5, (1, 0, 0, 0), lam, want) is None
    assert checks.check_cell(su5, (1, 0, 0, 0), lam, (want[0], want[1] + 1)) is not None
    g2_lam = o.make_dominant(g2, (1, 1))
    g2_big = tuple(3 * x for x in g2_lam)
    assert checks.check_cell(g2, g2_big, g2_lam, (False, None)) is None
    assert checks.check_cell(g2, g2_big, g2_lam, (True, o.height(g2, g2_big))) is not None
    assert checks.check_conv((True, 9), (True, 4), (True, 5)) is None
    assert checks.check_conv((True, 9), (True, 4), (False, None)) is not None
    value = o.corr(su5, (1,), (1, 2, 0, 0))
    assert checks.check_corr(su5, (1,), (1, 2, 0, 0), value) is None
    assert checks.check_corr(su5, (1,), (1, 2, 0, 0), value + 1) is not None


def test_describe_and_suites():
    good = {"relative_weyl_order": 8, "pi1_free_rank": 0, "pi1_torsion": [],
            "folded_cartan": [[2, -1], [-2, 2]]}
    assert checks.check_describe(DATA["SU5"], good) is None
    assert checks.check_describe(DATA["SU5"], dict(good, relative_weyl_order=4))
    assert checks.check_describe(DATA["SU5"], dict(good, pi1_torsion=[2]))
    assert checks.check_suite([("a", "b", True)]) is None
    assert checks.check_suite([("a", "b", True), ("a", "c", False)]) is not None
