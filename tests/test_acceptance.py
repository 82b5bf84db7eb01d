"""Acceptance criteria, one test per criterion, each printing a status line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact equality, and the stated per-item runtimes are
asserted.

Criterion 1's image clause pins the image of the dominant cone of SU3 under
the projection (a,b,c) -> a-c of the sum-zero lattice onto X_*(T)_I, within
rho-height 10: {0,2,3,...,10}.  The witness for the odd classes is the
dominant coweight (1,1,-2) -> 3.  An earlier pinned value {0,2,4,...,10} is
the image of the I-fixed dominant coweights (a,0,-a) -> 2a only, which is a
different map.  The projection is still not surjective (1 is missing); that
is covered by criterion 4.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from twisted_satake.abelian import dot
from twisted_satake.cli import main as cli_main
from twisted_satake.coweights import (
    dominant_image_monoid,
    enumerate_dominant_classes,
    is_dominant_class,
)
from twisted_satake.dual import (
    adjoint_quotient,
    classify_rank_one,
    fixed_group_descriptor,
    parse_profile,
)
from twisted_satake.galois import (
    coinvariants,
    coroot_coinvariants_exact_sequence,
    fundamental_coweight_pairing,
    kottwitz_components,
    relative_simple_roots,
)
from twisted_satake.presets import default_presets, get_preset, preset
from twisted_satake.rep import (
    branch_to_fixed_group,
    irreducible_character,
    total_dimension,
)
from twisted_satake.rootdatum import dominant_coweights_up_to_height, dualize, is_adjoint, rho_data
from twisted_satake.satake import component_of, conv_cell, mv_cell, parity_check, stratum
from twisted_satake.weyl import relative_weyl

from test_presets import ambient_embedding
from test_weyl_reference import (
    enumerate_absolute_weyl,
    fixed_weyl_subgroup,
    ref_act,
    relative_elements,
    relative_orbit,
)

ALL_PRESETS = [name for name, _e in default_presets()]
SEMISIMPLE_PRESETS = [n for n in ALL_PRESETS if not n.startswith("torus")]


def _kwargs(name, coord_bound=3):
    return {"coord_bound": coord_bound} if name.startswith("torus") else {}


class _Timer:
    def __init__(self, budget, label):
        self.budget = budget
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.monotonic() - self.start
        if exc_type is None:
            status = "PASS"
        else:
            status = "FAIL"
        print(f"{status} {self.label} ({self.elapsed:.2f}s)")
        return False


def _assert_budget(timer):
    assert timer.elapsed < timer.budget, (
        f"{timer.label}: {timer.elapsed:.2f}s exceeds {timer.budget}s"
    )


def test_criterion_01_class_map(capsys):
    """Criterion 1 (class-map clause): (a,b,c) -> a-c on 100 random elements."""
    with _Timer(1.0, "criterion 1 (coinvariant class map a-c, 100 random)") as tm:
        entry = get_preset("SU3")
        c = coinvariants(entry.twisted)
        rng = random.Random(20240808)
        for _ in range(100):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            v = (a, b, -a - b)
            assert c.class_of(ambient_embedding("SU3").to_internal(v)) == ((a - (-a - b),), ())
    _assert_budget(tm)


def test_criterion_01_image_true_value():
    """Companion: the verified exact image within the bound is {0} + {2..10},
    confirmed by an independent brute force in the ambient coordinates."""
    expected = [0] + list(range(2, 11))
    image = [c[0][0] for c in dominant_image_monoid(preset("SU3"), 20)]
    assert image == expected
    brute = set()
    for a in range(0, 22):
        for b in range(-21, 22):
            cc = -a - b
            if a >= b >= cc and a - cc <= 10:
                brute.add(a - cc)
    assert sorted(brute) == expected
    print("PASS criterion 1 companion (true image {0,2,3,...,10} double-checked)")


def test_criterion_01_image_pinned_set(capsys):
    """Criterion 1 (image clause), pinned expected set {0,2,3,...,10}.

    The dominant coweight (1,1,-2) maps to 3, so the image is not only the
    even classes {0,2,4,...,10}; those are the images of the I-fixed
    dominant coweights (a,0,-a) -> 2a.  Class 1 is missing, so the
    projection is not surjective; criterion 4 checks that.
    """
    with _Timer(1.0, "criterion 1 (dominant-image SU3 --bound 10, pinned set)") as tm:
        code = cli_main(["dominant-image", "SU3", "--bound", "10", "--format", "json"])
        out = capsys.readouterr().out
        print(out, end="")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["image"] == ["0"] + [str(n) for n in range(2, 11)], (
            "the image of the dominant cone within rho-height 10 is "
            "{0,2,3,...,10}: (1,1,-2) is dominant and maps to 3; "
            "{0,2,4,...,10} would be the image of the I-fixed coweights only"
        )
    _assert_budget(tm)


def test_criterion_02_exactness():
    """Criterion 2: the coinvariant coroot sequence is exact on every preset."""
    with _Timer(5.0, "criterion 2 (exact sequence, all presets)") as tm:
        for name in ALL_PRESETS:
            t = preset(name)
            data = coroot_coinvariants_exact_sequence(t)
            assert data.injective, name
            assert data.cokernel == data.pi1_coinvariants, name
            # Bounded brute-force coset count for finite component groups.
            pi1 = kottwitz_components(t)
            if pi1.is_finite and t.rank <= 3:
                c = coinvariants(t)
                found = {
                    component_of(t, c.class_of(v))
                    for v in itertools.product(range(-3, 4), repeat=t.rank)
                }
                assert len(found) == pi1.order(), name
    _assert_budget(tm)


def test_criterion_03_orbit_bijection():
    """Criterion 3: dominant classes biject with W0-orbits in height-12 balls
    on every preset of relative rank <= 2."""
    with _Timer(10.0, "criterion 3 (W0-orbit bijection, height <= 12)") as tm:
        for name in ALL_PRESETS:
            t = preset(name)
            if relative_simple_roots(t).relative_rank > 2:
                continue
            doms = enumerate_dominant_classes(t, 12, **_kwargs(name))
            w0 = relative_weyl(t)
            orbits = {relative_orbit(w0, d) for d in doms}
            assert len(orbits) == len(doms), name
            for orbit in orbits:
                dominant = [c for c in orbit if is_dominant_class(t, c) is not None]
                assert len(dominant) == 1, (name, orbit)
    _assert_budget(tm)


def test_criterion_04_adjoint_surjectivity():
    """Criterion 4: projection is onto the bounded dominant cone for PSU3 and
    every adjoint preset, and not onto for SU3."""
    with _Timer(2.0, "criterion 4 (adjoint surjectivity / SU3 failure)") as tm:
        adjoints = ["PSU3"] + [
            n for n in SEMISIMPLE_PRESETS if n != "PSU3" and is_adjoint(preset(n).base)
        ]
        assert "PSU3" in adjoints and len(adjoints) >= 3
        for name in adjoints:
            t = preset(name)
            assert dominant_image_monoid(t, 10) == enumerate_dominant_classes(t, 10), name
        su3 = preset("SU3")
        image = set(dominant_image_monoid(su3, 10))
        cone = set(enumerate_dominant_classes(su3, 10))
        assert image < cone
        assert ((1,), ()) in cone - image
    _assert_budget(tm)


def test_criterion_05_fundamental_coweight_pairing():
    """Criterion 5: <averaged fundamental coweight, beta> = 1/|orbit| on the
    orbit and 0 off it, exactly, on all adjoint presets."""
    with _Timer(1.0, "criterion 5 (fundamental coweight pairings)") as tm:
        adjoints = [n for n in SEMISIMPLE_PRESETS if is_adjoint(preset(n).base)]
        adjoints.append("SU4-adjoint")
        for name in adjoints:
            t = adjoint_quotient(preset("SU4")).adjoint if name == "SU4-adjoint" else preset(name)
            rel = relative_simple_roots(t)
            for orbit in rel.simple_orbit_list:
                for beta in range(t.base.num_simple):
                    expected = Fraction(1, len(orbit)) if beta in orbit else Fraction(0)
                    assert fundamental_coweight_pairing(t, orbit, beta) == expected, (name, orbit, beta)
    _assert_budget(tm)


def test_criterion_06_dimension_formulas():
    """Criterion 6: stratum dims on two independent lifts; cell-dimension
    additivity; half-pairing integrality whenever nonempty; height <= 12."""
    with _Timer(5.0, "criterion 6 (dimension formulas, height <= 12)") as tm:
        rng = random.Random(5)
        for name in ALL_PRESETS:
            t = preset(name)
            c = coinvariants(t)
            two_rho = rho_data(t.base).two_rho
            doms = enumerate_dominant_classes(t, 12, **_kwargs(name, 2))
            w0 = relative_weyl(t)
            ball = sorted({ref_act(t, w, d) for d in doms for w in relative_elements(w0)})
            from twisted_satake.galois import one_minus_gamma_columns

            rel_cols = one_minus_gamma_columns(t)
            for lam in doms:
                s = stratum(t, lam)
                lift1 = c.lift(lam)
                lift2 = list(lift1)
                for col in rel_cols:
                    coeff = rng.randint(-2, 2)
                    for i in range(t.rank):
                        lift2[i] += coeff * col[i]
                assert c.class_of(tuple(lift2)) == lam
                # <lift, 2rho> is lift-independent by I-invariance of 2rho.
                assert dot(lift1, two_rho) == s.dim, (name, lam)
                assert dot(tuple(lift2), two_rho) == s.dim, (name, lam)
            mv_table = {}
            for mu in ball:
                for lam in doms:
                    cell = mv_cell(t, mu, lam)
                    mv_table[(mu, lam)] = cell
                    if cell.nonempty:
                        half = (dot(c.lift(mu), two_rho) + dot(c.lift(lam), two_rho))
                        assert half % 2 == 0, (name, mu, lam)
                        assert cell.dim == half // 2
            pairs = list(mv_table.items())
            for _ in range(min(400, len(pairs) ** 2)):
                (mu, lam), cell1 = rng.choice(pairs)
                (mu2, lam2), cell2 = rng.choice(pairs)
                both = conv_cell(t, mu, mu2, lam, lam2)
                assert both.nonempty == (cell1.nonempty and cell2.nonempty)
                if both.nonempty:
                    assert both.dim == cell1.dim + cell2.dim
    _assert_budget(tm)


def test_criterion_07_rank_one_cases():
    """Criterion 7: rank-one classification and the ell=2 flag."""
    with _Timer(1.0, "criterion 7 (rank-one fixed groups, ell=2 flag)") as tm:
        assert classify_rank_one(preset("SL2xSL2-swap")).case == "A"
        assert classify_rank_one(preset("SL2xSL2-swap")).char0_fixed_group == "SL2"
        assert classify_rank_one(preset("PGL2")).case == "A"
        assert classify_rank_one(preset("PGL2")).char0_fixed_group == "SL2"
        assert classify_rank_one(preset("SU3")).case == "B"
        assert classify_rank_one(preset("SU3")).char0_fixed_group == "PGL2"
        f2 = parse_profile("Fl:2")
        for name in ALL_PRESETS:
            t = preset(name)
            rel = relative_simple_roots(t)
            has_pair = any(k == "adjacent-pair" for k in rel.orbit_type)
            desc = fixed_group_descriptor(t, f2)
            assert (desc.smooth_over_Z_ell == "no") == has_pair, name
        assert fixed_group_descriptor(preset("SU3"), f2).smooth_over_Z_ell == "no"
        assert fixed_group_descriptor(preset("SU5"), f2).smooth_over_Z_ell == "no"
    _assert_budget(tm)


def test_criterion_08_folded_weyl_oracle():
    """Criterion 8: folded Cartan Weyl orders match |W_abs^I| by brute force;
    named values 2 / 8 / 12 for the flip and triality families."""
    with _Timer(5.0, "criterion 8 (folded Weyl oracle)") as tm:
        named = {"SU3": 2, "SU4": 8, "Spin8-triality": 12}
        for name, order in named.items():
            assert len(fixed_weyl_subgroup(preset(name))) == order, name
        for name in ALL_PRESETS:
            t = preset(name)
            desc = fixed_group_descriptor(t)
            if desc.folded_cartan is None:
                continue
            folded_order = len(enumerate_absolute_weyl(desc.folded_cartan.datum))
            assert folded_order == len(fixed_weyl_subgroup(t)), name
            if name in named:
                assert folded_order == named[name]
    _assert_budget(tm)


def test_criterion_09_branching_conservation():
    """Criterion 9: branching reconstructs the restricted character,
    conserves dimension for 20 random weights of height <= 16;
    the two named decompositions reproduce."""
    with _Timer(10.0, "criterion 9 (branching conservation)") as tm:
        res = branch_to_fixed_group(preset("SL2xSL2-swap"), (1, 1))
        assert res.as_dict() == {((2,), ()): 1, ((0,), ()): 1}
        res = branch_to_fixed_group(preset("SU3"), (1, 0))
        assert res.as_dict() == {((1,), ()): 1}
        assert total_dimension(res.restriction) == 3

        rng = random.Random(99)
        for name in ALL_PRESETS:
            t = preset(name)
            desc = fixed_group_descriptor(t)
            if desc.folded_cartan is None:
                continue
            coord = 2 if name.startswith("torus") else None
            lams = dominant_coweights_up_to_height(dualize(t.base), 16, coord_bound=coord)
            sample = lams if len(lams) <= 20 else rng.sample(lams, 20)
            for lam in sample:
                result = branch_to_fixed_group(t, lam)
                rebuilt = {}
                for cls, m in result.summands:
                    char = irreducible_character(desc.folded_cartan.datum, cls[0])
                    for key, mult in char.entries:
                        rebuilt[(key, ())] = rebuilt.get((key, ()), 0) + m * mult
                assert rebuilt == result.restriction.as_dict(), (name, lam)
                dim_in = total_dimension(irreducible_character(t.base, lam))
                assert dim_in == total_dimension(result.restriction), (name, lam)
    _assert_budget(tm)


def test_criterion_10_parity_constancy():
    """Criterion 10: <., 2rho> mod 2 constant on every component, height <= 20."""
    with _Timer(2.0, "criterion 10 (parity constancy, height <= 20)") as tm:
        for name in ALL_PRESETS:
            t = preset(name)
            kwargs = _kwargs(name, 2)
            comps = {
                component_of(t, cls)
                for cls in enumerate_dominant_classes(t, 20, **kwargs)
            }
            for comp in comps:
                parity = parity_check(t, comp, 20, **kwargs)
                assert parity in (0, 1), (name, comp)
    _assert_budget(tm)
