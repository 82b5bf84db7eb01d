"""The package's frozen value classes.

One instance of each of the 28 classes, built from presets, and of the
value classes the tests define (the oracle `IwahoriWeylElement`, and
`AmbientEmbedding`, which replays hand computations in Z^3 coordinates),
prints the repr `dataclasses` gave it (`value_reprs.txt`).  Instances are
keyed by class name, except the `Cell` records, which are keyed by the
query that returns them (`MvCell` for `mv_cell`, `ConvCell` for
`conv_cell`).  A class's
fields are its own annotations, in order.  Instances are frozen, compare
equal only to instances of their own class, hash over their compared
fields, take their defaults, refuse missing and unexpected arguments, and
still run their `__post_init__` checks.
"""

import functools
from pathlib import Path

import pytest

import twisted_satake as ts
from twisted_satake import (
    abelian,
    coweights,
    dual,
    galois,
    presets,
    rep,
    rootdatum,
    satake,
    suites,
    weyl,
)
from twisted_satake._value import field, frozen
from twisted_satake.abelian import DimensionMismatch, IntMatrix

from test_iwahori_weyl_reference import iw_translation
from test_presets import ambient_embedding

GOLDEN = dict(
    line.split("\t", 1)
    for line in (Path(__file__).with_name("value_reprs.txt")).read_text().splitlines()
)
MODULES = (abelian, coweights, dual, galois, presets, rep, rootdatum, satake, suites, weyl)
# Value classes the tests define, checked with the package's.
TEST_CLASSES = {"IwahoriWeylElement", "AmbientEmbedding"}


@functools.cache
def one_of_each():
    """Class name -> one instance, each reached the way a caller reaches it."""
    su3 = ts.preset("SU3")
    sl2 = ts.preset("SL2")
    lattice = ts.coinvariants(su3)
    dominant = ts.is_dominant_class(su3, lattice.class_of((1, 1)))
    poset = ts.closure_poset(su3, max_height=2)
    descriptor = ts.fixed_group_descriptor(su3)
    w0 = ts.relative_weyl(su3)
    values = [
        IntMatrix.identity(2),
        lattice.smith,
        lattice.quotient,
        lattice,
        dominant,
        ts.leq(su3, dominant.cls, dominant.cls),
        coweights._substrate(su3),
        ts.parse_profile("Fl:3"),
        descriptor.folded_cartan,
        descriptor,
        ts.classify_rank_one(su3),
        ts.adjoint_quotient(su3),
        su3.generators[0],
        su3,
        ts.relative_simple_roots(su3),
        ts.coroot_coinvariants_exact_sequence(su3),
        ambient_embedding("SU3"),
        ts.get_preset("SL2"),
        ts.irreducible_character(sl2.base, (1,)),
        ts.branch_to_fixed_group(su3, (1, 0)),
        su3.base,
        ts.validate(sl2.base),
        ts.full_root_system(su3.base),
        poset.strata[0],
        poset,
        suites.run_suite(sl2, "orbits")[0],
        w0.generators[0],
        w0,
        iw_translation(su3, lattice.class_of((0, 0))),
    ]
    return {type(value).__name__: value for value in values} | {
        "MvCell": ts.mv_cell(su3, dominant.cls, dominant.cls),
        "ConvCell": ts.conv_cell(su3, dominant.cls, dominant.cls, dominant.cls, dominant.cls),
    }


def fields(value):
    """The field names of a value class or instance, in declaration order."""
    return tuple((value if isinstance(value, type) else type(value)).__annotations__)


def copy_of(value, **changes):
    """A fresh instance with value's fields, some of them changed."""
    return type(value)(**{name: getattr(value, name) for name in fields(value)} | changes)


def cold(value):
    """A value-equal copy of a datum that carries none of its derived data
    (a twisted datum's base is copied too): what a test asks of it is
    computed afresh, as in a new process."""
    if isinstance(value, galois.TwistedRootDatum):
        return copy_of(value, base=cold(value.base))
    return copy_of(value)


def test_every_value_class_has_an_instance():
    classes = {
        name for module in MODULES for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__
        and "__value_repr__" in vars(obj)
    }
    assert len(classes) == 28
    assert classes | TEST_CLASSES == {type(value).__name__ for value in one_of_each().values()}
    assert set(one_of_each()) == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_repr_is_unchanged(name):
    assert repr(one_of_each()[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instances_are_frozen(name):
    value = one_of_each()[name]
    for attr in (*fields(value), "unrelated"):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
    for attr in fields(value):
        with pytest.raises(AttributeError):
            delattr(value, attr)
        assert hasattr(value, attr)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_copy_is_equal_and_hashes_alike(name):
    value = one_of_each()[name]
    twin = copy_of(value)
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)


def test_equal_fields_in_different_classes_are_unequal():
    @frozen
    class Left:
        a: int
        b: tuple = ()

    @frozen
    class Right:
        a: int
        b: tuple = ()

    assert Left(1) == Left(1) and Left(1) != Left(2)
    assert Left(1) != Right(1) and not Left(1) == Right(1)
    assert Left(1).__eq__(Right(1)) is NotImplemented
    assert coweights.OrderCertificate((1,)) == coweights.OrderCertificate((1,))
    assert coweights.OrderCertificate((1,)) != rootdatum.ValidityReport((1,))
    assert satake.SchubertStratum((1,), 2, ()) != satake.SchubertStratum((1,), 3, ())
    assert Left(1) != (1, ())


def test_uncompared_fields_leave_eq_and_hash_alone():
    m = IntMatrix.identity(2)
    assert weyl.WeylElement(m, (0,)) == weyl.WeylElement(m, (1,))
    assert hash(weyl.WeylElement(m, (0,))) == hash(weyl.WeylElement(m, (1,)))
    assert weyl.WeylElement(m) != weyl.WeylElement(IntMatrix(2, 2, (0, 1, 1, 0)))

    roots = one_of_each()["RootSystem"]
    other = copy_of(roots, coordinates={})
    assert other == roots and hash(other) == hash(roots)
    assert "coordinates" not in repr(other)

    result = one_of_each()["DecompositionResult"]
    bare = copy_of(result, restriction=None)
    assert bare == result and hash(bare) == hash(result)
    assert copy_of(result, summands=()) != result


def test_a_class_body_keeps_its_own_methods():
    @frozen
    class Keyed:
        a: int

        def __hash__(self):
            return 7

    assert hash(Keyed(1)) == 7 and Keyed(1) == Keyed(1) != Keyed(2)
    su3 = ts.preset("SU3")
    assert hash(su3) == hash((su3.base, su3.generators))
    assert str(dual.CHAR0) == "char0"
    assert repr(dual.CHAR0) == "CoefficientProfile(kind='char0', ell=None)"


def test_cached_properties_still_cache():
    lattice = one_of_each()["QuotientPresentation"]
    assert lattice.unit_lifts is lattice.unit_lifts


def test_defaults_apply():
    m = IntMatrix.identity(1)
    assert weyl.WeylElement(m).word == ()
    assert dual.CoefficientProfile("char0").ell is None
    assert suites.CheckResult("s", "n", True).detail == ""
    assert rep.DecompositionResult(()).restriction is None

    @frozen
    class Options:
        a: int
        b: tuple = field(default=(1,))
        c: str = field(default="c", compare=False, repr=False)

    assert Options(0) == Options(0, (1,), "other")
    assert repr(Options(0)) == f"{Options.__qualname__}(a=0, b=(1,))"
    assert fields(Options) == ("a", "b", "c")


def test_missing_or_unexpected_arguments_raise_type_error():
    with pytest.raises(TypeError):
        IntMatrix(2, 2)
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1,), extra=0)
    with pytest.raises(TypeError):
        IntMatrix(1, 1, (1,), 0)
    with pytest.raises(TypeError):
        weyl.WeylElement()
    assert IntMatrix(rows=1, cols=1, entries=(5,)) == IntMatrix(1, 1, (5,))


def test_post_init_checks_still_fire():
    with pytest.raises(DimensionMismatch):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="unknown coefficient profile"):
        dual.CoefficientProfile("char7")
    with pytest.raises(ValueError, match="char0 takes no prime"):
        dual.CoefficientProfile("char0", 3)
    with pytest.raises(ValueError, match="prime ell"):
        dual.CoefficientProfile("F_ell", 4)
    with pytest.raises(ValueError, match="divisibility chain"):
        abelian.FgAbelianGroup(0, (2, 3))
    with pytest.raises(DimensionMismatch, match="square"):
        galois.DiagramAutomorphism(IntMatrix(1, 2, (1, 0)), (0,))
    with pytest.raises(DimensionMismatch, match="square"):
        galois.DiagramAutomorphism.make([[1, 0]], (0,))
