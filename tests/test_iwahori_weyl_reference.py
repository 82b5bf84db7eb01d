"""The Iwahori-Weyl group X_*(T)_I x| W0, kept as a test oracle.

No command or `verify` suite reads the Iwahori-Weyl product, so it left the
package.  The code below is `IwahoriWeylElement`, `iw_translation`,
`iw_multiply`, `iw_inverse` and `iw_affine_action` as they stood in
`weyl.py`, unchanged but for members that left the package too:
`w.inverse_matrix` is `ref_inverse_unimodular(w.matrix)`, the Fraction
Gauss-Jordan of `test_linalg_reference.py`; the presentation's `add` is the
normal form of the summed class coordinates; and `_descend`, the normal
form of the descended matrix applied to a class, is kept below as it stood
in `weyl.py`.
`iw_identity` was `iw_translation(t, zero class)` and is not kept.  The product is (w1, l1)(w2, l2) = (w1 w2, w2^{-1} l1 + l2),
and the group acts on the rational apartment on the right, a translation
class mu moving a point p to p - mu.  Both read W0 through the package's
descended matrices (`weyl._descended`), so the group laws
checked in `test_weyl.py::TestIwahoriWeyl` and the comparison with the
lift -> apply -> class_of action in
`test_weyl_reference.py::test_iwahori_weyl_matches_reference` keep those
maps honest.  An element is still a frozen value with the repr it had in
the package, checked with the package's value classes in `test_value.py`.
"""

from __future__ import annotations

from fractions import Fraction

from twisted_satake._value import frozen
from twisted_satake.abelian import DimensionMismatch, IntMatrix, dot, vec_add
from twisted_satake.galois import TwistedRootDatum, coinvariants
from twisted_satake.weyl import WeylElement, _descended

from test_linalg_reference import ref_inverse_unimodular


def _descend(t: TwistedRootDatum, m: IntMatrix, cls):
    """The normal form of the class m sends cls to."""
    p = coinvariants(t)
    return p.normal_form(_descended(t, m).apply(p.coordinates(cls)))


@frozen
class IwahoriWeylElement:
    """(finite part, translation class) in W_a x| X_*(T)_I."""

    datum: TwistedRootDatum
    finite: WeylElement
    translation: tuple  # coinvariant normal form


def iw_translation(t: TwistedRootDatum, cls) -> IwahoriWeylElement:
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=IntMatrix.identity(t.rank), word=()),
        translation=cls,
    )


def iw_multiply(x: IwahoriWeylElement, y: IwahoriWeylElement) -> IwahoriWeylElement:
    """(w1, l1)(w2, l2) = (w1 w2, w2^{-1} l1 + l2)."""
    if x.datum != y.datum:
        raise DimensionMismatch("elements live over different twisted data")
    t = x.datum
    c = coinvariants(t)
    moved = _descend(t, ref_inverse_unimodular(y.finite.matrix), x.translation)
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=x.finite.matrix.mul(y.finite.matrix)),
        translation=c.normal_form(vec_add(c.coordinates(moved), c.coordinates(y.translation))),
    )


def iw_inverse(x: IwahoriWeylElement) -> IwahoriWeylElement:
    t = x.datum
    c = coinvariants(t)
    moved = _descend(t, x.finite.matrix, x.translation)
    return IwahoriWeylElement(
        datum=t,
        finite=WeylElement(matrix=ref_inverse_unimodular(x.finite.matrix)),
        translation=c.neg(moved),
    )


def iw_affine_action(x: IwahoriWeylElement, point):
    """Right action on the rational apartment (free coinvariant coordinates):
    p -> w^{-1}(p) - mu, so a pure translation class mu sends p to p - mu.
    w^{-1} acts through the free block of its descended map."""
    t = x.datum
    r = coinvariants(t).quotient.free_rank
    point = tuple(Fraction(p) for p in point)
    if len(point) != r:
        raise DimensionMismatch("point has wrong dimension for the apartment")
    a = _descended(t, ref_inverse_unimodular(x.finite.matrix))
    moved = (dot(a.row(i)[:r], point) for i in range(r))
    return tuple(m - Fraction(f) for m, f in zip(moved, x.translation[0]))

