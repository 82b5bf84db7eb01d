"""Exact combinatorics of twisted affine Grassmannians.

Twisted root data with finite pinned inertia actions; coinvariant lattices
by Smith normal form; relative Weyl groups; dominance order, Schubert strata
and closure posets; fixed-point dual group descriptors with folded root
data; characteristic-zero character restriction, branching and convolution
decomposition.  All arithmetic is arbitrary-precision integers and exact
rationals.  The Iwahori-Weyl semidirect product is not exported: no command
reads it, and it is kept as a test oracle in
`tests/test_iwahori_weyl_reference.py`.
"""

from .abelian import (
    FgAbelianGroup,
    IntMatrix,
    QuotientPresentation,
    SmithDecomposition,
    membership_and_coordinates,
    quotient_group,
    smith_normal_form,
)
from .rootdatum import (
    BasedRootDatum,
    RhoData,
    dualize,
    full_root_system,
    rho_data,
    validate,
)
from .galois import (
    DiagramAutomorphism,
    TwistedRootDatum,
    average_map,
    coinvariants,
    coroot_coinvariants_exact_sequence,
    fundamental_coweight_pairing,
    kottwitz_components,
    relative_simple_roots,
    split_twisted,
)
from .weyl import (
    RelativeWeylGroup,
    WeylElement,
    relative_weyl,
)
from .coweights import (
    DominantClass,
    OrderCertificate,
    dominant_image_monoid,
    dominant_representative,
    enumerate_dominant_classes,
    is_dominant_class,
    leq,
)
from .dual import (
    CHAR0,
    CoefficientProfile,
    FoldedGroupDescriptor,
    RankOneCase,
    adjoint_quotient,
    classify_rank_one,
    dual_twisted,
    fixed_group_descriptor,
    parse_profile,
)
from .rep import (
    DecompositionResult,
    WeightMultiset,
    branch_to_fixed_group,
    decompose_tensor,
    irreducible_character,
    restrict_to_coinvariants,
    total_dimension,
    weight_rank,
)
from .satake import (
    MvCell,
    SchubertPoset,
    SchubertStratum,
    closure_poset,
    component_of,
    conv_cell,
    corr,
    mv_cell,
    parity_check,
    poset_to_dot,
    stratum,
)
from .presets import DEFAULT_PRESET_NAMES, default_presets, get_preset, preset

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
