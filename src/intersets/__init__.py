"""Exact integer-set algebra, h-fold sumsets, and layered-family reports.

The package works over a small symbolic term language (finite, cofinite,
congruence, tail, half-tail and their unions, intersections, and affine
images) so that infinite sets stay exact, falls back to windowed bitset
enumeration when no closed form applies, and reports which fold counts h
make the h-fold sumset of a family's limit equal the intersection of the
layer sumsets.
"""

from .analyzer import (
    CERTIFIED_IN,
    CERTIFIED_OUT,
    EMPIRICAL_EQUAL,
    UNDETERMINED,
    HConfig,
    HReport,
    HVerdict,
    PullbackReport,
    compute_H,
    compute_H_product,
    pullback_check,
    transfer_affine,
    transfer_product,
    truncated_layer_fold,
    verify_out_witness,
)
from .continuum import (
    OpenTheoremReport,
    RationalPerturbFamily,
    RationalTheoremReport,
    verify_open_theorem,
    verify_rational_theorem,
)
from .errors import (
    CapError,
    ConstructionError,
    DomainError,
    InputError,
    InvariantError,
    NoClosedForm,
    ParseError,
)
from .families import (
    AffineFamily,
    CongruenceChainFamily,
    CosetTailFamily,
    EnumerationFamily,
    ExplicitFamily,
    Family,
    HalfTailFamily,
    ProductFamily,
    ScaledFamily,
    TailFamily,
)
from .groups import (
    FiniteGroupTable,
    group_H_explicit,
    group_hfold,
    group_hfolds,
)
from .lattices import (
    Box,
    LatticePoint,
    LatticeTheoremReport,
    MinNormCheck,
    NormTailFamily,
    lattice_hfold_sum,
    min_norm_inequality,
    verify_lattice_theorem,
)
from .scenarios import (
    ScenarioOptions,
    ScenarioResult,
    run_scenario,
    scenario_ids,
)
from .serialize import (
    family_from_json,
    family_to_json,
    parse_set_expr,
    report_from_json,
    report_to_json,
    report_to_tsv,
    set_from_json,
    set_to_json,
)
from .sumsets import (
    BasisReport,
    Closed,
    RepCount,
    Windowed,
    basis_order,
    default_radius,
    hfold_product,
    members_in,
    query,
    representation_count,
    symbolic_hfold_sum,
    windowed_hfold_sum,
)
from .symbolic import (
    ALL,
    EMPTY,
    IntSet,
    Window,
    affine,
    bounds,
    cofinite,
    congruence,
    contains,
    down_tail,
    finite,
    half_tail,
    intersect,
    is_subset,
    materialize,
    negate,
    normalize,
    scale_set,
    shift,
    tail,
    union,
)

__version__ = "0.1.0"
