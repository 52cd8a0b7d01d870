"""Exact integer-set algebra, h-fold sumsets, and layered-family reports.

The package works over a small symbolic term language (finite, cofinite,
congruence, tail, half-tail and their unions, intersections, and affine
images) so that infinite sets stay exact, falls back to windowed bitset
enumeration when no closed form applies, and reports which fold counts h
make the h-fold sumset of a family's limit equal the intersection of the
layer sumsets.

Importing the package loads the engine.  The paper-scenario layer
(`continuum`, `lattices` and `scenarios`) loads on first use of one of
its names.
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

# names served from the paper-scenario layer, imported on first use
_DEFERRED = {
    "continuum": (
        "OpenTheoremReport",
        "RationalPerturbFamily",
        "RationalTheoremReport",
        "verify_open_theorem",
        "verify_rational_theorem",
    ),
    "lattices": (
        "Box",
        "LatticeTheoremReport",
        "MinNormCheck",
        "NormTailFamily",
        "lattice_hfold_sum",
        "min_norm_inequality",
        "verify_lattice_theorem",
    ),
    "scenarios": (
        "ScenarioOptions",
        "ScenarioResult",
        "run_scenario",
        "scenario_ids",
    ),
}
_HOME = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name: str):
    from importlib import import_module

    if name in _DEFERRED:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEFERRED, *_HOME})


# a star import still binds every public name, the deferred ones included
__all__ = [name for name in __dir__() if not name.startswith("_")]
