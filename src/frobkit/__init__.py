"""Exact arithmetic for Frobenius-lift towers over ramified base fields."""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetError,
    FrobkitError,
    IndeterminateError,
    IntegralityError,
    NoRootError,
    PrecisionError,
    SpecMismatchError,
)
from .scalars import (
    DEFAULT_PREC,
    AtLeast,
    FElement,
    FieldSpec,
    OFElement,
    OFExact,
    of_add,
    of_div,
    of_root,
    of_val,
    qp_spec,
)
from .series import (
    PRESET_NAMES,
    EisensteinE,
    FrobLift,
    NewtonPolygon,
    USeries,
    e_order,
    eisenstein_preset,
    frob_preset,
    frobenius,
    gauge_alpha,
    gauge_low,
    newton_hull,
    s_compose,
    s_mul,
    wdeg,
)
from .intertwine import (
    CompatReport,
    IntertwineResult,
    check_compatible,
    compute_mu0,
    solve_intertwiner,
    solve_intertwiner_all,
    verify_intertwine,
)
from .kisin import (
    CounterexampleWitness,
    HypothesisResult,
    KisinModule,
    MinimalHeight,
    XiReport,
    check_counterexample,
    counterexample_module,
    fil1_rank,
    hypothesis_check,
    mat_add,
    mat_adj,
    mat_const,
    mat_det,
    mat_frob,
    mat_identity,
    mat_make,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_truncate,
    minimal_height_rank1,
    verify_height,
    xi_iterate,
)
from .tower import (
    RamPolygonReport,
    TowerSpec,
    apf_constant,
    elementary_level,
    ramification_polygon,
    tower_report,
)
from .witt import (
    DEFAULT_BUDGET,
    WITT_LENGTH_BOUND,
    PerfSeries,
    WittPolySet,
    WittVec,
    check_E_reduction,
    e_reduction_report,
    f_fixed_point,
    f_fixed_point_report,
    ghost_map,
    scalar_mul,
    teich,
    witt_add,
    witt_frob,
    witt_frob_inv,
    witt_mul,
    witt_neg,
    witt_polys,
)

# the public names are exactly the names imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
