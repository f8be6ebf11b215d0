"""divergia: divergence sets of monotone function families, with exact
interval-set algebra, Cantor-type nests, rational-neighborhood families,
dimension estimation, and quasiarithmetic means."""

__version__ = "0.1.0"

from .dimension import DimensionEstimate, box_count, box_dimension, \
    moran_dimension
from .errors import ConstructionError, DivergiaError, DomainMismatchError, \
    ParameterError
from .funcs import FunctionFamily, MonotoneReport, PiecewiseLinear, \
    bump_from_sets, constant_family, monotone_check, tietze_family
from .ifs import CantorNest, CantorParams, cantor_nest, uniform_cantor
from .intervals import IntervalUnion, hausdorff_distance
from .jarnik import JarnikParams, LiouvilleParams, jarnik_family, \
    liouville_family, y_set, z_set
from .maxfam import DivergenceEstimate, MaxFamilyReport, anydh_family, \
    default_grid, divergence_estimate, max_family_check, sum_family, \
    superlevel_set
from .qam import AffineOf, ComparabilityVerdict, Exp, Generator, \
    GeneratorFamily, Log, Power, RatioReport, arrow_family, comparability, \
    constant_generator_family, exp_rate_family, power_mean, \
    power_rate_family, qa_mean, ratio_condition, ratio_report

__all__ = [
    "__version__",
    "DivergiaError", "ParameterError", "DomainMismatchError",
    "ConstructionError",
    "IntervalUnion", "hausdorff_distance",
    "PiecewiseLinear", "FunctionFamily", "MonotoneReport",
    "bump_from_sets", "constant_family", "monotone_check", "tietze_family",
    "CantorParams", "CantorNest", "cantor_nest", "uniform_cantor",
    "JarnikParams", "LiouvilleParams", "jarnik_family", "liouville_family",
    "y_set", "z_set",
    "DimensionEstimate", "box_count", "box_dimension", "moran_dimension",
    "DivergenceEstimate", "MaxFamilyReport", "anydh_family", "default_grid",
    "divergence_estimate", "max_family_check", "sum_family",
    "superlevel_set",
    "Generator", "Power", "Log", "Exp", "AffineOf", "GeneratorFamily",
    "RatioReport", "ComparabilityVerdict", "arrow_family", "comparability",
    "constant_generator_family", "exp_rate_family", "power_mean",
    "power_rate_family", "qa_mean", "ratio_condition", "ratio_report",
]
