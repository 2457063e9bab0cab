"""Rank-one Dunkl harmonic analysis on the weighted line.

Numerics for the kernel and transform attached to the reflection group Z_2,
the generalized translation and convolution they induce, amalgam and Fofana
function-space norms, Hardy-Littlewood type maximal operators, and a suite
runner that machine-checks the quantitative inequalities relating them.
"""

from ._version import VERSION as __version__
from .grid import (
    Grid,
    GridFunction,
    integrate,
    make_grid,
    read_csv_function,
    sample_family,
    write_csv_function,
)
from .maximal import centered_maximal, dunkl_maximal, interval_maximal
from .measure import (
    ball_measure,
    ball_measure_origin,
    doubling_ratio,
    interval_measure,
)
from .norms import (
    NormSpec,
    amalgam_norm_r,
    ball_scaled_interval_fofana_norm,
    default_radius_grid,
    fofana_norm,
    interval_amalgam_norm_r,
    interval_fofana_norm,
    lp_norm,
    weak_fofana_norm,
    weak_l1_norm,
)
from .params import DunklParams
from .special import bessel_normalized, dunkl_derivative, dunkl_kernel
from .transform import SpectralFunction, forward, inverse, plancherel_defect
from .translation import convolve, translate, translate_indicator, translate_rows
from .verify import SuiteConfig, VerificationReport, list_suites, run_suite, run_suites

__all__ = [
    "DunklParams",
    "Grid",
    "GridFunction",
    "NormSpec",
    "SpectralFunction",
    "SuiteConfig",
    "VerificationReport",
    "amalgam_norm_r",
    "ball_measure",
    "ball_measure_origin",
    "ball_scaled_interval_fofana_norm",
    "bessel_normalized",
    "centered_maximal",
    "convolve",
    "default_radius_grid",
    "doubling_ratio",
    "dunkl_derivative",
    "dunkl_kernel",
    "dunkl_maximal",
    "fofana_norm",
    "forward",
    "integrate",
    "interval_amalgam_norm_r",
    "interval_fofana_norm",
    "interval_maximal",
    "interval_measure",
    "inverse",
    "lp_norm",
    "list_suites",
    "make_grid",
    "plancherel_defect",
    "read_csv_function",
    "run_suite",
    "run_suites",
    "sample_family",
    "translate",
    "translate_indicator",
    "translate_rows",
    "weak_fofana_norm",
    "weak_l1_norm",
    "write_csv_function",
]
