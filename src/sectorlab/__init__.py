"""sectorlab: angular statistics of Gaussian prime ideals.

The package enumerates the prime ideals of Z[i], attaches to each its
angle on the quarter circle, and measures how uniformly those angles
fill narrow sectors: sharp counts against the equidistribution baseline,
smoothed counts with their Fourier spectra and number variance, and the
analogous statistics for the real quadratic ring Z[sqrt 2].
"""

from . import _threads  # noqa: F401  (must run before numpy loads)
from ._version import __version__
from .errors import (
    AliasingRisk,
    BadEps,
    BadInput,
    BadSector,
    EmptyRange,
    InvariantViolation,
    NonResidue,
    NotSplit,
    SectorLabError,
    TruncationFailure,
)
from .ideals import cornacchia, sieve_rational_primes, sqrt_mod
from .windows import (
    SmoothWindow,
    custom_window,
    fourier_coefficient,
    fourier_coefficients_bulk,
    fourier_hat,
    mollifier_eval,
    mollifier_window,
    periodized_eval,
    plateau_minus,
    plateau_plus,
)
from .characters import character_sum, character_sum_table, weyl_sum, weyl_sums, xi
from .sectors import (
    SectorScanReport,
    discrepancy,
    expected_count,
    forbidden_region_check,
    sector_count,
    sector_scan,
)
from .variance import (
    PsiSpectrum,
    VarianceReport,
    mean_formula,
    psi_eval,
    psi_grid,
    psi_spectrum,
    truncation_kmax,
    variance_direct,
    variance_parseval,
    variance_sweep,
)
from .realquad import RealQuadReport, angle_t, equidistribution_report_real, solve_norm_equation

__all__ = [
    "__version__",
    "SectorLabError", "BadInput", "BadSector", "BadEps", "NotSplit",
    "EmptyRange", "NonResidue", "TruncationFailure",
    "InvariantViolation", "AliasingRisk",
    "sieve_rational_primes", "sqrt_mod", "cornacchia",
    "SmoothWindow", "mollifier_eval", "mollifier_window",
    "plateau_plus", "plateau_minus", "custom_window",
    "fourier_hat", "fourier_coefficient", "fourier_coefficients_bulk",
    "periodized_eval",
    "xi", "character_sum", "weyl_sum", "weyl_sums", "character_sum_table",
    "sector_count", "expected_count", "sector_scan", "SectorScanReport",
    "forbidden_region_check", "discrepancy",
    "PsiSpectrum", "VarianceReport", "truncation_kmax", "mean_formula",
    "psi_eval", "psi_grid", "psi_spectrum", "variance_direct",
    "variance_parseval", "variance_sweep",
    "RealQuadReport", "solve_norm_equation", "angle_t", "equidistribution_report_real",
]
