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
    QuadratureFailure,
    SectorLabError,
    TruncationFailure,
)
from .ideals import (
    GaussianPrimeIdeal,
    LambdaEntry,
    Splitting,
    cornacchia,
    enumerate_prime_ideals,
    lambda_entries,
    sieve_rational_primes,
    sqrt_mod,
)
from .windows import (
    PeriodizedWindow,
    SmoothWindow,
    adaptive_simpson,
    custom_window,
    fourier_coefficient,
    fourier_coefficients_bulk,
    fourier_hat,
    mollifier_eval,
    mollifier_window,
    periodized_eval,
    plateau_eval,
    plateau_minus,
    plateau_plus,
)
from .characters import (
    CharacterSumTable,
    character_sum,
    character_sum_table,
    weyl_sum,
    weyl_sums,
    xi,
)
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
from .realquad import (
    RealQuadPrimeIdeal,
    RealQuadReport,
    angle_t,
    conjugate_pair,
    conjugate_t,
    equidistribution_report_real,
    solve_norm_equation,
)

__all__ = [
    "__version__",
    "SectorLabError", "BadInput", "BadSector", "BadEps", "NotSplit",
    "EmptyRange", "NonResidue", "QuadratureFailure", "TruncationFailure",
    "InvariantViolation", "AliasingRisk",
    "Splitting", "GaussianPrimeIdeal", "LambdaEntry",
    "sieve_rational_primes", "sqrt_mod", "cornacchia",
    "enumerate_prime_ideals", "lambda_entries",
    "SmoothWindow", "PeriodizedWindow", "mollifier_eval", "mollifier_window",
    "plateau_plus", "plateau_minus", "plateau_eval", "custom_window",
    "adaptive_simpson", "fourier_hat", "fourier_coefficient",
    "fourier_coefficients_bulk", "periodized_eval",
    "xi", "character_sum", "weyl_sum", "weyl_sums", "CharacterSumTable",
    "character_sum_table",
    "sector_count", "expected_count", "sector_scan", "SectorScanReport",
    "forbidden_region_check", "discrepancy",
    "PsiSpectrum", "VarianceReport", "truncation_kmax", "mean_formula",
    "psi_eval", "psi_grid", "psi_spectrum", "variance_direct",
    "variance_parseval", "variance_sweep",
    "RealQuadPrimeIdeal", "RealQuadReport", "solve_norm_equation",
    "angle_t", "conjugate_t", "conjugate_pair", "equidistribution_report_real",
]
