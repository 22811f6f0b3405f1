"""Entanglement statistics of squeezed modes under Haar-random linear optics.

Covariance-matrix simulation, the mean Renyi-2 subsystem entropy (the
Wachter-law integral in closed form, checked by the exact series) and its
order-one deficit, a seeded Monte Carlo harness, and an exact
Weingarten/permutation engine that independently verifies the series
coefficients.
"""

from .analytic import (
    RationalPolynomial,
    SeriesTolerance,
    VarianceCoefficients,
    alpha_coefficient,
    catalan_number,
    f_polynomial,
    g_function,
    page_constant_lambda,
    page_curve_density,
    page_curve_prediction,
    page_half_values,
    unequal_small_s_prediction,
    variance_series,
)
from .errors import (
    CapacityError,
    InputError,
    NumericalError,
    PageCurveError,
    TruncationError,
)
from .gaussian import (
    CovarianceMatrix,
    PassiveUnitary,
    SqueezingConfig,
    SymplecticSpectrum,
    build_initial_covariance,
    build_max_entangling_unitary,
    evolve,
    max_subsystem_entropy,
    reduce_modes,
    reduce_subsystem,
    renyi2_entropy,
    symplectic_eigenvalues,
    trace_W_powers,
    von_neumann_entropy,
)
from .haar import RNG_ALGORITHM, SeededStream, derive_substream, sample_haar_unitary
from .kernels import BACKEND as KERNEL_BACKEND
from .montecarlo import (
    SAMPLER,
    CurveEstimate,
    Experiment,
    RunConfig,
    conjecture_probe,
    estimate_constant_term,
    estimate_entropy_statistics,
    mean_covariance_check,
    sample_entropies,
    stream_namespace,
    typicality_probe,
)
from .weingarten import (
    Permutation,
    a_ell_enumeration,
    alpha_top_enumeration,
    cycle_type,
    haar_moment_trace_product,
    omega2_extrapolation,
    wg_asymptotic,
    wg_exact,
    xi_statistic,
)

__version__ = "0.1.0"
