"""Entanglement statistics of squeezed modes under Haar-random linear optics.

Covariance-matrix simulation, the mean Renyi-2 subsystem entropy (the
Wachter-law integral in closed form, checked by the exact series) and its
order-one deficit, a seeded Monte Carlo harness, and an exact
Weingarten/permutation engine that independently verifies the series
coefficients.

The names below load on first access (PEP 562), each from the module named
in `_EXPORTS`.  Only `gaussian`, `haar`, `montecarlo` and `verify` import
numpy.  The closed forms (`analytic`) and the exact engine (`weingarten`,
`kernels`) need neither numpy nor each other, so the CLI's `weingarten`
command loads only the exact engine and its analytic-only `page-curve` only
`analytic`.  The CLI's sampling commands load `analytic` and `montecarlo`
(with `gaussian` and `haar`), never the exact engine, and start numpy with
one OpenBLAS thread, the count they sample on, unless OPENBLAS_NUM_THREADS is
already set.
"""

import importlib

_EXPORTS = {
    "analytic": (
        "RationalPolynomial",
        "SqueezingConfig",
        "alpha_coefficient",
        "f_polynomial",
        "page_constant_lambda",
        "page_curve_density",
        "page_curve_prediction",
        "page_half_values",
        "unequal_small_s_prediction",
        "variance_series",
    ),
    "errors": (
        "CapacityError",
        "InputError",
        "NumericalError",
        "PageCurveError",
        "TruncationError",
    ),
    "gaussian": (
        "CovarianceMatrix",
        "PassiveUnitary",
        "SymplecticSpectrum",
        "build_initial_covariance",
        "build_max_entangling_unitary",
        "evolve",
        "max_subsystem_entropy",
        "reduce_modes",
        "reduce_subsystem",
        "renyi2_entropy",
        "symplectic_eigenvalues",
        "trace_W_powers",
        "von_neumann_entropy",
    ),
    "haar": ("SeededStream", "derive_substream", "sample_haar_unitary"),
    "kernels": ("cycle_type",),
    "montecarlo": (
        "CurveEstimate",
        "Experiment",
        "RunConfig",
        "conjecture_probe",
        "estimate_constant_term",
        "estimate_entropy_statistics",
        "mean_covariance_check",
        "sample_entropies",
        "sample_ladder",
        "stream_namespace",
        "typicality_probe",
    ),
    "provenance": ("RNG_ALGORITHM", "SAMPLER"),
    "weingarten": (
        "a_ell_enumeration",
        "alpha_top_enumeration",
        "catalan_number",
        "haar_moment_trace_product",
        "omega2_extrapolation",
        "wg_asymptotic",
        "wg_exact",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, as `pagecurve.montecarlo`
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
