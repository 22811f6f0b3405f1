"""Seeded, parallel Monte Carlo estimation of subsystem entropy statistics.

Every estimator here runs on one sampling loop, `_map_samples`.  It checks
the sample and worker counts before any draw, keys sample j by the Philox
stream `haar.derive_substream(SeededStream(master_seed, namespace), j)`, that
is (master_seed, namespace * 2^32 + j), and applies a per-sample kernel.
Each experiment and ladder point owns its namespace through one injective
rule, `stream_namespace`, so no two of them share a stream.  Samples run in
fixed chunks of `_CHUNK`, inline or on one process pool, and the kernel's
rows come back in global sample order.  Neither the keys nor the assembly
depend on the worker count, so results are bit-identical for any number of
workers.

The draw (sampler id `SAMPLER`) is a Haar row frame: the kernels receive an
m x n block of orthonormal rows, the transpose of `haar._haar_frame(n, m)`,
which has the law of the first m rows of a Haar unitary.  Each caller passes
the m it needs (the largest subsystem size below n for the entropies, k for
the probes), so a draw costs O(n m^2) instead of O(n^3).  The full page
curve needs m = n - 1, which costs the same as a full unitary, so there is
no switch back to the full draw.

Comparisons against asymptotic predictions should allow, besides the usual
3-sigma statistical band, an additive 2/n for the unquantified order-one
corrections at finite mode number.
"""

from __future__ import annotations

import ctypes
import enum
import math
from concurrent import futures
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import analytic
from .errors import InputError, NumericalError
from .gaussian import (
    SqueezingConfig,
    _initial_diagonal,
    _purity_clamp,
    _reduced_sigma_from_unitary,
    _renyi2_values,
    _squeezed_row_factor,
    _symplectic_spectrum,
    h1,
)
from .haar import RNG_ALGORITHM, SeededStream, _haar_frame, derive_substream

__all__ = [
    "SAMPLER",
    "SAMPLING_BLAS_THREADS",
    "Experiment",
    "stream_namespace",
    "RunConfig",
    "CurveEstimate",
    "ConstantEstimate",
    "TypicalityRecord",
    "DerivativeEstimate",
    "MeanCovarianceResult",
    "sample_entropies",
    "estimate_entropy_statistics",
    "estimate_constant_term",
    "typicality_probe",
    "conjecture_probe",
    "mean_covariance_check",
]

SAMPLER = "haar-row-frame"  # names the draw and the stream-key rule in every record
SAMPLING_BLAS_THREADS = 1
_CHUNK = 256  # fixed chunk size; independent of worker count by design
_POINT_BITS = 16
_BLAS_PREFIXES = ("openblas", "scipy_openblas")  # with "64_" for 64-bit integer builds


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS in this process.

    Found through /proc/self/maps, so empty off Linux or for another BLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _BLAS_PREFIXES:
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    controls.append((get, set_))
    return controls


def _set_blas_threads(counts) -> list[int]:
    """Set each OpenBLAS to its entry of `counts` (an int sets all); return the old counts.

    Sampling runs on one BLAS thread, inline and in every worker, because
    the thread count changes the last bits of the Haar QR (n >= ~100), and
    because forked workers that each keep the parent's threads oversubscribe
    the cores: at n=400 on 2 cores, 512 draws took 31 s on 2 such workers
    against 9 s with one BLAS thread each.
    """
    controls = _openblas_thread_controls()
    if isinstance(counts, int):
        counts = [counts] * len(controls)
    previous = [get() for get, _ in controls]
    for (_, set_), count in zip(controls, counts):
        set_(count)
    return previous


class Experiment(enum.IntEnum):
    """Owner of one block of 2^16 stream namespaces (see `stream_namespace`)."""

    ENTROPY = 0  # `sample_entropies` and `estimate_entropy_statistics`
    CONSTANT_TERM = 1
    BOOTSTRAP = 2
    TYPICALITY = 3
    VARIANCE = 4  # the CLI `variance` command
    CONJECTURE = 5
    MEAN_COVARIANCE = 6


def stream_namespace(experiment: Experiment, point: int = 0) -> int:
    """Namespace experiment * 2^16 + point of one ladder point of an experiment.

    Injective over points < 2^16, and below 2^32, so with the sample index
    in the low 32 bits of the stream index no two (experiment, point,
    sample) with sample < 2^32 share a key.  The default `RunConfig`
    namespace 0 is point 0 of `Experiment.ENTROPY`.
    """
    if not 0 <= point < 2**_POINT_BITS:
        raise InputError(f"ladder point must lie in [0, 2^{_POINT_BITS}), got {point}")
    return Experiment(experiment) << _POINT_BITS | point


def _check_counts(samples: int, workers: int):
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")


def _sample_chunk(args):
    kernel, n, m, params, stream, j0, j1 = args
    rows = []
    for j in range(j0, j1):
        u = _haar_frame(n, m, derive_substream(stream, j).generator()).T
        try:
            rows.append(kernel(u, *params))
        except NumericalError as exc:
            raise NumericalError(f"sample {j} (seed {stream.master_seed}): {exc}") from exc
    return np.array(rows)


def _map_samples(kernel, n, m, params, samples, seed, namespace, workers) -> np.ndarray:
    """Stack kernel(V_j, *params) over samples j = 0..samples-1 in sample order.

    V_j is an m x n Haar row frame, distributed as the first m rows of a Haar
    unitary, drawn from substream j of (seed, namespace).  `kernel` must be a
    module-level function so that worker processes can import it.
    """
    _check_counts(samples, workers)
    stream = SeededStream(seed, namespace)
    chunks = [
        (kernel, n, m, params, stream, j0, min(j0 + _CHUNK, samples))
        for j0 in range(0, samples, _CHUNK)
    ]
    if workers == 1 or len(chunks) == 1:
        previous = _set_blas_threads(SAMPLING_BLAS_THREADS)
        try:
            return np.concatenate([_sample_chunk(c) for c in chunks])
        finally:
            _set_blas_threads(previous)
    with futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_set_blas_threads, initargs=(SAMPLING_BLAS_THREADS,)
    ) as pool:
        return np.concatenate(list(pool.map(_sample_chunk, chunks)))


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo run: system, subsystem sizes, sample count, seeding."""

    n: int
    squeezing: SqueezingConfig
    subsystem_sizes: tuple[int, ...]
    samples: int
    master_seed: int = 0
    workers: int = 1
    stream_namespace: int = 0  # `stream_namespace(...)`; 0 is point 0 of Experiment.ENTROPY

    def __post_init__(self):
        object.__setattr__(self, "subsystem_sizes", tuple(int(k) for k in self.subsystem_sizes))
        if self.n < 1:
            raise InputError(f"n must be >= 1, got {self.n}")
        if self.squeezing.n != self.n:
            raise InputError(
                f"squeezing has {self.squeezing.n} entries for n={self.n} modes"
            )
        if any(not 0 <= k <= self.n for k in self.subsystem_sizes):
            raise InputError(f"subsystem sizes must lie in [0, {self.n}]")
        _check_counts(self.samples, self.workers)


@dataclass(frozen=True)
class CurveEstimate:
    """Per-subsystem-size entropy statistics plus full provenance."""

    subsystem_sizes: tuple[int, ...]
    mean_s2: tuple[float, ...]
    var_s2: tuple[float, ...]      # unbiased sample variance
    stderr_s2: tuple[float, ...]   # sqrt(var / samples)
    samples: int
    master_seed: int
    rng_algorithm: str
    sampler: str
    n: int
    squeezing: tuple[float, ...]


def _frame_rows(ks, n: int) -> int:
    """m = max{k < n}: the rows of U that the entropies of sizes ks need."""
    return max((k for k in ks if k < n), default=0)


def _entropies_for_sample(u, scale, ks, with_s1):
    """S2 (row 0) and, if with_s1, S1 (row 1) of every subsystem size in ks.

    u holds at least the first m = max{k < n} rows of an n-mode unitary.  One
    QR factor R of those m modes serves every k, since its leading block
    R[:2k, :2k] factors the covariance of the first k modes.  k = 0 and
    k = n are pure states and stay exactly 0.

    S1 sums h1 over the top min(k, n - k) symplectic eigenvalues only, and
    only those are checked against the uncertainty bound.  The state is pure,
    so for k > n/2 the other k - (n - k) values are exactly 1; in floating
    point they round below 1 by up to about eps * e^{4 max|s_i|}, which
    passes 1 - PURITY_CLAMP from s ~ 8 on.
    """
    n = u.shape[1]
    out = np.zeros((2 if with_s1 else 1, len(ks)))
    m = _frame_rows(ks, n)
    if m == 0:
        return out
    r = _squeezed_row_factor(u, scale, m)
    s2 = _renyi2_values(r)
    for i, k in enumerate(ks):
        if 0 < k < n:
            out[0, i] = s2[k - 1]
            if with_s1:
                nus = _symplectic_spectrum(r[: 2 * k, : 2 * k])[: min(k, n - k)]
                out[1, i] = math.fsum(h1(nu) for nu in _purity_clamp(nus))
    return out


def sample_entropies(
    config: RunConfig, with_s1: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample entropies of every subsystem size of `config`.

    Returns (s2, s1), each of shape (samples, len(subsystem_sizes)) with rows
    in global sample order; s1 is None unless `with_s1`.  The arrays do not
    depend on `config.workers`.
    """
    rows = _map_samples(
        _entropies_for_sample,
        config.n,
        _frame_rows(config.subsystem_sizes, config.n),
        (np.sqrt(_initial_diagonal(config.squeezing.values)), config.subsystem_sizes, with_s1),
        config.samples,
        config.master_seed,
        config.stream_namespace,
        config.workers,
    )
    return rows[:, 0], rows[:, 1] if with_s1 else None


def estimate_entropy_statistics(config: RunConfig) -> CurveEstimate:
    """Sample Haar interferometers and aggregate the Renyi-2 subsystem entropies.

    Aggregation order is fixed by global sample index, so results do not
    depend on the worker count.  `sample_entropies(config, with_s1=True)`
    gives the von Neumann entropies as well.
    """
    s2, _ = sample_entropies(config)
    var = s2.var(axis=0, ddof=1) if config.samples > 1 else np.zeros(s2.shape[1])
    return CurveEstimate(
        subsystem_sizes=config.subsystem_sizes,
        mean_s2=tuple(float(x) for x in s2.mean(axis=0)),
        var_s2=tuple(float(x) for x in var),
        stderr_s2=tuple(float(x) for x in np.sqrt(var / config.samples)),
        samples=config.samples,
        master_seed=config.master_seed,
        rng_algorithm=RNG_ALGORITHM,
        sampler=SAMPLER,
        n=config.n,
        squeezing=config.squeezing.values,
    )


@dataclass(frozen=True)
class ConstantEstimate:
    """1/n-extrapolated order-one entropy deficit with bootstrap uncertainty."""

    value: float
    stderr: float
    ladder: tuple[int, ...]
    per_n: tuple[float, ...]   # n * density - mean(S2) at each ladder point
    samples: int
    master_seed: int
    rng_algorithm: str
    sampler: str


def _extrapolate_intercept(ns, values):
    """Least-squares intercept of value = a + b/n."""
    x = np.array([1.0 / n for n in ns])
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    return float(coef[0])


def estimate_constant_term(
    n_ladder,
    s: float,
    r,
    samples: int,
    seed: int,
    workers: int = 1,
    bootstrap_resamples: int = 1000,
) -> ConstantEstimate:
    """Estimate the order-one deficit lambda by ladder extrapolation.

    At each ladder point computes n * density(s, r) - mean(S2) and
    extrapolates linearly in 1/n; the uncertainty is the bootstrap standard
    deviation of the extrapolated value (resampling per ladder point).
    """
    ladder = sorted(int(n) for n in n_ladder)
    if len(ladder) < 3:
        raise InputError(f"ladder needs at least 3 points, got {ladder}")
    rq = Fraction(r)
    configs = []
    for i, n in enumerate(ladder):
        k = rq * n
        if k.denominator != 1:
            raise InputError(f"r*n must be integral, got r={r}, n={n}")
        configs.append(RunConfig(
            n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(int(k),),
            samples=samples, master_seed=seed, workers=workers,
            stream_namespace=stream_namespace(Experiment.CONSTANT_TERM, i),
        ))
    density = analytic.page_curve_density(s, rq)
    per_point = [sample_entropies(config)[0][:, 0] for config in configs]
    lam_hat = [n * density - float(col.mean()) for n, col in zip(ladder, per_point)]
    value = _extrapolate_intercept(ladder, lam_hat)

    boot_stream = derive_substream(
        SeededStream(seed, stream_namespace(Experiment.BOOTSTRAP)), 0
    ).generator()
    boots = np.empty(bootstrap_resamples)
    for b in range(bootstrap_resamples):
        resampled = []
        for n, col in zip(ladder, per_point):
            idx = boot_stream.integers(0, len(col), size=len(col))
            resampled.append(n * density - float(col[idx].mean()))
        boots[b] = _extrapolate_intercept(ladder, resampled)
    return ConstantEstimate(
        value=value,
        stderr=float(boots.std(ddof=1)),
        ladder=tuple(ladder),
        per_n=tuple(lam_hat),
        samples=samples,
        master_seed=seed,
        rng_algorithm=RNG_ALGORITHM,
        sampler=SAMPLER,
    )


@dataclass(frozen=True)
class TypicalityRecord:
    """Empirical deviation frequencies of S2 from its sample mean at one n."""

    n: int
    k: int
    epsilon: float
    strong_deviation_frequency: float  # |S2 - mean| >= epsilon
    weak_deviation_frequency: float    # |S2/mean - 1| >= epsilon
    mean_s2: float
    samples: int


def _resolve_k_rule(k_rule, n: int) -> int:
    if callable(k_rule):
        return int(k_rule(n))
    if k_rule == "sqrt":
        return math.isqrt(n - 1) + 1 if n > 1 else 1  # ceil(sqrt(n))
    if isinstance(k_rule, str) and k_rule.startswith("ratio:"):
        try:
            ratio = float(k_rule.split(":", 1)[1])
        except ValueError:
            raise InputError(f"k rule {k_rule!r} needs a number after 'ratio:'") from None
        if not 0 <= ratio <= 1:
            raise InputError(f"ratio must be in [0, 1], got {ratio}")
        return round(ratio * n)
    raise InputError(f"unknown k rule {k_rule!r} (use 'sqrt', 'ratio:<x>', or a callable)")


def typicality_probe(
    n_list, k_rule, s: float, epsilon: float, samples: int, seed: int, workers: int = 1
) -> list[TypicalityRecord]:
    """Frequencies of absolute and relative entropy deviations at each n."""
    if not 0 < epsilon < math.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    configs = []
    for i, n in enumerate(int(n) for n in n_list):
        k = _resolve_k_rule(k_rule, n)
        if not 0 <= k <= n:
            raise InputError(f"k rule produced k={k} outside [0, {n}]")
        configs.append(RunConfig(
            n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,),
            samples=samples, master_seed=seed, workers=workers,
            stream_namespace=stream_namespace(Experiment.TYPICALITY, i),
        ))
    out = []
    for config in configs:
        col = sample_entropies(config)[0][:, 0]
        mean = float(col.mean())
        strong = float(np.mean(np.abs(col - mean) >= epsilon))
        if abs(mean) < 1e-12:
            # relative deviation is meaningless at zero mean (vacuum, k=0);
            # fall back to the absolute criterion
            weak = float(np.mean(np.abs(col - mean) >= epsilon))
        else:
            weak = float(np.mean(np.abs(col / mean - 1.0) >= epsilon))
        out.append(
            TypicalityRecord(
                n=config.n,
                k=config.subsystem_sizes[0],
                epsilon=epsilon,
                strong_deviation_frequency=strong,
                weak_deviation_frequency=weak,
                mean_s2=mean,
                samples=samples,
            )
        )
    return out


@dataclass(frozen=True)
class DerivativeEstimate:
    """Common-random-number finite difference of mean S2 in one s_i^2."""

    derivative: float
    stderr: float
    negative_fraction: float  # fraction of samples with a negative per-U derivative
    h_plus: float             # s_i^2 used on the upper side
    h_minus: float
    samples: int


def _derivative_for_sample(u, scale_plus, scale_minus, k, dh):
    s2p = _renyi2_values(_squeezed_row_factor(u, scale_plus, k))[-1]
    s2m = _renyi2_values(_squeezed_row_factor(u, scale_minus, k))[-1]
    return (s2p - s2m) / dh


def conjecture_probe(
    config: SqueezingConfig,
    mode_index: int,
    delta: float,
    samples: int,
    seed: int,
    k: int,
    workers: int = 1,
) -> DerivativeEstimate:
    """Central finite difference of the mean S2 with respect to s_i^2.

    Uses common random numbers (the same unitary on both sides of the
    difference), which suppresses the variance of the estimate by orders of
    magnitude.  `mode_index` is zero-based.  Near s_i = 0 the lower side is
    clamped at zero, degrading gracefully to a forward difference.
    """
    if not 0 <= mode_index < config.n:
        raise InputError(f"mode_index {mode_index} outside [0, {config.n})")
    if not 0 < delta < math.inf:
        raise InputError(f"delta must be positive and finite, got {delta}")
    if not 1 <= k <= config.n:
        raise InputError(f"need 1 <= k <= {config.n}, got k={k}")
    h = config.values[mode_index] ** 2
    h_plus = h + delta
    h_minus = max(h - delta, 0.0)
    sign = -1.0 if config.values[mode_index] < 0 else 1.0
    plus = list(config.values)
    minus = list(config.values)
    plus[mode_index] = sign * math.sqrt(h_plus)
    minus[mode_index] = sign * math.sqrt(h_minus)
    scales = [np.sqrt(_initial_diagonal(values)) for values in (plus, minus)]
    params = (*scales, k, h_plus - h_minus)
    diffs = _map_samples(
        _derivative_for_sample, config.n, k, params, samples, seed,
        stream_namespace(Experiment.CONJECTURE), workers,
    )
    std = float(diffs.std(ddof=1)) if samples > 1 else 0.0
    return DerivativeEstimate(
        derivative=float(diffs.mean()),
        stderr=std / math.sqrt(samples),
        negative_fraction=float(np.mean(diffs < 0)),
        h_plus=h_plus,
        h_minus=h_minus,
        samples=samples,
    )


@dataclass(frozen=True)
class MeanCovarianceResult:
    """Deviation of the sampled mean reduced covariance from its Haar average."""

    max_abs_deviation: float
    max_sigma_units: float       # worst entrywise |deviation| / stderr
    target_diagonal: float       # (1/n) sum cosh(2 s_i)
    mean: np.ndarray
    stderr: np.ndarray
    samples: int


def mean_covariance_check(
    n: int, config: SqueezingConfig, k: int, samples: int, seed: int, workers: int = 1
) -> MeanCovarianceResult:
    """Compare the sampled mean reduced covariance with (Tr B / n) I.

    B = (Z + Z^-1)/2, so the Haar-average covariance is (1/n) sum_i cosh(2 s_i)
    times the identity on the subsystem.
    """
    if config.n != n:
        raise InputError(f"squeezing has {config.n} entries for n={n}")
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= {n}, got k={k}")
    params = (_initial_diagonal(config.values), k)
    reds = _map_samples(
        _reduced_sigma_from_unitary, n, k, params, samples, seed,
        stream_namespace(Experiment.MEAN_COVARIANCE), workers,
    )
    mean = reds.mean(axis=0)
    var = np.maximum((reds * reds).mean(axis=0) - mean * mean, 0.0)
    stderr = np.sqrt(var / samples)
    target = math.fsum(math.cosh(2.0 * v) for v in config.values) / n
    deviation = np.abs(mean - target * np.eye(2 * k))
    floor = 1e-13 * max(1.0, target)  # below matrix-multiplication rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma_units = np.where(deviation <= floor, 0.0, deviation / stderr)
    return MeanCovarianceResult(
        max_abs_deviation=float(deviation.max()),
        max_sigma_units=float(np.nanmax(sigma_units)),
        target_diagonal=target,
        mean=mean,
        stderr=stderr,
        samples=samples,
    )
