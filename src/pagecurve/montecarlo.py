"""Seeded, parallel Monte Carlo estimation of subsystem entropy statistics.

Every estimator here runs on one sampling loop, `_map_samples`.  It checks
the sample and worker counts before any draw, keys sample j by the Philox
stream `haar.derive_substream(SeededStream(master_seed, namespace), j)`, that
is (master_seed, namespace * 2^32 + j), and applies a kernel.
Each experiment and ladder point owns its namespace through one injective
rule, `stream_namespace`, so no two of them share a stream.  The samples
are split into contiguous ranges of near-equal size, one per process, with
at most one process per `_SHARE` samples: this one, and children it forks
for the call, which sample their ranges while it samples the first
(`_fork_join`).  The kernel's rows come back in global sample order.
Neither the keys nor the order depend on the worker count, so results are
bit-identical for any number of workers.

Within a range, samples go through the draw and the kernel in stacks: every
draw and kernel takes a leading sample axis, so one numpy call (elementwise,
or a LAPACK QR, SVD or eigvalsh, which numpy runs matrix by matrix with the
same routine) serves a whole stack instead of one sample, and the numpy
call overhead that dominated small factorizations is paid once per stack.
Each sample is still drawn from its own substream, through one Philox per
range re-keyed to each substream (`haar._rekeyed_generator`), which gives
exactly the stream a new generator would; a sample's rows are therefore
bit-identical to drawing and evaluating it alone.  One module constant,
`_STACK_ENTRIES`, caps the drawn entries of the samples in one stack, so
memory stays flat as n grows (without it, a 256-sample stack of 400 Haar
rows would hold about 650 MB); it is fixed, not an option, because the
stacking never changes a result.  A `NumericalError` in a stack is
re-raised for the first failing sample, evaluated alone, under its global
index j.

The sampler (id `SAMPLER`) has three draws.  `_frame_draw` picks one from
the squeezing values and `with_s1` alone, and returns the whole plan: the
draw, its size m, the kernel and the kernel's squeezing.

* equal squeezing s, any sizes: `haar._jacobi_bidiagonal(n, kps)`, one
  k' x k' upper bidiagonal B of the Edelman-Sutton beta = 1 Jacobi model
  (a = n - 2k', b = 1) per distinct k' = min(k, n - k) of the sizes
  0 < k < n, every B of a sample from one `beta` call in ascending k' (the
  `haar` docstring gives the law and the stream order; a single k' draws
  what it drew alone).  B's squared singular values are the k'
  transmission eigenvalues T_i; the k modes have the symplectic eigenvalues
  nu_i = sqrt(1 + c T_i), c = sinh^2(2s), and k - k' more equal to 1.  So
  S2 = (1/2) log det(I + c B^T B), which `_renyi2_from_bidiagonal`
  evaluates by an O(k') pivot recurrence run over every B of the stack at
  once, with no LAPACK call and no large factor ever rounded; only
  S1 = sum h1(nu_i) takes the T_i, from one stacked SVD per k', in
  logarithms, with no symplectic eigensolve or purity clamp.  A sample
  costs O(sum k') whatever n.  Every equal-squeezing run takes it: the
  page curve, the single sizes of `verify`, and every point of
  `sample_ladder` (`typicality_probe`, `estimate_constant_term`, the CLI
  `variance` command).
* unequal squeezing, S2 only: the raw complex Ginibre block Z of
  `haar._ginibre_block(n, m)`, m the largest size below n, with the
  interleaved real 2n x 2m form F of its columns and D = sqrt(diag
  sigma_0).  Z's first k columns span the first k rows of the Haar U that
  its orthonormalization gives, eta is multiplicative and the triangular
  factor relating the two cancels from the log-determinant, so
  S2(k) = sum_{i<2k} (log|r_ii(D F)| - log|r_ii(F)|) from two real QR
  factors and no complex QR (`_renyi2_from_ginibre`).  The page curve and
  `conjecture_probe` (the same S2 at unequal scales on its two sides, whose
  difference needs only the two scaled factors) take it.
* unequal squeezing with S1: the Haar frame `haar._haar_frame(n, m)`, whose
  m orthonormal columns are the first m rows of a Haar U, transposed, at
  O(n m^2); S1 needs the symplectic spectrum of the frame's own factor
  (`_entropies_for_sample`).  `mean_covariance_check` (it checks the Haar
  average of the covariance, that is, the n-mode draw itself) always uses
  it.

Each draw gives every entropy it serves its exact law.  Within a sample the
Jacobi draw makes sizes with different k' independent, and sizes k and
n - k equal; the Ginibre and Haar-frame draws keep the Haar joint law
across sizes.

Comparisons against asymptotic predictions should allow, besides the usual
3-sigma statistical band, an additive 2/n for the unquantified order-one
corrections at finite mode number.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import analytic
from .analytic import Record
from .errors import InputError, NumericalError, PageCurveError
from .gaussian import (
    SqueezingConfig,
    _initial_diagonal,
    _log_diagonal,
    _purity_clamp,
    _reduced_sigma_from_unitary,
    _renyi2_values,
    _row_columns,
    _squeezed_row_factor,
    _symplectic_spectrum,
    h1,
)
from .haar import (
    SeededStream,
    _bidiagonal_transmissions,
    _ginibre_block,
    _haar_frame,
    _jacobi_bidiagonal,
    _rekeyed_generator,
    derive_substream,
)
from .provenance import RNG_ALGORITHM, SAMPLER, SAMPLING_BLAS_THREADS

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
    "sample_ladder",
    "estimate_entropy_statistics",
    "estimate_constant_term",
    "typicality_probe",
    "conjecture_probe",
    "mean_covariance_check",
]

_SHARE = 256  # samples per sampling process before one more is forked
_STACK_ENTRIES = 2**12  # drawn entries of the samples stacked into one numpy call
_POINT_BITS = 16
_BOOTSTRAP_RESAMPLES = 1000  # of `estimate_constant_term`
_BLAS_PREFIXES = ("openblas", "scipy_openblas")  # with "64_" for 64-bit integer builds


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS in this process.

    Found through /proc/self/maps, so empty off Linux or for another BLAS.
    """
    import ctypes

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


def _set_blas_threads(controls, counts) -> list[int]:
    """Set each OpenBLAS of `controls` to its entry of `counts` (an int sets
    all); return the old counts.

    Sampling runs on one BLAS thread, in the calling process and in the
    children it forks, which inherit the count, because the thread count
    changes the last bits of the Haar QR (n >= ~100), and because sampling
    processes that each keep several threads oversubscribe the cores: at
    n=400 on 2 cores, 512 draws took 31 s on 2 such processes against 9 s
    with one BLAS thread each.  With OPENBLAS_NUM_THREADS unset, the CPU a
    process spends beyond its wall time just after `import numpy` is
    OpenBLAS's own idle thread, not this call; the CLI sets the variable
    before numpy loads.  The caller probes the controls once
    (`_openblas_thread_controls`) and passes the same ones to the restore.
    """
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
    VERIFY = 7  # the unitaries `verify` draws itself: point 0 Tr W, point 1 complements


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


def _stack_size(draw, n: int, m: int) -> int:
    """Samples per stacked call: as many as keep within `_STACK_ENTRIES`, at least one.

    A sample's size is the entries its draw returns: 2 sum(kps) for the
    Jacobi draw, whose m is the tuple kps, and n x m for the Ginibre block
    and the Haar frame.
    """
    entries = 2 * sum(m) if draw is _jacobi_bidiagonal else n * m
    return max(1, _STACK_ENTRIES // max(entries, 1))


def _fork_join(sample, ranges) -> list:
    """sample(j0, j1) on its own process for each (j0, j1) of `ranges`; the results in order.

    This process samples the first range while each of len(ranges) - 1
    children, forked here, samples its own, pickles its rows, or the
    exception that stopped it, into a pipe and leaves through `os._exit`, so
    it runs none of this process's clean-up.  numpy.random is loaded before
    the forks, so no child imports it for itself.  The first range that fails
    raises: its exception, or, for a child that does not exit cleanly (a
    signal, as from the OOM killer, or a nonzero status), a `PageCurveError`
    that names its samples and exit status.  Every child is reaped before
    this returns or raises; the ones still running then are killed first.
    """
    import pickle  # numpy has loaded it; importing it ahead of numpy raised peak RSS 0.2 MB

    import numpy.random  # noqa: F401  (loaded once here, not once per child)

    children = []  # (pid, read end of its pipe) of the child of each range after the first
    running = set()
    try:
        for j0, j1 in ranges[1:]:
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read)
                    try:
                        report = sample(j0, j1)
                    except Exception as exc:  # raised in range order by the caller
                        report = exc
                    with os.fdopen(write, "wb") as pipe:
                        pipe.write(pickle.dumps(report))
                    status = 0
                finally:
                    os._exit(status)
            running.add(pid)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        results = [sample(*ranges[0])]
        for (pid, pipe), (j0, j1) in zip(children, ranges[1:]):
            report = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            running.discard(pid)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise PageCurveError(
                    f"sampling process {pid} (samples {j0} to {j1 - 1}) {how} before it reported"
                )
            results.append(pickle.loads(report))
            if isinstance(results[-1], Exception):
                raise results[-1]
    finally:
        for pid, pipe in children:
            pipe.close()
            if pid in running:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _sample_range(kernel, draw, n, m, params, stream, j0, j1):
    keyed = _rekeyed_generator()
    step = _stack_size(draw, n, m)
    rows = []
    for b0 in range(j0, j1, step):
        generators = (keyed(derive_substream(stream, j)) for j in range(b0, min(b0 + step, j1)))
        drawn = draw(n, m, generators)
        try:
            rows.append(kernel(drawn, *params))
        except NumericalError:
            for i in range(len(drawn)):  # the first failing sample, alone, names its j
                try:
                    kernel(drawn[i : i + 1], *params)
                except NumericalError as exc:
                    raise NumericalError(
                        f"sample {b0 + i} (seed {stream.master_seed}): {exc}"
                    ) from exc
            raise
    return np.concatenate(rows)


def _map_samples(kernel, draw, n, m, params, samples, seed, namespace, workers) -> np.ndarray:
    """Stack kernel(draw(n, m, [generator_j]), *params) over samples j = 0..samples-1.

    generator_j is substream j of (seed, namespace), and the rows come back
    in sample order.  `draw` is `haar._jacobi_bidiagonal`,
    `haar._ginibre_block` or `haar._haar_frame` (see `_frame_draw`); each,
    and every kernel, takes a leading sample axis, so each range draws `_stack_size` samples per
    call, each from its own substream, and factors them in stacked calls.

    The samples run on P = min(workers, ceil(samples / _SHARE)) processes,
    this one included, each on one contiguous range of near-equal size
    (`_fork_join`), or all in this one where `os.fork` does not exist.  The
    BLAS thread count is set once, before any fork, so the children inherit
    it.  Of the ranges that fail, the lowest one's exception is raised, so
    the error, like the rows, does not depend on the worker count.
    """
    _check_counts(samples, workers)
    stream = SeededStream(seed, namespace)
    processes = min(workers, -(-samples // _SHARE)) if hasattr(os, "fork") else 1
    bounds = [samples * w // processes for w in range(processes + 1)]
    controls = _openblas_thread_controls()
    previous = _set_blas_threads(controls, SAMPLING_BLAS_THREADS)
    try:
        shares = _fork_join(
            lambda j0, j1: _sample_range(kernel, draw, n, m, params, stream, j0, j1),
            list(zip(bounds, bounds[1:])),
        )
    finally:
        _set_blas_threads(controls, previous)
    return np.concatenate(shares)


class RunConfig(Record):
    """One Monte Carlo run: system, subsystem sizes, sample count, seeding.

    `stream_namespace` is a `stream_namespace(...)`; 0 is point 0 of
    Experiment.ENTROPY.
    """

    def __init__(
        self,
        n: int,
        squeezing: SqueezingConfig,
        subsystem_sizes: tuple[int, ...],
        samples: int,
        master_seed: int = 0,
        workers: int = 1,
        stream_namespace: int = 0,
    ):
        subsystem_sizes = tuple(int(k) for k in subsystem_sizes)
        if n < 1:
            raise InputError(f"n must be >= 1, got {n}")
        if squeezing.n != n:
            raise InputError(f"squeezing has {squeezing.n} entries for n={n} modes")
        if any(not 0 <= k <= n for k in subsystem_sizes):
            raise InputError(f"subsystem sizes must lie in [0, {n}]")
        _check_counts(samples, workers)
        vars(self).update(
            n=n, squeezing=squeezing, subsystem_sizes=subsystem_sizes, samples=samples,
            master_seed=master_seed, workers=workers, stream_namespace=stream_namespace,
        )


class CurveEstimate(NamedTuple):
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


def _transmission_counts(ks, n: int) -> tuple[int, ...]:
    """The distinct k' = min(k, n - k) of the sizes 0 < k < n in ks, ascending."""
    return tuple(sorted({min(k, n - k) for k in ks if 0 < k < n}))


def _frame_draw(values, ks, with_s1):
    """(draw, m, kernel, squeeze): the sampling plan for the entropies of
    sizes ks of len(values) modes, S1 too if with_s1.

    Equal squeezing: the Jacobi draw of one k' x k' bidiagonal B per k' of
    the sizes (m = the tuple of k'), with log sinh^2(2s).  Unequal
    squeezing: the first m = max{k < n} columns of a Ginibre block for S2
    alone, of a Haar frame with S1, with sqrt(diag sigma_0).
    """
    n = len(values)
    if len(set(values)) == 1:
        a = abs(2.0 * values[0])  # log sinh^2(2s), finite where sinh^2 overflows
        log_c = 2.0 * (analytic.log_cosh(a) + math.log(math.tanh(a))) if a else -math.inf
        return _jacobi_bidiagonal, _transmission_counts(ks, n), _entropies_from_bidiagonal, log_c
    scale = np.sqrt(_initial_diagonal(values))
    if with_s1:
        return _haar_frame, _frame_rows(ks, n), _entropies_for_sample, scale
    return _ginibre_block, _frame_rows(ks, n), _renyi2_from_ginibre, scale


def _renyi2_from_bidiagonal(b2, log_c, kps) -> np.ndarray:
    """Per sample and per kp of kps, S2 = (1/2) log det(I + c B^T B),
    c = e^log_c, of the kp x kp bidiagonal B whose squared diagonal d^2 and
    superdiagonal e^2 b2[j] holds, end to end in the order of kps.

    I + c B^T B is tridiagonal, and its LDL^T pivots follow in O(kp) steps,
    each vectorized over the stack, in a form whose every term is positive.
    For c <= 1 the pivots are p_i = 1 + m_i with m_i = c d_i^2 + rho_i,
    rho_1 = 0 and rho_i = c e_{i-1}^2 (1 + rho_{i-1}) / p_{i-1}, and the log
    det is sum log1p(m_i), accurate at small s.  For c > 1 the pivots of
    B^T B + I/c are q_i = d_i^2 + u_i with u_1 = 1/c and
    u_i = 1/c + e_{i-1}^2 u_{i-1} / q_{i-1}, and the log det is
    kp log c + sum log q_i, which stays finite where c overflows.  Every B
    runs in the same steps: each is padded in front to the largest kp with
    d^2 = 1 and e^2 = 0, which keep rho at 0 and u at 1/c (also where 1/c
    underflows to 0), so its pivots are those it has alone, and the padded
    terms are left out of its sum.  No LAPACK call is made.
    """
    width = kps[-1]
    d2, e2 = np.ones((len(b2), len(kps), width)), np.zeros((len(b2), len(kps), width))
    for i, (kp, end) in enumerate(zip(kps, itertools.accumulate(kps))):  # B i, padded in front
        d2[:, i, width - kp :], e2[:, i, width - kp :] = b2[:, :, end - kp : end].swapaxes(0, 1)
    terms = np.empty_like(d2)
    if log_c <= 0.0:
        c = math.exp(log_c)
        rho = np.zeros(d2.shape[:2])
        for i in range(width):
            terms[..., i] = c * d2[..., i] + rho
            rho = c * e2[..., i] * (1.0 + rho) / (1.0 + terms[..., i])
        terms, shifts = np.log1p(terms), [0.0] * len(kps)
    else:
        w = math.exp(-log_c)
        u = np.full(d2.shape[:2], w)
        for i in range(width):
            terms[..., i] = d2[..., i] + u
            u = w + e2[..., i] * u / terms[..., i]
        terms, shifts = np.log(terms), [size * log_c for size in kps]
    for i, kp in enumerate(kps):
        terms[:, i, : width - kp] = 0.0
    return np.array([
        [0.5 * math.fsum([shift, *row]) for shift, row in zip(shifts, rows)]
        for rows in terms.tolist()
    ])


def _entropies_from_bidiagonal(b2, n, log_c, ks, with_s1):
    """Per sample, S2 (row 0) and, if with_s1, S1 (row 1) of every subsystem size in ks.

    Each b2[j] holds, end to end in ascending k', the squared diagonal and
    superdiagonal of one sample's k' x k' bidiagonal B for each k' of the
    sizes 0 < k < n in ks (`haar._jacobi_bidiagonal`); the squared singular
    values of B are the k' transmission eigenvalues T_i shared by every size
    with that k', and log_c = log sinh^2(2s) (-inf at s = 0).  S2 comes from
    `_renyi2_from_bidiagonal`, with no LAPACK call.  Only S1 needs the T_i,
    from one stacked SVD per k'; each nu_i^2 = 1 + c T_i is formed as
    log1p(c T_i) = logaddexp(0, log c + log T_i), so it keeps its relative
    accuracy at any s and no nu can round below 1.  k = 0 and k = n are pure
    states and stay exactly 0.
    """
    out = np.zeros((len(b2), 2 if with_s1 else 1, len(ks)))
    kps = _transmission_counts(ks, n)
    if not kps:
        return out
    mixed = [i for i, k in enumerate(ks) if 0 < k < n]
    column = [kps.index(min(ks[i], n - ks[i])) for i in mixed]
    out[:, 0, mixed] = _renyi2_from_bidiagonal(b2, log_c, kps)[:, column]
    if with_s1:
        s1 = np.empty((len(b2), len(kps)))
        for i, (kp, end) in enumerate(zip(kps, itertools.accumulate(kps))):
            t = _bidiagonal_transmissions(b2[:, :, end - kp : end])
            nus = np.exp(0.5 * np.logaddexp(0.0, log_c + np.log(t))).tolist()
            s1[:, i] = [math.fsum(h1(nu) for nu in row) for row in nus]
        out[:, 1, mixed] = s1[:, column]
    return out


def _log_scaled_factor(rows, scale) -> np.ndarray:
    """log|r_ii| of the triangular factor of D F^T, D = diag(scale), for a
    stack of F^T (`gaussian._row_columns`).

    The rows of D F^T go into the stacked QR in decreasing order of scale,
    which leaves R unchanged but keeps Householder QR accurate where the
    scales e^{+-s_i} differ by many orders of magnitude (Cox & Higham, BIT
    38, 1 (1998)): at max|s_i| = 8 with s_i of both signs, S2 keeps a
    relative error near 1e-15 instead of about 1e-10.
    """
    order = np.argsort(-scale, kind="stable")
    return _log_diagonal(np.linalg.qr(rows[:, order] * scale[order, None], mode="r"))


def _renyi2_from_ginibre(block, n, scale, ks, with_s1):
    """Per sample, S2 (row 0) of every subsystem size in ks, from Ginibre blocks.

    Each block[b] is an n x m' complex Ginibre block Z (`haar._ginibre_block`),
    m' >= m = max{k < n}, and scale = sqrt(diag sigma_0).  With F^T the
    interleaved real form of Z's first m columns (`gaussian._row_columns`),
    S2 of the first k modes is sum_{i<2k} (log|r_ii(D F)| - log|r_ii(F)|),
    D = diag(scale), with r_ii the diagonals of two real QR factors, taken
    in two stacked calls (`_log_scaled_factor` for D F): Z = V T with V the
    Haar frame and T upper triangular, eta(Z) = eta(V) eta(T), and eta(T)'s
    leading block cancels from the ratio of Gram determinants.  S1 needs the frame's own factor
    (`_entropies_for_sample`), so `_frame_draw` pairs this kernel with
    with_s1 false only.  k = 0 and k = n are pure states and stay exactly 0.
    """
    out = np.zeros((len(block), 1, len(ks)))
    m = _frame_rows(ks, n)
    if m == 0:  # only pure states; an empty block has no factor
        return out
    rows = _row_columns(block, m)
    log_r = _log_scaled_factor(rows, scale) - _log_diagonal(np.linalg.qr(rows, mode="r"))
    s2 = _renyi2_values(log_r)
    mixed = [i for i, k in enumerate(ks) if 0 < k < n]
    out[:, 0, mixed] = s2[:, [ks[i] - 1 for i in mixed]]
    return out


def _entropies_for_sample(frame, n, scale, ks, with_s1):
    """Per sample, S2 (row 0) and, if with_s1, S1 (row 1) of every subsystem size in ks.

    Each frame[b] is an n-mode Haar frame whose columns hold at least the
    first m = max{k < n} rows of U, and scale = sqrt(diag sigma_0).  One QR
    factor R of the m modes serves every k, since its leading block
    R[:2k, :2k] factors the covariance of the first k modes; the factors and
    the spectra of all samples come from stacked calls.  k = 0 and k = n are
    pure states and stay exactly 0.  The sampler runs this kernel for S1 at
    unequal squeezing only.

    S1 sums h1 over the top min(k, n - k) symplectic eigenvalues only, and
    only those are checked against the uncertainty bound.  The state is pure,
    so for k > n/2 the other k - (n - k) values are exactly 1; in floating
    point they round below 1 by up to about eps * e^{4 max|s_i|}, which
    passes 1 - PURITY_CLAMP from max|s_i| ~ 8 on.
    """
    out = np.zeros((len(frame), 2 if with_s1 else 1, len(ks)))
    m = _frame_rows(ks, n)
    if m == 0:  # only pure states; the factor of an empty frame cannot be shaped
        return out
    r = _squeezed_row_factor(frame, scale, m)
    s2 = _renyi2_values(_log_diagonal(r))
    for i, k in enumerate(ks):
        if 0 < k < n:
            out[:, 0, i] = s2[:, k - 1]
            if with_s1:
                nus = _symplectic_spectrum(r[:, : 2 * k, : 2 * k])[:, : min(k, n - k)]
                nus = _purity_clamp(nus).tolist()
                out[:, 1, i] = [math.fsum(h1(nu) for nu in row) for row in nus]
    return out


def sample_entropies(
    config: RunConfig, with_s1: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample entropies of every subsystem size of `config`.

    Returns (s2, s1), each of shape (samples, len(subsystem_sizes)) with rows
    in global sample order; s1 is None unless `with_s1`.  The arrays do not
    depend on `config.workers`.  Equal squeezing draws one k' x k'
    bidiagonal Jacobi model per distinct k' = min(k, n - k), all of a sample
    from one `beta` call in ascending k', and without `with_s1` makes no
    LAPACK call; the sizes of different k' are then independent within a
    sample, each with its exact law, and k and n - k share one draw.
    Unequal squeezing keeps the Haar joint law: S2 alone comes from the real
    QR factors of a Ginibre block, S1 from the Haar frame (see
    `_frame_draw`).
    """
    n, ks = config.n, config.subsystem_sizes
    draw, m, kernel, squeeze = _frame_draw(config.squeezing.values, ks, with_s1)
    rows = _map_samples(
        kernel, draw, n, m, (n, squeeze, ks, with_s1), config.samples, config.master_seed,
        config.stream_namespace, config.workers,
    )
    return rows[:, 0], rows[:, 1] if with_s1 else None


def sample_ladder(
    experiment: Experiment, points, s: float, samples: int, seed: int, workers: int = 1
) -> list[np.ndarray]:
    """The S2 samples of each (n, k) point of a ladder at equal squeezing s.

    Point i draws on `stream_namespace(experiment, i)`, and every point is
    checked before the first draw.  Each point has one size, so every sample
    draws the one bidiagonal Jacobi model of its min(k, n - k)
    transmissions, at O(k) whatever n (see `_frame_draw`).
    """
    configs = [
        RunConfig(
            n=n, squeezing=SqueezingConfig.equal(n, s), subsystem_sizes=(k,), samples=samples,
            master_seed=seed, workers=workers, stream_namespace=stream_namespace(experiment, i),
        )
        for i, (n, k) in enumerate(points)
    ]
    return [sample_entropies(config)[0][:, 0] for config in configs]


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


class ConstantEstimate(NamedTuple):
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
    n_ladder, s: float, r, samples: int, seed: int, workers: int = 1
) -> ConstantEstimate:
    """Estimate the order-one deficit lambda by ladder extrapolation.

    At each ladder point computes n * density(s, r) - mean(S2) and
    extrapolates linearly in 1/n; the uncertainty is the standard deviation
    of the extrapolated value over `_BOOTSTRAP_RESAMPLES` bootstrap
    resamples (resampling per ladder point).  The points sample through
    `sample_ladder`.
    """
    ladder = sorted(int(n) for n in n_ladder)
    if len(ladder) < 3:
        raise InputError(f"ladder needs at least 3 points, got {ladder}")
    rq = Fraction(r)
    points = []
    for n in ladder:
        k = rq * n
        if k.denominator != 1:
            raise InputError(f"r*n must be integral, got r={r}, n={n}")
        points.append((n, int(k)))
    density = analytic.page_curve_density(s, rq)
    per_point = sample_ladder(Experiment.CONSTANT_TERM, points, s, samples, seed, workers)
    lam_hat = [n * density - float(col.mean()) for n, col in zip(ladder, per_point)]
    value = _extrapolate_intercept(ladder, lam_hat)

    boot_stream = derive_substream(
        SeededStream(seed, stream_namespace(Experiment.BOOTSTRAP)), 0
    ).generator()
    boots = np.empty(_BOOTSTRAP_RESAMPLES)
    for b in range(_BOOTSTRAP_RESAMPLES):
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


class TypicalityRecord(NamedTuple):
    """Empirical deviation frequencies of S2 from its sample mean at one n."""

    n: int
    k: int
    epsilon: float
    strong_deviation_frequency: float  # |S2 - mean| >= epsilon
    weak_deviation_frequency: float    # |S2/mean - 1| >= epsilon
    mean_s2: float
    samples: int


def _resolve_k_rule(k_rule: str, n: int) -> int:
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
    raise InputError(f"unknown k rule {k_rule!r} (use 'sqrt' or 'ratio:<x>')")


def typicality_probe(
    n_list, k_rule: str, s: float, epsilon: float, samples: int, seed: int, workers: int = 1
) -> list[TypicalityRecord]:
    """Frequencies of absolute and relative entropy deviations at each n.

    `k_rule` is 'sqrt' (k = ceil(sqrt n)) or 'ratio:<x>' (k = round(x n)).
    The points sample through `sample_ladder`, so for either rule a sample
    draws the bidiagonal Jacobi model of the min(k, n - k) transmissions at
    O(k) instead of a k x n row frame at O(n k^2).
    """
    if not 0 < epsilon < math.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon}")
    points = [(n, _resolve_k_rule(k_rule, n)) for n in map(int, n_list)]
    out = []
    for (n, k), col in zip(
        points, sample_ladder(Experiment.TYPICALITY, points, s, samples, seed, workers)
    ):
        mean = float(col.mean())
        strong = float(np.mean(np.abs(col - mean) >= epsilon))
        # relative deviation is meaningless at zero mean (vacuum, k=0);
        # fall back to the absolute criterion
        weak = strong
        if abs(mean) >= 1e-12:
            weak = float(np.mean(np.abs(col / mean - 1.0) >= epsilon))
        out.append(TypicalityRecord(n, k, epsilon, strong, weak, mean, samples))
    return out


class DerivativeEstimate(NamedTuple):
    """Common-random-number finite difference of mean S2 in one s_i^2."""

    derivative: float
    stderr: float
    negative_fraction: float  # fraction of samples with a negative per-U derivative
    h_plus: float             # s_i^2 used on the upper side
    h_minus: float
    samples: int


def _derivative_for_sample(block, n, scale_plus, scale_minus, k, dh):
    """Per sample, (S2 at scale_plus - S2 at scale_minus) / dh of the first k
    modes, from Ginibre blocks.

    Both sides share the block, so the unscaled factor of
    `_renyi2_from_ginibre` cancels from the difference: it is
    sum_{i<2k} (log|r_ii(D+ F)| - log|r_ii(D- F)|) / dh, from two real QR
    factors.  k = n is a pure state, whose S2 is 0 at any squeezing.
    """
    if k == n:
        return np.zeros(len(block))
    rows = _row_columns(block, k)
    plus, minus = (_log_scaled_factor(rows, scale) for scale in (scale_plus, scale_minus))
    return (plus - minus).sum(axis=-1) / dh


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
    difference, drawn as a Ginibre block; see `_derivative_for_sample`),
    which suppresses the variance of the estimate by orders of
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
    params = (config.n, *scales, k, h_plus - h_minus)
    diffs = _map_samples(
        _derivative_for_sample, _ginibre_block, config.n, _frame_rows((k,), config.n), params,
        samples, seed, stream_namespace(Experiment.CONJECTURE), workers,
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


class MeanCovarianceResult(NamedTuple):
    """Deviation of the sampled mean reduced covariance from its Haar average."""

    max_abs_deviation: float
    max_sigma_units: float       # worst entrywise |deviation| / stderr
    target_diagonal: float       # (1/n) sum cosh(2 s_i)
    mean: np.ndarray
    stderr: np.ndarray
    samples: int


def mean_covariance_check(
    config: SqueezingConfig, k: int, samples: int, seed: int, workers: int = 1
) -> MeanCovarianceResult:
    """Compare the sampled mean reduced covariance with (Tr B / n) I.

    B = (Z + Z^-1)/2, so the Haar-average covariance is (1/n) sum_i cosh(2 s_i)
    times the identity on the subsystem.
    """
    n = config.n
    if not 1 <= k <= n:
        raise InputError(f"need 1 <= k <= {n}, got k={k}")
    params = (_initial_diagonal(config.values), k)
    reds = _map_samples(
        _reduced_sigma_from_unitary, _haar_frame, n, k, params, samples, seed,
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
