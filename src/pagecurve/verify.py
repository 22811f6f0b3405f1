"""Named verification suites behind the CLI `verify` subcommand.

Each check compares an observed value against an independent expectation and
reports a CheckResult; suites are deterministic given the seed.  Statistical
checks in the `montecarlo` suite use widened 5-sigma bands (plus the 2/n
finite-size allowance) so the reduced default sample counts stay reliable.
A sample count set for a run is at least `_MIN_SAMPLES`, at which the bands
held for every seed tried; below it they fail for some (over seeds 0-199 the
5-sigma covariance band failed at 3 seeds with 10 samples and at 1 with 20,
and over seeds 0-99 the 3-sigma Tr W band, on its `Experiment.VERIFY` keys,
at 2 with 10 and at none with 20).
"""

from __future__ import annotations

import itertools
import math
import time
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import analytic, gaussian, montecarlo, weingarten
from .errors import InputError
from .gaussian import SqueezingConfig
from .haar import SeededStream, derive_substream, sample_haar_unitary
from .kernels import cycle_type

__all__ = ["CheckResult", "run_suite", "SUITES", "wg_orthogonality"]

_MIN_SAMPLES = 50

# Reference coefficients for the low-order mean-overlap polynomials,
# transcribed independently of the generating code.
F_REFERENCE: dict[int, dict[int, int]] = {
    1: {2: 1},
    2: {4: -1, 3: 2},
    3: {6: 2, 5: -6, 4: 5},
    4: {8: -5, 7: 20, 6: -28, 5: 14},
    5: {10: 14, 9: -70, 8: 135, 7: -120, 6: 42},
    6: {12: -42, 11: 252, 10: -616, 9: 770, 8: -495, 7: 132},
    7: {14: 132, 13: -924, 12: 2730, 11: -4368, 10: 4004, 9: -2002, 8: 429},
    8: {16: -429, 15: 3432, 14: -11880, 13: 23100, 12: -27300, 11: 19656, 10: -8008, 9: 1430},
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    observed: str
    expected: str
    tolerance: str
    seconds: float  # wall time spent on this check

    def as_dict(self):
        return self._asdict()


class _Checks(list):
    """A suite's CheckResults; each is timed from the one before it."""

    def __init__(self):
        super().__init__()
        self._last = time.perf_counter()

    def add(self, name, passed, observed, expected, tolerance="exact"):
        now = time.perf_counter()
        self.append(CheckResult(name, bool(passed), str(observed), str(expected), str(tolerance),
                                now - self._last))
        self._last = now


def suite_coefficients(seed: int = 0, samples: int = 0) -> list[CheckResult]:
    """Exact checks of the polynomial machinery, and the closed-form density
    against the exact-rational series; no randomness involved."""
    out = _Checks()
    for l, ref in F_REFERENCE.items():
        poly = analytic.f_polynomial(l)
        expected = {d: Fraction(c) for d, c in ref.items()}
        out.add(
            f"f_{l} coefficients",
            poly.coefficients == expected,
            dict(sorted(poly.coefficients.items())),
            dict(sorted(expected.items())),
        )
    for l in range(1, 5):
        value = weingarten.a_ell_enumeration(l)
        closed = Fraction((-1) ** l * 4 ** (l - 1))
        out.add(f"a^({l}) enumeration", value == closed, value, closed)
    for l in range(1, 11):
        observed = analytic.g_exact(l, Fraction(1, 2))
        closed = analytic.g_half_closed_form(l)
        out.add(f"G_{l}(1/2) closed form", observed == closed, observed, closed)
    for l in range(1, 11):
        f = analytic.f_polynomial(l)
        holds = all(
            f(Fraction(num, 64)) - f(1 - Fraction(num, 64)) == 2 * Fraction(num, 64) - 1
            for num in range(0, 65, 7)
        )
        out.add(f"f_{l}(r) - f_{l}(1-r) = 2r - 1", holds, holds, True)
    points = [(s, r) for s in (0.25, 0.75)
              for r in (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(7, 16))]
    points.append((0.75, Fraction(5000, 10001)))  # |1 - 2r| = 1/10001
    for s, r in points:
        gap = abs(analytic.page_curve_density(s, r) - analytic.density_series_info(s, r).value)
        out.add(f"closed form vs exact series (s={s}, r={r})", gap <= 1e-10,
                f"{gap:.1e}", "<= 1e-10", 1e-10)
    return out


def wg_orthogonality(q: int, n: int) -> bool:
    """Exact orthogonality of the Weingarten table of S_q at dimension n:
    sum_tau Wg(sigma tau^-1, n) n^{#cycles(tau)} = [sigma == id] for every sigma,
    summed over all of S_q x S_q."""
    table = weingarten.wg_class_table(q, n)
    identity = tuple(range(q))
    perms = list(itertools.permutations(identity))
    for sigma in perms:
        total = Fraction(0)
        for tau in perms:
            inv = [0] * q
            for a, b in enumerate(tau):
                inv[b] = a
            comp = tuple(sigma[inv[i]] for i in range(q))
            total += table[cycle_type(comp)] * n ** len(cycle_type(tau))
        if total != (sigma == identity):
            return False
    return True


def suite_weingarten(seed: int = 7, samples: int = 2000) -> list[CheckResult]:
    out = _Checks()
    for q in (2, 3, 4):
        for n in (5, 9):
            ok = wg_orthogonality(q, n)
            out.add(f"orthogonality q={q} n={n}", ok, ok, True)

    exact = weingarten.wg_exact((2,), 50)
    asym = weingarten.wg_asymptotic((2,), 50)
    gap = abs(asym / float(exact) - 1.0)
    out.add("asymptotic Wg gap (transposition, n=50)", gap <= 5e-4, gap, "<= 5e-4", 5e-4)

    moment = weingarten.haar_moment_trace_product([1], 6, 3)
    out.add("E Tr W (n=6, k=3)", moment == Fraction(12, 7), moment, Fraction(12, 7))

    traces = np.empty(samples)
    stream = SeededStream(seed, montecarlo.stream_namespace(montecarlo.Experiment.VERIFY, 0))
    for j in range(samples):
        u = sample_haar_unitary(6, derive_substream(stream, j))
        traces[j] = gaussian.trace_W_powers(u, 3, 1)[0]
    stderr = traces.std(ddof=1) / math.sqrt(samples)
    dev = abs(traces.mean() - float(moment))
    out.add(
        f"MC Tr W agreement ({samples} samples)",
        dev <= 3 * stderr,
        f"dev={dev:.4g}",
        f"<= 3*stderr={3 * stderr:.4g}",
        "3 sigma",
    )
    return out


def suite_montecarlo(seed: int = 7, samples: int = 500) -> list[CheckResult]:
    out = _Checks()
    n = 12
    vacuum = montecarlo.estimate_entropy_statistics(
        montecarlo.RunConfig(
            n=n,
            squeezing=SqueezingConfig.equal(n, 0.0),
            subsystem_sizes=(0, 3, n),
            samples=min(samples, 50),
            master_seed=seed,
        )
    )
    worst = max(abs(v) for v in vacuum.mean_s2)
    out.add("vacuum entropies vanish", worst <= 1e-10, worst, "<= 1e-10", 1e-10)

    k = 4
    comp_dev = 0.0
    stream = SeededStream(seed, montecarlo.stream_namespace(montecarlo.Experiment.VERIFY, 1))
    for j in range(min(samples, 50)):
        u = sample_haar_unitary(n, derive_substream(stream, j))
        state = gaussian.evolve(
            gaussian.build_initial_covariance(SqueezingConfig.equal(n, 0.6)), u
        )
        first = gaussian.renyi2_entropy(gaussian.reduce_subsystem(state, k))
        rest = gaussian.renyi2_entropy(gaussian.reduce_modes(state, range(k, n)))
        comp_dev = max(comp_dev, abs(first - rest))
    out.add("complement symmetry per sample", comp_dev <= 1e-9, comp_dev, "<= 1e-9", 1e-9)

    n2 = 20
    est = montecarlo.estimate_entropy_statistics(
        montecarlo.RunConfig(
            n=n2,
            squeezing=SqueezingConfig.equal(n2, 0.75),
            subsystem_sizes=(n2 // 2,),
            samples=samples,
            master_seed=seed,
        )
    )
    predicted = analytic.page_curve_prediction(n2, 0.75, n2 // 2)
    band = 5 * est.stderr_s2[0] + 2.0 / n2
    dev = abs(est.mean_s2[0] - predicted)
    out.add(
        f"mean S2 vs asymptotic prediction (n={n2}, {samples} samples)",
        dev <= band,
        f"dev={dev:.4g}",
        f"<= {band:.4g}",
        "5 sigma + 2/n",
    )

    cov = montecarlo.mean_covariance_check(SqueezingConfig.equal(8, 0.75), 3, samples, seed)
    out.add(
        "mean reduced covariance vs (Tr B / n) I",
        cov.max_sigma_units <= 5.0,
        f"{cov.max_sigma_units:.3g} sigma",
        "<= 5 sigma",
        "5 sigma",
    )

    # a fixed count over 256 samples, so that workers=2 really forks a
    # second sampling process whatever `samples` is
    small = montecarlo.RunConfig(
        n=8,
        squeezing=SqueezingConfig.equal(8, 0.5),
        subsystem_sizes=(2,),
        samples=600,
        master_seed=seed,
    )
    one = montecarlo.estimate_entropy_statistics(small)
    two = montecarlo.estimate_entropy_statistics(
        montecarlo.RunConfig(**{**small.__dict__, "workers": 2})
    )
    same = one.mean_s2 == two.mean_s2 and one.var_s2 == two.var_s2
    out.add("worker-count invariance", same, same, True)
    return out


SUITES = {
    "coefficients": suite_coefficients,
    "weingarten": suite_weingarten,
    "montecarlo": suite_montecarlo,
}


def run_suite(name: str, seed: int = 7, samples: int | None = None) -> list[CheckResult]:
    """Run one named suite (or 'all'); returns the individual check results.

    `samples`, if given, overrides each suite's sample counts; fewer than
    `_MIN_SAMPLES` raise `InputError` before any suite runs, and an unknown
    name raises `KeyError`.
    """
    if samples is not None and samples < _MIN_SAMPLES:
        raise InputError(f"samples must be >= {_MIN_SAMPLES}, got {samples}")
    kwargs = {"seed": seed} if samples is None else {"seed": seed, "samples": samples}
    suites = SUITES.values() if name == "all" else [SUITES[name]]
    return [check for suite in suites for check in suite(**kwargs)]
