"""The benchmark's workloads: CLI requests, output checks and layer probes.

A workload is a list of CLI requests (one round) plus, for the traced run, the
inputs at which each layer is probed.  Every request has a check that compares
the printed record with `oracles` or with properties the method must have;
none compares with a saved copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

# Asymptotic comparisons allow a 3-sigma band plus 2/n for the order-one
# corrections at finite n that the series does not quantify.
SIGMAS = 3.0
# Variance of S2 beyond the leading omega_2 term is not known in closed form;
# measured finite-n variances reach 1.5x the leading term at n >= 100 and 4x
# at n = 40, r = 1/2, so envelopes built on it carry this factor.
VARIANCE_FACTOR = 4.0
DENSITY_TOL = 1e-9


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[list[dict]], list[str]]


@dataclass(frozen=True)
class Probe:
    """Inputs at which the traced run calls the layers' public functions.

    The Haar draw and the Gaussian stages run inside the Monte Carlo's private
    hot path, so they are always timed here, at the workload's n, k and s.
    Engines that the workload's requests do not reach get a small reference
    call instead, so that every traced run reports every layer.
    """

    modes: tuple[int, ...]                        # n of the Haar draw and Gaussian stages
    subsystems: Callable[[int], tuple[int, ...]]  # k values at each n
    squeeze: float
    draws: int                                    # unitaries per n
    grid: tuple[Fraction, ...]                    # the workload's r values
    density: bool = False                         # time page_curve_density on the grid
    monte_carlo: int = 0                          # samples of a reference run at modes[0]
    moment: tuple | None = ((1, 1), 12, 6)        # reference (powers, n, k); None: reached
    a_ell_max: int = 4                            # a_ell_enumeration for l = 1..a_ell_max


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[int, int], list[Request]]   # (CLI seed, run seed) -> one round
    probe: Probe


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------- page-curve


def _curve_properties(rows, n, s_max, samples, out):
    """S2 = 0 at k = 0 and n, 0 <= mean <= bound, k and n-k curves agree."""
    means = [float(row["mc_mean"]) for row in rows]
    errs = [float(row["mc_stderr"]) for row in rows]
    for row in rows:
        k = int(row["k"])
        stderr = math.sqrt(float(row["mc_variance"]) / samples)
        if int(row["samples"]) != samples:
            out.append(f"k={k}: samples {row['samples']} != {samples}")
        if not _close(errs[k], stderr, 1e-12 + 1e-9 * stderr):
            out.append(f"k={k}: stderr {errs[k]} is not sqrt(variance / samples) = {stderr}")
        bound = oracles.max_entropy_bound(k, n, s_max)
        if not -1e-12 <= means[k] <= bound + 1e-9:
            out.append(f"k={k}: mean S2 {means[k]} outside [0, {bound}]")
    for k in (0, n):
        if abs(means[k]) > 1e-9:
            out.append(f"k={k}: S2 of a pure state is {means[k]}, not 0")
    for k in range(1, n // 2 + 1):
        band = SIGMAS * math.hypot(errs[k], errs[n - k]) + 2.0 / n
        if abs(means[k] - means[n - k]) > band:
            out.append(f"k={k}: S2 {means[k]} vs k={n - k}: {means[n - k]} beyond {band}")


def _check_equal_curve(n: int, s: float, samples: int, analytic_only: bool = False):
    def check(rows):
        out = []
        if [int(row["k"]) for row in rows] != list(range(n + 1)):
            return [f"expected k = 0..{n}, got {len(rows)} rows"]
        for row in rows:
            k = int(row["k"])
            r = k / n
            density = float(row["analytic_density"])
            want = oracles.wachter_density(s, r)
            if not _close(density, want, DENSITY_TOL):
                out.append(f"k={k}: density {density} vs quadrature {want}")
            if 2 * k == n and not _close(density, oracles.log_cosh(s), DENSITY_TOL):
                out.append(f"r=1/2: density {density} vs log cosh s {oracles.log_cosh(s)}")
            total = oracles.page_total(n, s, k)
            if not _close(float(row["analytic_total"]), total, DENSITY_TOL * n):
                out.append(f"k={k}: total {row['analytic_total']} vs n*density - lambda {total}")
            maximum = oracles.max_entropy_bound(k, n, s)
            if not _close(float(row["max_entropy"]), maximum, 1e-12 * max(1.0, maximum)):
                out.append(f"k={k}: max_entropy {row['max_entropy']} vs {maximum}")
            if not analytic_only and 0 < k < n:
                mean = float(row["mc_mean"])
                band = SIGMAS * float(row["mc_stderr"]) + 2.0 / n
                if abs(mean - total) > band:
                    out.append(f"k={k}: mean S2 {mean} vs n*density - lambda {total} beyond {band}")
        if not analytic_only:
            _curve_properties(rows, n, s, samples, out)
        return out

    return check


def _check_unequal_curve(values: tuple[float, ...], samples: int):
    n = len(values)
    sum_sq = math.fsum(v * v for v in values)

    def check(rows):
        out = []
        if [int(row["k"]) for row in rows] != list(range(n + 1)):
            return [f"expected k = 0..{n}, got {len(rows)} rows"]
        for row in rows:
            k = int(row["k"])
            r = k / n
            want = 2.0 * r * (1.0 - r) * sum_sq
            if not _close(float(row["analytic_total"]), want, 1e-12 * max(1.0, want)):
                out.append(f"k={k}: small-s total {row['analytic_total']} vs 2r(1-r)sum s^2 {want}")
            if row["max_entropy"] != "":
                out.append(f"k={k}: unequal squeezing printed a max_entropy")
        _curve_properties(rows, n, max(values), samples, out)
        return out

    return check


def _check_properties(n: int, s_max: float, samples: int):
    def check(rows):
        if [int(row["k"]) for row in rows] != list(range(n + 1)):
            return [f"expected k = 0..{n}, got {len(rows)} rows"]
        out = []
        _curve_properties(rows, n, s_max, samples, out)
        return out

    return check


def _page_curve(n, squeeze, samples, cli_seed, check):
    argv = ("page-curve", "--modes", str(n), "--squeeze", squeeze,
            "--samples", str(samples), "--workers", "2", "--seed", str(cli_seed))
    return Request(argv, check)


RAMP = tuple(round(0.25 + i / 23, 4) for i in range(24))  # s_i from 0.25 to 1.25


def curve_requests(cli_seed: int, _run_seed: int) -> list[Request]:
    ramp = ",".join(f"{v:.4f}" for v in RAMP)
    return [
        _page_curve(24, "0.75", 512, cli_seed, _check_equal_curve(24, 0.75, 512)),
        _page_curve(24, ramp, 128, cli_seed, _check_unequal_curve(RAMP, 128)),
        # Fails today: the eigenvalue pairing in the S1 path rejects sample 0.
        _page_curve(8, "5", 16, cli_seed, _check_properties(8, 5.0, 16)),
    ]


def series_requests(cli_seed: int, _run_seed: int) -> list[Request]:
    argv = ("page-curve", "--modes", "16", "--squeeze", "1.0", "--analytic-only",
            "--seed", str(cli_seed))
    return [Request(argv, _check_equal_curve(16, 1.0, 0, analytic_only=True))]


# ---------------------------------------------------------------- typicality


def _check_typicality(modes, s, epsilon, samples):
    def check(rows):
        out = []
        if [int(row["n"]) for row in rows] != list(modes):
            return [f"expected n = {modes}, got {[row['n'] for row in rows]}"]
        strong, weak = [], []
        for row in rows:
            n, k = int(row["n"]), int(row["k"])
            if k != math.ceil(math.sqrt(n)):
                out.append(f"n={n}: k={k} is not ceil(sqrt(n))")
                continue
            if int(row["samples"]) != samples:
                out.append(f"n={n}: samples {row['samples']} != {samples}")
            var = VARIANCE_FACTOR * oracles.leading_variance(s, k / n)
            mean = float(row["mean_s2"])
            total = oracles.page_total(n, s, k)
            band = SIGMAS * math.sqrt(var / samples) + 2.0 / n
            if abs(mean - total) > band:
                out.append(f"n={n}: mean S2 {mean} vs n*density - lambda {total} beyond {band}")
            envelopes = (min(1.0, var / epsilon**2), min(1.0, var / (epsilon * mean) ** 2))
            for label, freq, env in zip(("strong", "weak"), (row["strong_deviation_frequency"],
                                        row["weak_deviation_frequency"]), envelopes):
                freq = float(freq)
                slack = SIGMAS * math.sqrt(env * (1.0 - env) / samples)
                if not 0.0 <= freq <= env + slack:
                    out.append(f"n={n}: {label} frequency {freq} above Chebyshev {env} + {slack}")
            strong.append(float(row["strong_deviation_frequency"]))
            weak.append(float(row["weak_deviation_frequency"]))
        for label, seq in (("strong", strong), ("weak", weak)):
            if any(b > a for a, b in zip(seq, seq[1:])):
                out.append(f"{label} deviation frequency increases with n: {seq}")
        return out

    return check


TYPICALITY_MODES = (100, 400)


def typicality_requests(cli_seed: int, _run_seed: int) -> list[Request]:
    argv = ("typicality", "--modes", ",".join(map(str, TYPICALITY_MODES)), "--k-rule", "sqrt",
            "--squeeze", "0.75", "--epsilon", "0.1", "--samples", "96", "--workers", "1",
            "--seed", str(cli_seed))
    return [Request(argv, _check_typicality(TYPICALITY_MODES, 0.75, 0.1, 96))]


# ---------------------------------------------------------------- weingarten


def _check_a_ell(max_l):
    def check(rows):
        out = []
        if [int(row["l"]) for row in rows] != list(range(1, max_l + 1)):
            return [f"expected l = 1..{max_l}, got {len(rows)} rows"]
        for row in rows:
            l = int(row["l"])
            if Fraction(row["value"]) != oracles.a_ell(l):
                out.append(f"a_{l} = {row['value']}, closed form {oracles.a_ell(l)}")
        return out

    return check


MC_MOMENT_SAMPLES = 10000


def _check_moment(n, k, powers, seed):
    def check(rows):
        if len(rows) != 1:
            return [f"expected one row, got {len(rows)}"]
        value = Fraction(rows[0]["value"])
        if powers == (1,):
            want = oracles.mean_trace_w(n, k)
            return [] if value == want else [f"E Tr W = {value}, expected {want}"]
        traces = oracles.w_power_traces(n, k, max(powers), MC_MOMENT_SAMPLES, seed)
        samples = 1.0
        for p in powers:
            samples = samples * traces[p - 1]
        mean = float(samples.mean())
        err = float(samples.std(ddof=1)) / math.sqrt(MC_MOMENT_SAMPLES)
        if abs(float(value) - mean) > 5.0 * err:
            return [f"moment {powers}: exact {float(value)} vs Monte Carlo {mean} +- {err}"]
        return []

    return check


def _check_omega2(rows):
    final = [row for row in rows if row["point"] == "extrapolated"]
    if len(final) != 1:
        return ["no extrapolated row"]
    value = float(final[0]["value"])
    return [] if abs(value - 0.5) <= 1e-3 else [f"omega_2 = {value}, expected 1/2 within 1e-3"]


MOMENT_POWERS = ((1,), (3,), (1, 2), (1, 1, 1))


def exact_requests(_cli_seed: int, run_seed: int) -> list[Request]:
    reqs = [Request(("weingarten", "a-ell", "--max", "4"), _check_a_ell(4))]
    for powers in MOMENT_POWERS:
        argv = ("weingarten", "moment", "--n", "12", "--k", "6", "--powers", ",".join(map(str, powers)))
        reqs.append(Request(argv, _check_moment(12, 6, powers, run_seed)))
    reqs.append(Request(("weingarten", "omega2"), _check_omega2))
    return reqs


# ---------------------------------------------------------------- registry


def _all_k(n):
    return tuple(range(1, n + 1))


def _sqrt_k(n):
    return (math.ceil(math.sqrt(n)),)


def _grid(n):
    return tuple(Fraction(k, n) for k in range(n + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("curve-n24", curve_requests, Probe((24,), _all_k, 0.75, 8, _grid(24))),
        Workload(
            "typicality-large-n",
            typicality_requests,
            Probe(TYPICALITY_MODES, _sqrt_k, 0.75, 8,
                  tuple(Fraction(_sqrt_k(n)[0], n) for n in TYPICALITY_MODES), density=True),
        ),
        Workload("series-grid", series_requests,
                 Probe((16,), _all_k, 1.0, 8, _grid(16), monte_carlo=32)),
        Workload(
            "exact-tables",
            exact_requests,
            Probe((12,), lambda n: (6,), 0.75, 32, (Fraction(1, 2),), density=True,
                  monte_carlo=32, moment=None, a_ell_max=5),
        ),
    )
}
