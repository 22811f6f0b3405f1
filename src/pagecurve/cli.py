"""Command-line interface.

Subcommands: page-curve, variance, typicality, conjecture-probe, weingarten,
verify.  Every run emits a versioned record (CSV or JSON) whose metadata
carries the seed, the RNG algorithm, the sampler id, the wall time and the
exact command line needed to regenerate the numeric columns byte-for-byte.
The exact engine has a single pure-Python implementation, so records name no
kernel backend.

`weingarten a-ell` accepts 1 <= --max <= 5 and checks the cap before it
enumerates; `weingarten wg --type` takes cycle lengths >= 1.

Only the sampling commands (page-curve, variance, typicality,
conjecture-probe) take --workers; weingarten and verify have no worker pool
to size.  `page-curve --samples` is 0 for an analytic-only curve or a
positive count.

Exit codes: 0 success, 1 usage error, 2 numerical/capacity error,
3 verification or tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import analytic, montecarlo, verify, weingarten
from .errors import CapacityError, InputError, NumericalError, PageCurveError
from .gaussian import SqueezingConfig
from .haar import RNG_ALGORITHM

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt_cell(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip representation
    if value is None:
        return ""
    return str(value)


def _write_record(record: dict, out: str | None, fmt: str):
    if fmt == "json":
        payload = json.dumps(record, indent=2, default=_fmt_cell) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(record["columns"])
        for row in record["rows"]:
            writer.writerow([_fmt_cell(v) for v in row])
        payload = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _record(command, argv, columns, rows, seed, extra_metadata=None, started=None):
    metadata = {
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "sampler": montecarlo.SAMPLER,
        "wall_time_s": None if started is None else round(time.perf_counter() - started, 6),
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "command_line": list(argv),
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "metadata": metadata,
    }


_SAMPLING = {"blas_threads": montecarlo.SAMPLING_BLAS_THREADS}  # metadata of sampling commands


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="64-bit master seed (default 0)")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_sampling(sub):
    _add_common(sub)
    sub.add_argument(
        "--workers",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for sampling (default: hardware parallelism)",
    )


def _parse_squeeze(text: str, n: int) -> SqueezingConfig:
    parts = [p for p in text.split(",") if p != ""]
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise _UsageError(f"--squeeze expects numbers, got {text!r}") from exc
    if len(values) == 1:
        return SqueezingConfig.equal(n, values[0])
    if len(values) != n:
        raise _UsageError(f"--squeeze list has {len(values)} entries for --modes {n}")
    return SqueezingConfig(tuple(values))


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _parse_ratio(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"--ratio expects a rational like 1/2 or 0.5, got {text!r}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="pagecurve", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    pc = subs.add_parser("page-curve", help="mean entropy across subsystem sizes")
    pc.add_argument("--modes", type=int, required=True)
    pc.add_argument("--squeeze", required=True, help="scalar or comma list of per-mode strengths")
    pc.add_argument("--samples", type=int, default=0, help="Monte Carlo samples (0: analytic only)")
    pc.add_argument("--analytic-only", action="store_true")
    pc.add_argument("--grid-step", type=float, default=None, help="r grid step (analytic only)")
    _add_sampling(pc)

    var = subs.add_parser("variance", help="sampled entropy variance vs the leading series")
    var.add_argument("--modes", required=True, help="comma list of mode counts")
    var.add_argument("--squeeze", type=float, required=True)
    var.add_argument("--ratio", default="1/2", help="subsystem fraction (rational)")
    var.add_argument("--samples", type=int, default=1000)
    _add_sampling(var)

    typ = subs.add_parser("typicality", help="entropy deviation frequencies")
    typ.add_argument("--modes", required=True, help="comma list of mode counts")
    typ.add_argument("--k-rule", default="ratio:0.5", help="'sqrt' or 'ratio:<x>'")
    typ.add_argument("--squeeze", type=float, required=True)
    typ.add_argument("--epsilon", type=float, required=True)
    typ.add_argument("--samples", type=int, default=1000)
    _add_sampling(typ)

    cp = subs.add_parser("conjecture-probe", help="derivative of mean entropy in one s_i^2")
    cp.add_argument("--modes", type=int, required=True)
    cp.add_argument("--squeeze", required=True)
    cp.add_argument("--k", type=int, required=True)
    cp.add_argument("--mode-index", type=int, default=0)
    cp.add_argument("--delta", type=float, default=1e-3)
    cp.add_argument("--samples", type=int, default=1000)
    _add_sampling(cp)

    wg = subs.add_parser("weingarten", help="exact permutation/moment tables")
    wg.add_argument("subop", choices=("a-ell", "wg", "moment", "omega2"))
    wg.add_argument("--max", type=int, default=4, help="a-ell: largest l")
    wg.add_argument("--type", dest="cycle_type", help="wg: cycle type, e.g. 2,1,1")
    wg.add_argument("--n", type=int, help="matrix dimension")
    wg.add_argument("--k", type=int, help="subsystem size")
    wg.add_argument("--powers", help="moment: comma list of trace powers")
    wg.add_argument("--ladder", default="8,16,32,64", help="omega2: comma list of n")
    wg.add_argument("--ratio", default="1/2", help="omega2: subsystem fraction")
    _add_common(wg)

    ver = subs.add_parser("verify", help="run a named verification suite")
    ver.add_argument("--suite", choices=("coefficients", "weingarten", "montecarlo", "all"), required=True)
    ver.add_argument("--samples", type=int, default=None, help="override suite sample counts")
    _add_common(ver)

    return parser


def _cmd_page_curve(args, argv):
    started = time.perf_counter()
    n = args.modes
    if n < 1:
        raise _UsageError(f"--modes must be >= 1, got {n}")
    squeezing = _parse_squeeze(args.squeeze, n)
    equal = len(set(squeezing.values)) == 1
    s = squeezing.values[0]
    if args.samples < 0:
        raise _UsageError(f"--samples must be >= 0, got {args.samples}")
    with_mc = args.samples > 0 and not args.analytic_only
    if args.grid_step is not None and with_mc:
        raise _UsageError("--grid-step applies to analytic-only runs")

    if args.grid_step is not None:
        steps = round(1.0 / args.grid_step) if 0 < args.grid_step <= 1 else 0
        if steps < 1 or abs(steps * args.grid_step - 1.0) > 1e-9:
            raise _UsageError(
                f"--grid-step must be 1/m for an integer m >= 1, got {args.grid_step}"
            )
        fractions = [Fraction(i, steps) for i in range(steps + 1)]
    else:
        fractions = [Fraction(k, n) for k in range(n + 1)]

    estimate = None
    if with_mc:
        estimate = montecarlo.estimate_entropy_statistics(
            montecarlo.RunConfig(
                n=n,
                squeezing=squeezing,
                subsystem_sizes=tuple(range(n + 1)),
                samples=args.samples,
                master_seed=args.seed,
                workers=args.workers,
            )
        )

    columns = ["r", "k", "analytic_density", "analytic_total", "max_entropy"]
    if with_mc:
        columns += ["mc_mean", "mc_stderr", "mc_variance", "samples"]
    columns.append("provenance")

    rows = []
    for i, r in enumerate(fractions):
        k = r * n
        k_cell = int(k) if k.denominator == 1 else float(k)
        if equal:
            density = analytic.page_curve_density(s, r)
            total = n * density - analytic.page_constant_lambda(s, r) if 0 < r < 1 else 0.0
            maximum = n * float(min(r, 1 - r)) * analytic.log_cosh(2.0 * s)
        else:
            total = analytic.unequal_small_s_prediction(squeezing.values, r)
            density = total / n
            maximum = None
        row = [float(r), k_cell, density, total, maximum]
        if with_mc:
            row += [
                estimate.mean_s2[i],
                estimate.stderr_s2[i],
                estimate.var_s2[i],
                args.samples,
            ]
        row.append("mc" if with_mc else "analytic")
        rows.append(row)

    extra = {"modes": n, "squeezing": list(squeezing.values), "workers": args.workers}
    if with_mc:
        extra.update(_SAMPLING)
    if equal:
        extra["density"] = {"rule": analytic.DENSITY_RULE}
    record = _record("page-curve", argv, columns, rows, args.seed, extra, started)
    _write_record(record, args.out, args.format)
    return EXIT_OK


def _cmd_variance(args, argv):
    started = time.perf_counter()
    modes = _parse_int_list(args.modes, "--modes")
    ratio = _parse_ratio(args.ratio)
    columns = ["n", "k", "mc_mean", "mc_variance", "analytic_variance_leading", "samples", "provenance"]
    configs = []
    for i, n in enumerate(modes):
        k = ratio * n
        if k.denominator != 1:
            raise _UsageError(f"--ratio {args.ratio} times n={n} is not integral")
        configs.append(montecarlo.RunConfig(
            n=n, squeezing=SqueezingConfig.equal(n, args.squeeze), subsystem_sizes=(int(k),),
            samples=args.samples, master_seed=args.seed, workers=args.workers,
            stream_namespace=montecarlo.stream_namespace(montecarlo.Experiment.VARIANCE, i),
        ))
    rows = []
    for config in configs:
        col = montecarlo.sample_entropies(config)[0][:, 0]
        rows.append(
            [
                config.n,
                config.subsystem_sizes[0],
                float(col.mean()),
                float(col.var(ddof=1)) if args.samples > 1 else 0.0,
                analytic.variance_series(args.squeeze, ratio),
                args.samples,
                "mc",
            ]
        )
    record = _record(
        "variance", argv, columns, rows, args.seed,
        {"squeeze": args.squeeze, **_SAMPLING}, started,
    )
    _write_record(record, args.out, args.format)
    return EXIT_OK


def _cmd_typicality(args, argv):
    started = time.perf_counter()
    modes = _parse_int_list(args.modes, "--modes")
    records = montecarlo.typicality_probe(
        modes, args.k_rule, args.squeeze, args.epsilon, args.samples, args.seed, args.workers
    )
    columns = [
        "n", "k", "epsilon", "strong_deviation_frequency",
        "weak_deviation_frequency", "mean_s2", "samples", "provenance",
    ]
    rows = [
        [t.n, t.k, t.epsilon, t.strong_deviation_frequency,
         t.weak_deviation_frequency, t.mean_s2, t.samples, "mc"]
        for t in records
    ]
    record = _record(
        "typicality", argv, columns, rows, args.seed,
        {"k_rule": args.k_rule, "squeeze": args.squeeze, **_SAMPLING}, started,
    )
    _write_record(record, args.out, args.format)
    return EXIT_OK


def _cmd_conjecture_probe(args, argv):
    started = time.perf_counter()
    squeezing = _parse_squeeze(args.squeeze, args.modes)
    est = montecarlo.conjecture_probe(
        squeezing, args.mode_index, args.delta, args.samples, args.seed, args.k, args.workers
    )
    columns = [
        "n", "k", "mode_index", "delta", "derivative", "stderr",
        "negative_fraction", "samples", "provenance",
    ]
    rows = [[args.modes, args.k, args.mode_index, args.delta, est.derivative,
             est.stderr, est.negative_fraction, args.samples, "mc"]]
    record = _record("conjecture-probe", argv, columns, rows, args.seed, _SAMPLING, started)
    _write_record(record, args.out, args.format)
    return EXIT_OK


def _cmd_weingarten(args, argv):
    started = time.perf_counter()
    if args.subop == "a-ell":
        if args.max < 1:
            raise _UsageError(f"--max must be >= 1, got {args.max}")
        columns = ["l", "value", "value_float", "closed_form", "provenance"]
        rows = []
        # largest l first, so that its capacity check runs before any enumeration
        for l in range(args.max, 0, -1):
            value = weingarten.a_ell_enumeration(l)
            closed = Fraction((-1) ** l * 4 ** (l - 1))
            rows.insert(0, [l, value, float(value), closed, "exact"])
    elif args.subop == "wg":
        if not args.cycle_type or args.n is None:
            raise _UsageError("wg needs --type and --n")
        lengths = _parse_int_list(args.cycle_type, "--type")
        bad = [ln for ln in lengths if ln < 1]
        if bad:
            raise _UsageError(f"--type cycle lengths must be >= 1, got {bad[0]}")
        q = sum(lengths)
        cycles, start = [], 1
        for ln in lengths:
            cycles.append(tuple(range(start, start + ln)))
            start += ln
        perm = weingarten.Permutation.from_cycles(q, cycles)
        value = weingarten.wg_exact(perm, args.n)
        columns = ["cycle_type", "q", "n", "value", "value_float", "asymptotic", "provenance"]
        rows = [[",".join(map(str, sorted(lengths))), q, args.n, value, float(value),
                 weingarten.wg_asymptotic(perm, args.n), "exact"]]
    elif args.subop == "moment":
        if not args.powers or args.n is None or args.k is None:
            raise _UsageError("moment needs --powers, --n and --k")
        powers = _parse_int_list(args.powers, "--powers")
        value = weingarten.haar_moment_trace_product(powers, args.n, args.k)
        columns = ["powers", "n", "k", "value", "value_float", "provenance"]
        rows = [[",".join(map(str, powers)), args.n, args.k, value, float(value), "exact"]]
    else:  # omega2
        ladder = _parse_int_list(args.ladder, "--ladder")
        ratio = _parse_ratio(args.ratio)
        value = weingarten.omega2_extrapolation(ladder, ratio)
        estimates = weingarten.omega2_estimates(ladder, ratio)
        columns = ["point", "value", "provenance"]
        rows = [[f"n={n}", float(est), "exact"] for n, est in zip(ladder, estimates)]
        rows.append(["extrapolated", value, "exact"])
    record = _record(f"weingarten {args.subop}", argv, columns, rows, args.seed, None, started)
    _write_record(record, args.out, args.format)
    return EXIT_OK


def _cmd_verify(args, argv):
    started = time.perf_counter()
    try:
        results = verify.run_suite(args.suite, seed=args.seed, samples=args.samples)
    except KeyError as exc:
        raise _UsageError(f"unknown suite {exc}") from exc
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if not r.passed:
            line += f": observed {r.observed}, expected {r.expected} (tolerance {r.tolerance})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    record = _record(
        f"verify {args.suite}", argv,
        ["name", "passed", "observed", "expected", "tolerance", "seconds"],
        [[r.name, r.passed, r.observed, r.expected, r.tolerance, r.seconds] for r in results],
        args.seed,
        {"suite": args.suite, **(_SAMPLING if args.suite in ("montecarlo", "all") else {})},
        started,
    )
    if args.out:
        _write_record(record, args.out, "json" if args.format == "csv" else args.format)
    return EXIT_VERIFICATION if failed else EXIT_OK


_COMMANDS = {
    "page-curve": _cmd_page_curve,
    "variance": _cmd_variance,
    "typicality": _cmd_typicality,
    "conjecture-probe": _cmd_conjecture_probe,
    "weingarten": _cmd_weingarten,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args, argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError,) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NumericalError, CapacityError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PageCurveError as exc:  # any other library failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
