"""Command-line interface.

Subcommands: page-curve, variance, typicality, conjecture-probe, weingarten,
verify.  Every run emits a versioned record (CSV or JSON) whose metadata
carries the seed, the RNG algorithm, the sampler id, the wall time and the
exact command line needed to regenerate the numeric columns byte-for-byte.
Each command's handler only parses its options, calls the library and
returns its columns, rows and metadata; `main` times the run from the end of
argument parsing and builds and writes the record.  `verify` prints a report
and writes its record only with --out.
The sampling commands add `timings`: the seconds spent in the sampler
(`sampling_s`) and the samples drawn per second (`samples_per_s`).  Only
the JSON format prints metadata, so CSV output carries no timings.
The exact engine has a single pure-Python implementation, so records name no
kernel backend.

`weingarten a-ell` accepts 1 <= --max <= 5 and checks the cap before it
enumerates; `weingarten wg --type` takes cycle lengths >= 1.  Every comma
list of integers (--modes of variance and typicality, --powers, --ladder,
--type) needs at least one entry, a usage error checked before any work
starts.  `verify --samples` is at least 50, the floor that
`verify.run_suite` checks before any suite runs (exit 1, nothing printed).

Only the sampling commands (page-curve, variance, typicality,
conjecture-probe) take --workers, the number of processes that sample, this
one included, at most one per 256-sample chunk; the others are forked for
the call.  weingarten and verify have no worker count to set.
`page-curve --samples` is 0 for an analytic-only curve or a positive count.

Each handler imports the engine modules its command runs, so a request
compiles only those, and `import pagecurve.cli` loads none of them:

* weingarten: `weingarten` and `kernels`; not `analytic` or numpy;
* an analytic-only page-curve: `analytic`; not the exact engine or numpy;
* the commands that sample (page-curve with --samples > 0, variance,
  typicality, conjecture-probe): `analytic` and `montecarlo`, which loads
  numpy, `gaussian` and `haar`; not the exact engine;
* verify: every engine module.

No command imports `dataclasses`, and only numpy imports `inspect`.  The
commands that load numpy start OpenBLAS with one thread, the count the
sampler runs on, unless OPENBLAS_NUM_THREADS is already set.  JSON output
imports `json` only when it writes.

Run as the program (`main()` with no argv), the CLI freezes the collector
at exit (`gc.freeze`), so the collections during finalization skip the
objects still alive, numpy's among them; `main(argv)` in process leaves
the collector and the exit handlers alone.

Exit codes: 0 success, 1 usage error, 2 numerical/capacity error,
3 verification or tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import os
import sys
import time
from fractions import Fraction

from .errors import CapacityError, InputError, NumericalError, PageCurveError
from .provenance import RNG_ALGORITHM, SAMPLER, SAMPLING_BLAS_THREADS

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
    if isinstance(value, float):  # first: the common cell, and a cheaper check than Fraction's
        return repr(float(value))  # shortest round-trip representation
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if value is None:
        return ""
    return str(value)


def _write_record(record: dict, out: str | None, fmt: str):
    if fmt == "json":
        import json

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


def _record(command, argv, columns, rows, seed, extra_metadata, started):
    metadata = {
        "seed": seed,
        "rng_algorithm": RNG_ALGORITHM,
        "sampler": SAMPLER,
        "wall_time_s": round(time.perf_counter() - started, 6),
        **extra_metadata,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "command_line": list(argv),
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "metadata": metadata,
    }


_SAMPLING = {"blas_threads": SAMPLING_BLAS_THREADS}  # metadata of sampling commands


def _timed(samples: int, call, *args):
    """call(*args) and the sampling metadata of the `samples` draws it makes.

    The timer spans only the call into the sampler, so the record's
    `timings` leave out start-up, argument parsing and output.
    """
    start = time.perf_counter()
    result = call(*args)
    elapsed = time.perf_counter() - start
    timings = {"sampling_s": round(elapsed, 6), "samples_per_s": round(samples / elapsed, 3)}
    return result, {**_SAMPLING, "timings": timings}


_NUMPY_MODULES = ("montecarlo", "verify")


def _load(name: str):
    """Import the engine module `name` when a command first needs it.

    A request then compiles only the modules its command runs, and defines
    their records as `typing.NamedTuple`s or `analytic.Record`s, which take
    microseconds each, with no `dataclasses` import.  Before numpy
    first loads through `montecarlo` or `verify`, OPENBLAS_NUM_THREADS
    defaults to the sampler's thread count, so neither this process nor the
    children the sampler forks start an OpenBLAS pool that it shrinks at once.
    A value the user set is kept; the sampler still pins its count around
    every draw.
    """
    if name in _NUMPY_MODULES and "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", str(SAMPLING_BLAS_THREADS))
    return importlib.import_module(f".{name}", __package__)


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
        help="processes that sample, this one included; at most one per 256-sample "
        "chunk (default: hardware parallelism)",
    )


def _parse_squeeze(text: str, n: int):
    """The `analytic.SqueezingConfig` of a --squeeze scalar or list."""
    SqueezingConfig = _load("analytic").SqueezingConfig
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
        values = [int(p) for p in text.split(",") if p != ""]
    except ValueError as exc:
        raise _UsageError(f"{flag} expects comma-separated integers, got {text!r}") from exc
    if not values:
        raise _UsageError(f"{flag} expects at least one integer, got {text!r}")
    return values


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


def _cmd_page_curve(args):
    n = args.modes
    if n < 1:
        raise _UsageError(f"--modes must be >= 1, got {n}")
    squeezing = _parse_squeeze(args.squeeze, n)
    analytic = _load("analytic")
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

    estimate = sampling = None
    if with_mc:
        montecarlo = _load("montecarlo")
        config = montecarlo.RunConfig(
            n=n,
            squeezing=squeezing,
            subsystem_sizes=tuple(range(n + 1)),
            samples=args.samples,
            master_seed=args.seed,
            workers=args.workers,
        )
        estimate, sampling = _timed(args.samples, montecarlo.estimate_entropy_statistics, config)

    columns = ["r", "k", "analytic_density", "analytic_total", "max_entropy"]
    if with_mc:
        columns += ["mc_mean", "mc_stderr", "mc_variance", "samples"]
    columns.append("provenance")

    rows = []
    max_density = analytic.log_cosh(2.0 * s)  # largest entropy of one mode (equal squeezing)
    for i, r in enumerate(fractions):
        # r = p/q in lowest terms; int/int divisions round as float(Fraction) does
        p, q = r.numerator, r.denominator
        k_cell = p * n // q if p * n % q == 0 else p * n / q
        if equal:
            density = analytic.page_curve_density(s, r)
            total = n * density - analytic.page_constant_lambda(s, r) if 0 < p < q else 0.0
            maximum = n * (min(p, q - p) / q) * max_density
        else:
            total = analytic.unequal_small_s_prediction(squeezing.values, r)
            density = total / n
            maximum = None
        row = [p / q, k_cell, density, total, maximum]
        if with_mc:
            row += [
                estimate.mean_s2[i],
                estimate.stderr_s2[i],
                estimate.var_s2[i],
                args.samples,
            ]
        row.append("mc" if with_mc else "analytic")
        rows.append(row)

    metadata = {"modes": n, "squeezing": list(squeezing.values), "workers": args.workers}
    if with_mc:
        metadata.update(sampling)
    if equal:
        metadata["density"] = {"rule": analytic.DENSITY_RULE}
    return "page-curve", columns, rows, metadata


def _cmd_variance(args):
    modes = _parse_int_list(args.modes, "--modes")
    ratio = _parse_ratio(args.ratio)
    points = []
    for n in modes:
        k = ratio * n
        if k.denominator != 1:
            raise _UsageError(f"--ratio {args.ratio} times n={n} is not integral")
        points.append((n, int(k)))
    analytic = _load("analytic")
    montecarlo = _load("montecarlo")
    columns_s2, sampling = _timed(
        args.samples * len(points), montecarlo.sample_ladder, montecarlo.Experiment.VARIANCE,
        points, args.squeeze, args.samples, args.seed, args.workers,
    )
    leading = analytic.variance_series(args.squeeze, ratio)
    columns = ["n", "k", "mc_mean", "mc_variance", "analytic_variance_leading", "samples", "provenance"]
    rows = [
        [n, k, float(col.mean()), float(col.var(ddof=1)) if args.samples > 1 else 0.0,
         leading, args.samples, "mc"]
        for (n, k), col in zip(points, columns_s2)
    ]
    return "variance", columns, rows, {"squeeze": args.squeeze, **sampling}


def _cmd_typicality(args):
    modes = _parse_int_list(args.modes, "--modes")
    montecarlo = _load("montecarlo")
    records, sampling = _timed(
        args.samples * len(modes), montecarlo.typicality_probe,
        modes, args.k_rule, args.squeeze, args.epsilon, args.samples, args.seed, args.workers,
    )
    columns = [
        "n", "k", "epsilon", "strong_deviation_frequency",
        "weak_deviation_frequency", "mean_s2", "samples", "provenance",
    ]
    rows = [[*t, "mc"] for t in records]
    return "typicality", columns, rows, {"k_rule": args.k_rule, "squeeze": args.squeeze, **sampling}


def _cmd_conjecture_probe(args):
    squeezing = _parse_squeeze(args.squeeze, args.modes)
    montecarlo = _load("montecarlo")
    est, sampling = _timed(
        args.samples, montecarlo.conjecture_probe,
        squeezing, args.mode_index, args.delta, args.samples, args.seed, args.k, args.workers,
    )
    columns = [
        "n", "k", "mode_index", "delta", "derivative", "stderr",
        "negative_fraction", "samples", "provenance",
    ]
    rows = [[args.modes, args.k, args.mode_index, args.delta, est.derivative,
             est.stderr, est.negative_fraction, args.samples, "mc"]]
    return "conjecture-probe", columns, rows, sampling


def _cmd_weingarten(args):
    weingarten = _load("weingarten")
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
        value = weingarten.wg_exact(lengths, args.n)
        columns = ["cycle_type", "q", "n", "value", "value_float", "asymptotic", "provenance"]
        rows = [[",".join(map(str, sorted(lengths))), sum(lengths), args.n, value, float(value),
                 weingarten.wg_asymptotic(lengths, args.n), "exact"]]
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
    return f"weingarten {args.subop}", columns, rows, {}


def _cmd_verify(args, argv, started):
    results = _load("verify").run_suite(args.suite, seed=args.seed, samples=args.samples)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}"
        if not r.passed:
            line += f": observed {r.observed}, expected {r.expected} (tolerance {r.tolerance})"
        print(line)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if args.out:
        record = _record(
            f"verify {args.suite}", argv,
            ["name", "passed", "observed", "expected", "tolerance", "seconds"],
            [[r.name, r.passed, r.observed, r.expected, r.tolerance, r.seconds] for r in results],
            args.seed,
            {"suite": args.suite, **(_SAMPLING if args.suite in ("montecarlo", "all") else {})},
            started,
        )
        _write_record(record, args.out, "json" if args.format == "csv" else args.format)
    return EXIT_VERIFICATION if failed else EXIT_OK


_COMMANDS = {  # args -> (command, columns, rows, metadata) of the run's record
    "page-curve": _cmd_page_curve,
    "variance": _cmd_variance,
    "typicality": _cmd_typicality,
    "conjecture-probe": _cmd_conjecture_probe,
    "weingarten": _cmd_weingarten,
}


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:], as when run as the program.

    Only as the program does it register `gc.freeze` to run at exit.
    """
    if argv is None:
        import atexit
        import gc

        # so the collections during finalization skip every live object, numpy's too (~10 ms)
        atexit.register(gc.freeze)
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        if args.subcommand == "verify":
            return _cmd_verify(args, argv, started)
        command, columns, rows, metadata = _COMMANDS[args.subcommand](args)
        record = _record(command, argv, columns, rows, args.seed, metadata, started)
        _write_record(record, args.out, args.format)
        return EXIT_OK
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
