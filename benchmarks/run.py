"""Benchmark of the pagecurve CLI: four workloads over its three engines.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
The load is one client in a closed loop: each CLI request starts a fresh
interpreter, as a user's `pagecurve ...` does, and the next request is sent
only after the previous one has exited.  A round is the workload's list of
requests; the run repeats whole rounds while another one fits in S seconds.

--trace 0 prints the end-to-end metrics (medians over rounds).  --trace 1
runs the same requests in this process through `pagecurve.cli.main`, with a
timer around each call into the library's public functions, and prints the
per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

LAUNCH = "import sys\nfrom pagecurve.cli import main\nsys.exit(main())"
READY = "from pagecurve.cli import build_parser\nbuild_parser()\nprint('ready', flush=True)"
SETUP_REPEATS = 9

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Outcome:
    request: workloads.Request
    returncode: int
    stdout: str
    stderr: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0


def run_request(request, env) -> Outcome:
    """One CLI request in a fresh interpreter; rusage covers its pool workers."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", LAUNCH, *request.argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc.stdout, proc.stderr:
        out = proc.stdout.read()
        err = proc.stderr.read()  # the CLI writes at most a line here
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(request, proc.returncode, out.decode(), err.decode(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def measure_setup(env) -> float:
    """Median time from process start to `pagecurve.cli` imported and ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT, env=env,
                                stdout=subprocess.PIPE)
        with proc.stdout:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError("pagecurve failed to import")
    return statistics.median(times)


def repeat_rounds(seconds, seeds, one_round):
    """Whole rounds while the next one is predicted to end within `seconds`."""
    start = time.perf_counter()
    rounds = []
    while True:
        t0 = time.perf_counter()
        rounds.append(one_round(next(seeds)))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def cli_seeds(seed):
    """CLI seeds for successive rounds, a function of the benchmark seed only."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def check_outputs(rounds):
    """Oracle self-checks, then every successful request's output."""
    import oracles

    failures = [f"oracle: {msg}" for msg in oracles.self_check()]
    for _, outcomes in rounds:
        check_round(outcomes, failures)
    return failures


def check_round(outcomes, failures):
    for o in outcomes:
        if o.returncode != 0:
            continue
        for msg in o.request.check(workloads.parse_csv(o.stdout)):
            failures.append(f"{' '.join(o.request.argv[:2])}: {msg}")


def timed_run(workload, seed, seconds):
    env = _env()
    setup = measure_setup(env)

    def one_round(cli_seed):
        start = time.perf_counter()
        outcomes = [run_request(req, env) for req in workload.requests(cli_seed, seed)]
        return time.perf_counter() - start, outcomes

    rounds = repeat_rounds(seconds, cli_seeds(seed), one_round)
    failures = check_outputs(rounds)
    outcomes = [o for _, os_ in rounds for o in os_]
    metrics = {
        "wall_s": statistics.median(w for w, _ in rounds),
        "cpu_s": statistics.median(sum(o.cpu for o in os_) for _, os_ in rounds),
        "setup_s": setup,
        "peak_rss_mb": statistics.median(max(o.rss_mb for o in os_) for _, os_ in rounds),
    }
    return outcomes, failures, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


# ---------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    request: int
    depth: int
    wall: float
    cpu: float
    key: object
    ok: bool


class Tracer:
    """Timers around module functions, kept in memory for the whole run.

    A span's `key` names its input, so the first span of a key within one
    request is the cold call (caches are emptied before every request).
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.request = 0
        self.depth = 0
        self._undo = []

    def patch(self, module, attr, key=lambda *args, **kwargs: None):
        """Replace module.attr by a timed call; `key` takes the same arguments."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return self.call(attr, key(*args, **kwargs), original, *args, **kwargs)

        setattr(module, attr, timed)
        self._undo.append((module, attr, original))

    def call(self, name, key, fn, *args, **kwargs):
        self.depth += 1
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            wall = time.perf_counter() - t0
            cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
            self.depth -= 1
            self.spans.append(Span(name, self.request, self.depth, wall, cpu, key, ok))

    def restore(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def select(self, name, cold=False):
        seen, out = set(), []
        for s in self.spans:
            if s.name != name:
                continue
            first = (s.request, s.key) not in seen
            seen.add((s.request, s.key))
            if first or not cold:
                out.append(s)
        return out


def write_trace(name, seed, spans):
    """Spans of a traced run, one JSON object per line, under .bench_out/."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"trace-{name}-{seed}.jsonl", "w") as fh:
        for s in spans:
            fh.write(json.dumps({**vars(s), "key": repr(s.key)}) + "\n")


def _caches(modules):
    """Every lru_cache and module-level *_CACHE dict of the package."""
    handles = []
    for mod in modules:
        for name, obj in vars(mod).items():
            if callable(getattr(obj, "cache_clear", None)):
                handles.append(obj.cache_clear)
            elif name.endswith("_CACHE") and isinstance(obj, dict):
                handles.append(obj.clear)
    return handles


def _q(powers):
    return 2 * sum(powers)


def traced_run(workload, seed, seconds):
    sys.path.insert(0, str(SRC))
    names = ("analytic", "cli", "gaussian", "haar", "kernels", "montecarlo", "weingarten")
    mods = {n: importlib.import_module(f"pagecurve.{n}") for n in names}
    analytic, cli, gaussian, haar = (mods[n] for n in ("analytic", "cli", "gaussian", "haar"))
    kernels, montecarlo, weingarten = (mods[n] for n in ("kernels", "montecarlo", "weingarten"))
    clear = _caches(mods.values())
    tracer = Tracer()
    # A Monte Carlo span's key is its sample count.
    tracer.patch(montecarlo, "estimate_entropy_statistics", lambda config: config.samples)
    tracer.patch(montecarlo, "typicality_probe",
                 lambda n_list, k_rule, s, epsilon, samples, *a, **kw: samples * len(n_list))
    tracer.patch(analytic, "page_curve_density",
                 lambda s, r, tol=None: (s, min(Fraction(r), 1 - Fraction(r))))
    for attr in ("page_constant_lambda", "log_cosh", "unequal_small_s_prediction"):
        tracer.patch(analytic, attr)
    tracer.patch(weingarten, "wg_class_table", lambda q, n: (q, n))
    tracer.patch(weingarten, "haar_moment_trace_product",
                 lambda powers, n, k: (tuple(powers), n, k))
    tracer.patch(weingarten, "a_ell_enumeration")
    tracer.patch(weingarten, "omega2_extrapolation")
    tracer.patch(kernels, "xi_condition_sum", lambda half, offset: (half, offset))
    tracer.patch(kernels, "moment_pair_counts", lambda powers: tuple(powers))
    tracer.patch(haar, "sample_haar_unitary")
    for attr in ("evolve", "reduce_subsystem", "renyi2_entropy", "symplectic_eigenvalues",
                 "von_neumann_entropy"):
        tracer.patch(gaussian, attr)

    def cold(fn, *args):
        """One request as a fresh process would see it: every cache empty."""
        for c in clear:
            c()
        tracer.request += 1
        return fn(*args)

    def one_round(cli_seed):
        outcomes, overhead = [], 0.0
        for req in workload.requests(cli_seed, seed):
            out, err = io.StringIO(), io.StringIO()
            first = len(tracer.spans)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cold(tracer.call, "main", None, cli.main, list(req.argv))
            new = tracer.spans[first:]
            overhead += new[-1].wall - sum(s.wall for s in new if s.depth == 1)
            outcomes.append(Outcome(req, code, out.getvalue(), err.getvalue()))
        return overhead, outcomes

    start = time.perf_counter()
    try:
        probe_layers(workload.probe, cold, seed, mods)
        rounds = repeat_rounds(seconds - (time.perf_counter() - start), cli_seeds(seed), one_round)
    finally:
        tracer.restore()
    write_trace(workload.name, seed, tracer.spans)
    failures = check_outputs(rounds)
    outcomes = [o for _, os_ in rounds for o in os_]

    def per_call_ms(*names, per=None):
        spans = [s for n in names for s in tracer.select(n)]
        return 1000.0 * sum(s.wall for s in spans) / len(tracer.select(per or names[0]))

    def cold_at_max_q(name, q_of):
        spans = tracer.select(name, cold=True)
        top = max(q_of(s.key) for s in spans)
        return statistics.mean(s.wall for s in spans if q_of(s.key) == top)

    mc = [s for n in ("estimate_entropy_statistics", "typicality_probe")
          for s in tracer.select(n) if s.ok]
    samples = sum(s.key for s in mc)
    xi = {}
    for s in tracer.select("xi_condition_sum"):
        if s.key[1] == 0:
            xi.setdefault(s.key[0], []).append(s.wall)
    probe = workload.probe
    values = {
        "haar.draw_ms": per_call_ms("sample_haar_unitary"),
        "gaussian.reduce_ms": per_call_ms("evolve", "reduce_subsystem", per="reduce_subsystem"),
        "gaussian.s2_ms": per_call_ms("renyi2_entropy"),
        "gaussian.s1_ms": per_call_ms("symplectic_eigenvalues", "von_neumann_entropy"),
        "montecarlo.samples_per_s": samples / sum(s.wall for s in mc),
        "montecarlo.cpu_per_sample_ms": 1000.0 * sum(s.cpu for s in mc) / samples,
        "analytic.density_ms": 1000.0 * statistics.mean(
            s.wall for s in tracer.select("page_curve_density", cold=True)),
        "analytic.series_terms": sum(
            analytic.density_series_info(probe.squeeze, r).terms for r in probe.grid),
        "weingarten.wg_table_s": cold_at_max_q("wg_class_table", lambda key: key[0]),
        "weingarten.moment_s": cold_at_max_q("haar_moment_trace_product", lambda key: _q(key[0])),
        "kernels.pair_counts_s": cold_at_max_q("moment_pair_counts", _q),
        "kernels.xi_sum_s": sum(statistics.mean(walls) for walls in xi.values()),
        "cli.overhead_s": statistics.median(o for o, _ in rounds),
    }
    return outcomes, failures, {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


PER_LAYER = {
    "haar.draw_ms": "ms",
    "gaussian.reduce_ms": "ms",
    "gaussian.s2_ms": "ms",
    "gaussian.s1_ms": "ms",
    "montecarlo.samples_per_s": "1/s",
    "montecarlo.cpu_per_sample_ms": "ms",
    "analytic.density_ms": "ms",
    "analytic.series_terms": "count",
    "weingarten.wg_table_s": "s",
    "weingarten.moment_s": "s",
    "kernels.pair_counts_s": "s",
    "kernels.xi_sum_s": "s",
    "cli.overhead_s": "s",
}


def probe_layers(probe, cold, seed, mods):
    """Direct calls into the layers' public functions (see workloads.Probe)."""
    analytic, gaussian, haar = mods["analytic"], mods["gaussian"], mods["haar"]
    montecarlo, weingarten = mods["montecarlo"], mods["weingarten"]
    for n in probe.modes:
        sigma0 = gaussian.build_initial_covariance(gaussian.SqueezingConfig.equal(n, probe.squeeze))
        for j in range(probe.draws):
            u = haar.sample_haar_unitary(n, haar.SeededStream(seed, j))
            sigma = gaussian.evolve(sigma0, u)
            for k in probe.subsystems(n):
                red = gaussian.reduce_subsystem(sigma, k)
                gaussian.renyi2_entropy(red)
                gaussian.von_neumann_entropy(gaussian.symplectic_eigenvalues(red))
    if probe.monte_carlo:
        n = probe.modes[0]
        config = montecarlo.RunConfig(
            n=n, squeezing=gaussian.SqueezingConfig.equal(n, probe.squeeze),
            subsystem_sizes=tuple(range(n + 1)), samples=probe.monte_carlo, master_seed=seed)
        cold(montecarlo.estimate_entropy_statistics, config)
    if probe.density:
        for r in probe.grid:
            cold(analytic.page_curve_density, probe.squeeze, r)
    if probe.moment:
        cold(weingarten.haar_moment_trace_product, *probe.moment)
    for l in range(1, probe.a_ell_max + 1):
        cold(weingarten.a_ell_enumeration, l)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pagecurve" / "cli.py").is_file():
        print(f"error: no pagecurve sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    outcomes, failures, metrics = run(workload, args.seed, args.seconds)
    for o in outcomes:
        if o.returncode != 0:
            print(f"failed (exit {o.returncode}): {' '.join(o.request.argv)}: "
                  f"{o.stderr.strip()[:300]}", file=sys.stderr)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.returncode != 0),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
