"""fracquad benchmark: timings next to reference-checked accuracy.

Run from the root of a checkout that holds ``src/fracquad``::

    python3 perfbench/run.py --workload long-signal --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # each in turn

Workloads (see ``workloads.py`` and ``layer_map.json``): ``long-signal``,
``rule-mix`` and ``cli-reference``.  One client runs the workload's fixed set
of operations in a closed loop, pass after pass, until ``--seconds`` have
passed (at least three passes).  Every operation's output is checked against
a reference the code under test does not produce (``refs.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, runs the CLI in-process through
``fracquad.cli.main``, and reports per-layer self times and size-derived
counts from spans recorded at fracquad's public call boundaries
(``spans.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a full report (and,
when traced, every span) is written to ``.perfbench_out/`` in the checkout.
``failed`` counts every operation that raised, returned a non-finite or
malformed output, or missed its reference tolerance; each is printed as a
``FAIL`` line with its measured error.  ``correct`` is false when any
failure is not one of the seed's known defects (``refs.KNOWN_DEFECTS``).
"""

from __future__ import annotations

import os
import sys

#: Thread caps for BLAS/OpenMP pools, set before numpy loads and inherited by
#: CLI child processes: one client on a small machine, so the figures measure
#: fracquad rather than thread scheduling.
THREAD_CAP_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_CAP = 1
for _var in THREAD_CAP_VARS:
    os.environ[_var] = str(THREAD_CAP)
os.environ.pop("FRACQUAD_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

SETUP_REPEATS = 7
IMPORT_TIME_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    if not (SRC / "fracquad" / "__init__.py").is_file():
        _fail(f"no fracquad sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import fracquad
    if Path(fracquad.__file__).resolve().parent != SRC / "fracquad":
        _fail(f"imported fracquad from {fracquad.__file__}, not {SRC}")
    return fracquad


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def machine_facts():
    import mpmath
    import numpy as np
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_caps": {v: os.environ[v] for v in THREAD_CAP_VARS},
    }


def measure_setup(env):
    """Wall time of fresh interpreters running ``import fracquad``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import fracquad"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def measure_cli_import(env):
    """``import fracquad.cli`` time from ``-X importtime`` (package + cli)."""
    times = []
    for _ in range(IMPORT_TIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import fracquad.cli"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        total = 0
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] in ("fracquad", "fracquad.cli"):
                total += int(parts[1])
        times.append(total * 1e-6)
    return times


# ------------------------------------------------------------------ the loop
class Runner:
    """Runs the operations pass after pass and keeps first-pass outputs."""

    def __init__(self, ops, execute):
        self.ops = ops
        self.execute = execute
        self.outputs = [None] * len(ops)
        self.raised = {}
        self.changed = {}
        self.latency = [[] for _ in ops]
        self.max_child_rss_kb = 0

    def one_pass(self):
        start = perf_counter()
        for i, op in enumerate(self.ops):
            t0 = perf_counter()
            try:
                out = self.execute(op)
            except Exception as exc:  # an operation that raises has failed
                out = exc
            self.latency[i].append(perf_counter() - t0)
            self._record(i, out)
        return perf_counter() - start

    def _record(self, i, out):
        if isinstance(out, Exception):
            self.raised[i] = f"{type(out).__name__}: {out}"
            return
        if isinstance(out, tuple) and len(out) == 3:   # CLI child process
            self.max_child_rss_kb = max(self.max_child_rss_kb, out[2])
            out = out[:2]
        first = self.outputs[i]
        if first is None:
            self.outputs[i] = out
        elif not _same(first, out):
            self.changed[i] = self.changed.get(i, 0) + 1


def _same(a, b):
    import numpy as np
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def run_timed(runner, seconds):
    """Passes until the next one would end past ``seconds`` (>= MIN_PASSES)."""
    walls = []
    start = perf_counter()
    while True:
        walls.append(runner.one_pass())
        elapsed = perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + _median(walls) > seconds:
            return walls


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else \
        0.5 * (values[mid - 1] + values[mid])


# ------------------------------------------------------------------ checking
def check_all(runner, refs):
    """Checks per operation; failures carry their measured error."""
    per_op = []
    for i, op in enumerate(runner.ops):
        if i in runner.raised:
            checks = [refs.Check(f"{op.label}: raised {runner.raised[i]}",
                                 float("inf"), 0.0, "bench")]
        else:
            try:
                checks = op.check(runner.outputs[i])
            except Exception as exc:  # a malformed output breaks its check
                checks = [refs.Check(
                    f"{op.label}: check could not run "
                    f"({type(exc).__name__}: {exc})", float("inf"), 0.0,
                    "bench")]
        per_op.append(checks)
    return per_op


# ------------------------------------------------------------------ metrics
def tail(values):
    """Value at the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def accuracy_metrics(per_op):
    out = {"quadrature.err_over_bound": 0.0, "weights.max_rel_err": 0.0,
           "oracle.max_rel_err": 0.0}
    for checks in per_op:
        for c in checks:
            if c.layer == "quadrature":
                out["quadrature.err_over_bound"] = max(
                    out["quadrature.err_over_bound"], c.ratio)
            elif c.layer in ("weights", "oracle") and c.rel is not None:
                key = f"{c.layer}.max_rel_err"
                out[key] = max(out[key], c.rel)
    return out


def special_accuracy(tracer, samples_per_function=40):
    """Worst relative error of recorded special-function calls vs mpmath.

    Distinct arguments are sorted and an evenly spaced subset is compared,
    so the largest ``t`` of ``lower_incomplete_gamma`` is always included.
    """
    import mpmath as mp
    worst = 0.0
    for name, seen in tracer.recorded["special"].items():
        keys = sorted(seen)
        step = max(len(keys) // samples_per_function, 1)
        for args in keys[::-step]:
            if name == "gamma":
                ref = mp.gamma(args[0])
            else:
                ref = mp.gammainc(args[1], 0, args[0])
            if ref != 0:
                err = abs(mp.mpf(seen[args]) - ref) / abs(ref)
                worst = max(worst, float(err))
    return worst


def csv_counts(runner):
    rows = size = 0
    for op, out in zip(runner.ops, runner.outputs):
        if op.argv is not None and isinstance(out, tuple):
            text = out[1]
            size += len(text.encode("utf-8"))
            rows += max(text.count("\n") - 1, 0)
    return size, rows


def end_to_end(name, walls, runner, per_op, setup_times, child_rss_kb):
    lat_ms = [1e3 * _median(x) for x in runner.latency]
    tail_ms, tail_pct = tail(lat_ms)
    attempted, failed = attempts(runner, per_op)
    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_kb = child_rss_kb if name == "cli-reference" else own_rss_kb
    metrics = {
        "wall_s": (_median(walls), "s"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    # Per-operation latencies are printed, not bounded: one operation's
    # latency drifts more between runs on a shared machine than the 0.25
    # bound allows (see BASELINE.md).
    notes = {
        "passes": len(walls),
        "operations_per_pass": len(runner.ops),
        "op_p50_ms": _median(lat_ms),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_latency": "median of each operation's repeats",
        "setup_samples": len(setup_times),
        "fail_ratio": failed / attempted,
    }
    return metrics, notes, attempted, failed


def attempts(runner, per_op):
    passes = len(runner.latency[0]) if runner.latency else 0
    attempted = passes * len(runner.ops)
    failed = 0
    for i, checks in enumerate(per_op):
        if any(not c.ok for c in checks):
            failed += passes
        elif i in runner.changed:
            failed += runner.changed[i]
    return max(attempted, 1), failed


# ------------------------------------------------------------------ traced
def traced_run(ops, runner_fn, seconds, tracer_cls):
    """Alternate untraced and traced passes; spans only from traced ones."""
    tracer = tracer_cls()
    runner = Runner(ops, runner_fn)
    untraced, traced = [], []

    def one(i):
        if i % 2:
            tracer.install()
            try:
                traced.append(runner.one_pass())
            finally:
                tracer.uninstall()
        else:
            untraced.append(runner.one_pass())

    start = perf_counter()
    i = 0
    while True:
        one(i)
        i += 1
        elapsed = perf_counter() - start
        if len(traced) >= MIN_PASSES and elapsed + _median(
                untraced + traced) > seconds:
            break
    return tracer, runner, untraced, traced


def layer_metrics(tracer, traced, untraced, runner, per_op, env, trace_mod):
    k = len(traced)
    cells, top_total = tracer.self_times()

    def self_s(layer, bucket=""):
        return cells.get((layer, bucket), [0.0, 0])[0] / k

    def calls(layer):
        return cells.get((layer, ""), [0.0, 0])[1] / k

    counts = tracer.counts
    accuracy = accuracy_metrics(per_op)
    csv_bytes, rows = csv_counts(runner)
    fit = tracer.recorded["fit_residual"]
    import_times = measure_cli_import(env)
    notes = {"quadrature.direct_long.self_s": self_s("quadrature",
                                                     "direct_long")}
    m = {}
    for layer in trace_mod.LAYERS:
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m.update({
        "quadrature.direct.self_s": (self_s("quadrature", "direct")
                                     + self_s("quadrature", "direct_long"),
                                     "s"),
        "quadrature.fft.self_s": (self_s("quadrature", "fft"), "s"),
        "quadrature.panel.self_s": (self_s("quadrature", "panel"), "s"),
        "quadrature.calls": (calls("quadrature"), "count"),
        "quadrature.nodes": (counts["nodes"] / k, "count"),
        "quadrature.mac_count": (counts["mac_count"] / k, "count"),
        "quadrature.bytes_computed": (16 * counts["mac_count"] / k, "B"),
        "quadrature.fft.pad_ratio": (trace_mod.pad_ratio(counts), "ratio"),
        "quadrature.err_over_bound": (accuracy["quadrature.err_over_bound"],
                                      "ratio"),
        "weights.gl.self_s": (self_s("weights", "gl"), "s"),
        "weights.nc0.self_s": (self_s("weights", "nc0"), "s"),
        "weights.flmm.self_s": (self_s("weights", "flmm"), "s"),
        "weights.starting.self_s": (self_s("weights", "starting"), "s"),
        "weights.generated": (counts["weights_generated"] / k, "count"),
        "weights.used_ratio": (trace_mod.used_ratio(counts), "ratio"),
        "weights.max_rel_err": (accuracy["weights.max_rel_err"], "ratio"),
        "derivative.calls": (calls("derivative"), "count"),
        "oracle.calls": (calls("oracle"), "count"),
        "oracle.integrand_evals": (counts["integrand_evals"] / k, "count"),
        "oracle.max_rel_err": (accuracy["oracle.max_rel_err"], "ratio"),
        "special.calls": (calls("special"), "count"),
        "special.max_rel_err": (special_accuracy(tracer), "ratio"),
        "dielectric.fit_residual": (max(fit) if fit else 0.0, "1"),
        "cli.csv_bytes": (float(csv_bytes), "B"),
        "cli.rows": (float(rows), "count"),
        "cli.import_s": (_median(import_times), "s"),
        "bench.self_s": ((sum(traced) - top_total) / k, "s"),
        "trace.wall_s": (sum(traced) / k, "s"),
        "trace.overhead_s": (sum(traced) / k - sum(untraced) / len(untraced),
                             "s"),
    })
    return m, notes


# ------------------------------------------------------------------ main
def run_all(args):
    """Each workload in its own process, one after another."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import refs
    import spans as trace_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    env = _child_env()
    facts = machine_facts()
    setup_times = measure_setup(env)
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed, str(WORK_DIR))

    errfile = str(WORK_DIR / "cli-stderr.txt")
    if args.workload == "cli-reference" and not args.trace:
        def execute(op):
            return workloads.run_cli_subprocess(op.argv, env, ROOT, errfile)
    elif args.workload == "cli-reference":
        def execute(op):
            return workloads.run_cli_inprocess(op.argv)
    else:
        def execute(op):
            return op.run()

    if args.trace:
        tracer, runner, untraced, traced = traced_run(
            ops, execute, args.seconds, trace_mod.Tracer)
        walls = untraced
    else:
        runner = Runner(ops, execute)
        walls = run_timed(runner, args.seconds)
    per_op = check_all(runner, refs)
    metrics, notes, attempted, failed = end_to_end(
        args.workload, walls, runner, per_op, setup_times,
        runner.max_child_rss_kb)
    if args.trace:
        metrics, layer_notes = layer_metrics(
            tracer, traced, untraced, runner, per_op, env, trace_mod)
        notes.update(layer_notes)
        notes["traced_passes"] = len(traced)
        notes["untraced_wall_s"] = _median(untraced)
        notes["traced_wall_s"] = _median(traced)

    failures = []
    correct = True
    for checks in per_op:
        for c in checks:
            if not c.ok:
                failures.append({"check": c.what, "err": c.err,
                                 "bound": c.bound, "ratio": c.ratio,
                                 "known_defect": c.defect})
                correct = correct and c.defect in refs.KNOWN_DEFECTS
    for i, times in runner.changed.items():
        failures.append({"check": f"{ops[i].label}: output changed between "
                         f"passes ({times} times)", "err": float(times),
                         "bound": 0.0, "ratio": math.inf,
                         "known_defect": None})
        correct = False
    csv_bytes, rows = csv_counts(runner)

    print(f"machine: {json.dumps(facts)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{json.dumps(notes)}")
    print(f"cli output (computed from outputs): csv_bytes={csv_bytes} "
          f"rows={rows}")
    for f in failures:
        tag = f["known_defect"] or "NOT A KNOWN DEFECT"
        print(f"FAIL {f['check']} err={f['err']:.3g} bound={f['bound']:.3g} "
              f"ratio={f['ratio']:.3g} [{tag}]")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"op_p50_ms = {notes['op_p50_ms']:.6g} ms (not bounded)")
        print(f"op_tail_ms = {notes['op_tail_ms']:.6g} ms at percentile "
              f"{notes['op_tail_percentile']:.4g} of {len(ops)} operations "
              "(not bounded)")
    if args.trace:
        own = sum(metrics[f"{layer}.self_s"][0] for layer in trace_mod.LAYERS)
        print(f"traced pass: module self times {own:.6g} s + benchmark "
              f"{metrics['bench.self_s'][0]:.6g} s = "
              f"{own + metrics['bench.self_s'][0]:.6g} s of trace.wall_s "
              f"{metrics['trace.wall_s'][0]:.6g} s; tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.6g} s per pass")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": facts, "notes": notes,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "failures": failures,
        "operations": [
            {"label": op.label, "latency_s": lat,
             "worst": max((c.ratio for c in checks), default=0.0)}
            for op, lat, checks in zip(ops, runner.latency, per_op)],
        "setup_s": setup_times,
    }
    if args.trace:
        report["spans"] = {
            "fields": ["name", "layer", "bucket", "start", "end", "parent",
                       "n"],
            "records": tracer.span_records()}
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, default=float)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
