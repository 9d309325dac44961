"""Time the ROADMAP "Open items" baseline rows once, with tracing on.

Run from the root of a checkout::

    python3 perfbench/roadmap_rows.py

Each row calls the public API through the same span wrappers as a traced
benchmark run and prints the row's wall time, the self time of the layer the
row is about, and an accuracy figure against a reference from ``refs.py``.
Rows are single calls (the slowest takes about ten seconds at the seed), so
they are a baseline to compare with the ROADMAP table, not a timed workload.
The result is also written to ``.perfbench_out/roadmap_rows.json``.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run  # sets the thread caps before numpy loads

run._load_program()

import numpy as np  # noqa: E402

import fracquad as fq  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
from fracquad.weights import Scheme  # noqa: E402


def traced(call):
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = perf_counter()
        result = call()
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    cells, _ = tracer.self_times()
    return result, wall, {f"{layer}{'.' + bucket if bucket else ''}": cell[0]
                          for (layer, bucket), cell in cells.items()}


def conv_error(out, f, w, nodes):
    """Worst relative error against the exact convolution at ``nodes``."""
    worst = 0.0
    for n in nodes:
        ref, _ = refs.conv_at(f, w, n)
        worst = max(worst, abs(out[n] - ref) / abs(ref))
    return worst


def main():
    rows = []
    n = 1 << 16
    grid = fq.UniformGrid(40.0 / (n - 1), n)
    growth = fq.SampledSignal(grid, np.exp(grid.nodes))
    w = fq.gl_weights(0.5, grid.dt, n)
    nodes = [1, 10, 100, 1000, n // 2, n - 1]

    out, wall, cells = traced(lambda: fq.frac_integral(growth, w).values)
    rows.append(("compensated direct path, e^t on [0, 40]", n, wall,
                 cells.get("quadrature.direct_long", 0.0),
                 "max rel err vs exact convolution",
                 conv_error(out, growth.values, w.values, nodes)))
    start = perf_counter()
    plain = np.convolve(growth.values, w.values)[:n]
    rows.append(("np.convolve on the same arrays", n, perf_counter() - start,
                 None, "max rel err vs exact convolution",
                 conv_error(plain, growth.values, w.values, nodes)))
    out, wall, cells = traced(
        lambda: fq.frac_integral(growth, w, method="fft").values)
    rows.append(("FFT path, e^t on [0, 40]", n, wall,
                 cells.get("quadrature.fft", 0.0),
                 "max rel err vs exact convolution",
                 conv_error(out, growth.values, w.values, nodes)))

    m = 30_000
    weights, wall, cells = traced(
        lambda: fq.weights_for_scheme(Scheme.FLMM_TRAP, 0.5, 0.01, m).values)
    series = refs.FlmmSeries(0.5, 0.01, m - 1)
    err = max(float(abs(weights[k] - series.weight(k)[0])
                    / abs(series.weight(k)[0])) for k in (10, m // 2, m - 1))
    rows.append(("flmm-trap weights (longdouble Miller)", m, wall,
                 cells.get("weights.flmm", 0.0),
                 "max rel err vs mpmath series product", err))

    for p in (3, 2):
        for size in (65, 4097):
            g = fq.UniformGrid(1.0 / (size - 1), size)
            sig = fq.SampledSignal(g, g.nodes ** 2 if p == 3 else g.nodes)
            out, wall, cells = traced(
                lambda: fq.frac_newton_cotes(sig, 0.5, p).values)
            q = 2 if p == 3 else 1
            exact = refs.frac_integral_monomial(g.t_end, 0.5, q)[0]
            rows.append((f"frac_newton_cotes p={p}", size, wall,
                         cells.get("quadrature.panel", 0.0),
                         f"rel err on t^{q} at t=1",
                         float(abs(out[-1] - exact) / exact)))

    env = run._child_env()
    setup = run.measure_setup(env)
    rows.append(("python -c 'import fracquad' (median of 7)", None,
                 run._median(setup), None, "", None))
    for argv in (["integrate", "--f", "exp", "--alpha", "0.5", "--t-end",
                  "10", "--n", "30000", "--scheme", "flmm-trap", "--method",
                  "fft"],
                 ["integrate", "--f", "exp", "--alpha", "0.5", "--t-end",
                  "10", "--n", "4097", "--scheme", "nc3"]):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "fracquad.cli", *argv],
                       env=env, cwd=run.ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        rows.append(("CLI " + " ".join(argv[5:]), None,
                     perf_counter() - start, None, "", None))

    for name, size, wall, own, what, err in rows:
        own_s = "" if own is None else f" layer self {own:.3f} s"
        err_s = "" if err is None else f" {what} {err:.2g}"
        size_s = "" if size is None else f" N={size}"
        print(f"{name}{size_s}: {wall:.3f} s{own_s}{err_s}")
    run.OUT_DIR.mkdir(exist_ok=True)
    with open(Path(run.OUT_DIR) / "roadmap_rows.json", "w",
              encoding="utf-8") as fh:
        json.dump({"machine": run.machine_facts(),
                   "rows": [dict(zip(("row", "n", "wall_s", "layer_self_s",
                                      "accuracy", "error"), r))
                            for r in rows]}, fh, indent=1,
                  default=lambda x: None if x is None or math.isnan(x)
                  else float(x))


if __name__ == "__main__":
    main()
