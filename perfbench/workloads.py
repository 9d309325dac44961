"""The three workloads: their operations, inputs and reference checks.

A workload is a fixed list of operations built from the seed.  The seed
draws signal parameters, random walks, size jitters of at most 1.5 % and,
for rule-mix and cli-reference, the order; it never changes which rule,
path or signal family an operation uses, so the amount of work and the set
of known-defect probes are the same for every seed.  Each :class:`Op` has
``run`` (the timed request, returning its output) and ``check`` (untimed,
returning :class:`refs.Check` objects).

Why these three workloads:

* ``long-signal`` -- long in-process convolutions (N up to 2^16, direct
  path on both sides of the 10^4 compensated-summation switch, and the FFT
  path); time goes to ``quadrature``.
* ``rule-mix`` -- many short in-process requests over every rule family
  (N from 65 to 4097); time goes to the FLMM Miller loop in ``weights`` and
  the per-node panel loop in ``quadrature``.
* ``cli-reference`` -- one ``python -m fracquad.cli`` process at a time;
  time goes to import, argparse, CSV formatting and the ``oracle`` and
  ``special`` layers behind the reference columns.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

import fracquad as fq
from fracquad import cli as fq_cli
from fracquad.weights import Scheme

import refs
from refs import Check

WORKLOADS = ("long-signal", "rule-mix", "cli-reference")


class Op:
    """One request of a workload."""

    def __init__(self, label, run, check, argv=None):
        self.label = label
        self.run = run
        self.check = check
        self.argv = argv


def _jit(rng, base, up=False, spread=0.015):
    lo, hi = (1.0, 1.0 + spread) if up else (1.0 - spread, 1.0)
    return int(round(base * rng.uniform(lo, hi)))


def _grid(n, t_end):
    grid = fq.UniformGrid(t_end / (n - 1), n)
    return grid, grid.nodes


def _signal(kind, n, t_end, rng):
    grid, t = _grid(n, t_end)
    if kind == "sin":
        omega, phase = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.2)
        values = np.sin(omega * t + phase)
    elif kind == "decay":
        values = np.exp(-t)
    elif kind == "growth":
        values = np.exp(t)
    elif kind == "walk":
        steps = rng.standard_normal(n) * math.sqrt(grid.dt)
        steps[0] = 0.0
        values = 1.0 + np.cumsum(steps)
    else:
        raise ValueError(kind)
    return fq.SampledSignal(grid, values)


def _finite(label, values):
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or not np.all(np.isfinite(values)):
        return [Check(f"{label}: non-finite or malformed output", math.inf,
                      0.0, "bench")]
    return []


def _gl_weight_checks(label, values, alpha, dt, rng):
    ks = refs.weight_indices(rng, len(values))
    return refs.check_weights(
        f"{label} gl weights", values,
        lambda k: refs.gl_weight(alpha, dt, k), ks)


# ================================================================ long-signal
_LONG_T = 40.0

#: (operation, method, signal, base N, size jitter direction).  Direct sizes
#: sit on both sides of the 10^4 switch to compensated summation.  A dozen
#: numpy-bound operations of similar cost (7-13 ms at the seed) hold both the
#: median and the tail rank, so those two metrics do not jump between
#: operations of different cost from one seed to the next.
_LONG_PLAN = [
    ("integral", "direct", "walk", 4500, "down"),
    ("integral", "direct", "growth", 6000, "down"),
    ("integral", "direct", "sin", 7000, "down"),
    ("integral", "direct", "walk", 9800, "down"),
    ("integral", "direct", "decay", 10500, "up"),
    ("integral", "direct", "growth", 12000, "up"),
    ("integral", "direct", "sin", 14000, "up"),
    ("integral", "direct", "walk", 16000, "up"),
    ("integral", "fft", "decay", 16384, "down"),
    ("integral", "fft", "growth", 16384, "down"),
    ("integral", "fft", "sin", 32768, "down"),
    ("integral", "fft", "walk", 32768, "down"),
    ("integral", "fft", "decay", 65536, "down"),
    ("integral", "fft", "sin", 65536, "down"),
    ("integral", "fft", "walk", 65536, "down"),
    ("derivative", "direct", "decay", 7000, "down"),
    ("derivative", "direct", "walk", 10500, "up"),
    ("derivative", "fft", "sin", 65536, "down"),
    ("derivative", "fft", "walk", 65536, "down"),
    ("derivative", "fft", "growth", 4096, "down"),
    ("polarization", "direct", "sin", 6000, "down"),
    ("polarization", "direct", "walk", 11000, "up"),
    ("polarization", "fft", "sin", 65536, "down"),
    ("polarization", "fft", "walk", 32768, "down"),
    ("polarization", "fft", "decay", 16384, "down"),
    ("trapezoid", "direct", "decay", 6000, "down"),
    ("trapezoid", "direct", "sin", 10000, "down"),
    ("trapezoid", "fft", "sin", 65536, "down"),
    ("trapezoid", "fft", "walk", 32768, "down"),
]


def _long_op(rng, op, method, kind, base, jitter):
    n = _jit(rng, base, up=(jitter == "up"))
    signal = _signal(kind, n, _LONG_T, rng)
    alpha = float(rng.uniform(0.3, 0.7))
    label = f"{op}/{method}/{kind}/N={n}"
    dt = signal.grid.dt
    f = signal.values
    nodes = refs.probe_nodes(rng, n)
    wrng = np.random.default_rng(rng.integers(1 << 32))
    # The FFT path's error is absolute; on e^t it is a known defect.
    defect = "fft-absolute-error" if (method == "fft" and kind == "growth") \
        else None

    if op == "integral":
        def run():
            w = fq.gl_weights(alpha, dt, n)
            return fq.frac_integral(signal, w, method=method).values

        def check(out):
            w = fq.gl_weights(alpha, dt, n).values
            return (_finite(label, out)
                    + refs.check_conv(label, out, f, w, nodes, defect=defect)
                    + _gl_weight_checks(label, w, alpha, dt, wrng))
    elif op == "derivative":
        def run():
            return fq.gl_derivative(signal, alpha, method=method).values

        def check(out):
            w = fq.gl_weights(-alpha, dt, n).values
            return (_finite(label, out)
                    + refs.check_conv(label, out, f, w, nodes, defect=defect)
                    + _gl_weight_checks(label, w, -alpha, dt, wrng))
    elif op == "polarization":
        eps0 = float(rng.uniform(0.5, 2.0))

        def run():
            return fq.fractional_polarization(
                signal, alpha, eps0=eps0, method=method).values

        def check(out):
            w = fq.gl_weights(alpha, dt, n).values
            return (_finite(label, out)
                    + refs.check_conv(label, out, f, w, nodes, defect=defect,
                                      scale=eps0))
    elif op == "trapezoid":
        def run():
            return fq.frac_trapezoid(signal, alpha, method=method).values

        def check(out):
            w = fq.nc0_weights(alpha, dt, n - 1).values
            avg = 0.5 * (f[:-1] + f[1:])
            avg = np.append(avg, 0.0)
            ks = refs.weight_indices(wrng, n - 1)
            return (_finite(label, out)
                    + refs.check_conv(label, out, avg, np.append(w, 0.0),
                                      nodes, panel=True, defect=defect)
                    + refs.check_weights(
                        f"{label} nc0 weights", w,
                        lambda k: refs.nc0_weight(alpha, dt, k), ks))
    else:
        raise ValueError(op)
    return Op(label, run, check)


def _oracle_exp_op(rng, label, t_probe):
    alpha = float(rng.uniform(0.3, 0.7))
    ref = _exp_exact(alpha)

    def run():
        return np.array([fq.exact_integral_exp(t, alpha) for t in t_probe])

    def check(out):
        worst = None
        for t, got in zip(t_probe, out):
            c = ref(t, got)
            c.what = f"{label}@t={t:g}"
            if worst is None or c.ratio > worst.ratio:
                worst = c
        return _finite(label, out) + [worst]
    return Op(label, run, check)


def _cli_inprocess_op(rng, spec):
    """A CLI request served in-process by ``fracquad.cli.main``."""
    spec.label = f"cli-inprocess/{spec.label}"
    return Op(spec.label, lambda: run_cli_inprocess(spec.argv),
              _cli_check(spec, rng), spec.argv)


def build_long_signal(rng, workdir):
    ops = [_long_op(rng, *plan) for plan in _LONG_PLAN]
    # one short request each for the panel rule, the FLMM and starting
    # weights, the oracle and the CLI, so every layer's traced self time is
    # measured here too
    ops.append(_nc_op(rng, 2, 65))
    ops.append(_cq_op(rng, Scheme.FLMM_TRAP, 257, None, starting=1))
    ops.append(_oracle_exp_op(rng, "oracle/exact_integral_exp",
                              [1.0, 12.0, 19.5, 30.0]))
    ops.append(_cli_inprocess_op(rng, _coeffs_spec(rng, "gl", 256, False)))
    return ops


# =================================================================== rule-mix
def _poly_signal(n, t_end, coeffs):
    grid, t = _grid(n, t_end)
    values = np.zeros(n)
    for q, c in enumerate(coeffs):
        values = values + c * t ** q
    return fq.SampledSignal(grid, values)


def _exactness_checks(label, out, signal, alpha, coeffs, nodes, m, s_fn,
                      defect=None):
    """Exactness of a rule on a polynomial it integrates exactly."""
    worst = None
    dt = signal.grid.dt
    for n in nodes:
        ref, s_exact = refs.frac_integral_poly(n * dt, alpha, coeffs)
        s = s_fn(n) if s_fn is not None else s_exact
        c = Check(f"{label}@{n}", abs(mp.mpf(float(out[n])) - ref),
                  refs.tol(m, s), "quadrature", defect)
        if worst is None or c.ratio > worst.ratio:
            worst = c
    return [worst]


def _nc_op(rng, p, base):
    n = _jit(rng, base)
    if p == 3 and n % 2 == 0:
        n -= 1
    t_end = float(rng.uniform(1.0, 4.0))
    coeffs = [float(c) for c in rng.uniform(0.5, 2.0, p)]
    signal = _poly_signal(n, t_end, coeffs)
    alpha = float(rng.uniform(0.3, 0.9))
    label = f"newton-cotes/p={p}/N={n}"
    nodes = [x for x in refs.probe_nodes(rng, n) if x > 0]
    defect = "nc3-moment-drift" if p == 3 else None

    def run():
        return fq.frac_newton_cotes(signal, alpha, p).values

    def check(out):
        return _finite(label, out) + _exactness_checks(
            label, out, signal, alpha, coeffs, nodes, n, None, defect)
    return Op(label, run, check)


def _weights_and_ref(scheme, alpha, dt, n):
    if scheme is Scheme.FLMM_TRAP:
        series = refs.FlmmSeries(alpha, dt, n)
        return series.weight
    return lambda k: refs.gl_weight(alpha, dt, k)


def _cq_op(rng, scheme, base, kind, starting=None, method="direct"):
    """Convolution-quadrature integral, optionally starting-corrected."""
    n = _jit(rng, base)
    alpha = float(rng.uniform(0.3, 0.9))
    name = scheme.value
    if starting is None:
        signal = _signal(kind, n, float(rng.uniform(2.0, 8.0)), rng)
        label = f"integral/{name}/{method}/{kind}/N={n}"
    else:
        coeffs = [0.0] * starting + [float(rng.uniform(0.5, 2.0))]
        coeffs[0] = float(rng.uniform(0.5, 2.0))
        signal = _poly_signal(n, float(rng.uniform(1.0, 3.0)), coeffs)
        label = f"starting/{name}/s={starting}/N={n}"
    dt = signal.grid.dt
    f = signal.values
    nodes = refs.probe_nodes(rng, n)
    wrng = np.random.default_rng(rng.integers(1 << 32))

    def run():
        w = fq.weights_for_scheme(scheme, alpha, dt, n)
        return fq.frac_integral(signal, w, method=method,
                                starting_degree=starting).values

    def check(out):
        w = fq.weights_for_scheme(scheme, alpha, dt, n).values
        checks = _finite(label, out)
        ks = refs.weight_indices(wrng, n)
        checks += refs.check_weights(f"{label} weights", w,
                                     _weights_and_ref(scheme, alpha, dt, n),
                                     ks)
        if starting is None:
            return checks + refs.check_conv(label, out, f, w, nodes)
        # exact on degree <= s at every node n >= s (smaller nodes get a
        # reduced-degree correction by design)
        exact_nodes = [x for x in nodes if x >= starting]

        def scale(k):
            mu = refs.starting_row(w, alpha, dt, starting, k)
            return (refs.conv_at(np.abs(f), np.abs(w), k)[1]
                    + float(np.abs(mu) @ np.abs(f[: starting + 1])))
        return checks + _exactness_checks(
            label, out, signal, alpha, coeffs, exact_nodes, n + starting + 1,
            scale)
    return Op(label, run, check)


def _trapezoid_op(rng, base, kind):
    n = _jit(rng, base)
    signal = _signal(kind, n, float(rng.uniform(2.0, 8.0)), rng)
    alpha = float(rng.uniform(0.3, 0.9))
    label = f"trapezoid/{kind}/N={n}"
    f, dt = signal.values, signal.grid.dt
    nodes = refs.probe_nodes(rng, n)

    def run():
        return fq.frac_trapezoid(signal, alpha).values

    def check(out):
        w = np.append(fq.nc0_weights(alpha, dt, n - 1).values, 0.0)
        avg = np.append(0.5 * (f[:-1] + f[1:]), 0.0)
        return _finite(label, out) + refs.check_conv(label, out, avg, w,
                                                     nodes, panel=True)
    return Op(label, run, check)


def _short_memory_op(rng, base, kind):
    n = _jit(rng, base)
    signal = _signal(kind, n, float(rng.uniform(2.0, 8.0)), rng)
    order = float(rng.uniform(0.3, 0.7))
    memory = n // 4
    label = f"short-memory/{kind}/N={n}/L={memory}"
    f, dt = signal.values, signal.grid.dt
    nodes = refs.probe_nodes(rng, n)

    def run():
        w = fq.gl_weights(-order, dt, n)
        return fq.short_memory_integral(signal, w, memory).values

    def check(out):
        w = fq.gl_weights(-order, dt, n).values.copy()
        w[memory:] = 0.0
        return _finite(label, out) + refs.check_conv(label, out, f, w, nodes)
    return Op(label, run, check)


def _stencil(n_int, node, size, dt):
    """Coefficients of the finite difference the composition route applies
    (``numpy.gradient`` with second-order edges, or the second difference)."""
    if n_int == 1:
        if node == 0:
            return {0: -1.5 / dt, 1: 2.0 / dt, 2: -0.5 / dt}
        if node == size - 1:
            return {node: 1.5 / dt, node - 1: -2.0 / dt, node - 2: 0.5 / dt}
        return {node + 1: 0.5 / dt, node - 1: -0.5 / dt}
    h2 = dt * dt
    if node == 0:
        return {0: 2 / h2, 1: -5 / h2, 2: 4 / h2, 3: -1 / h2}
    if node == size - 1:
        return {node: 2 / h2, node - 1: -5 / h2, node - 2: 4 / h2,
                node - 3: -1 / h2}
    return {node + 1: 1 / h2, node: -2 / h2, node - 1: 1 / h2}


def _rl_derivative_op(rng, base, kind, scheme, lo, hi):
    n = _jit(rng, base)
    signal = _signal(kind, n, float(rng.uniform(2.0, 8.0)), rng)
    alpha = float(rng.uniform(lo, hi))
    n_int = math.floor(alpha) + 1
    label = f"rl-derivative/{scheme.value}/{kind}/a={alpha:.3f}/N={n}"
    f, dt = signal.values, signal.grid.dt
    nodes = refs.probe_nodes(rng, n)

    def run():
        return fq.rl_derivative_via_integral(signal, alpha,
                                             scheme=scheme).values

    def check(out):
        w = fq.weights_for_scheme(scheme, n_int - alpha, dt, n).values
        panel = scheme.panel_based
        worst = None
        for node in nodes:
            terms, s = [], 0.0
            for j, c in _stencil(n_int, node, n, dt).items():
                g, sg = refs.conv_at(f, w, j, panel)
                terms.append(mp.mpf(c) * mp.mpf(g))
                s += abs(c) * sg
            ref = mp.fsum(terms)
            chk = Check(f"{label}@{node}", abs(mp.mpf(float(out[node])) - ref),
                        refs.tol(n + 4, s), "quadrature")
            if worst is None or chk.ratio > worst.ratio:
                worst = chk
        return _finite(label, out) + [worst]
    return Op(label, run, check)


def _forward_gl_op(rng, base, kind):
    n = _jit(rng, base)
    signal = _signal(kind, n, float(rng.uniform(2.0, 8.0)), rng)
    alpha = float(rng.uniform(0.3, 0.9))
    label = f"gl-derivative/forward/{kind}/N={n}"
    f, dt = signal.values, signal.grid.dt
    nodes = refs.probe_nodes(rng, n)

    def run():
        return fq.gl_derivative(signal, alpha, direction="forward").values

    def check(out):
        w = fq.gl_weights(-alpha, dt, n).values
        flipped = np.ascontiguousarray(f[::-1])
        rev = np.ascontiguousarray(out[::-1])
        rev_nodes = [n - 1 - x for x in nodes]
        return _finite(label, out) + refs.check_conv(
            label, rev, flipped, w, rev_nodes)
    return Op(label, run, check)


def _polarization_op(rng, base):
    n = _jit(rng, base)
    signal = _signal("sin", n, float(rng.uniform(5.0, 20.0)), rng)
    alpha = float(rng.uniform(0.2, 0.8))
    label = f"polarization/direct/sin/N={n}"
    nodes = refs.probe_nodes(rng, n)

    def run():
        return fq.fractional_polarization(signal, alpha).values

    def check(out):
        w = fq.gl_weights(alpha, signal.grid.dt, n).values
        return _finite(label, out) + refs.check_conv(
            label, out, signal.values, w, nodes)
    return Op(label, run, check)


def _oracle_monomial_op(rng):
    alpha = float(rng.uniform(0.3, 0.9))
    points = [(float(rng.uniform(0.5, 10.0)), q) for q in range(4)]
    c = float(rng.uniform(0.5, 2.0))
    label = "oracle/closed-forms"

    def run():
        vals = [fq.exact_integral_monomial(t, alpha, q) for t, q in points]
        vals += [fq.exact_integral_const(t, alpha, c) for t, _ in points]
        return np.array(vals)

    def check(out):
        checks = _finite(label, out)
        worst = None
        refs_list = [refs.frac_integral_monomial(t, alpha, q)
                     for t, q in points]
        refs_list += [tuple([c * v for v in
                             refs.frac_integral_monomial(t, alpha, 0)[:2]])
                      + (refs.M_FLOOR,) for t, _ in points]
        for got, (ref, s, m) in zip(out, refs_list):
            chk = refs.check_value(label, got, ref, s, m, "oracle")
            if worst is None or chk.ratio > worst.ratio:
                worst = chk
        return checks + [worst]
    return Op(label, run, check)


_STRATA = (65, 257, 1025, 2049, 4097)


def build_rule_mix(rng, workdir):
    ops = []
    for base in _STRATA:
        ops.append(_nc_op(rng, 2, base))
        ops.append(_nc_op(rng, 3, base))
    for base, kind in ((129, "sin"), (513, "walk"), (2049, "sin"),
                       (4097, "decay")):
        ops.append(_cq_op(rng, Scheme.FLMM_TRAP, base, kind))
    for s, base in enumerate((65, 257, 1025, 2049)):
        ops.append(_cq_op(rng, Scheme.FLMM_TRAP, base, None, starting=s))
    for s, base in enumerate((129, 513, 1025, 4097)):
        ops.append(_cq_op(rng, Scheme.GL, base, None, starting=s))
    for base, kind in ((65, "walk"), (1025, "sin"), (4097, "walk")):
        ops.append(_cq_op(rng, Scheme.GL, base, kind))
    ops.append(_cq_op(rng, Scheme.GL, 4097, "sin", method="fft"))
    for base, kind in ((129, "sin"), (1025, "walk"), (4097, "decay")):
        ops.append(_trapezoid_op(rng, base, kind))
    for base, kind in ((513, "decay"), (2049, "sin"), (4097, "walk")):
        ops.append(_short_memory_op(rng, base, kind))
    ops.append(_rl_derivative_op(rng, 1025, "sin", Scheme.GL, 0.3, 0.9))
    ops.append(_rl_derivative_op(rng, 2049, "decay", Scheme.FLMM_TRAP,
                                 1.1, 1.7))
    ops.append(_rl_derivative_op(rng, 513, "walk", Scheme.NC0, 0.3, 0.9))
    for base, kind in ((257, "sin"), (2049, "decay"), (4097, "walk")):
        ops.append(_forward_gl_op(rng, base, kind))
    ops.append(_polarization_op(rng, 1025))
    ops.append(_oracle_monomial_op(rng))
    ops.append(_cli_inprocess_op(
        rng, _coeffs_spec(rng, "flmm-trap", 1025, False)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


# ============================================================== cli-reference
def parse_csv(text):
    """Header, float columns and whether any row was malformed."""
    lines = text.splitlines()
    if not lines:
        return [], {}, True
    header = lines[0].split(",")
    rows = []
    bad = False
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            bad = True
            continue
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            bad = True
    cols = {name: np.array([r[i] for r in rows]) for i, name in
            enumerate(header)}
    return header, cols, bad


def run_cli_inprocess(argv):
    """``fracquad.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fq_cli.main(list(argv))
    return rc, out.getvalue()


def run_cli_subprocess(argv, env, cwd, errfile):
    """One ``python -m fracquad.cli`` process: (rc, text, maxrss in KB)."""
    with open(errfile, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "fracquad.cli", *argv], cwd=cwd, env=env,
            stdout=subprocess.PIPE, stderr=err)
        try:
            data = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, data.decode("utf-8", "replace"), usage.ru_maxrss


def _write_csv(path, t, f):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,f\n")
        for a, b in zip(t, f):
            fh.write(f"{float(a)!r},{float(b)!r}\n")


class _CliSpec:
    """argv plus the in-process and mpmath references for its columns."""

    def __init__(self, label, argv, header, approx=None, exact=None,
                 custom=None):
        self.label = label
        self.argv = argv
        self.header = header
        self.approx = approx      # () -> (column, ndarray) equal bit for bit
        self.exact = exact        # (column, ref_fn(t, value) -> Check)
        self.custom = custom      # (cols) -> list[Check]


def _cli_check(spec, rng):
    probe_rng = np.random.default_rng(rng.integers(1 << 32))

    def check(out):
        rc, text = out[0], out[1]
        header, cols, bad = parse_csv(text)
        if rc != 0 or bad or header != spec.header:
            return [Check(f"{spec.label}: exit {rc}, header {header[:6]} or "
                          "malformed rows", math.inf, 0.0, "cli")]
        checks = []
        if spec.approx is not None:
            name, ref = spec.approx()
            got = cols[name]
            if got.shape != ref.shape or not np.all(np.isfinite(got)):
                return [Check(f"{spec.label}: {name} has {got.shape} rows "
                              f"or non-finite values, expected {ref.shape}",
                              math.inf, 0.0, "cli")]
            # CSV floats round-trip exactly, so the column must equal the
            # in-process result bit for bit.
            checks.append(Check(f"{spec.label}: {name} vs in-process",
                                float(np.max(np.abs(got - ref))), 0.0, "cli"))
        if spec.exact is not None:
            column, ref_fn = spec.exact
            t = cols["t"]
            rows = sorted({int(x) for x in probe_rng.integers(1, len(t), 10)}
                          | {1, len(t) - 1})
            worst = None
            for r in rows:
                chk = ref_fn(float(t[r]), cols[column][r])
                chk.what = f"{spec.label}: {column}@t={t[r]:g}"
                if worst is None or chk.ratio > worst.ratio:
                    worst = chk
            checks.append(worst)
        if spec.custom is not None:
            checks += spec.custom(cols)
        return checks
    return check


def _rule_result(signal, rule, alpha, method="direct", memory=None,
                 starting=None):
    """What ``integrate`` computes, through the public API."""
    schemes = {"gl": Scheme.GL, "nc0": Scheme.NC0,
               "flmm-trap": Scheme.FLMM_TRAP}
    if rule in schemes:
        w = fq.weights_for_scheme(schemes[rule], alpha, signal.grid.dt,
                                  signal.grid.n)
        if memory is not None:
            return fq.short_memory_integral(signal, w, memory, method=method)
        return fq.frac_integral(signal, w, method=method,
                                starting_degree=starting)
    if rule == "trap":
        return fq.frac_trapezoid(signal, alpha, method=method)
    return fq.frac_newton_cotes(signal, alpha, 3)


def _builtin_signal(kind, t_end, n, omega0=1.0, c=1.0):
    grid = fq.UniformGrid(t_end / (n - 1), n)
    if kind == "exp":
        fn = np.exp
    elif kind == "sin":
        fn = lambda u: np.sin(omega0 * u)  # noqa: E731
    else:
        fn = lambda u: c + 0.0 * u  # noqa: E731
    return fq.SampledSignal.sample(fn, grid)


def _exp_exact(alpha):
    def ref(t, got):
        value, s, m = refs.frac_integral_exp(t, alpha)
        defect = "incgamma-alternating-series" if t <= 20.0 else None
        return refs.check_value("", got, value, s, m, "oracle", defect)
    return ref


def _sin_oracle_exact(alpha, omega0, oracle_tol=1e-10):
    extra = oracle_tol / (alpha * math.gamma(alpha))

    def ref(t, got):
        value = refs.frac_integral_sin(t, alpha, omega0)
        return refs.check_value("", got, value, abs(value), refs.M_FLOOR,
                                "oracle", extra=extra)
    return ref


def _integrate_spec(label, kind, alpha, t_end, n, scheme="gl",
                    method="direct", oracle=False, omega0=1.0, c=1.0,
                    starting=None):
    argv = ["integrate", "--f", kind, "--alpha", repr(alpha), "--t-end",
            repr(t_end), "--n", str(n), "--scheme", scheme, "--method",
            method]
    if kind == "sin":
        argv += ["--omega0", repr(omega0)]
    if kind == "const":
        argv += ["--c", repr(c)]
    if oracle:
        argv.append("--oracle")
    if starting is not None:
        argv += ["--starting-weights", str(starting)]

    def approx():
        signal = _builtin_signal(kind, t_end, n, omega0, c)
        return "approx", _rule_result(signal, scheme, alpha, method,
                                      starting=starting).values

    if kind == "exp":
        exact = ("exact", _exp_exact(alpha))
    elif kind == "sin" and oracle:
        exact = ("exact", _sin_oracle_exact(alpha, omega0))
    elif kind == "const":
        def const_ref(t, got):
            v, s, m = refs.frac_integral_monomial(t, alpha, 0)
            return refs.check_value("", got, c * v, abs(c) * s, m, "oracle")
        exact = ("exact", const_ref)
    else:
        exact = None
    header = ["t", "approx"] + (["exact", "abs_err", "rel_err"]
                                if exact else [])
    return _CliSpec(label, argv, header, approx, exact)


def _csv_spec(label, path, signal, alpha, scheme, memory=None,
              differentiate=False):
    argv = ["differentiate" if differentiate else "integrate", "--f",
            f"csv:{path}", "--alpha", repr(alpha)]
    if not differentiate:
        argv += ["--scheme", scheme]
    if memory is not None:
        argv += ["--memory", str(memory)]

    def approx():
        if differentiate:
            return "approx", fq.gl_derivative(signal, alpha).values
        return "approx", _rule_result(signal, scheme, alpha,
                                      memory=memory).values
    return _CliSpec(label, argv, ["t", "approx"], approx)


def _convergence_spec(label, kind, alpha, t_probe, n_list, scheme,
                      omega0=1.0):
    argv = ["convergence", "--f", kind, "--alpha", repr(alpha), "--t-probe",
            repr(t_probe), "--n-list", ",".join(map(str, n_list)),
            "--scheme", scheme, "--omega0", repr(omega0)]

    def custom(cols):
        if kind == "exp":
            ref, s, m = refs.frac_integral_exp(t_probe, alpha)
            bound = refs.tol(m, s)
            defect = "incgamma-alternating-series" if t_probe <= 20.0 \
                else None
        else:
            ref = refs.frac_integral_sin(t_probe, alpha, omega0)
            bound = refs.tol(refs.M_FLOOR, abs(ref)) + \
                1e-10 / (alpha * math.gamma(alpha))
            defect = None
        worst = None
        if list(cols["n"]) != [float(n) for n in n_list]:
            return [Check(f"{label}: n column", math.inf, 0.0, "cli")]
        for n, got in zip(n_list, cols["abs_err"]):
            signal = _builtin_signal(kind, t_probe, n, omega0)
            approx = _rule_result(signal, scheme, alpha).values[-1]
            want = abs(mp.mpf(float(approx)) - ref)
            chk = Check(f"{label}: abs_err@n={n}",
                        abs(mp.mpf(float(got)) - want),
                        bound + refs.tol(2, abs(approx)), "oracle", defect)
            if worst is None or chk.ratio > worst.ratio:
                worst = chk
        return [worst]
    return _CliSpec(label, argv, ["n", "dt", "abs_err", "empirical_order"],
                    custom=custom)


def _differentiate_spec(label, kind, alpha, t_end, n, route="gl",
                        scheme="gl", method="direct", direction="backward",
                        omega0=1.0):
    argv = ["differentiate", "--f", kind, "--alpha", repr(alpha), "--t-end",
            repr(t_end), "--n", str(n), "--route", route, "--scheme", scheme,
            "--method", method, "--direction", direction, "--omega0",
            repr(omega0)]
    schemes = {"gl": Scheme.GL, "nc0": Scheme.NC0,
               "flmm-trap": Scheme.FLMM_TRAP}

    def approx():
        signal = _builtin_signal(kind, t_end, n, omega0)
        if route == "gl":
            out = fq.gl_derivative(signal, alpha, direction=direction,
                                   method=method)
        else:
            out = fq.rl_derivative_via_integral(
                signal, alpha, scheme=schemes[scheme], method=method)
        return "approx", out.values

    if kind == "exp":
        def ref(t, got):
            v, s, m = refs.frac_derivative_exp(t, alpha)
            return refs.check_value("", got, v, s, m, "oracle",
                                    "incgamma-alternating-series"
                                    if t <= 20.0 else None)
    else:
        def ref(t, got):
            # sin(x) moves by |x| eps when its argument is rounded, so the
            # argument's terms count in S
            arg = omega0 * mp.mpf(t) + mp.pi * alpha / 2
            v = abs(mp.mpf(omega0)) ** alpha * mp.sin(arg)
            s = abs(omega0) ** alpha * (1 + abs(omega0 * t)
                                        + math.pi * alpha / 2)
            return refs.check_value("", got, v, s, refs.M_FLOOR, "oracle")
    return _CliSpec(label, argv, ["t", "approx", "exact", "abs_err",
                                  "rel_err"], approx, ("exact", ref))


def _sweep_spec(label, argv, chi_ref):
    """Susceptibility sweep checked against mpmath at every row."""
    omegas_args = dict(zip(argv[1::2], argv[2::2]))
    lo, hi, count = omegas_args["--omega-range"].split(":")
    log = "--log-omega" in argv

    def custom(cols):
        want = (np.geomspace if log else np.linspace)(float(lo), float(hi),
                                                      int(count))
        checks = [Check(f"{label}: omega vs numpy", float(
            np.max(np.abs(cols["omega"] - want))) if
            len(cols["omega"]) == len(want) else math.inf, 0.0, "cli")]
        worst = None
        for w, re_, im_ in zip(cols["omega"], cols["chi_re"], cols["chi_im"]):
            ref, s, m = chi_ref(float(w))
            err = abs(mp.mpc(float(re_), float(im_)) - ref)
            chk = Check(f"{label}: chi@omega={w:g}", err, refs.tol(m, s),
                        "dielectric", rel=float(err / abs(ref)))
            if worst is None or chk.ratio > worst.ratio:
                worst = chk
        return checks + [worst]
    return _CliSpec(label, argv, ["omega", "chi_re", "chi_im", "ratio"],
                    custom=custom)


def build_cli_reference(rng, workdir):
    u = rng.uniform
    specs = []
    # README examples
    specs.append(_CliSpec(
        "readme/coeffs", ["coeffs", "--scheme", "gl", "--alpha", "0.5",
                          "--dt", "1", "--count", "8"], ["k", "weight"],
        custom=lambda cols: refs.check_weights(
            "readme/coeffs", cols["weight"],
            lambda k: refs.gl_weight(0.5, 1.0, k), range(8))))
    specs.append(_integrate_spec("readme/integrate-exp-fft", "exp", 0.5,
                                 10.0, 1500, method="fft"))
    specs.append(_integrate_spec("readme/integrate-sin-oracle", "sin",
                                 0.5, 5.0, 129, oracle=True))
    n_csv = _jit(rng, 1500)
    grid, t = _grid(n_csv, 6.0)
    sig_vals = np.sin(u(0.5, 2.0) * t + u(0.3, 1.2)) + 0.5 * np.cos(3 * t)
    signal_csv = os.path.join(workdir, "signal.csv")
    _write_csv(signal_csv, t, sig_vals)
    csv_signal = fq.SampledSignal(grid, sig_vals)
    specs.append(_csv_spec("readme/integrate-csv", signal_csv, csv_signal,
                           0.5, "gl"))
    specs.append(_convergence_spec("readme/convergence-exp", "exp", 0.5, 1.0,
                                   [250, 500, 1000, 2000], "gl"))
    specs.append(_differentiate_spec("readme/differentiate-sin-fft",
                                     "sin", 0.5, 40.0, 8001, method="fft"))
    tau = 1.0
    specs.append(_sweep_spec(
        "readme/dielectric-debye",
        ["dielectric", "--model", "debye", "--tau", "1", "--omega-range",
         "0.01:100:50", "--log-omega"],
        lambda w: (lambda v: (v, abs(v), refs.M_FLOOR))(
            mp.mpf(tau) / (1 - 1j * mp.mpf(w) * tau))))
    specs.append(_verify_ratio_spec("readme/verify-ratio",
                                    [0.25, 0.5, 0.75], None, None))
    # reference-heavy requests
    specs.append(_integrate_spec("exp/a>2/t<=20", "exp",
                                 float(u(2.2, 2.8)), 20.0, _jit(rng, 401)))
    specs.append(_integrate_spec("exp/flmm-trap/t<=20", "exp",
                                 float(u(0.6, 0.9)), 20.0, _jit(rng, 801),
                                 scheme="flmm-trap"))
    specs.append(_integrate_spec("exp/nc3", "exp", float(u(0.3, 0.9)),
                                 float(u(10.0, 14.0)),
                                 2 * (_jit(rng, 1001) // 2) + 1,
                                 scheme="nc3"))
    specs.append(_integrate_spec("sin/oracle/trap", "sin",
                                 float(u(0.3, 0.8)), float(u(4.0, 8.0)),
                                 _jit(rng, 65), scheme="trap", oracle=True,
                                 omega0=float(u(0.5, 2.0))))
    specs.append(_integrate_spec("const/flmm-trap/starting=2", "const",
                                 float(u(0.3, 0.9)), float(u(2.0, 6.0)),
                                 _jit(rng, 257), scheme="flmm-trap",
                                 c=float(u(0.5, 2.0)), starting=2))
    specs.append(_integrate_spec("sin/gl/fft", "sin", float(u(0.3, 0.9)),
                                 10.0, _jit(rng, 3001), method="fft",
                                 omega0=float(u(0.5, 2.0))))
    specs.append(_convergence_spec("convergence-exp/t=19.5", "exp",
                                   float(u(0.5, 0.9)), 19.5,
                                   [200, 400, 800], "gl"))
    specs.append(_convergence_spec("convergence-sin/nc3", "sin",
                                   float(u(0.3, 0.8)), float(u(2.0, 4.0)),
                                   [65, 129, 257], "nc3",
                                   omega0=float(u(0.5, 2.0))))
    specs.append(_differentiate_spec("differentiate-exp/rl/flmm-trap",
                                     "exp", float(u(0.3, 0.7)), 20.0,
                                     _jit(rng, 2001), route="rl",
                                     scheme="flmm-trap"))
    specs.append(_differentiate_spec("differentiate-sin/forward", "sin",
                                     float(u(0.3, 0.7)), 20.0,
                                     _jit(rng, 4001), direction="forward",
                                     omega0=float(u(0.5, 2.0))))
    modes = [(1.0, float(u(1.5, 2.5)), float(u(0.2, 0.4))),
             (0.5, float(u(4.0, 6.0)), float(u(0.3, 0.6)))]
    mode_arg = ",".join(f"{a!r}:{b!r}:{c!r}" for a, b, c in modes)

    def lorentz(w):
        terms = [mp.mpf(a) / ((mp.mpf(b) ** 2 - mp.mpf(w) ** 2)
                              - 1j * mp.mpf(c) * w) for a, b, c in modes]
        v = mp.fsum(terms)
        return v, mp.fsum(abs(x) for x in terms), refs.M_FLOOR
    specs.append(_sweep_spec(
        "dielectric-lorentz",
        ["dielectric", "--model", "lorentz", "--modes", mode_arg,
         "--omega-range", "0.1:10:200"], lorentz))
    n_exp = float(u(0.2, 0.8))
    scale = float(u(0.5, 2.0))

    def universal(w):
        v = scale * mp.mpf(w) ** (n_exp - 1) * mp.expjpi((1 - n_exp) / 2)
        return v, abs(v), refs.M_FLOOR
    specs.append(_sweep_spec(
        "dielectric-universal",
        ["dielectric", "--model", "universal", "--n-exp", repr(n_exp),
         "--scale", repr(scale), "--omega-range", "0.1:100:300",
         "--log-omega"], universal))
    specs.append(_time_domain_spec(rng, float(u(0.2, 0.8)),
                                   float(u(1.0, 8.0))))
    specs.append(_verify_ratio_spec(
        "verify-ratio/short", [float(u(0.2, 0.45)), float(u(0.55, 0.8))],
        0.002, 20.0))
    for scheme, count, deriv in (("flmm-trap", 2049, False),
                                 ("nc0", 4096, False), ("gl", 4096, True)):
        specs.append(_coeffs_spec(rng, scheme, count, deriv))
    n_walk = _jit(rng, 2001)
    grid_w, t_w = _grid(n_walk, 10.0)
    steps = rng.standard_normal(n_walk) * math.sqrt(grid_w.dt)
    steps[0] = 0.0
    walk = 1.0 + np.cumsum(steps)
    walk_csv = os.path.join(workdir, "walk.csv")
    _write_csv(walk_csv, t_w, walk)
    walk_signal = fq.SampledSignal(grid_w, walk)
    specs.append(_csv_spec("csv-walk/trap", walk_csv, walk_signal,
                           float(u(0.3, 0.9)), "trap"))
    specs.append(_csv_spec("csv-signal/short-memory", signal_csv, csv_signal,
                           float(u(0.3, 0.9)), "gl", memory=n_csv // 3))
    specs.append(_csv_spec("csv-walk/differentiate", walk_csv, walk_signal,
                           float(u(0.3, 0.9)), "gl", differentiate=True))
    order = rng.permutation(len(specs))
    return [Op(specs[i].label, None, _cli_check(specs[i], rng),
               specs[i].argv) for i in order]


def _coeffs_spec(rng, scheme, count, derivative):
    alpha = float(rng.uniform(0.3, 0.9))
    dt = float(rng.uniform(0.001, 0.05))
    argv = ["coeffs", "--scheme", scheme, "--alpha", repr(alpha), "--dt",
            repr(dt), "--count", str(count)]
    if derivative:
        argv.append("--derivative")
    label = (f"coeffs/{scheme}/count={count}"
             f"{'/derivative' if derivative else ''}")
    if scheme == "flmm-trap":
        ref_fn = refs.FlmmSeries(alpha, dt, count).weight
    elif scheme == "nc0":
        def ref_fn(k):
            return refs.nc0_weight(alpha, dt, k)
    else:
        a = -alpha if derivative else alpha

        def ref_fn(k):
            return refs.gl_weight(a, dt, k)
    ks = refs.weight_indices(rng, count)

    def custom(cols):
        if len(cols["weight"]) != count:
            return [Check(f"{label}: row count", math.inf, 0.0, "cli")]
        return refs.check_weights(label, cols["weight"], ref_fn, ks)
    return _CliSpec(label, argv, ["k", "weight"], custom=custom)


def _time_domain_spec(rng, n_exp, omega0):
    dt, t_end = 0.01, 10.0
    argv = ["dielectric", "--time-domain", "--n-exp", repr(n_exp), "--dt",
            repr(dt), "--t-end", repr(t_end), "--omega0", repr(omega0)]
    label = "dielectric-time-domain"
    n = int(round(t_end / dt)) + 1
    nodes = refs.probe_nodes(rng, n)

    def custom(cols):
        grid = fq.UniformGrid(dt, n)
        e_want = np.sin(omega0 * grid.nodes)
        if len(cols["E"]) != n:
            return [Check(f"{label}: row count", math.inf, 0.0, "cli")]
        checks = [Check(f"{label}: E vs numpy",
                        float(np.max(np.abs(cols["E"] - e_want))), 0.0,
                        "cli")]
        w = fq.gl_weights(1.0 - n_exp, dt, n).values
        return checks + refs.check_conv(f"{label}: P", cols["P"], e_want, w,
                                        nodes)
    return _CliSpec(label, argv, ["t", "E", "P"], custom=custom)


def _verify_ratio_spec(label, n_exps, dt, t_end):
    argv = ["dielectric", "--verify-ratio", "--n-exp",
            ",".join(repr(x) for x in n_exps)]
    kwargs = {}
    if dt is not None:
        argv += ["--dt", repr(dt), "--t-end", repr(t_end)]
        kwargs = {"dt": dt, "t_end": t_end}

    def custom(cols):
        if len(cols["n"]) != len(n_exps):
            return [Check(f"{label}: row count", math.inf, 0.0, "cli")]
        checks = []
        for n_exp, analytic, numeric in zip(n_exps, cols["analytic"],
                                            cols["numeric"]):
            ref = mp.cot(mp.pi * n_exp / 2)
            checks.append(refs.check_value(f"{label}: analytic@n={n_exp}",
                                           analytic, ref, abs(ref),
                                           refs.M_FLOOR, "dielectric"))
            inproc = fq.verify_universal_ratio(
                n_exp, omega0=2.0 * math.pi, **kwargs).numeric
            checks.append(Check(f"{label}: numeric@n={n_exp} vs in-process",
                                abs(numeric - inproc), 0.0, "cli"))
        return checks
    return _CliSpec(label, argv, ["n", "analytic", "numeric", "rel_dev"],
                    custom=custom)


BUILDERS = {
    "long-signal": build_long_signal,
    "rule-mix": build_rule_mix,
    "cli-reference": build_cli_reference,
}


def build(name: str, seed: int, workdir: str):
    index = WORKLOADS.index(name)
    rng = np.random.default_rng([seed, index])
    Path(workdir).mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](rng, workdir)
