"""Command-line front end.

Subcommands::

    fracquad coeffs        dump convolution weights
    fracquad integrate     fractional integral of a reference or CSV signal
    fracquad differentiate fractional derivative (direct GL or composition)
    fracquad convergence   grid-refinement error sweep with empirical orders
    fracquad dielectric    susceptibility sweeps and time-domain polarization

Every command writes CSV to stdout: header row, comma separator, LF line
endings, floats in shortest round-trip form.  Exit codes: 0 success,
1 runtime/data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

import numpy as np

from . import oracle
from .derivative import gl_derivative, rl_derivative_via_integral
from .dielectric import (
    DebyeModel,
    LorentzEnsemble,
    UniversalResponse,
    _time_grid,
    debye_susceptibility,
    fractional_polarization,
    lorentz_susceptibility,
    universal_susceptibility,
    verify_universal_ratio,
)
from .exceptions import DomainError, FracquadError
from .quadrature import (
    SampledSignal,
    UniformGrid,
    frac_integral,
    frac_newton_cotes,
    frac_trapezoid,
    short_memory_integral,
)
from .weights import _MAX_COUNT, Scheme, weights_for_scheme

__all__ = ["main"]

_SCHEME_NAMES = [scheme.value for scheme in Scheme]
_RULE_CHOICES = [*_SCHEME_NAMES, "trap", "nc3"]
_METHOD_HELP = "direct (default) or fft: a sum-of-exponentials engine, no FFT"


def _emit(header: Sequence[str], *columns) -> None:
    """Write the header and one row per entry of the equal-length columns
    in a single write, each cell the ``repr`` of a Python int or float."""
    cells = [map(repr, np.asarray(col).tolist()) for col in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_against(t, approx, ref, alpha) -> None:
    """``t,approx`` rows, and ``exact = ref(t, alpha)`` with its error columns
    when given; ``rel_err`` is NaN where ``exact`` is 0 or not finite."""
    if ref is None:
        _emit(("t", "approx"), t, approx)
        return
    exact = np.array([ref(x, alpha) for x in t])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        abs_err = np.abs(approx - exact)
        rel_err = np.where(np.isfinite(exact) & (exact != 0.0),
                           abs_err / np.abs(exact), np.nan)
    _emit(("t", "approx", "exact", "abs_err", "rel_err"),
          t, approx, exact, abs_err, rel_err)


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------- integrands

def _load_csv_signal(path: str) -> SampledSignal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if not lines or [c.strip() for c in lines[0].split(",")] != ["t", "f"]:
        raise DomainError(f"{path}:1: expected header 't,f'")
    ts, fs = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected 2 fields")
        try:
            ts.append(float(parts[0]))
            fs.append(float(parts[1]))
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
    if len(ts) < 2:
        raise DomainError(f"{path}: need at least 2 samples")
    t = np.array(ts)
    dt = t[1] - t[0]
    if not dt > 0:
        raise DomainError(f"{path}: time column must increase")
    expected = t[0] + dt * np.arange(len(t))
    bad = np.nonzero(np.abs(t - expected) > 1e-9 * dt)[0]
    if t[0] != 0.0:
        raise DomainError(f"{path}:2: grid must start at t = 0")
    if bad.size:
        raise DomainError(
            f"{path}:{bad[0] + 2}: node off the uniform grid by more than "
            "1e-9*dt"
        )
    return SampledSignal(UniformGrid(float(dt), len(t)), np.array(fs))


def _resolve_integrand(spec: str, args) -> tuple[SampledSignal, tuple]:
    """The signal and its ``_integrand`` triple, all None for ``csv:``."""
    if spec.startswith("csv:"):
        return _load_csv_signal(spec[4:]), (None, None, None)
    if args.t_end is None or args.n is None:
        raise _UsageError("--t-end and --n are required unless --f csv: is used")
    if args.n < 2:
        raise _UsageError("--n must be at least 2")
    grid = _grid(args.t_end, args.n)
    refs = _integrand(spec, args)
    return SampledSignal.sample(refs[0], grid), refs


def _grid(span: float, n: int) -> UniformGrid:
    """``n`` nodes over ``[0, span]``; a count past numpy's index range is
    named by the grid, before ``n - 1`` is turned into a float."""
    return UniformGrid(span / (n - 1) if n <= _MAX_COUNT else 1.0, n)


def _finite(value: float, name: str) -> float:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _integrand(spec: str, args) -> tuple:
    """``(fn, integral, derivative)`` for a built-in ``--f``: the vectorised
    integrand, its exact integral and derivative at (x, alpha), or None."""
    if spec == "const":
        c = _finite(args.c, "--c")

        def derivative(x, alpha):
            # r is 0 or inf at t = 0: c * r only if neither is 0 (no 0 * inf)
            r = oracle.exact_derivative_monomial(x, alpha, 0.0)
            return c * r if x or c and r else 0.0
        return (lambda u: c + 0.0 * u,
                lambda x, alpha: oracle.exact_integral_const(x, alpha, c),
                derivative)
    if spec == "exp":
        return (np.exp, oracle.exact_integral_exp, oracle.exact_derivative_exp
                if 0.0 < args.alpha < 1.0 else None)
    if spec == "sin":
        omega0 = _finite(args.omega0, "--omega0")

        def fn(u):
            return np.sin(omega0 * u)

        def integral(x, alpha):
            with np.errstate(invalid="ignore"):  # sin(inf): the oracle's error
                return oracle.brute_force_rl(lambda u: float(fn(u)), x,
                                             alpha, args.oracle_tol)
        # the derivative is the whole-line rule, the large-t asymptote only
        return fn, integral if args.oracle else None, (
            lambda x, alpha: oracle.exact_derivative_sin(x, omega0, alpha))
    raise _UsageError(f"unknown integrand {spec!r}")


def _apply_rule(signal, rule, alpha, method, memory, starting):
    if rule in _SCHEME_NAMES:
        w = weights_for_scheme(Scheme(rule), alpha, signal.grid.dt,
                               signal.grid.n)
        if memory is not None:
            if method != "direct" or starting is not None:
                raise _UsageError("--memory takes neither --method fft nor "
                                  "--starting-weights")
            return short_memory_integral(signal, w, memory)
        return frac_integral(signal, w, method=method,
                             starting_degree=starting)
    if memory is not None or starting is not None:
        raise _UsageError(
            "--memory/--starting-weights apply to the gl/nc0/flmm-trap "
            "schemes only"
        )
    if rule == "trap":
        return frac_trapezoid(signal, alpha, method=method)
    return frac_newton_cotes(signal, alpha, 3, method=method)  # nc3


# -------------------------------------------------------------- subcommands

def _cmd_coeffs(args) -> None:
    scheme = Scheme(args.scheme)
    alpha = args.alpha
    if args.derivative:
        if scheme is Scheme.NC0:
            raise _UsageError("nc0 weights have no derivative role")
        alpha = -alpha
    w = weights_for_scheme(scheme, alpha, args.dt, args.count)
    _emit(("k", "weight"), np.arange(len(w.values)), w.values)


def _cmd_integrate(args) -> None:
    signal, (fn, integral, _) = _resolve_integrand(args.f, args)
    if args.oracle and fn is None:
        raise _UsageError("--oracle needs a callable integrand, not csv:")
    out = _apply_rule(signal, args.scheme, args.alpha, args.method,
                      args.memory, args.starting_weights)
    t = signal.grid.nodes
    _emit_against(t, out.values, integral, args.alpha)


def _cmd_differentiate(args) -> None:
    if args.route == "rl" and args.direction == "forward":
        raise _UsageError("--direction forward needs --route gl")
    if args.route == "gl" and args.scheme not in (None, "gl"):
        raise _UsageError(f"--scheme {args.scheme} needs --route rl")
    signal, (_, _, derivative) = _resolve_integrand(args.f, args)
    if args.route == "gl":
        out = gl_derivative(signal, args.alpha, direction=args.direction,
                            method=args.method)
    else:
        out = rl_derivative_via_integral(signal, args.alpha,
                                         scheme=Scheme(args.scheme or "gl"),
                                         method=args.method)
    t = signal.grid.nodes
    _emit_against(t, out.values, derivative, args.alpha)


def _cmd_convergence(args) -> None:
    n_list = args.n_list
    if len(n_list) < 3:
        raise _UsageError("--n-list needs at least 3 grid sizes")
    if min(n_list) < 2:
        raise _UsageError("--n-list sizes must be at least 2")
    fn, integral, _ = _integrand(args.f, args)
    exact = integral(args.t_probe, args.alpha)
    rows = []
    prev_err = prev_n = None
    for n in n_list:
        grid = _grid(args.t_probe, n)
        signal = SampledSignal.sample(fn, grid)
        out = _apply_rule(signal, args.scheme, args.alpha, args.method,
                          None, None)
        err = abs(out.values[-1] - exact)
        noise_floor = 1e-14 * max(abs(exact), 1.0)
        if (prev_err is None or n == prev_n or err <= noise_floor
                or prev_err <= noise_floor):
            order = math.nan
        else:
            order = math.log(prev_err / err) / math.log(n / prev_n)
        rows.append((n, grid.dt, err, order))
        prev_err, prev_n = err, n
    _emit(("n", "dt", "abs_err", "empirical_order"), *zip(*rows))


def _parse_omega_range(spec: str, log_spacing: bool) -> np.ndarray:
    try:
        lo_s, hi_s, count_s = spec.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise _UsageError(
            f"--omega-range must be 'start:stop:count', got {spec!r}"
        ) from exc
    if not 1 <= count <= _MAX_COUNT:
        raise _UsageError(f"--omega-range count must be 1 to {_MAX_COUNT}")
    if not math.isfinite(hi - lo):
        raise DomainError(f"--omega-range endpoints and their span must be "
                          f"finite, got {spec!r}")
    if count == 1 or lo == hi:
        return np.full(count, lo)
    if log_spacing:
        if lo <= 0 or hi <= 0:
            raise _UsageError("--log-omega needs positive endpoints")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _parse_modes(spec: str) -> tuple[tuple[float, float, float], ...]:
    modes = []
    for chunk in spec.split(","):
        try:
            weight, omega, gamma = map(float, chunk.split(":"))
        except ValueError as exc:
            raise _UsageError(
                f"each mode must be 'weight:omega:gamma', got {chunk!r}"
            ) from exc
        modes.append((weight, omega, gamma))
    return tuple(modes)


def _cmd_dielectric(args) -> None:
    if args.model is not None and (args.verify_ratio or args.time_domain):
        raise _UsageError("--model applies to susceptibility sweeps only")
    if (len(args.n_exp) != 1 and not args.verify_ratio
            and args.model in (None, "universal")):
        raise _UsageError("--n-exp takes one value without --verify-ratio")
    if args.verify_ratio:
        rows = []
        for n_exp in args.n_exp:
            check = verify_universal_ratio(
                n_exp, omega0=args.omega0, dt=args.dt, t_end=args.t_end,
                scheme=Scheme(args.scheme))
            rel_dev = abs(check.numeric - check.analytic) / abs(check.analytic)
            rows.append((n_exp, check.analytic, check.numeric, rel_dev))
        _emit(("n", "analytic", "numeric", "rel_dev"), *zip(*rows))
        return
    if args.time_domain:
        model = UniversalResponse(args.n_exp[0])
        grid = _time_grid(args.dt, args.t_end)
        omega0 = _finite(args.omega0, "probe frequency")
        field = SampledSignal.sample(lambda u: np.sin(omega0 * u), grid)
        pol = fractional_polarization(
            field, model.alpha, eps0=args.eps0,
            scheme=Scheme(args.scheme))
        _emit(("t", "E", "P"), grid.nodes, field.values, pol.values)
        return
    omegas = _parse_omega_range(args.omega_range, args.log_omega)
    chi = _susceptibility_sweep(args, omegas)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(chi.real != 0.0, chi.imag / chi.real, np.nan)
    _emit(("omega", "chi_re", "chi_im", "ratio"),
          omegas, chi.real, chi.imag, ratio)


def _susceptibility_sweep(args, omegas: np.ndarray) -> np.ndarray:
    if args.model in (None, "universal"):
        model = UniversalResponse(args.n_exp[0])
        return np.asarray(universal_susceptibility(model, omegas, args.scale))
    if args.model == "debye":
        model = DebyeModel(n_density=args.n_density,
                           a_coupling=args.a_coupling,
                           tau=args.tau, eps0=args.eps0)
        return np.asarray(debye_susceptibility(model, omegas))
    if args.modes is None:  # lorentz
        raise _UsageError("--model lorentz requires --modes")
    model = LorentzEnsemble(modes=_parse_modes(args.modes),
                            n_density=args.n_density, eps0=args.eps0)
    return np.asarray(lorentz_susceptibility(model, omegas))


# ------------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracquad",
        description="Fractional integration and dielectric response on "
                    "uniform grids; all output is CSV on stdout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="dump convolution weights")
    coeffs.add_argument("--scheme", choices=sorted(_SCHEME_NAMES),
                        required=True)
    coeffs.add_argument("--alpha", type=float, required=True)
    coeffs.add_argument("--dt", type=float, required=True)
    coeffs.add_argument("--count", type=int, required=True)
    coeffs.add_argument("--derivative", action="store_true",
                        help="generate the derivative-role weights")
    coeffs.set_defaults(func=_cmd_coeffs)

    def add_rule_args(p, with_oracle_tol=True):
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--c", type=float, default=1.0,
                       help="constant value for --f const")
        p.add_argument("--omega0", type=float, default=1.0,
                       help="angular frequency for --f sin")
        p.add_argument("--method", choices=["direct", "fft"],
                       default="direct", help=_METHOD_HELP)
        if with_oracle_tol:
            p.add_argument("--oracle-tol", dest="oracle_tol", type=float,
                           default=1e-10)

    def add_signal_args(p, with_oracle=True):
        p.add_argument("--f", required=True,
                       help="const | exp | sin | csv:<path>")
        p.add_argument("--t-end", dest="t_end", type=float)
        p.add_argument("--n", type=int)
        add_rule_args(p, with_oracle)
        if with_oracle:
            p.add_argument("--oracle", action="store_true",
                           help="add brute-force reference columns")

    integrate = sub.add_parser("integrate",
                               help="fractional integral of a signal")
    add_signal_args(integrate)
    integrate.add_argument("--scheme", choices=_RULE_CHOICES, default="gl")
    integrate.add_argument("--memory", type=int, default=None,
                           help="short-memory truncation length")
    integrate.add_argument("--starting-weights", dest="starting_weights",
                           type=int, default=None,
                           help="polynomial-exactness correction degree")
    integrate.set_defaults(func=_cmd_integrate)

    diff = sub.add_parser("differentiate", help="fractional derivative")
    add_signal_args(diff, with_oracle=False)
    diff.add_argument("--route", choices=["gl", "rl"], default="gl",
                      help="direct GL sum or composition through an integral")
    diff.add_argument("--scheme", choices=sorted(_SCHEME_NAMES),
                      help="quadrature backing the rl route (default gl)")
    diff.add_argument("--direction", choices=["backward", "forward"],
                      default="backward")
    diff.set_defaults(func=_cmd_differentiate, oracle=False)

    conv = sub.add_parser("convergence",
                          help="error sweep over grid refinements")
    conv.add_argument("--f", choices=["const", "exp", "sin"], required=True)
    add_rule_args(conv)
    conv.add_argument("--t-probe", dest="t_probe", type=float, required=True)
    conv.add_argument("--n-list", dest="n_list", required=True,
                      type=lambda s: [int(x) for x in s.split(",")])
    conv.add_argument("--scheme", choices=_RULE_CHOICES, default="gl")
    conv.set_defaults(func=_cmd_convergence, oracle=True)

    diel = sub.add_parser("dielectric",
                          help="susceptibility sweeps and polarization runs")
    diel.add_argument("--model", choices=["universal", "debye", "lorentz"],
                      help="susceptibility sweep model (default universal)")
    diel.add_argument("--omega-range", dest="omega_range", default="1:10:10",
                      help="start:stop:count")
    diel.add_argument("--log-omega", dest="log_omega", action="store_true")
    diel.add_argument("--n-exp", dest="n_exp", default="0.5",
                      type=lambda s: [float(x) for x in s.split(",")])
    diel.add_argument("--scale", type=float, default=1.0)
    diel.add_argument("--n-density", dest="n_density", type=float,
                      default=1.0)
    diel.add_argument("--a-coupling", dest="a_coupling", type=float,
                      default=1.0)
    diel.add_argument("--tau", type=float, default=1.0)
    diel.add_argument("--eps0", type=float, default=1.0)
    diel.add_argument("--modes", default=None,
                      help="lorentz modes 'weight:omega:gamma[,...]'")
    mode = diel.add_mutually_exclusive_group()
    mode.add_argument("--time-domain", dest="time_domain",
                      action="store_true")
    mode.add_argument("--verify-ratio", dest="verify_ratio",
                      action="store_true")
    diel.add_argument("--omega0", type=float, default=2.0 * math.pi)
    diel.add_argument("--dt", type=float, default=5e-4)
    diel.add_argument("--t-end", dest="t_end", type=float, default=20.0)
    diel.add_argument("--scheme", choices=sorted(_SCHEME_NAMES),
                      default="gl")
    diel.set_defaults(func=_cmd_dielectric)
    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except FracquadError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
