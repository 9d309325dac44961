import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracquad
from fracquad.cli import main
from fracquad.quadrature import (SampledSignal, UniformGrid, frac_newton_cotes,
                                 frac_trapezoid, short_memory_integral)
from fracquad.weights import gl_weights


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}
    return header, cols


def test_coeffs_gl(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--scheme", "gl",
                           "--alpha", "0.5", "--dt", "1", "--count", "3")
    assert code == 0
    assert out.splitlines() == ["k,weight", "0,1.0", "1,0.5", "2,0.375"]


def test_coeffs_gl_alpha_one(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--scheme", "gl",
                           "--alpha", "1", "--dt", "0.1", "--count", "2")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["weight"] == pytest.approx([0.1, 0.1])


def test_coeffs_nc0_single(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--scheme", "nc0",
                           "--alpha", "0.5", "--dt", "1", "--count", "1")
    assert code == 0
    assert out.splitlines()[1] == "0,1.1283791670955126"


def test_coeffs_derivative_role(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--scheme", "gl", "--alpha",
                           "0.5", "--dt", "1", "--count", "3",
                           "--derivative")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["weight"] == pytest.approx([1.0, -0.5, -0.125])


def test_integrate_nc0_exact_on_constant(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--f", "const", "--alpha",
                           "1", "--t-end", "1", "--n", "10",
                           "--scheme", "nc0")
    assert code == 0
    _, cols = parse_csv(out)
    assert np.max(np.abs(cols["approx"] - cols["t"])) < 1e-12


def test_integrate_gl_error_band(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--f", "const", "--alpha",
                           "0.5", "--t-end", "10", "--n", "1500",
                           "--scheme", "gl", "--method", "fft")
    assert code == 0
    _, cols = parse_csv(out)
    sel = cols["t"] >= 6.0
    assert np.nanmax(cols["rel_err"][sel]) < 1e-3


def test_integrate_exp_refinement_improves(capsys):
    errs = {}
    for n in (750, 1500):
        code, out, _ = run_cli(capsys, "integrate", "--f", "exp", "--alpha",
                               "0.25", "--t-end", "10", "--n", str(n),
                               "--scheme", "gl", "--method", "fft")
        assert code == 0
        _, cols = parse_csv(out)
        sel = (cols["t"] >= 1.0) & (cols["t"] <= 8.0)
        errs[n] = np.max(cols["abs_err"][sel])
    assert errs[1500] < errs[750]


def test_integrate_csv_roundtrip(capsys, tmp_path):
    t = np.arange(8) * 0.25
    path = tmp_path / "signal.csv"
    lines = ["t,f"] + [f"{float(ti)!r},{float(fi)!r}"
                       for ti, fi in zip(t, np.exp(t))]
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                           "--alpha", "0.5")
    assert code == 0
    header, cols = parse_csv(out)
    assert header == ["t", "approx"]
    assert len(cols["t"]) == 8


def test_integrate_csv_skips_blank_lines(capsys, tmp_path):
    rows = ["t,f", "0.0,1.0", "0.5,2.0", "1.0,0.5"]
    outs = []
    for name, lines in (("plain", rows), ("blank", rows[:2] + ["", "  "]
                                          + rows[2:] + [""])):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                               "--alpha", "0.5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_integrate_csv_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,f\n0.0,1.0\n0.1,2.0\n0.25,3.0\n")
    code, _, err = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                           "--alpha", "0.5")
    assert code == 1
    assert ":4:" in err


@pytest.mark.parametrize("text, line", [
    ("t,f\n0.0,1.0\n\n0.5,2.0\n1.1,3.0\n", 5),
    ("t,f\n\n1.0,1.0\n2.0,2.0\n", 3),
], ids=["off-grid", "origin"])
def test_integrate_csv_error_names_file_line_after_blank(capsys, tmp_path,
                                                         text, line):
    # a blank line is skipped, but still counted in the line number
    path = tmp_path / "gap.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                           "--alpha", "0.5")
    assert code == 1
    assert f"{path}:{line}:" in err


def test_integrate_missing_file(capsys):
    code, _, err = run_cli(capsys, "integrate", "--f", "csv:/no/such.csv",
                           "--alpha", "0.5")
    assert code == 1


def test_integrate_oracle_column(capsys):
    code, out, _ = run_cli(capsys, "integrate", "--f", "sin", "--alpha",
                           "0.5", "--t-end", "2", "--n", "33",
                           "--oracle", "--oracle-tol", "1e-8")
    assert code == 0
    header, cols = parse_csv(out)
    assert header == ["t", "approx", "exact", "abs_err", "rel_err"]
    # coarse first-order run stays within a few percent of the oracle
    sel = cols["t"] >= 1.0
    assert np.max(cols["abs_err"][sel]) < 0.05


def test_differentiate_sin_rule(capsys):
    code, out, _ = run_cli(capsys, "differentiate", "--f", "sin", "--alpha",
                           "0.5", "--t-end", "40", "--n", "8001",
                           "--method", "fft")
    assert code == 0
    _, cols = parse_csv(out)
    sel = cols["t"] >= 20.0
    assert np.max(cols["abs_err"][sel]) < 0.01


def test_differentiate_rl_route(capsys):
    code, out, _ = run_cli(capsys, "differentiate", "--f", "exp", "--alpha",
                           "0.5", "--t-end", "2", "--n", "513",
                           "--route", "rl", "--scheme", "flmm-trap")
    assert code == 0
    _, cols = parse_csv(out)
    sel = cols["t"] >= 1.0
    assert np.max(cols["rel_err"][sel]) < 0.01


def test_convergence_gl_exp(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--f", "exp", "--alpha",
                           "0.5", "--t-probe", "1",
                           "--n-list", "250,500,1000,2000", "--scheme", "gl")
    assert code == 0
    _, cols = parse_csv(out)
    order = cols["empirical_order"][-1]
    assert 0.85 <= order <= 1.15
    assert math.isnan(cols["empirical_order"][0])


def test_convergence_nc3_order(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--f", "exp", "--alpha",
                           "0.5", "--t-probe", "1",
                           "--n-list", "65,129,257", "--scheme", "nc3")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["empirical_order"][-1] >= 1.5


def test_convergence_sin_uses_brute_force_reference(capsys):
    # NC3 converges at order 3 + alpha; a reference off by more than the
    # finest error would flatten the last order
    code, out, _ = run_cli(capsys, "convergence", "--f", "sin", "--alpha",
                           "0.5", "--t-probe", "2", "--omega0", "1.5",
                           "--n-list", "65,129,257", "--scheme", "nc3")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["abs_err"][-1] < 1e-8
    assert cols["empirical_order"][-1] >= 3.0


def test_convergence_exact_rule_flags_nan(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--f", "const", "--alpha",
                           "1", "--t-probe", "1", "--n-list", "10,20,40",
                           "--scheme", "nc0")
    assert code == 0
    _, cols = parse_csv(out)
    assert np.all(cols["abs_err"] < 1e-13)
    assert np.all(np.isnan(cols["empirical_order"]))


def test_dielectric_universal_ratio_column(capsys):
    code, out, _ = run_cli(capsys, "dielectric", "--model", "universal",
                           "--n-exp", "0.5", "--omega-range", "1:100:10")
    assert code == 0
    _, cols = parse_csv(out)
    assert np.max(np.abs(cols["ratio"] - 1.0)) < 1e-12


def test_dielectric_debye_static(capsys):
    code, out, _ = run_cli(capsys, "dielectric", "--model", "debye",
                           "--tau", "1", "--omega-range", "0:0:1")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["chi_im"][0] == 0.0
    assert cols["chi_re"][0] == pytest.approx(1.0)


def test_dielectric_lorentz_sweep(capsys):
    code, out, _ = run_cli(capsys, "dielectric", "--model", "lorentz",
                           "--modes", "1:1:0.05,2:3:0.1",
                           "--omega-range", "100:10000:21", "--log-omega")
    assert code == 0
    _, cols = parse_csv(out)
    slope = np.polyfit(np.log(cols["omega"]),
                       np.log(np.hypot(cols["chi_re"], cols["chi_im"])), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.02)


def test_dielectric_time_domain(capsys):
    code, out, _ = run_cli(capsys, "dielectric", "--time-domain",
                           "--n-exp", "0.5", "--omega0", "6.2832",
                           "--dt", "0.002", "--t-end", "4")
    assert code == 0
    header, cols = parse_csv(out)
    assert header == ["t", "E", "P"]
    assert len(cols["t"]) == 2001


def test_dielectric_verify_ratio(capsys):
    code, out, _ = run_cli(capsys, "dielectric", "--verify-ratio",
                           "--n-exp", "0.5", "--omega0", "6.283",
                           "--dt", "1e-3", "--t-end", "20")
    assert code == 0
    _, cols = parse_csv(out)
    assert cols["rel_dev"][0] < 0.02


def test_determinism(capsys):
    args = ("integrate", "--f", "exp", "--alpha", "0.5", "--t-end", "5",
            "--n", "200", "--scheme", "gl")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_csv_values_round_trip(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--scheme", "gl", "--alpha",
                           "0.37", "--dt", "0.013", "--count", "50")
    assert code == 0
    from fracquad.weights import gl_weights
    want = gl_weights(0.37, 0.013, 50).values
    got = np.array([float(ln.split(",")[1]) for ln in out.splitlines()[1:]])
    assert np.array_equal(got, want)


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "coeffs", "--scheme", "bogus", "--alpha", "1",
                   "--dt", "1", "--count", "2")[0] == 2
    assert run_cli(capsys, "coeffs", "--scheme", "nc0", "--alpha", "0.5",
                   "--dt", "1", "--count", "2", "--derivative")[0] == 2
    assert run_cli(capsys, "integrate", "--f", "const", "--alpha", "0.5")[0] == 2
    assert run_cli(capsys, "integrate", "--f", "const", "--alpha", "0.5",
                   "--t-end", "1", "--n", "32", "--scheme", "trap",
                   "--memory", "8")[0] == 2


def test_convergence_grid_below_two_nodes_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convergence", "--f", "exp", "--alpha",
                           "0.5", "--t-probe", "1", "--n-list", "1,2,4")
    assert code == 2
    assert "at least 2" in err


def test_oracle_with_csv_rejected(capsys, tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("t,f\n0.0,1.0\n0.5,1.0\n1.0,1.0\n")
    code, _, err = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                           "--alpha", "0.5", "--oracle")
    assert code == 2


def test_runtime_errors_exit_one(capsys):
    # misaligned grid for the 3-point panel rule
    code, _, err = run_cli(capsys, "integrate", "--f", "exp", "--alpha",
                           "0.5", "--t-end", "1", "--n", "32",
                           "--scheme", "nc3")
    assert code == 1
    assert "tile" in err


_CONVERGE = ("convergence", "--f", "exp", "--alpha", "0.5", "--t-probe")


@pytest.mark.parametrize("argv, csv, code", [
    (("integrate", "--f", "csv:{}"), "x,y\n0,1\n1,2\n", 1),
    (("integrate", "--f", "csv:{}"), "t,f\n0,1,2\n1,2\n", 1),
    (("integrate", "--f", "csv:{}"), "t,f\n0,abc\n1,2\n", 1),
    (("integrate", "--f", "csv:{}"), "t,f\n0,1\n", 1),
    (("integrate", "--f", "csv:{}"), "t,f\n0,1\n0,2\n", 1),
    (("integrate", "--f", "csv:{}"), "t,f\n1,1\n2,2\n", 1),
    (("integrate", "--f", "exp", "--t-end", "1", "--n", "1"), None, 2),
    (("integrate", "--f", "bogus", "--t-end", "1", "--n", "5"), None, 2),
    ((*_CONVERGE, "1", "--n-list", "4,8"), None, 2),
    (("dielectric", "--omega-range", "1:2"), None, 2),
    (("dielectric", "--omega-range", "1:2:0"), None, 2),
    (("dielectric", "--omega-range", "0:10:5", "--log-omega"), None, 2),
    (("dielectric", "--model", "debye", "--omega-range=-5:10:1",
      "--log-omega"), None, 2),
    (("dielectric", "--model", "debye", "--omega-range=0:0:3",
      "--log-omega"), None, 2),
    (("dielectric", "--model", "debye", "--omega-range=-2:-2:2",
      "--log-omega"), None, 2),
    (("dielectric", "--omega-range", "inf:10:5"), None, 1),
    (("dielectric", "--model", "lorentz", "--modes", "1:1"), None, 2),
    (("dielectric", "--model", "lorentz", "--modes", "a:1:0.1"), None, 2),
    (("dielectric", "--model", "lorentz"), None, 2),
    (("dielectric", "--model", "lorentz", "--modes", "1:2:0",
      "--omega-range", "1:3:3"), None, 1),
    (("dielectric", "--time-domain", "--n-exp", "0.3,0.5"), None, 2),
    (("dielectric", "--n-exp", "0.3,0.5"), None, 2),
    # flag combinations the rules cannot honour
    (("differentiate", "--f", "exp", "--t-end", "1", "--n", "5", "--route",
      "rl", "--direction", "forward"), None, 2),
    (("integrate", "--f", "exp", "--t-end", "1", "--n", "5", "--memory", "4",
      "--method", "fft"), None, 2),
    (("integrate", "--f", "exp", "--t-end", "1", "--n", "5", "--memory", "4",
      "--starting-weights", "1"), None, 2),
    (("differentiate", "--f", "exp", "--t-end", "1", "--n", "5", "--route",
      "gl", "--scheme", "flmm-trap"), None, 2),
    (("differentiate", "--f", "exp", "--t-end", "1", "--n", "5", "--scheme",
      "nc0"), None, 2),
    (("dielectric", "--model", "lorentz", "--verify-ratio"), None, 2),
    (("dielectric", "--time-domain", "--model", "lorentz"), None, 2),
    (("dielectric", "--model", "universal", "--time-domain"), None, 2),
    # a non-finite integrand parameter, named before any sampling or oracle
    (("convergence", "--f", "sin", "--omega0", "inf", "--alpha", "0.5",
      "--t-probe", "1", "--n-list", "3,5,9"), None, 1),
    (("integrate", "--f", "const", "--c", "nan", "--t-end", "1", "--n", "5"),
     None, 1),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else repr(v))
def test_error_paths_one_stderr_line(capsys, tmp_path, argv, csv, code):
    # usage errors exit 2, data and runtime errors 1; either way no stdout
    # and one line on stderr
    if csv is not None:
        path = tmp_path / "in.csv"
        path.write_text(csv)
        argv = tuple(a.format(path) for a in argv)
    if argv[0] in ("integrate", "differentiate"):
        argv += ("--alpha", "0.5")
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (code, "")
    assert len(err.splitlines()) == 1


_PAST_BINARY64 = [
    ((*_CONVERGE, "800", "--n-list", "3,5,9"),
     "exact_integral_exp(800.0, 0.5) leaves"),
    (("convergence", "--f", "const", "--alpha", "0.5", "--c", "1e300",
      "--t-probe", "1e300", "--n-list", "3,5,9"),
     "exact_integral_const(1e+300, 0.5, 1e+300) leaves"),
    (("differentiate", "--f", "sin", "--omega0", "1e300", "--alpha", "1.5",
      "--t-end", "1", "--n", "5"), "exact_derivative_sin(0.0, 1e+300, 1.5)"),
    (("differentiate", "--f", "const", "--alpha", "1.5", "--c", "1e-310",
      "--t-end", "1e-310", "--n", "5", "--route", "rl"),
     "exact_derivative_monomial(2.5e-311, 1.5, 0.0) leaves"),
    (("convergence", "--f", "sin", "--alpha", "0.5", "--omega0", "1.7e308",
      "--t-probe", "7", "--n-list", "3,5,9"),
     "brute_force_rl(f, 7.0, 0.5, 1e-10) leaves"),
    ((*_CONVERGE[:4], "1e154", "--t-probe", "1e154", "--n-list", "3,5,9"),
     "exact_integral_exp(1e+154, 1e+154) leaves"),
    ((*_CONVERGE[:4], "1e10", "--t-probe", "1e10", "--n-list", "3,5,9"),
     "exact_integral_exp(10000000000.0, 10000000000.0) leaves"),
    ((*_CONVERGE[:4], "2", "--t-probe", "1e308", "--n-list", "3,5,9"),
     "exact_integral_exp(1e+308, 2.0) leaves"),
    ((*_CONVERGE, "1e30", "--n-list", "3,5,9"),
     "exact_integral_exp(1e+30, 0.5) leaves"),
    ((*_CONVERGE[:4], "1e10", "--t-probe", "10000000002", "--n-list",
      "3,5,9"), "exact_integral_exp(10000000002.0, 10000000000.0) leaves"),
    ((*_CONVERGE, "1", "--n-list", "3,5,900000000000000000000"),
     "grid needs 1 to"),
    (("coeffs", "--scheme", "flmm-trap", "--alpha", "1e-160", "--dt",
      "5e-324", "--count", "1", "--derivative"), "weights of order"),
    (("coeffs", "--scheme", "gl", "--alpha", "0.5", "--dt", "1", "--count",
      "900000000000000000000"), "weight count must be <="),
    (("dielectric", "--model", "debye", "--tau", "1e300", "--n-density",
      "1e300", "--omega-range", "1:2:2"), "Debye susceptibility leaves"),
    (("dielectric", "--model", "universal", "--omega-range", "1e-310:800:3",
      "--n-exp", "1e-20", "--scale", "2"), "universal susceptibility leaves"),
    (("dielectric", "--model", "lorentz", "--modes", "1:5:0.1", "--eps0",
      "1e-300", "--n-density", "1e20", "--omega-range", "1:2:2"),
     "Lorentz susceptibility leaves"),
    (("dielectric", "--time-domain", "--n-exp", "0.5", "--dt", "1",
      "--t-end", "4", "--omega0", "1e308"), "samples must all be finite"),
    (("dielectric", "--time-domain", "--dt", "5e-324", "--t-end", "1e300"),
     "finite ratio"),
    (("dielectric", "--omega-range=1.7e308:-1.7e308:4"),
     "--omega-range endpoints and their span must be finite"),
]


@pytest.mark.parametrize("argv, name", _PAST_BINARY64,
                         ids=[" ".join(argv) for argv, _ in _PAST_BINARY64])
def test_past_binary64_names_itself(capsys, argv, name):
    # one typed error line naming the reference, susceptibility, signal or
    # count that left binary64 or numpy's index range, with no numpy
    # RuntimeWarning (an error under this suite's warning filter)
    got, out, err = run_cli(capsys, *argv)
    assert (got, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert name in err


@pytest.mark.parametrize("argv", [
    ("integrate", "--f", "exp", "--alpha", "0.5", "--t-end", "1", "--n",
     str(10**400)),
    (*_CONVERGE, "1", "--n-list", f"3,5,{10**400}"),
], ids=["integrate", "convergence"])
def test_node_count_past_the_float_range(capsys, argv):
    # a count no float holds: named by the grid, not an OverflowError from
    # converting n - 1 for the step
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert "grid needs 1 to" in err


@pytest.mark.parametrize("argv", [
    # rel_err past binary64 where the exact value is subnormal: inf
    ("differentiate", "--f", "sin", "--t-end", "1.5", "--n", "4", "--alpha",
     "1e-310", "--method", "fft", "--omega0", "1.5", "--route", "rl"),
    # omega^2 past binary64: the response rounds to 0
    ("dielectric", "--model", "lorentz", "--modes", "1:1:0.1",
     "--omega-range", "1e200:1e300:2"),
    # next to a damped resonance: finite, with nothing on stderr
    ("dielectric", "--model", "lorentz", "--modes", "1:2:0.3",
     "--omega-range", "1.999:2.001:3"),
], ids=" ".join)
def test_extreme_flags_exit_zero_without_warning(capsys, argv):
    # finite result cells, and no numpy RuntimeWarning (an error under this
    # suite's warning filter) on the way
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    _, cols = parse_csv(out)
    for name in ("approx", "chi_re", "chi_im"):
        assert np.all(np.isfinite(cols.get(name, 0.0)))


@pytest.mark.parametrize("flags, rule", [
    (("--memory", "16"), lambda sig: short_memory_integral(
        sig, gl_weights(0.5, sig.grid.dt, sig.grid.n), 16)),
    (("--scheme", "trap"), lambda sig: frac_trapezoid(sig, 0.5)),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_integrate_memory_and_trap_rows(capsys, flags, rule):
    # the approx column is the library rule's output bit for bit
    code, out, _ = run_cli(capsys, "integrate", "--f", "exp", "--alpha",
                           "0.5", "--t-end", "2", "--n", "65", *flags)
    assert code == 0
    approx = [row.split(",")[1] for row in out.splitlines()[1:]]
    sig = SampledSignal.sample(np.exp, UniformGrid(2.0 / 64, 65))
    assert approx == [repr(x) for x in rule(sig).values.tolist()]


@pytest.mark.parametrize("alpha, cell", [("0.5", "inf"), ("1", "0.0"),
                                         ("1.5", "-inf"), ("2", "0.0")])
def test_differentiate_const_exact_at_zero(capsys, alpha, cell):
    # the t -> 0+ limit of c t^-alpha / Gamma(1 - alpha): its sign follows
    # Gamma(1 - alpha), and it is 0 where 1/Gamma(1 - alpha) is
    code, out, _ = run_cli(capsys, "differentiate", "--f", "const",
                           "--alpha", alpha, "--t-end", "1", "--n", "5")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == cell


@pytest.mark.parametrize("c, alpha, cell", [
    ("0", "0.5", "0.0"), ("-2", "0.5", "-inf"), ("-2", "1", "0.0"),
    ("-2", "1.5", "inf")])
def test_differentiate_scaled_const_exact_at_zero(capsys, c, alpha, cell):
    # c times the limit above: c = 0 gives 0, not 0 * inf = nan, and a pole
    # gives an unsigned 0 for c < 0
    code, out, _ = run_cli(capsys, "differentiate", "--f", "const", "--c", c,
                           "--alpha", alpha, "--t-end", "1", "--n", "5")
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == cell


def test_differentiate_rl_route_defaults_to_gl(capsys):
    argv = ("differentiate", "--f", "exp", "--alpha", "0.5", "--t-end", "1",
            "--n", "33", "--route", "rl")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--scheme", "gl")


def test_dielectric_modes_exclusive(capsys):
    # argparse's usage error: exit 2, no stdout, the reason on its last line
    code, out, err = run_cli(capsys, "dielectric", "--time-domain",
                             "--verify-ratio")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "--verify-ratio: not allowed with argument --time-domain")


def _run_cli_process(*argv):
    # a fresh interpreter, so that a numpy warning reaches stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(fracquad.__file__).resolve().parents[1])
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "fracquad.cli", *argv],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("scheme, alpha", [("nc3", "inf"), ("trap", "1e308"),
                                           ("gl", "1e300"),
                                           ("flmm-trap", "1e300")])
def test_panel_rule_overflowing_order_exit_one(scheme, alpha):
    # one typed error line on stderr, no numpy RuntimeWarning before it (the
    # GL and FLMM_TRAP weights of order 1e300 leave binary64: not a
    # complaint about the signal from their NaN result)
    run = _run_cli_process("integrate", "--f", "exp", "--alpha", alpha,
                           "--t-end", "1", "--n", "65", "--scheme", scheme)
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert "Warning" not in run.stderr


@pytest.mark.parametrize("argv", [
    ("integrate", "--f", "exp", "--alpha", "0.5", "--t-end", "800"),
    ("differentiate", "--f", "exp", "--alpha", "0.5", "--t-end", "1000"),
    ("integrate", "--f", "sin", "--omega0", "inf", "--alpha", "0.5",
     "--t-end", "1"),
], ids=" ".join)
def test_non_finite_samples_exit_one(argv):
    # one typed error line from the signal's finiteness check, no numpy
    # overflow or invalid-value RuntimeWarning before it
    run = _run_cli_process(*argv, "--n", "65")
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert "finite" in run.stderr and "Warning" not in run.stderr


@pytest.mark.parametrize("scheme", ["gl", "flmm-trap"])
def test_coeffs_overflowing_weights_exit_one(scheme):
    # one typed error line on stderr, not NaN rows with exit 0
    run = _run_cli_process("coeffs", "--scheme", scheme, "--alpha", "1e300",
                           "--dt", "0.5", "--count", "4")
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert "binary64" in run.stderr


@pytest.mark.parametrize("argv", [
    ("--f", "const", "--c", "1e307", "--alpha", "0.5", "--t-end", "5000",
     "--n", "5000", "--method", "direct"),
    ("--f", "const", "--c", "1e307", "--alpha", "0.5", "--t-end", "5000",
     "--n", "5000", "--method", "fft"),
    ("--f", "const", "--alpha", "1.896", "--t-end", "6.4e160", "--n", "481",
     "--starting-weights", "3"),
], ids=["output-direct", "output-fft", "starting-table"])
def test_result_past_binary64_exit_one(argv):
    # finite samples whose integral, or starting-weight table, leaves
    # binary64: one typed error line naming the result, no RuntimeWarning
    run = _run_cli_process("integrate", *argv)
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert "binary64" in run.stderr and "Warning" not in run.stderr


@pytest.mark.parametrize("n_exp, dt", [("0.5", "10"), ("0.3", "0.5")])
def test_verify_ratio_degenerate_fit_exit_one(capsys, n_exp, dt):
    code, out, err = run_cli(capsys, "dielectric", "--verify-ratio",
                             "--n-exp", n_exp, "--dt", dt)
    assert (code, out) == (1, "")
    assert "ill-conditioned" in err


@pytest.mark.parametrize("argv, word", [
    (("--omega-range", "nan:10:3"), "omega-range"),
    (("--omega-range", "1:inf:2"), "omega-range"),
    (("--model", "lorentz", "--modes", "1:nan:0.1"), "mode"),
    (("--model", "lorentz", "--modes", "1:1:0.1", "--eps0", "0"), "eps0"),
    (("--model", "lorentz", "--modes", "1:1:0.1", "--n-density", "-1"),
     "density"),
    (("--model", "debye", "--tau", "inf"), "finite"),
    (("--model", "debye", "--n-density", "-1"), "density"),
    (("--model", "debye", "--n-density", "0"), "density"),
    (("--model", "debye", "--omega-range=-5:10:3"), "omega"),
    (("--verify-ratio", "--omega0", "inf"), "probe frequency"),
    (("--time-domain", "--omega0", "inf"), "probe frequency"),
    (("--time-domain", "--eps0", "nan"), "eps0"),
    (("--time-domain", "--eps0", "-1"), "eps0"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_dielectric_non_finite_input_exit_one(argv, word):
    # one typed error line naming the input, no NaN rows, no RuntimeWarning
    # and no traceback
    run = _run_cli_process("dielectric", *argv)
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert word in run.stderr and "Warning" not in run.stderr


def test_integrate_nc3_fft_runs_the_engine(capsys):
    # --method reaches the 3-point rule: the CSV's approx column is the
    # engine's output bit for bit, not the direct path's
    code, out, _ = run_cli(capsys, "integrate", "--f", "exp", "--alpha",
                           "0.5", "--t-end", "10", "--n", "5001", "--scheme",
                           "nc3", "--method", "fft")
    assert code == 0
    approx = [row.split(",")[1] for row in out.splitlines()[1:]]
    grid = UniformGrid(10.0 / 5000, 5001)
    sig = SampledSignal.sample(np.exp, grid)
    fft, direct = (frac_newton_cotes(sig, 0.5, 3, method=m).values
                   for m in ("fft", "direct"))
    assert approx == [repr(x) for x in fft.tolist()]
    assert not np.array_equal(fft, direct)


@pytest.mark.parametrize("alpha, dt", [("nan", "1"), ("inf", "1"),
                                       ("0.5", "inf")])
def test_coeffs_non_finite_order_or_step_exit_one(capsys, alpha, dt):
    code, out, err = run_cli(capsys, "coeffs", "--scheme", "gl", "--alpha",
                             alpha, "--dt", dt, "--count", "3")
    assert (code, out) == (1, "")
    assert "finite" in err


@pytest.mark.parametrize("mode", ["--verify-ratio", "--time-domain"])
@pytest.mark.parametrize("grid", [("--dt", "0"), ("--dt", "nan"),
                                  ("--dt", "-1"), ("--t-end", "inf")],
                         ids=" ".join)
def test_dielectric_bad_time_grid_exit_one(capsys, mode, grid):
    code, out, err = run_cli(capsys, "dielectric", mode, *grid)
    assert (code, out) == (1, "")
    assert "positive and finite" in err


def test_parser_reuse_keeps_no_state(capsys):
    # main() reuses one parser per process: each call's stdout and exit code
    # match a fresh process given the same argv, a usage error included
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(fracquad.__file__).resolve().parents[1])
                         + os.pathsep + env.get("PYTHONPATH", ""))
    coeffs = ["coeffs", "--scheme", "flmm-trap", "--alpha", "0.3", "--dt",
              "0.1", "--count", "20"]
    for argv, want_code in (
            (coeffs, 0),
            (["coeffs", "--scheme", "bogus", "--alpha", "1", "--dt", "1",
              "--count", "2"], 2),
            (["integrate", "--f", "exp", "--alpha", "0.5", "--t-end", "1",
              "--n", "65", "--scheme", "nc3"], 0),
            (coeffs, 0)):
        code, out, _ = run_cli(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "fracquad.cli", *argv],
                               env=env, capture_output=True)
        assert (code, fresh.returncode) == (want_code, want_code), argv
        assert out.encode() == fresh.stdout, argv


#: The commands of the README's "Command line" section, each with the
#: sha256 and length of its stdout.  ``signal.csv`` is written by the test.
_README_COMMANDS = [
    ("coeffs --scheme gl --alpha 0.5 --dt 1 --count 8",
     "01423825c46181c2bd8cafd3eaa8e6ef552519db0df981e216b4f7ab9b4b697f", 94),
    ("integrate --f exp --alpha 0.5 --t-end 10 --n 1500 --scheme gl "
     "--method fft",
     "077e89b3e20d1961c90e46e18e5f8b8699ee871b05ea8273d27d6b09e3b8c35d",
     144384),
    ("integrate --f sin --alpha 0.5 --t-end 5 --n 129 --oracle",
     "a57d0677caaf0898a9e07cd565db8ae445c3f2f0b08ee8b335a59966636bc263",
     11508),
    ("integrate --f csv:signal.csv --alpha 0.5",
     "695a009dda0dcb4aada7f01da52ed619b5dfa77f119eb5d025937a96164ed040",
     6791),
    ("convergence --f exp --alpha 0.5 --t-probe 1 "
     "--n-list 250,500,1000,2000 --scheme gl",
     "4a83f1ed7f1e16df11d738d7ae645f75edb54bd76cb5513136d859f3077e8572", 280),
    ("differentiate --f sin --alpha 0.5 --t-end 40 --n 8001 --method fft",
     "6663092dc58ecb5195aaaed32e9dac3cebb5c89e83db17b025c03e3b8b8faf9a",
     714630),
    ("dielectric --model debye --tau 1 --omega-range 0.01:100:50 "
     "--log-omega",
     "c8163e42d12e9c3a9ae0b2a49d2c793e62473772e94ad48b653d2c0e33773c6a",
     3872),
    ("dielectric --verify-ratio --n-exp 0.25,0.5,0.75",
     "e0fc574cf07a2e2631845827d3e0719ee519e8217f1abdb5380033625f1896ac", 220),
]


@pytest.mark.parametrize("command, digest, length", _README_COMMANDS)
def test_readme_command_bytes(capsys, tmp_path, monkeypatch, command,
                              digest, length):
    # 257 samples of 1 + t - t^2/8 on t = k/64, all exact in binary64
    monkeypatch.chdir(tmp_path)
    t = [k / 64 for k in range(257)]
    (tmp_path / "signal.csv").write_text(
        "t,f\n" + "".join(f"{x!r},{1 + x - x * x / 8!r}\n" for x in t))
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, length)
