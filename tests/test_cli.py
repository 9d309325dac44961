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
from fracquad.quadrature import SampledSignal, UniformGrid, frac_newton_cotes


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


def test_integrate_csv_schema_error(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,f\n0.0,1.0\n0.1,2.0\n0.25,3.0\n")
    code, _, err = run_cli(capsys, "integrate", "--f", f"csv:{path}",
                           "--alpha", "0.5")
    assert code == 1
    assert ":4:" in err


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


def test_convergence_nc2_order(capsys):
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


def _run_cli_process(*argv):
    # a fresh interpreter, so that a numpy warning reaches stderr
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(fracquad.__file__).resolve().parents[1])
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-m", "fracquad.cli", *argv],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("scheme, alpha", [("nc3", "inf"), ("trap", "1e308")])
def test_panel_rule_overflowing_order_exit_one(scheme, alpha):
    # one typed error line on stderr, no numpy RuntimeWarning before it
    run = _run_cli_process("integrate", "--f", "exp", "--alpha", alpha,
                           "--t-end", "1", "--n", "65", "--scheme", scheme)
    assert (run.returncode, run.stdout) == (1, "")
    assert len(run.stderr.splitlines()) == 1
    assert "Warning" not in run.stderr


@pytest.mark.parametrize("argv, word", [
    (("--omega-range", "nan:10:3"), "omega-range"),
    (("--omega-range", "1:inf:2"), "omega-range"),
    (("--model", "lorentz", "--modes", "1:nan:0.1"), "mode"),
    (("--model", "debye", "--tau", "inf"), "finite"),
    (("--verify-ratio", "--omega0", "inf"), "probe frequency"),
    (("--time-domain", "--omega0", "inf"), "probe frequency"),
    (("--time-domain", "--eps0", "nan"), "eps0"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
def test_dielectric_non_finite_input_exit_one(argv, word):
    # one typed error line naming the input, no NaN rows, no RuntimeWarning
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
