"""Property test: ``fracquad.cli.main`` on every subcommand with flags drawn
from extreme finite values.  Each run exits 0 with finite result cells, or
1 or 2 with one stderr line and no stdout; nothing escapes ``main`` and no
warning is emitted.  Node counts stay at 64 or below, or past what numpy can
index, and t_end/dt at 256 or below, so nothing large is allocated."""

import contextlib
import io
import math
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from fracquad.cli import main  # noqa: E402

_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300,
             1e-160, 1e-20, 0.25, 0.5, 1.0, 1.5, 2.0, 7.0, -1.0, 800.0,
             1e20, 1e154, 2.0**53, 1e300, -1e300, 1.7e308, -1.7e308)
#: Node counts a run may allocate, one numpy cannot index and one no float
#: holds.
_COUNTS = (-1, 0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 64,
           900_000_000_000_000_000_000, 10**400)
#: Result columns whose cells must be finite on exit 0.
_FINITE = {"approx", "exact", "P", "chi_re", "chi_im", "weight"}
_RULES = ("gl", "nc0", "flmm-trap", "trap", "nc3")

values = st.sampled_from(_EXTREMES)
counts = st.sampled_from(_COUNTS)


def flag(name, value):
    # the --name=value form, so argparse reads -1e+300 as a value
    return f"--{name}={value!r}"


@st.composite
def coeffs_argv(draw):
    argv = ["coeffs", "--scheme", draw(st.sampled_from(_RULES[:3])),
            flag("alpha", draw(values)), flag("dt", draw(values)),
            flag("count", draw(counts))]
    return argv + (["--derivative"] if draw(st.booleans()) else [])


def rule_flags(draw, f):
    argv = [flag("alpha", draw(values)),
            "--method", draw(st.sampled_from(("direct", "fft")))]
    if f == "const":
        argv.append(flag("c", draw(values)))
    if f == "sin":
        argv.append(flag("omega0", draw(values)))
    return argv


@st.composite
def signal_argv(draw):
    command = draw(st.sampled_from(("integrate", "differentiate")))
    f = draw(st.sampled_from(("const", "exp", "sin")))
    argv = [command, "--f", f, flag("t-end", draw(values)),
            *rule_flags(draw, f)]
    if command == "differentiate":
        argv += ["--route", draw(st.sampled_from(("gl", "rl"))),
                 "--direction", draw(st.sampled_from(("backward",
                                                      "forward"))),
                 "--scheme", draw(st.sampled_from(_RULES[:3]))]
        return argv + [flag("n", draw(counts))]
    argv += ["--scheme", draw(st.sampled_from(_RULES))]
    if draw(st.booleans()):
        argv.append(flag("memory", draw(counts)))
    if draw(st.booleans()):
        argv.append(flag("starting-weights", draw(st.integers(0, 3))))
    if f == "sin" and draw(st.booleans()):
        # one brute-force quadrature per node: few nodes, a loose tolerance
        return argv + ["--n=5", "--oracle", "--oracle-tol=1e-06"]
    return argv + [flag("n", draw(counts))]


@st.composite
def convergence_argv(draw):
    f = draw(st.sampled_from(("const", "exp", "sin")))
    n_list = draw(st.lists(counts, min_size=3, max_size=4))
    return ["convergence", "--f", f, flag("t-probe", draw(values)),
            "--n-list=" + ",".join(map(str, n_list)), *rule_flags(draw, f),
            "--scheme", draw(st.sampled_from(_RULES)), "--oracle-tol=1e-06"]


@st.composite
def dielectric_argv(draw):
    n_exp = draw(st.lists(st.sampled_from((*_EXTREMES, 0.3, 0.75)),
                          min_size=1, max_size=2))
    argv = ["dielectric", flag("omega0", draw(values)),
            flag("eps0", draw(values)),
            "--n-exp=" + ",".join(map(repr, n_exp)),
            "--scheme", draw(st.sampled_from(_RULES[:3]))]
    mode = draw(st.sampled_from(("sweep", "time-domain", "verify-ratio")))
    if mode != "sweep":
        dt, t_end = draw(values), draw(values)
        # nothing between 256 nodes and a count numpy cannot index
        hypothesis.assume(not (dt > 0.0 and t_end > 0.0
                               and 256.0 < t_end / dt < 2.0**64))
        return argv + [f"--{mode}", flag("dt", dt), flag("t-end", t_end)]
    lo, hi = draw(values), draw(values)
    argv += [f"--omega-range={lo!r}:{hi!r}:{draw(counts)}",
             flag("scale", draw(values)), flag("n-density", draw(values)),
             flag("tau", draw(values))]
    if draw(st.booleans()):
        argv.append("--log-omega")
    model = draw(st.sampled_from((None, "universal", "debye", "lorentz")))
    if model == "lorentz":
        modes = draw(st.lists(st.tuples(values, values, values),
                              min_size=1, max_size=2))
        argv.append("--modes=" + ",".join(":".join(map(repr, m))
                                          for m in modes))
    return argv + ([] if model is None else ["--model", model])


@pytest.mark.parametrize("argv", [coeffs_argv(), signal_argv(),
                                  convergence_argv(), dielectric_argv()],
                         ids=["coeffs", "integrate-differentiate",
                              "convergence", "dielectric"])
def test_cli_on_extreme_flags(argv):
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(argv)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert not caught, [str(w.message) for w in caught]
        if code:
            assert code in (1, 2)
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            return
        lines = out.getvalue().splitlines()
        header = lines[0].split(",")
        for row in lines[1:]:
            cells = dict(zip(header, map(float, row.split(","))))
            for name, cell in cells.items():
                # the documented t -> 0+ limits
                assert (name not in _FINITE or math.isfinite(cell)
                        or name == "exact" and cells["t"] == 0.0), (name, row)

    check()
