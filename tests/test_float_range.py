"""The closed forms across the whole float range.

Each closed form takes the log of a product or ratio of its inputs; those
logs are sums of logs, so no input between the smallest subnormal and the
largest float over- or underflows them.  The reproducers below each broke
once (a traceback, an infinite exponent, a bare "math domain error"); they
are pinned against mpmath evaluations of the same formulas.  A hypothesis
property then drives the closed-form commands in-process over the whole
range, non-finite and non-positive values included.

The mpmath references run with 700 working digits: enough for every sum
and difference of two inputs between 1e-320 and 1.8e308 to be exact, so
each reference keeps well over 40 correct digits.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edecoh.cli import main
from edecoh.kernels import kernel_K_closed

mpmath = pytest.importorskip("mpmath")

ALPHA = 7.2973525693e-3
KAPPA_SPHERE = -1.5
DIGITS = 700


def _main(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def _fields(out: str) -> dict[str, float]:
    return {
        name: float(value)
        for name, value in (line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    }


def _K_mp(T, r):
    return (T / r) * mpmath.log(abs(T - r) / (T + r)) - mpmath.log(abs(T * T - r * r) / (r * r))


def _parallel_mp(r0=100.0, T=1e6, radius=0.5):
    """Breakdown and exponents that `parallel` prints, for a sphere."""
    with mpmath.workdps(DIGITS):
        r0, T, ell = mpmath.mpf(r0), mpmath.mpf(T), 2 * mpmath.mpf(radius)
        a = mpmath.mpf(ALPHA) / mpmath.pi
        K = _K_mp(T, r0)
        wv = a * (2 - KAPPA_SPHERE + 2 * mpmath.log(T / ell))
        wg = a * K
        return {"K": K, "w_vacuum": wv, "w_photon": wg, "w_total": wv + wg,
                "contrast": mpmath.exp(wv + wg)}


def _intersect_mp(L1=100.0, L2=1e4, theta=0.5, v=0.01, radius=0.5):
    """Breakdown and exponents that the closed `intersect` prints, for a sphere."""
    with mpmath.workdps(DIGITS):
        L1, L2, theta, v = (mpmath.mpf(x) for x in (L1, L2, theta, v))
        ell, kap = 2 * mpmath.mpf(radius), mpmath.mpf(KAPPA_SPHERE)
        s = v * mpmath.sin(theta)
        out = {
            "J_aa": -2 + kap - 2 * mpmath.log(L1 / (ell * v)),
            "J_bb": -2 + kap - 2 * mpmath.log(L2 / (ell * v)),
            "J_ab": mpmath.log(L1 / ell),
            "I_aa": mpmath.log(ell * s * s / L1) + 2 * (mpmath.log(2) - 1),
            "I_bb": -2 * (1 + mpmath.log(L2 / (2 * L1 * s))),
            "I_ab": 1 - mpmath.log(2 * s),
        }
        half_a = mpmath.mpf(ALPHA) / (2 * mpmath.pi)
        out["w_vacuum"] = -half_a * (2 * out["J_aa"] + out["J_bb"] + 4 * out["J_ab"])
        out["w_photon"] = half_a * (2 * out["I_aa"] + out["I_bb"] + 4 * out["I_ab"])
        out["w_total"] = out["w_vacuum"] + out["w_photon"]
        out["contrast"] = mpmath.exp(out["w_total"])
        return out


@pytest.mark.parametrize(
    "argv, reference",
    [
        (["parallel", "--r0", "1e-300"], lambda: _parallel_mp(r0=1e-300)),
        (["parallel", "--T", "1e300"], lambda: _parallel_mp(T=1e300)),
        (["parallel", "--radius", "1e-320"], lambda: _parallel_mp(radius=1e-320)),
        (["intersect", "--v", "1e-300"], lambda: _intersect_mp(v=1e-300)),
    ],
)
def test_reproducer_prints_the_mpmath_value(argv, reference):
    rc, out, err, _ = _main(argv)
    assert (rc, err) == (0, "")
    printed = _fields(out)
    for name, value in reference().items():
        # 12 printed significant digits
        assert math.isclose(printed[name], float(value), rel_tol=1e-11), name


def test_spreading_bound_above_the_float_range_exits_2_naming_the_input():
    rc, out, err, _ = _main(["validity", "--dx0", "1e300"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: the spreading bound for energy = 10000 eV and dx0 = 1e+294 m")


def test_packet_size_underflowing_the_unit_conversion_is_named():
    rc, out, err, _ = _main(["validity", "--dx0", "5e-324"])
    assert (rc, out, err) == (2, "", "error: dx0 = 4.94066e-324 um underflows to 0 m\n")


@pytest.mark.parametrize(
    "T, rho",
    [
        (1e6, 1e-300),  # T/rho overflows
        (1e300, 100.0),
        (1.0, 1e16),  # |T - rho|/(T + rho) rounds to 1: the log form lost every digit
        (1e-10, 1.0),  # the log form returned twice the value
        (1e200, 1.5e200),  # T^2 - rho^2 overflows
        (1.7e308, 1e308),  # T + rho overflows
        (3.0, 1.5),
        (1.0 + 1e-11, 1.0),
    ],
)
def test_K_keeps_its_digits_across_the_float_range(T, rho):
    with mpmath.workdps(DIGITS):
        ref = float(_K_mp(mpmath.mpf(T), mpmath.mpf(rho)))
    assert math.isclose(kernel_K_closed(T, rho), ref, rel_tol=1e-14)


# ---------------------------------------------------------------------------
# property: every closed-form run ends in exit 0 with finite numbers written
# to --out, or in exit 2 with one error line that names an input and the
# --out file left as it was

_SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308]
_VALUES = st.one_of(
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    st.floats(-300.0, 300.0).map(lambda e: -(10.0**e)),
    st.sampled_from(_SPECIAL),
)
_EARLIER = b"earlier,output\n"
_BARE = re.compile(r"^(math domain error|math range error|(float )?division by zero)$")


def _options(**names: st.SearchStrategy) -> st.SearchStrategy[list[str]]:
    """--name=value for each option that is drawn at all (else its default)."""
    drawn = {name: st.one_of(st.none(), strategy) for name, strategy in names.items()}
    return st.fixed_dictionaries(drawn).map(
        lambda d: [f"--{k.replace('_', '-')}={v!r}" for k, v in d.items() if v is not None]
    )


def _check(argv: list[str], inputs: tuple[str, ...]) -> None:
    # made here, not by a fixture: hypothesis rejects function-scoped fixtures
    with tempfile.TemporaryDirectory() as tmp:
        out_file = Path(tmp) / "earlier.csv"
        out_file.write_bytes(_EARLIER)
        rc, out, err, seconds = _main([*argv, "--out", str(out_file)])
        written = out_file.read_bytes()
    assert seconds < 1.0, argv
    assert rc in (0, 2), (argv, rc, err)
    assert out == "", argv
    if rc == 0:
        text = written.decode()
        assert err == "" and written != _EARLIER, argv
        for token in re.split(r"[\s,=()*^/]+", text):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), (argv, text)
        return
    assert written == _EARLIER, argv
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    message = lines[0][len("error: "):]
    assert not _BARE.match(message), (argv, message)
    assert any(re.search(rf"\b{name}\b", message) for name in inputs), (argv, message)


@settings(max_examples=300, deadline=None)
@given(options=_options(L1=_VALUES, L2=_VALUES, theta=_VALUES, v=_VALUES, radius=_VALUES),
       ell_sweep=st.booleans())
def test_intersect_closed_ends_in_a_number_or_a_named_error(options, ell_sweep):
    argv = ["intersect", *options, *(["--ell-sweep"] if ell_sweep else [])]
    _check(argv, ("L1", "L2", "theta", "v", "radius"))


@settings(max_examples=300, deadline=None)
@given(options=_options(r0=_VALUES, T=_VALUES, v=_VALUES, radius=_VALUES))
def test_parallel_ends_in_a_number_or_a_named_error(options):
    _check(["parallel", *options], ("r0", "T", "v", "radius"))


@settings(max_examples=150, deadline=None)
@given(
    options=_options(r0=_VALUES, v=_VALUES, radius=_VALUES, sweep_min=_VALUES, sweep_max=_VALUES),
    steps=st.integers(2, 50),
    log_spacing=st.booleans(),
)
def test_parallel_T_sweep_ends_in_a_number_or_a_named_error(options, steps, log_spacing):
    argv = ["parallel", "--sweep", "T", f"--sweep-steps={steps}", *options]
    _check(argv + (["--log-spacing"] if log_spacing else []), ("r0", "T", "v", "radius", "sweep"))


@settings(max_examples=300, deadline=None)
@given(options=_options(energy_ev=_VALUES, dx0=_VALUES))
def test_validity_ends_in_a_number_or_a_named_error(options):
    _check(["validity", *options], ("energy", "dx0"))
