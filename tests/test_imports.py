"""Where the import boundary lies.

The closed forms, the parser and the shared types load no numpy: a
closed-form command starts in about half the time of one that integrates.
Each boundary check runs in a fresh interpreter, since this one has long
loaded numpy.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import edecoh

_SCRIPT = """
import contextlib, io, sys
from edecoh.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rc = main({argv!r})
print(rc, "numpy" in sys.modules)
"""


def _fresh_main(argv: list[str]) -> tuple[int, bool]:
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(argv=argv)],
        capture_output=True, text=True, check=True,
    )
    rc, loaded = proc.stdout.split()
    return int(rc), loaded == "True"


@pytest.mark.parametrize(
    "argv, rc",
    [
        (["--help"], 0),
        (["intersect", "--bogus"], 2),
        (["intersect"], 0),
        (["intersect", "--ell-sweep"], 0),
        (["parallel"], 0),
        (["validity"], 0),
    ],
)
def test_closed_form_commands_load_no_numpy(argv, rc):
    assert _fresh_main(argv) == (rc, False)


def test_kappa_sweep_loads_numpy():
    argv = ["kappa-sweep", "--beta-min", "3", "--beta-max", "5", "--steps", "2"]
    assert _fresh_main(argv) == (0, True)


def test_importing_the_package_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, edecoh; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("name", sorted(set(edecoh.__all__) - {"__version__"}))
def test_each_export_is_its_defining_modules_object(name):
    module = importlib.import_module(f"edecoh.{edecoh._EXPORTS[name]}")
    assert getattr(edecoh, name) is getattr(module, name)


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from edecoh import *", namespace)
    assert set(edecoh.__all__) <= set(namespace)
    assert namespace["__version__"] == edecoh.__version__


@pytest.mark.parametrize(
    "name",
    [
        "QuadratureConfig", "IntegrationResult", "NonConvergenceError", "PoleOnBoundaryError",
        "PoleSeparationError", "require_finite", "require_converged", "_EPS",
    ],
)
def test_quadrature_reexports_the_shared_names(name):
    from edecoh import base, quadrature

    assert getattr(quadrature, name) is getattr(base, name)


def test_eps_is_numpys_float_eps():
    np = pytest.importorskip("numpy")
    from edecoh.base import _EPS

    assert _EPS == float(np.finfo(float).eps)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        edecoh.nope  # noqa: B018
