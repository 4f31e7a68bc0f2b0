"""Where the import boundary lies.

The parser loads no physics: `python -m edecoh --help`, a usage error and
a bad config key import nothing of the package beyond `edecoh`, its
`__main__` and `edecoh.cli`; each command imports the modules it runs.
The closed forms and the shared types load no numpy: a closed-form command
starts in about half the time of one that integrates.  Each boundary
check runs in a fresh interpreter, since this one has long loaded numpy.
"""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import edecoh

# what a start that runs no command may load of the package
_PARSER_MODULES = {"edecoh", "edecoh.__main__", "edecoh.cli"}
_COMMANDS = ("kappa-sweep", "parallel", "intersect", "verify", "validity")


def _fresh_start(argv: list[str]) -> tuple[int, str, str, set[str]]:
    """`python -m edecoh <argv>` in a fresh interpreter, with `-X importtime`
    reporting every module it imports on stderr.  Returns the exit code,
    stdout, the rest of stderr and the modules imported."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "edecoh", *argv],
        capture_output=True, text=True,
    )
    imported, err = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "\n".join(err), imported


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "edecoh" or m.startswith("edecoh.")}


def test_help_start_loads_only_the_parser():
    # the command the benchmark's setup_s times
    rc, out, _, loaded = _fresh_start(["--help"])
    assert rc == 0
    assert "{" + ",".join(_COMMANDS) + "}" in out
    assert "edecoh.cli" in loaded
    assert _package(loaded) <= _PARSER_MODULES


def test_usage_error_loads_only_the_parser():
    rc, out, err, loaded = _fresh_start(["intersect", "--bogus"])
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --bogus" in err
    assert _package(loaded) <= _PARSER_MODULES


def test_bad_config_key_loads_only_the_parser(tmp_path):
    config = tmp_path / "edecoh.cfg"
    config.write_text("bogus_key = 1\n")
    rc, out, err, loaded = _fresh_start(["intersect", "--config", str(config)])
    assert rc == 2
    assert out == ""
    assert "error: unknown config key: 'bogus_key'" in err
    assert _package(loaded) <= _PARSER_MODULES


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
    code, _, _, loaded = _fresh_start(argv)
    assert (code, "numpy" in loaded) == (rc, False)


def test_kappa_sweep_loads_numpy():
    argv = ["kappa-sweep", "--beta-min", "3", "--beta-max", "5", "--steps", "2"]
    code, _, _, loaded = _fresh_start(argv)
    assert (code, "numpy" in loaded) == (0, True)


def test_importing_the_package_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, edecoh; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False"]


def test_decoherence_loads_no_wavepacket():
    # the exponents take a packet as its shape constant and size, two numbers
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, edecoh.decoherence; print('edecoh.wavepacket' in sys.modules)"],
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
