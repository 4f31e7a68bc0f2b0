"""Command-line front end: sweeps, single-point evaluations, and checks.

Commands
--------
kappa-sweep   shape constant kappa on a beta = L/R grid (CSV)
parallel      exponents and contrast for two parallel paths
intersect     exponents and contrast for the V geometry
verify        closed form vs independent-quadrature pass/fail table
validity      wavepacket-spreading bound on the flight distance

Conventions shared by all commands: lengths are scale free with c = 1
and v dimensionless, except that validity reads dx0 in the unit given by
its --unit flag (default micrometers); CSV output is comma separated
with '\n' line endings, a header row, no trailing comma, and 12
significant digits; output is deterministic for fixed inputs and seed.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3
numerical non-convergence.  Each command takes only the flags it reads.
Each command imports the physics it runs when it runs, so that --help
and a usage error load nothing of the package beyond this module.

A flat key=value config file (one assignment per line, '#' comments,
keys mirroring the long flags of any command) can seed any flag's
default; each command takes the keys it reads, and explicit flags win
over the file.  A value must be one of its flag's choices, and neither
--help nor a positional argument has a key.  --config takes any
spelling of the flag that argparse accepts (--conf FILE, --con=FILE).
--out opens its file when the first line is written: a rejected input
leaves an existing file as it was, and an unwritable path exits 2 once
the first line is ready.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .wavepacket import Wavepacket

_UNIT_M = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}

# 10 keV electron with a 1 micrometer packet; reference point of the
# printed spreading-rule line.
_SCALING_E_EV = 1e4
_SCALING_DX0_M = 1e-6


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _OutStream:
    """Line sink honoring --out.

    The file is opened when the first line is written, so an input rejected
    before any output leaves an existing file as it was; each line is
    flushed so partial sweeps survive errors.
    """

    def __init__(self, path: str | None) -> None:
        self._path = path
        self._fh = None

    def line(self, text: str) -> None:
        if self._path and self._fh is None:
            self._fh = open(self._path, "w", encoding="utf-8", newline="")
        fh = self._fh if self._fh is not None else sys.stdout
        fh.write(text + "\n")
        fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


# ---------------------------------------------------------------------------
# config file

def _read_config(path: str) -> dict[str, str]:
    """Flat key=value file; '#' starts a comment, keys mirror the long flags."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _flags(sub: argparse.ArgumentParser) -> list[argparse.Action]:
    """The actions a config key can seed: every flag but --help."""
    return [
        a for a in sub._actions if a.option_strings and not isinstance(a, argparse._HelpAction)
    ]


def _apply_config(path: str, subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Push file values in as per-subcommand defaults; flags still override.

    argparse checks `choices` only on the command line, so a file value is
    checked against them here.
    """
    cfg = _read_config(path)
    known: set[str] = set()
    for sub in subparsers.values():
        known.update(a.dest for a in _flags(sub))
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]!r}")
    for sub in subparsers.values():
        defaults = {}
        for action in _flags(sub):
            if action.dest not in cfg:
                continue
            value = cfg[action.dest]
            if action.choices is not None and value not in action.choices:
                allowed = ", ".join(map(repr, action.choices))
                raise ValueError(
                    f"config key {action.dest!r} wants one of {allowed}, got {value!r}"
                )
            if isinstance(action, argparse._StoreTrueAction):
                word = value.lower()
                if word in _TRUE_WORDS:
                    defaults[action.dest] = True
                elif word in _FALSE_WORDS:
                    defaults[action.dest] = False
                else:
                    raise ValueError(f"config key {action.dest!r} wants a boolean, got {value!r}")
            else:
                # string defaults are run through the action's `type` by argparse
                defaults[action.dest] = value
        if defaults:
            sub.set_defaults(**defaults)


# ---------------------------------------------------------------------------
# shared pieces

def _wavepacket(args: argparse.Namespace) -> Wavepacket:
    from .wavepacket import UniformCylinder, UniformSphere

    if args.shape == "sphere":
        return UniformSphere(radius=args.radius)
    return UniformCylinder(radius=args.radius, length=args.length)


def _grid(lo: float, hi: float, steps: int, log_spacing: bool) -> list[float]:
    from .base import require_finite

    require_finite({"sweep min": lo, "sweep max": hi})
    if not 0.0 < lo < hi:
        raise ValueError("sweep grid requires 0 < min < max")
    if steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    import numpy as np

    pts = np.geomspace(lo, hi, steps) if log_spacing else np.linspace(lo, hi, steps)
    return [float(p) for p in pts]


def _print_result(stream: _OutStream, result) -> None:
    for name, value in result.breakdown.items():
        stream.line(f"{name} = {_fmt(value)}")
    stream.line(f"w_vacuum = {_fmt(result.w_vacuum)}")
    stream.line(f"w_photon = {_fmt(result.w_photon)}")
    stream.line(f"w_total = {_fmt(result.w_total)}")
    stream.line(f"contrast = {_fmt(result.contrast)}")
    for note in result.notes:
        stream.line(f"note: {note}")


# ---------------------------------------------------------------------------
# commands

def cmd_kappa_sweep(args: argparse.Namespace, out: _OutStream) -> int:
    from .wavepacket import UniformCylinder, kappa

    betas: list[float] = []
    if args.shape == "cylinder":
        betas = _grid(args.beta_min, args.beta_max, args.steps, args.log_spacing)
        # the slope of kappa(beta) jumps where the length overtakes the
        # diameter; pin that point whenever the grid brackets it
        if args.beta_min < 2.0 < args.beta_max and 2.0 not in betas:
            betas = sorted(betas + [2.0])
    out.line("beta,kappa,error_estimate")
    if args.shape == "sphere":
        # exact constant; no aspect-ratio axis to sweep
        out.line("-,-1.5,0")
        return 0
    for beta in betas:
        res = kappa(UniformCylinder(radius=1.0, length=beta))
        out.line(f"{_fmt(beta)},{_fmt(res.value)},{_fmt(res.error_estimate)}")
    return 0


def cmd_parallel(args: argparse.Namespace, out: _OutStream) -> int:
    from .decoherence import ParallelGeometry, w_total_parallel
    from .wavepacket import characteristic_length, kappa

    geom = ParallelGeometry(r0=args.r0, T=args.T, v=args.v)
    wp = _wavepacket(args)
    grid: list[float] = []
    if args.sweep is not None:
        lo = args.sweep_min if args.sweep_min is not None else 10.0 * geom.r0
        hi = args.sweep_max if args.sweep_max is not None else 1e4 * geom.r0
        grid = _grid(lo, hi, args.sweep_steps, args.log_spacing)
    kap = kappa(wp).value
    ell = characteristic_length(wp)
    if args.sweep is None:
        _print_result(out, w_total_parallel(geom, kap, ell))
        return 0
    out.line("T,w_vacuum,w_photon,w_total")
    for T in grid:
        res = w_total_parallel(ParallelGeometry(r0=geom.r0, T=T, v=geom.v), kap, ell)
        out.line(f"{_fmt(T)},{_fmt(res.w_vacuum)},{_fmt(res.w_photon)},{_fmt(res.w_total)}")
    return 0


def cmd_intersect(args: argparse.Namespace, out: _OutStream) -> int:
    from .decoherence import IntersectingGeometry, w_total_intersecting
    from .wavepacket import characteristic_length, kappa

    geom = IntersectingGeometry(L1=args.L1, L2=args.L2, theta=args.theta, v=args.v)
    wp = _wavepacket(args)
    ell = characteristic_length(wp)
    # kappa depends on the packet's shape alone: the sweep scales ell only,
    # and every scaled ell is checked before any work
    sweep = [f * ell for f in (0.01, 0.1, 1.0, 10.0, 100.0)] if args.ell_sweep else []
    if not all(0.0 < scaled < math.inf for scaled in sweep):
        inputs = "radius" if args.shape == "sphere" else "radius or length"
        raise ValueError(
            f"--ell-sweep scales the wavepacket size ell = {_fmt(ell)} by 0.01 to 100, "
            f"out of the float range; change the {inputs}"
        )
    if args.branch == "assembled":
        # the numeric I_aa and the full bb kernel take the flight times L1/v
        # and L2/v; a finite sum keeps both finite
        if geom.T1 + geom.T2 == math.inf:
            raise ValueError(
                f"the flight time (L1 + L2)/v overflows at L1 = {_fmt(geom.L1)}, "
                f"L2 = {_fmt(geom.L2)}, v = {_fmt(geom.v)}; the assembled branch needs it finite"
            )
        # the numeric I_aa cuts off at flight time ell/v, inside the short
        # arm's flight time L1/v
        for scaled in sweep:
            if not scaled / geom.v < geom.L1 / geom.v:
                raise ValueError(
                    f"--ell-sweep reaches ell = {_fmt(scaled)}, not below L1 = {_fmt(geom.L1)}; "
                    "the assembled branch needs ell < L1"
                )
    kap = kappa(wp).value
    if not args.ell_sweep:
        _print_result(out, w_total_intersecting(geom, kap, ell, branch=args.branch))
        return 0
    out.line("ell,w_vacuum,w_photon,w_total")
    for scaled in sweep:
        res = w_total_intersecting(geom, kap, scaled, branch=args.branch)
        out.line(f"{_fmt(scaled)},{_fmt(res.w_vacuum)},{_fmt(res.w_photon)},{_fmt(res.w_total)}")
    return 0


def _verify_kernels() -> list[tuple[str, bool, str]]:
    import numpy as np

    from .base import QuadratureConfig
    from .kernels import (
        K_EQUAL_ARGS_LIMIT,
        IntersectingGeometry,
        kernel_K_closed,
        kernel_K_numeric,
        segment_I_aa,
        segment_I_ab,
        segment_I_bb,
        segment_J_ab_closed,
    )
    from .quadrature import integrate_1d

    checks: list[tuple[str, bool, str]] = []

    worst = 0.0
    for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
        res = kernel_K_numeric(ratio, 1.0)
        rel = abs(res.value - kernel_K_closed(ratio, 1.0)) / abs(res.value)
        worst = max(worst, rel if res.converged else math.inf)
    checks.append(
        (
            "coincident kernel closed vs principal value",
            worst <= 1e-8,
            f"max rel diff {worst:.3g} over T/rho in 1.5..100",
        )
    )

    # at T = rho the integrand collapses to -2/(tau + T); no pole survives
    limit = integrate_1d(lambda tau: -2.0 / (tau + 1.0), 0.0, 1.0)
    diff = abs(limit.value - K_EQUAL_ARGS_LIMIT)
    checks.append(
        (
            "coincident kernel equal-argument limit",
            limit.converged and diff <= 1e-10,
            f"|quad - (-2 ln 2)| = {diff:.3g}",
        )
    )

    K = kernel_K_closed(100.0, 1.0)
    rel = abs(K - (-2.0 - math.log(100.0**2))) / abs(K)
    checks.append(
        (
            "coincident kernel long-time asymptote",
            rel < 0.01,
            f"rel gap {rel:.3g} at T/rho = 100",
        )
    )

    geom = IntersectingGeometry(L1=1.0, L2=40.0, theta=0.5, v=0.1)
    ell = 0.01
    tau = ell / geom.v
    # (t' - t)^-2 over t in [0, A], t' in [B, C] depends on u = t' - t
    # alone: one integral over u in [tau, C] weighted by the length of the
    # diagonal u inside the rectangle, with kinks at u = B and u = C - A
    A, B, C = geom.T1 - 0.5 * tau, geom.T1 + 0.5 * tau, geom.T1 + geom.T2
    oracle = integrate_1d(
        lambda u: (np.minimum(A, C - u) - np.maximum(0.0, B - u)) / (u * u),
        tau,
        C,
        QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13),
        breakpoints=(B, geom.T2 + 0.5 * tau),
    )
    rel = abs(segment_J_ab_closed(geom, ell) - oracle.value) / abs(oracle.value)
    checks.append(
        (
            "static cross term vs double integral",
            oracle.converged and rel <= 1e-8,
            f"rel diff {rel:.3g}",
        )
    )

    geom = IntersectingGeometry(L1=1.0, L2=100.0, theta=math.pi / 4, v=0.01)
    closed = segment_I_ab(geom)
    rel = abs(segment_I_ab(geom, method="exact") - closed) / abs(closed)
    checks.append(
        ("radiation cross term small-v vs exact form", rel <= 0.02, f"rel diff {rel:.3g}")
    )

    geom = IntersectingGeometry(L1=1.0, L2=100.0, theta=math.pi / 6, v=0.01)
    closed = segment_I_aa(geom, 1e-2)
    rel = abs(segment_I_aa(geom, 1e-2, method="numeric") - closed) / abs(closed)
    checks.append(
        ("radiation self term vs principal value", rel <= 0.02, f"rel diff {rel:.3g}")
    )

    geom = IntersectingGeometry(L1=1.0, L2=2.0, theta=math.pi / 6, v=0.01)
    K_full = kernel_K_closed(geom.T2, 2.0 * geom.L1 * math.sin(geom.theta))
    rel = abs(segment_I_bb(geom) - K_full) / abs(K_full)
    checks.append(
        ("radiation far-segment term vs coincident kernel", rel <= 3e-3, f"rel diff {rel:.3g}")
    )
    return checks


def _verify_kappa(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    from .wavepacket import (
        UniformCylinder,
        UniformSphere,
        kappa,
        kappa_bruteforce_oracle,
        kappa_numeric,
    )

    checks: list[tuple[str, bool, str]] = []

    exact = kappa(UniformSphere(radius=1.0))
    checks.append(
        (
            "sphere shape constant",
            exact.value == -1.5 and exact.error_estimate == 0.0,
            f"kappa = {_fmt(exact.value)}",
        )
    )

    numeric = kappa_numeric(UniformSphere(radius=1.0))
    diff = abs(numeric.value + 1.5)
    checks.append(
        ("sphere reduced quadrature", diff <= 1e-6, f"|kappa + 3/2| = {diff:.3g}")
    )

    mc = kappa_bruteforce_oracle(UniformSphere(radius=1.0), samples=1_000_000, seed=args.seed)
    pull = abs(mc.value + 1.5) / mc.error_estimate
    checks.append(
        (
            "sphere Monte Carlo oracle",
            pull <= 4.0,
            f"pull {pull:.2f} sigma at 1e6 samples",
        )
    )

    for beta in (1.0, 4.0):
        wp = UniformCylinder(radius=1.0, length=beta)
        quad = kappa(wp)
        mc = kappa_bruteforce_oracle(wp, samples=400_000, seed=args.seed)
        pull = abs(quad.value - mc.value) / mc.error_estimate
        checks.append(
            (
                f"cylinder beta = {beta:g} vs Monte Carlo",
                pull <= 4.0,
                f"quad {quad.value:.6f} vs MC {mc.value:.6f} ({pull:.2f} sigma)",
            )
        )
    return checks


def cmd_verify(args: argparse.Namespace, out: _OutStream) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("kernels", "all"):
        checks.extend(_verify_kernels())
    if args.suite in ("kappa", "all"):
        checks.extend(_verify_kappa(args))
    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        out.line(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
    failed = sum(1 for _, ok, _ in checks if not ok)
    out.line(f"{len(checks) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def cmd_validity(args: argparse.Namespace, out: _OutStream) -> int:
    from .decoherence import RELATIVISTIC_NOTE, ValidityInput, max_flight_distance

    dx0_m = args.dx0 * _UNIT_M[args.unit]
    if args.dx0 > 0.0 and dx0_m == 0.0:
        raise ValueError(f"dx0 = {args.dx0:g} {args.unit} underflows to 0 m")
    inp = ValidityInput(energy=args.energy_ev, dx0=dx0_m)
    base = max_flight_distance(ValidityInput(energy=_SCALING_E_EV, dx0=_SCALING_DX0_M))
    out.line(f"max_flight_m = {_fmt(max_flight_distance(inp))}")
    out.line(f"scaling: {_fmt(base)} m * sqrt(E / 10 keV) * (dx0 / 1 um)^2")
    if inp.relativistic:
        out.line(f"note: {RELATIVISTIC_NOTE}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value file of flag defaults")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument(
        "--shape", choices=("sphere", "cylinder"), default="sphere", help="wavepacket shape"
    )
    shape.add_argument("--radius", type=float, default=0.5, help="wavepacket radius R")
    shape.add_argument("--length", type=float, default=1.0, help="cylinder length L")

    parser = argparse.ArgumentParser(
        prog="edecoh",
        description="Vacuum-fluctuation and photon-emission decoherence for "
        "electron interferometers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    p = sub.add_parser(
        "kappa-sweep",
        parents=[common],
        help="wavepacket shape constant on an aspect-ratio grid",
        description="CSV columns: beta (cylinder aspect ratio L/R, '-' for the "
        "sphere), kappa (shape constant), error_estimate (quadrature error). "
        "A bracketed beta = 2 is always included to expose the slope break.",
    )
    p.add_argument("--shape", choices=("cylinder", "sphere"), default="cylinder")
    p.add_argument("--beta-min", type=float, default=0.1)
    p.add_argument("--beta-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--log-spacing", action="store_true", help="geometric instead of linear grid")
    p.set_defaults(func=cmd_kappa_sweep)
    subparsers["kappa-sweep"] = p

    p = sub.add_parser(
        "parallel",
        parents=[common, shape],
        help="two parallel paths a distance r0 apart",
        description="Prints the kappa and kernel breakdown, w_vacuum, w_photon, "
        "w_total and contrast. With --sweep T emits CSV columns: T (flight "
        "time), w_vacuum, w_photon, w_total.",
    )
    p.add_argument("--r0", type=float, default=100.0, help="path separation")
    p.add_argument("--T", type=float, default=1e6, help="rest-frame flight time")
    p.add_argument("--v", type=float, default=0.01, help="speed, units of c")
    p.add_argument("--sweep", choices=("T",), default=None, help="emit a CSV sweep instead")
    p.add_argument("--sweep-min", type=float, default=None, help="sweep start (default 10 r0)")
    p.add_argument("--sweep-max", type=float, default=None, help="sweep end (default 1e4 r0)")
    p.add_argument("--sweep-steps", type=int, default=25)
    p.add_argument("--log-spacing", action="store_true", help="geometric instead of linear grid")
    p.set_defaults(func=cmd_parallel)
    subparsers["parallel"] = p

    p = sub.add_parser(
        "intersect",
        parents=[common, shape],
        help="V geometry: short arm L1 and long arm L2 meeting at angle theta",
        description="Prints the kappa/J/I breakdown, w_vacuum, w_photon, w_total "
        "and contrast. With --ell-sweep emits CSV columns: ell (wavepacket "
        "size), w_vacuum, w_photon, w_total; the closed branch makes the "
        "w_total column flat.",
    )
    p.add_argument("--L1", type=float, default=100.0, help="short arm length")
    p.add_argument("--L2", type=float, default=10_000.0, help="long arm length")
    p.add_argument("--theta", type=float, default=0.5, help="half opening angle, radians")
    p.add_argument("--v", type=float, default=0.01, help="speed, units of c")
    p.add_argument(
        "--branch",
        choices=("closed", "assembled"),
        default="closed",
        help="closed-form asymptotics or numeric-assembled kernels",
    )
    p.add_argument(
        "--ell-sweep",
        action="store_true",
        help="scale the wavepacket by 1e-2..1e2 and emit a CSV sweep; the "
        "assembled branch needs every swept ell below L1",
    )
    p.set_defaults(func=cmd_intersect)
    subparsers["intersect"] = p

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="closed form vs independent quadrature, pass/fail table",
        description="Exit code 0 iff every comparison passes, 1 otherwise.",
    )
    p.add_argument("suite", choices=("kernels", "kappa", "all"))
    p.add_argument("--seed", type=int, default=0, help="seed for Monte Carlo checks")
    p.set_defaults(func=cmd_verify)
    subparsers["verify"] = p

    p = sub.add_parser(
        "validity",
        parents=[common],
        help="wavepacket-spreading bound on the flight distance",
        description="Prints the maximum flight distance in meters and the "
        "scaling rule it follows; dx0 is read in the unit given by --unit.",
    )
    p.add_argument("--energy-ev", type=float, default=1e4, help="kinetic energy, eV")
    p.add_argument("--dx0", type=float, default=1.0, help="initial packet size")
    p.add_argument("--unit", choices=sorted(_UNIT_M), default="um", help="length unit of --dx0")
    p.set_defaults(func=cmd_validity)
    subparsers["validity"] = p

    return parser, subparsers


def main(argv: Sequence[str] | None = None) -> int:
    parser, subparsers = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            if args.config is not None:
                # argparse has resolved the path, whatever spelling of
                # --config it matched; parse again over the file's defaults
                _apply_config(args.config, subparsers)
                args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
            return int(exc.code) if exc.code else 0
        # looked up only here, so that a usage error loads no physics
        from .base import NonConvergenceError

        out = _OutStream(args.out)
        try:
            return args.func(args, out)
        except NonConvergenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        finally:
            out.close()
    except BrokenPipeError:
        # consumer closed the stream (e.g. piping into head); silence the
        # interpreter's shutdown flush and call the truncation a success
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
