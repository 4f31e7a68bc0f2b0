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

A flat key=value config file (one assignment per line, '#' comments,
keys mirroring the long flags of any command) can seed any flag's
default; each command takes the keys it reads, and explicit flags win
over the file.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Sequence

from .base import NonConvergenceError, QuadratureConfig, require_finite
from .decoherence import (
    RELATIVISTIC_NOTE,
    IntersectingGeometry,
    ParallelGeometry,
    ValidityInput,
    max_flight_distance,
    w_photon_parallel,
    w_total_intersecting,
    w_total_parallel,
    w_vacuum_parallel,
)
from .kernels import (
    K_EQUAL_ARGS_LIMIT,
    kernel_K_closed,
    kernel_K_numeric,
    segment_I_aa,
    segment_I_ab,
    segment_I_bb,
    segment_J_ab_closed,
)
from .wavepacket import (
    UniformCylinder,
    UniformSphere,
    Wavepacket,
    characteristic_length,
    kappa,
    kappa_bruteforce_oracle,
    kappa_numeric,
)

_UNIT_M = {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0}

# 10 keV electron with a 1 micrometer packet; reference point of the
# printed spreading-rule line.
_SCALING_E_EV = 1e4
_SCALING_DX0_M = 1e-6


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class _OutStream:
    """Line sink honoring --out; flushes per line so partial sweeps survive errors."""

    def __init__(self, path: str | None) -> None:
        self._fh = open(path, "w", encoding="utf-8", newline="") if path else None

    def line(self, text: str) -> None:
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


def _apply_config(path: str, subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Push file values in as per-subcommand defaults; flags still override."""
    cfg = _read_config(path)
    known: set[str] = set()
    for sub in subparsers.values():
        known.update(a.dest for a in sub._actions)
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown config key: {unknown[0]!r}")
    for sub in subparsers.values():
        defaults = {}
        for action in sub._actions:
            if action.dest not in cfg:
                continue
            value = cfg[action.dest]
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

def _quad_cfg(args: argparse.Namespace) -> QuadratureConfig | None:
    if args.rel_tol is None:
        return None
    return QuadratureConfig(rel_tol=args.rel_tol, abs_tol=max(args.rel_tol * 1e-3, 4e-16))


def _wavepacket(args: argparse.Namespace) -> Wavepacket:
    if args.shape == "sphere":
        return UniformSphere(radius=args.radius)
    return UniformCylinder(radius=args.radius, length=args.length)


def _scaled(wp: Wavepacket, factor: float) -> Wavepacket:
    try:
        if isinstance(wp, UniformSphere):
            return UniformSphere(radius=wp.radius * factor)
        return UniformCylinder(radius=wp.radius * factor, length=wp.length * factor)
    except ValueError as exc:
        raise ValueError(f"--ell-sweep scales the wavepacket by {factor:g}: {exc}") from None


def _grid(lo: float, hi: float, steps: int, log_spacing: bool) -> list[float]:
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

def cmd_kappa_sweep(args: argparse.Namespace) -> int:
    cfg = _quad_cfg(args)
    stream = _OutStream(args.out)
    try:
        stream.line("beta,kappa,error_estimate")
        if args.shape == "sphere":
            # exact constant; no aspect-ratio axis to sweep
            stream.line("-,-1.5,0")
            return 0
        betas = _grid(args.beta_min, args.beta_max, args.steps, args.log_spacing)
        # the slope of kappa(beta) jumps where the length overtakes the
        # diameter; pin that point whenever the grid brackets it
        if args.beta_min < 2.0 < args.beta_max and 2.0 not in betas:
            betas = sorted(betas + [2.0])
        for beta in betas:
            res = kappa(UniformCylinder(radius=1.0, length=beta), cfg)
            stream.line(f"{_fmt(beta)},{_fmt(res.kappa)},{_fmt(res.error_estimate)}")
        return 0
    finally:
        stream.close()


def cmd_parallel(args: argparse.Namespace) -> int:
    geom = ParallelGeometry(r0=args.r0, T=args.T, v=args.v)
    wp = _wavepacket(args)
    cfg = _quad_cfg(args)
    stream = _OutStream(args.out)
    try:
        if args.sweep is None:
            _print_result(stream, w_total_parallel(geom, wp, cfg))
            return 0
        lo = args.sweep_min if args.sweep_min is not None else 10.0 * geom.r0
        hi = args.sweep_max if args.sweep_max is not None else 1e4 * geom.r0
        grid = _grid(lo, hi, args.sweep_steps, args.log_spacing)
        kap = kappa(wp, cfg)
        stream.line("T,w_vacuum,w_photon,w_total")
        for T in grid:
            g = ParallelGeometry(r0=geom.r0, T=T, v=geom.v)
            wv = w_vacuum_parallel(g, kap)
            wg = w_photon_parallel(g)
            stream.line(f"{_fmt(T)},{_fmt(wv)},{_fmt(wg)},{_fmt(wv + wg)}")
        return 0
    finally:
        stream.close()


def cmd_intersect(args: argparse.Namespace) -> int:
    geom = IntersectingGeometry(L1=args.L1, L2=args.L2, theta=args.theta, v=args.v)
    wp = _wavepacket(args)
    cfg = _quad_cfg(args)
    sweep = [_scaled(wp, f) for f in (0.01, 0.1, 1.0, 10.0, 100.0)] if args.ell_sweep else []
    if args.branch == "assembled":
        # the numeric I_aa cuts off at flight time ell/v, inside the short
        # arm's flight time L1/v; check the whole sweep before any work
        for scaled in sweep:
            ell = characteristic_length(scaled)
            if not ell / geom.v < geom.L1 / geom.v:
                raise ValueError(
                    f"--ell-sweep reaches ell = {_fmt(ell)}, not below L1 = {_fmt(geom.L1)}; "
                    "the assembled branch needs ell < L1"
                )
    stream = _OutStream(args.out)
    try:
        if not args.ell_sweep:
            _print_result(stream, w_total_intersecting(geom, wp, cfg, branch=args.branch))
            return 0
        stream.line("ell,w_vacuum,w_photon,w_total")
        for scaled in sweep:
            res = w_total_intersecting(geom, scaled, cfg, branch=args.branch)
            stream.line(
                f"{_fmt(characteristic_length(scaled))},{_fmt(res.w_vacuum)},"
                f"{_fmt(res.w_photon)},{_fmt(res.w_total)}"
            )
        return 0
    finally:
        stream.close()


def _verify_kernels(args: argparse.Namespace) -> list[tuple[str, bool, str]]:
    from .quadrature import integrate_1d, integrate_nd

    cfg = _quad_cfg(args)
    checks: list[tuple[str, bool, str]] = []

    worst = 0.0
    for ratio in (1.5, 2.0, 5.0, 10.0, 100.0):
        res = kernel_K_numeric(ratio, 1.0, cfg)
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
    limit = integrate_1d(lambda tau: -2.0 / (tau + 1.0), 0.0, 1.0, cfg)
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
    T1, tau = geom.T1, ell / geom.v
    oracle = integrate_nd(
        lambda t, tp: (t - tp) ** -2.0,
        [(0.0, T1 - 0.5 * tau), (T1 + 0.5 * tau, T1 + geom.T2)],
        QuadratureConfig(rel_tol=1e-10, abs_tol=1e-13),
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
    cfg = _quad_cfg(args)
    checks: list[tuple[str, bool, str]] = []

    exact = kappa(UniformSphere(radius=1.0))
    checks.append(
        (
            "sphere shape constant",
            exact.kappa == -1.5 and exact.error_estimate == 0.0,
            f"kappa = {_fmt(exact.kappa)}",
        )
    )

    numeric = kappa_numeric(UniformSphere(radius=1.0), cfg)
    diff = abs(numeric.kappa + 1.5)
    checks.append(
        ("sphere reduced quadrature", diff <= 1e-6, f"|kappa + 3/2| = {diff:.3g}")
    )

    mc = kappa_bruteforce_oracle(UniformSphere(radius=1.0), samples=1_000_000, seed=args.seed)
    pull = abs(mc.kappa + 1.5) / mc.error_estimate
    checks.append(
        (
            "sphere Monte Carlo oracle",
            pull <= 4.0,
            f"pull {pull:.2f} sigma at 1e6 samples",
        )
    )

    for beta in (1.0, 4.0):
        wp = UniformCylinder(radius=1.0, length=beta)
        quad = kappa(wp, cfg)
        mc = kappa_bruteforce_oracle(wp, samples=400_000, seed=args.seed)
        pull = abs(quad.kappa - mc.kappa) / mc.error_estimate
        checks.append(
            (
                f"cylinder beta = {beta:g} vs Monte Carlo",
                pull <= 4.0,
                f"quad {quad.kappa:.6f} vs MC {mc.kappa:.6f} ({pull:.2f} sigma)",
            )
        )
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    if args.suite in ("kernels", "all"):
        checks.extend(_verify_kernels(args))
    if args.suite in ("kappa", "all"):
        checks.extend(_verify_kappa(args))
    width = max(len(name) for name, _, _ in checks)
    stream = _OutStream(args.out)
    try:
        for name, ok, detail in checks:
            stream.line(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {detail}")
        failed = sum(1 for _, ok, _ in checks if not ok)
        stream.line(f"{len(checks) - failed} passed, {failed} failed")
        return 0 if failed == 0 else 1
    finally:
        stream.close()


def cmd_validity(args: argparse.Namespace) -> int:
    unit_m = _UNIT_M[args.unit]
    stream = _OutStream(args.out)
    try:
        dx0_m = args.dx0 * unit_m
        if args.dx0 > 0.0 and dx0_m == 0.0:
            raise ValueError(f"dx0 = {args.dx0:g} {args.unit} underflows to 0 m")
        inp = ValidityInput(energy=args.energy_ev, dx0=dx0_m)
        base = max_flight_distance(ValidityInput(energy=_SCALING_E_EV, dx0=_SCALING_DX0_M))
        stream.line(f"max_flight_m = {_fmt(max_flight_distance(inp))}")
        stream.line(f"scaling: {_fmt(base)} m * sqrt(E / 10 keV) * (dx0 / 1 um)^2")
        if inp.relativistic:
            stream.line(f"note: {RELATIVISTIC_NOTE}")
        return 0
    finally:
        stream.close()


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="flat key=value file of flag defaults")
    common.add_argument("--out", metavar="FILE", help="write output here instead of stdout")

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument(
        "--rel-tol", type=float, default=None, help="relative tolerance for quadrature paths"
    )

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
        parents=[common, tol],
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
        parents=[common, tol, shape],
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
        parents=[common, tol, shape],
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
        parents=[common, tol],
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


def _peek_config(argv: Sequence[str]) -> str | None:
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise ValueError("--config needs a file path")
            return argv[i + 1]
        if arg.startswith("--config="):
            return arg.split("=", 1)[1]
    return None


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    try:
        config_path = _peek_config(argv)
        if config_path is not None:
            _apply_config(config_path, subparsers)
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad usage, 0 on --help
            return int(exc.code) if exc.code else 0
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # consumer closed the stream (e.g. piping into head); silence the
        # interpreter's shutdown flush and call the truncation a success
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except (OSError, ValueError, AttributeError):
            pass
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
