"""Benchmark for edecoh.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each op goes through the CLI entry point `edecoh.cli.main`):

- kappa-sweep: eight seeded 4-step `kappa-sweep --log-spacing` grids, one
  per log band of beta in [0.1, 20], across the beta = 2 slope break.  An
  op is one kappa row, timed as it reaches the output.  Exercises cylinder
  `kappa` and the nested quadrature; the kernels are idle.
- intersect-assembled: `intersect --branch assembled` at five seeded V
  geometries near the CLI defaults (sphere packet, so kappa is exact), then
  `intersect --branch assembled --ell-sweep` at the defaults.  An op is one
  invocation.  Exercises the numeric radiation kernels and
  `pv_integrate_1d`.
- verify-all: `verify all --seed <drawn>`.  An op is one invocation.
  Exercises tight nested 2-D/3-D quadrature, the PV oracle of K and the
  Monte-Carlo oracle, which alone sets peak memory.  Not declared in
  BENCHMARK.json (see README.md); run it by hand.

The ops run in one worker process (closed loop, one client, no threads),
after one untimed warm-up op.  Every output is checked against an
independent reference (see refs.py).  An op fails on a non-zero exit, on a
missing row or on a value outside its reference tolerance; a value outside
tolerance also makes the run incorrect.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with the times
wall_s and setup_s scaled to a reference host speed by a calibration job
timed during the ops (see worker.py), and the raw times beside them for
people; --trace 1 runs
one untraced and one traced pass and prints the per-layer metrics.  The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Span records of a traced run go to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(ONE_THREAD)

import numpy as np  # noqa: E402  (thread caps must be set before numpy loads)

import refs  # noqa: E402
from spans import LAYERS  # noqa: E402

# fresh CLI starts per run, spread by the worker over the op time
SETUP_STARTS = 40
# host-speed calibration (see worker.OpClock): mean seconds of op time
# between two runs of the calibration job, which takes about 0.023 s
CAL_INTERVAL = 0.25
# median time of one calibration job during the ops on the reference host
# (2-vCPU VM, Python 3.11.7, numpy 2.4.6).  The gated wall_s and setup_s are
# scaled by it over the run's own median, that is to the reference host's
# speed: on a shared host the same work drifts by tens of percent over
# minutes, and the calibration job drifts with it
CAL_REF_S = 0.023
DEADLINE_S = 170.0
# tolerance floor on |kappa - reference| on top of the row's own estimate:
# covers the 12 significant digits the CLI prints
KAPPA_FLOOR = 1e-10
# the program's own oracle budget for the numeric radiation kernels
KERNEL_REL_TOL = 0.01


# the per-layer metrics the benchmark's design names; those non-zero on every
# declared workload are declared in BENCHMARK.json, the rest are printed
NAMED_LAYER_METRICS = (
    "wavepacket.cylinder_F.points", "wavepacket.cylinder_F.self_s", "wavepacket.kappa.total_s",
    "quadrature.integrate_nd.calls", "quadrature.integrate_nd.evals", "quadrature.integrate_nd.self_s",
    "quadrature.integrate_1d.calls", "quadrature.integrate_1d.evals", "quadrature.integrate_1d.self_s",
    "quadrature.integrate_1d.nonconverged",
    "quadrature.pv_integrate_1d.calls", "quadrature.pv_integrate_1d.evals",
    "quadrature.pv_integrate_1d.self_s", "quadrature.pv_integrate_1d.nonconverged",
    "kernels.segment_I_aa.total_s", "kernels.segment_I_ab.total_s", "kernels.kernel_K_numeric.total_s",
    "wavepacket.kappa_numeric.total_s",
    "wavepacket.kappa_bruteforce_oracle.samples", "wavepacket.kappa_bruteforce_oracle.self_s",
    "decoherence.w_total_intersecting.self_s", "cli.main.self_s", "quadrature.converged_frac",
)


class Outcome(NamedTuple):
    latency: float | None  # None for a row the program never printed
    ok: bool
    wrong: bool = False  # a value outside its reference tolerance


def _fields(lines) -> dict[str, float]:
    out = {}
    for _, text in lines:
        key, sep, value = text.partition(" = ")
        if sep:
            try:
                out[key] = float(value)
            except ValueError:
                pass
    return out


class KappaSweep:
    name = "kappa-sweep"
    GRIDS = 8
    STEPS = 4

    def __init__(self) -> None:
        self._refs: dict[float, float] = {}

    def ops(self, rng) -> list[list[str]]:
        # One grid per log band of [0.1, 20], inner endpoints drawn inward by
        # up to 15% of the band; the band holding beta = 2 always brackets it,
        # so the CLI pins the slope break.  Many short grids, not a few long
        # ones: a row that fails to converge ends its sweep (exit 3), and a
        # short grid loses fewer rows after it.  The step count is fixed
        # because row cost varies 5x with beta (rows below beta ~0.16 are the
        # slowest), so a drawn count would move the pass time between seeds.
        band = math.log(200.0) / self.GRIDS
        ops = []
        for i in range(self.GRIDS):
            lo = 0.1 * math.exp(band * (i + (0.15 * rng.random() if i else 0.0)))
            hi = 0.1 * math.exp(band * (i + 1 - (0.15 * rng.random() if i < self.GRIDS - 1 else 0.0)))
            ops.append(["kappa-sweep", "--beta-min", f"{lo:.6g}", "--beta-max", f"{hi:.6g}",
                        "--steps", str(self.STEPS), "--log-spacing"])
        return ops

    def warmup(self, rng) -> list[str]:
        return ["kappa-sweep", "--beta-min", "1", "--beta-max", "1.5", "--steps", "2", "--log-spacing"]

    def _ref(self, beta: float) -> float:
        if beta not in self._refs:
            self._refs[beta] = refs.kappa_cylinder(beta)
        return self._refs[beta]

    def score(self, rec: dict) -> list[Outcome]:
        argv = rec["argv"]
        lo, hi, steps = float(argv[2]), float(argv[4]), int(argv[6])
        betas = [float(b) for b in np.geomspace(lo, hi, steps)]
        if lo < 2.0 < hi and 2.0 not in betas:
            betas = sorted(betas + [2.0])
        rows = rec["lines"][1:] if rec["lines"] and rec["lines"][0][1] == "beta,kappa,error_estimate" else []
        outcomes = []
        t_prev = 0.0
        for i, beta in enumerate(betas):
            if i >= len(rows):
                outcomes.append(Outcome(None, False))
                continue
            t, text = rows[i]
            latency, t_prev = t - t_prev, t
            try:
                b, k, err = (float(x) for x in text.split(","))
            except ValueError:
                outcomes.append(Outcome(latency, False, True))
                continue
            wrong = abs(b - beta) > 1e-11 * beta or abs(k - self._ref(beta)) > err + KAPPA_FLOOR
            outcomes.append(Outcome(latency, not wrong, wrong))
        return outcomes


class IntersectAssembled:
    name = "intersect-assembled"
    GEOMETRIES = 5
    ELL = 1.0  # default sphere radius 0.5
    DEFAULTS = {"L1": 100.0, "L2": 1e4, "theta": 0.5, "v": 0.01}
    ELL_SWEEP_FACTORS = (0.01, 0.1, 1.0, 10.0, 100.0)

    def __init__(self) -> None:
        self._refs: dict[tuple, tuple] = {}

    def ops(self, rng) -> list[list[str]]:
        # near the CLI defaults, inside the regime the V formulas assume:
        # ell << L1 << L2 and v sin(theta) << 1
        ops = []
        for _ in range(self.GEOMETRIES):
            g = {
                "L1": 100.0 * 10 ** rng.uniform(-0.1, 0.1),
                "L2": 1e4 * 10 ** rng.uniform(-0.1, 0.1),
                "theta": rng.uniform(0.4, 0.6),
                "v": 0.01 * 10 ** rng.uniform(-0.1, 0.1),
            }
            argv = ["intersect", "--branch", "assembled"]
            for key, value in g.items():
                argv += [f"--{key}", f"{value:.6g}"]
            ops.append(argv)
        ops.append(["intersect", "--branch", "assembled", "--ell-sweep"])
        return ops

    def warmup(self, rng) -> list[str]:
        return ["intersect", "--branch", "assembled"]

    @staticmethod
    def _geometry(argv: list[str]) -> dict[str, float]:
        g = dict(IntersectAssembled.DEFAULTS)
        for key, value in zip(argv, argv[1:]):
            if key.lstrip("-") in g:
                g[key.lstrip("-")] = float(value)
        return g

    def _kernel_refs(self, g: dict[str, float]) -> tuple[float, float]:
        key = tuple(g.values())
        if key not in self._refs:
            refs_ok = refs.cross_check_inner_pv(g["L1"], g["L2"], self.ELL, g["v"], g["theta"])
            if not refs_ok < 1e-8:
                raise RuntimeError(f"elementary inner PV disagrees with QAWC by {refs_ok:.2g}")
            self._refs[key] = (
                refs.segment_I_aa(g["L1"], self.ELL, g["v"], g["theta"]),
                refs.segment_I_ab(g["L1"], g["L2"], g["v"], g["theta"]),
            )
        return self._refs[key]

    def score(self, rec: dict) -> list[Outcome]:
        g = self._geometry(rec["argv"])
        latency = rec["end"] - rec["start"]
        if "--ell-sweep" in rec["argv"]:
            wrong = False
            rows = rec["lines"][1:]
            for (_, text), factor in zip(rows, self.ELL_SWEEP_FACTORS):
                try:
                    ell, _, w_photon, _ = (float(x) for x in text.split(","))
                except ValueError:
                    wrong = True
                    continue
                ref, tol = refs.w_photon(g["L1"], g["L2"], self.ELL * factor, g["v"], g["theta"])
                wrong |= abs(ell - self.ELL * factor) > 1e-12 * ell or abs(w_photon - ref) > tol
            ok = rec["exit"] == 0 and len(rows) == len(self.ELL_SWEEP_FACTORS) and not wrong
            return [Outcome(latency, ok, wrong)]
        fields = _fields(rec["lines"])
        if rec["exit"] != 0 or "I_aa" not in fields or "I_ab" not in fields:
            return [Outcome(latency, False)]
        I_aa, I_ab = self._kernel_refs(g)
        wrong = (
            fields.get("kappa") != -1.5
            or abs(fields["I_aa"] - I_aa) > KERNEL_REL_TOL * abs(I_aa)
            or abs(fields["I_ab"] - I_ab) > KERNEL_REL_TOL * abs(I_ab)
        )
        return [Outcome(latency, not wrong, wrong)]


class VerifyAll:
    name = "verify-all"

    def ops(self, rng) -> list[list[str]]:
        return [["verify", "all", "--seed", str(int(rng.integers(0, 2**31)))]]

    def warmup(self, rng) -> list[str]:
        # the half of the op that allocates the Monte-Carlo arrays; a full
        # `verify all` would add ~10 s to every run and showed no cold cost
        return ["verify", "kappa", "--seed", str(int(rng.integers(0, 2**31)))]

    def score(self, rec: dict) -> list[Outcome]:
        texts = [text for _, text in rec["lines"]]
        checks = texts[:-1]
        passed = bool(checks) and all(t.startswith("PASS") for t in checks)
        summary = bool(texts) and texts[-1] == f"{len(checks)} passed, 0 failed"
        wrong = any(t.startswith("FAIL") for t in checks)
        ok = rec["exit"] == 0 and passed and summary
        return [Outcome(rec["end"] - rec["start"], ok, wrong)]


WORKLOADS = {w.name: w for w in (KappaSweep, IntersectAssembled, VerifyAll)}


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_worker(spec: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Latency at the highest of p50, p55, ..., p95, p99 with at least ten
    samples beyond it; the maximum when no percentile has ten."""
    for pct in (99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50):
        value = float(np.percentile(latencies, pct, method="higher"))
        beyond = sum(1 for x in latencies if x > value)
        if beyond >= 10:
            return value, pct, beyond
    return max(latencies), 100, 0


def score_passes(workload, passes: list[dict]) -> tuple[list[Outcome], list[dict]]:
    outcomes, failures = [], []
    for p in passes:
        for rec in p["ops"]:
            got = workload.score(rec)
            outcomes += got
            if not all(o.ok for o in got):
                failures.append(rec)
    return outcomes, failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    begin = time.perf_counter()

    if not (ROOT / "src" / "edecoh" / "cli.py").is_file():
        print(f"error: no edecoh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]()
    rng = np.random.default_rng(args.seed)
    ops = workload.ops(rng)
    spec = {"warmup": workload.warmup(rng), "ops": ops, "seconds": args.seconds,
            "setup_starts": SETUP_STARTS, "cal_interval": CAL_INTERVAL, "trace": None}

    print(f"workload {workload.name}, seed {args.seed}, {len(ops)} invocations per pass:")
    for argv in ops:
        print("  edecoh " + " ".join(argv))

    if args.trace:
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        spec["trace"] = str(out_dir / f"spans-{workload.name}-seed{args.seed}.csv.gz")
        result = run_worker(spec, DEADLINE_S - (time.perf_counter() - begin))
        outcomes, failures = score_passes(workload, result["passes"] + [result["traced"]])
        layers = result["layers"]
        traced_wall = result["traced"]["wall"]
        untraced_wall = result["passes"][0]["wall"]
        self_sum = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        for layer in LAYERS:
            layers[f"{layer}.self_s"] = sum(
                v for k, v in layers.items() if k.startswith(f"{layer}.") and k.endswith(".self_s")
            )
        layers |= {
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.slowdown": traced_wall / untraced_wall,
            "trace.self_sum_s": self_sum,
        }
        wanted = declared["per_layer"]
        declared_names = {m["name"] for m in wanted}
        print("per-layer metrics named by the design, printed only (0 = idle on this workload):")
        for name in NAMED_LAYER_METRICS:
            if name not in declared_names:
                print(f"  {name:<46} {layers.get(name, 0):>16.6g}")
        others = {k: v for k, v in layers.items()
                  if v and k not in declared_names and k not in NAMED_LAYER_METRICS}
        print("also measured: " + ", ".join(f"{k}={v:.6g}" for k, v in sorted(others.items())))
        print(f"traced pass {traced_wall:.3f} s, untraced {untraced_wall:.3f} s, "
              f"tracing overhead {traced_wall - untraced_wall:+.3f} s; "
              f"self times sum to {self_sum:.3f} s ({self_sum / traced_wall:.1%} of the traced pass); "
              f"{result['spans']} spans in {spec['trace']}")
    else:
        result = run_worker(spec, DEADLINE_S - (time.perf_counter() - begin))
        outcomes, failures = score_passes(workload, result["passes"])
        latencies = [o.latency for o in outcomes if o.latency is not None]
        tail_s, pct, beyond = tail(latencies)
        passes = result["passes"]
        cal_all = [c for p in passes for c in p["cal"]]
        # host speed: the run's calibration median over the reference one
        slow = statistics.median(cal_all) / CAL_REF_S
        layers = {
            "wall_s": statistics.median(p["wall"] * CAL_REF_S / statistics.median(p["cal"]) for p in passes),
            "wall_raw_s": statistics.median(p["wall"] for p in passes),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(result["setup"]) / slow,
            "setup_raw_s": statistics.median(result["setup"]),
        }
        wanted = declared["end_to_end"]
        print(f"{len(passes)} timed passes, {len(latencies)} op latencies; {len(cal_all)} calibration "
              f"jobs, median {statistics.median(cal_all):.6f} s against {CAL_REF_S} s on the reference host")
        for name, unit in (("wall_raw_s", "s"), ("setup_raw_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms")):
            print(f"{name:<48} {layers[name]:>16.6g} {unit}")
        print(f"  (op_tail_ms is p{pct}, {beyond} of {len(latencies)} latencies beyond it"
              + ("; no percentile has 10 beyond it, so the maximum)" if pct == 100 else ")"))

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if not o.ok)
    correct = not any(o.wrong for o in outcomes)
    print(f"fail_frac = {failed / attempted:.4g} ({failed} of {attempted} ops failed)")
    for rec in failures:
        print(f"  failed: edecoh {' '.join(rec['argv'])} -> exit {rec['exit']}: "
              f"{rec['stderr'].strip().splitlines()[-1] if rec['stderr'].strip() else 'output check'}")
    metrics = {}
    for m in wanted:
        value = layers[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:<48} {value:>16.6g} {m['unit']}")
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        raise RuntimeError("non-finite metric")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
