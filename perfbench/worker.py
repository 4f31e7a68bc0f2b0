"""Runs one workload's ops in this process through `edecoh.cli.main`.

Reads a JSON spec on stdin: {"warmup": argv, "ops": [argv, ...],
"seconds": s, "setup_starts": n, "cal_interval": s, "trace": path or null}.
Load is a closed loop: one client, each op sent after the previous one
returns.  One untimed warm-up op runs first.  Untimed mode repeats whole
passes over the ops while another pass of the median pass length still
fits in `seconds` of op time (at least one pass).  Trace mode runs one
untraced pass, then installs the tracer and runs one traced pass.  Writes
one JSON document to stdout: the passes, with every op's exit code,
captured output lines (each with its time from the op's start) and stderr,
this process's peak RSS, the set-up times and, in trace mode, the
per-layer counters.

Set-up time is measured here, in untimed mode: `setup_starts` fresh
`python -m edecoh --help` starts, timed from spawn to exit.  They run
between ops, spread evenly over the op time, so that their median samples
the host over the whole run, as the pass times do; those still owed when
the passes end run after them.  They are not counted in any op or pass
time.  One extra start before the warm-up writes the bytecode cache and is
not timed.

Host speed is sampled here too, in untimed mode, while the ops run: a
one-shot interval timer (SIGALRM), re-armed each time at a random delay of
0.5 to 1.5 times `cal_interval`, runs the calibration job `calibrate`
(fixed work, no edecoh code) from its signal handler, in this thread,
between two bytecodes of the op.  The samples are therefore spread over
the op time in proportion to it, long ops included.  The handler's time
is paused out of the op clock, so no op, line or pass time contains it.
Each pass records the calibration times taken during its ops.

Peak RSS is VmHWM from /proc/self/status, not `getrusage`: on Linux
ru_maxrss keeps the high-water mark of the process before exec, that is
of the benchmark harness that started this worker, which has numpy and
scipy loaded.
"""

from __future__ import annotations

import heapq
import io
import json
import math
import random
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

SETUP_CMD = [sys.executable, "-m", "edecoh", "--help"]


class _Lines(io.TextIOBase):
    """stdout stand-in that timestamps each completed line as it is written."""

    def __init__(self, clock: OpClock, t0: float) -> None:
        self.clock = clock
        self.t0 = t0
        self.lines: list[tuple[float, str]] = []
        self._buf = ""

    def write(self, text: str) -> int:
        now = self.clock.now()
        self._buf += text
        *done, self._buf = self._buf.split("\n")
        self.lines += [(now - self.t0, line) for line in done]
        return len(text)


def peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup_time() -> float:
    """Time from a fresh interpreter to the parsed CLI (`--help`) exiting."""
    t0 = time.perf_counter()
    # no timeout: with one, wait() polls every 50 ms and quantises the time
    subprocess.run(SETUP_CMD, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t0


# The calibration job: fixed work of the same kind as the program's
# quadrature, but no code of it.  An adaptive Gauss-Legendre 15/7 integral
# over [0, 3]: each split re-sums the whole panel heap with math.fsum and
# evaluates two new panels in one numpy batch; the integrand checks its
# domain, then runs the log, sqrt, arctan2 and errstate-guarded where of a
# log-average kernel on 30 points.  Interpreter-bound loops over small
# arrays, as in the program.  Its time tracks the host's speed, which on a
# shared host drifts by tens of percent over minutes.
_XK, _WK = np.polynomial.legendre.leggauss(15)
_XG, _WG = np.polynomial.legendre.leggauss(7)
CAL_SPLITS = 250
# the integral over [0, 3], by scipy.integrate.quad (error estimate 7e-14);
# every run's result is checked against it
CAL_VALUE = 0.9554367586655816


def _cal_f(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 3.0):
        raise ValueError("calibration integrand outside [0, 3]")
    s2 = np.maximum(x * x + 0.09 - 0.6 * x * np.cos(7.0 * x), 0.0)
    s = np.sqrt(s2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s2_ln_s = np.where(s2 > 0.0, 0.5 * s2 * np.log(s2), 0.0)
    return s2_ln_s - 0.5 * ((s2 - 1.0) * np.log(s2 + 1.0) - 4.0 * s * np.arctan2(1.0, s) + 3.0)


def _cal_panels(edges: np.ndarray) -> list[tuple[float, float, float, float]]:
    lo, hi = edges[:-1], edges[1:]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    y = _cal_f((mid[:, None] + half[:, None] * _XK[None, :]).ravel()).reshape(len(lo), _XK.size)
    fine = half * (y @ _WK)
    errs = np.abs(fine - half * (y[:, 1::2] @ _WG))
    return [(float(a), float(b), float(v), float(e)) for a, b, v, e in zip(lo, hi, fine, errs)]


def calibrate() -> tuple[float, float]:
    """Time and result of one run of the calibration job."""
    t0 = time.perf_counter()
    heap = [(-e, k, a, b, v, e) for k, (a, b, v, e) in enumerate(_cal_panels(np.linspace(0.0, 3.0, 7)))]
    heapq.heapify(heap)
    tick = len(heap)
    for _ in range(CAL_SPLITS):
        math.fsum(h[4] for h in heap)
        math.fsum(h[5] for h in heap)
        _, _, a, b, _, _ = heapq.heappop(heap)
        for panel in _cal_panels(np.array([a, 0.5 * (a + b), b])):
            heapq.heappush(heap, (-panel[3], tick, *panel))
            tick += 1
    value = math.fsum(h[4] for h in heap)
    return time.perf_counter() - t0, value


class OpClock:
    """perf_counter with the calibration samples paused out of it.

    Between `start` and `stop`, SIGALRM runs `calibrate` at random
    intervals of 0.5 to 1.5 times `interval` (seeded, so the schedule
    repeats).  The handler records the job's time and result and adds its
    own duration to `paused`, which `now` subtracts.  With no interval the
    clock is plain perf_counter.
    """

    def __init__(self, interval: float | None) -> None:
        self.interval = interval
        self.rng = random.Random(0)
        self.paused = 0.0
        self.cal: list[float] = []
        self.wrong: list[float] = []  # calibration results off CAL_VALUE
        self._active = False
        if interval:
            signal.signal(signal.SIGALRM, self._fire)

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self.interval * self.rng.uniform(0.5, 1.5))

    def _fire(self, signum, frame) -> None:
        if not self._active:
            return
        t0 = time.perf_counter()
        elapsed, value = calibrate()
        self.cal.append(elapsed)
        if abs(value - CAL_VALUE) > 1e-12:
            self.wrong.append(value)
        self.paused += time.perf_counter() - t0
        self._arm()

    def start(self) -> None:
        if self.interval:
            self._active = True
            self._arm()

    def stop(self) -> None:
        self._active = False
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)


def run_op(cli, argv: list[str], clock: OpClock) -> dict:
    """Runs one op; "start" and "end" are on the op clock."""
    err = io.StringIO()
    clock.start()
    t0 = clock.now()
    out = _Lines(clock, t0)
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    except Exception as exc:  # an exception escaping main is a failed op
        code = -1
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    t1 = clock.now()
    clock.stop()
    return {"argv": argv, "exit": code, "start": t0, "end": t1, "lines": out.lines, "stderr": err.getvalue()}


def run_pass(cli, ops: list[list[str]], clock: OpClock, tracer=None, between=None) -> dict:
    """One pass over the ops; its wall time is the sum of the op times, so
    anything `between` runs after each op is not counted."""
    records = []
    n_cal = len(clock.cal)
    for k, argv in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        records.append(run_op(cli, argv, clock))
        if between is not None:
            between(records[-1]["end"] - records[-1]["start"])
    return {"wall": sum(r["end"] - r["start"] for r in records), "ops": records, "cal": clock.cal[n_cal:]}


def main() -> int:
    spec = json.load(sys.stdin)
    if not spec["trace"]:
        setup_time()
    from edecoh import cli

    run_op(cli, spec["warmup"], OpClock(None))
    result: dict = {"passes": []}
    passes = result["passes"]
    if spec["trace"]:
        from spans import Tracer

        clock = OpClock(None)
        passes.append(run_pass(cli, spec["ops"], clock))
        tracer = Tracer()
        tracer.install()
        traced = run_pass(cli, spec["ops"], clock, tracer)
        tracer.write_spans(spec["trace"])
        result["traced"] = traced
        result["spans"] = tracer.spans
        result["layers"] = tracer.metrics()
    else:
        setup = result["setup"] = []
        clock = OpClock(spec["cal_interval"])
        op_time = 0.0

        def between(op_s: float) -> None:
            nonlocal op_time
            op_time += op_s
            while len(setup) < min(1.0, op_time / spec["seconds"]) * spec["setup_starts"]:
                setup.append(setup_time())

        while True:
            passes.append(run_pass(cli, spec["ops"], clock, between=between))
            if op_time + statistics.median(p["wall"] for p in passes) > spec["seconds"]:
                break
        while len(setup) < spec["setup_starts"]:
            setup.append(setup_time())
        if clock.wrong:
            raise RuntimeError(f"calibration job computed {clock.wrong[0]!r}, not {CAL_VALUE!r}")
    result["peak_rss_kb"] = peak_rss_kb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
