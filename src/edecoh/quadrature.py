"""Adaptive quadrature with Cauchy principal-value support.

One-dimensional integrals use a globally adaptive Gauss-Kronrod 7/15 scheme:
the worst panel (largest Gauss-vs-Kronrod discrepancy) is bisected until the
summed error estimate meets tolerance or the subdivision budget runs out.
One private driver runs that loop on many independent integrals in lockstep:
each keeps its own panels and tolerance, so it refines exactly as it would
alone, but every round evaluates the new panels of all unfinished
integrals with a single integrand call.  A plain integral is the batch of
one; the pieces of a batch of principal values and the azimuthal integrals
of the cylinder shape constant are batches of many.

Principal values are computed by symmetric excision.  For each interior pole p
a shrinking sequence of half-widths eps_0 > eps_1 > ... is excised; the two
panels flanking the pole are folded into a single integral of
f(p+t) + f(p-t), which cancels the simple-pole divergence analytically, and
the partial results are extrapolated to eps -> 0 with a Neville tableau.
For a simple pole the excision error is an odd power series in eps, so the
extrapolation converges far faster than the raw sequence.  Many principal
values, each with its own window and poles, run as one batch: one call
probes all their excisions and all their pieces refine in lockstep.
pv_integrate_1d is the batch of one; the numeric radiation kernels batch
the inner principal values of one outer refinement round.

Two-dimensional integrals are iterated one-dimensional integrals.

Every integrand follows one contract: it takes a numpy array of abscissae
and returns a finite array of the same shape.  A value of another shape, or
a NaN or infinity at any node, raises ValueError naming it; an exception
the integrand raises propagates, and no floating-point warning it gives is
silenced.  Gauss-Kronrod nodes never touch a panel's edges, so an
integrable singularity placed on a mesh edge or breakpoint is never
evaluated.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Sequence

import numpy as np

# the shared types live in the numpy-free base module; these are the same objects
from .base import (
    _EPS,
    IntegrationResult,
    NonConvergenceError,
    PoleOnBoundaryError,
    PoleSeparationError,
    QuadratureConfig,
    require_converged,
    require_finite,
)

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "NonConvergenceError",
    "PoleOnBoundaryError",
    "PoleSeparationError",
    "integrate_1d",
    "pv_integrate_1d",
    "integrate_nd",
    "require_converged",
]


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], to the digits of
# QUADPACK's dqk15 (Piessens et al., 1983): the positive Kronrod nodes and
# their weights from the outermost inwards, and the weights of the 7-point
# Gauss rule, which is embedded at the odd-index nodes
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG7 = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_XK = np.array([*(-x for x in _XGK[:-1]), *reversed(_XGK)])
_WK = np.array([*_WGK[:-1], *reversed(_WGK)])
_WG = np.array([*_WG7[:-1], *reversed(_WG7)])


# the split budget of every adaptive integral: a hard integrand ends with its
# best estimate, unconverged, after this many bisections.  Every integral of
# the package and its tests that converges does so within it; the ones that
# reach it (round-off-bound shells of the numeric I_aa, a clamped 1/sqrt(x))
# end on the same value with twice the budget, at four times the cost
_MAX_SPLITS = 2048

# the integrand evaluations one nested integral may spend at its inner level
# (the numeric I_aa's principal values, cylinder kappa's azimuthal
# integrals) before it raises NonConvergenceError: the split budgets of the
# levels multiply, so they bound no tolerance alone.  The default V
# geometry's I_aa spends 1.3M, a default kappa row 0.3-1.2M
_MAX_EVALS = 20_000_000


def _values(
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray], x: np.ndarray, owner: np.ndarray
) -> np.ndarray:
    """evaluate(x, owner), held to the integrand contract."""
    y = np.asarray(evaluate(x, owner), dtype=float)
    if y.shape != x.shape:
        raise ValueError(
            f"an integrand must return an array of its abscissae's shape {x.shape}, "
            f"not {y.shape}"
        )
    finite = np.isfinite(y)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(
            f"an integrand must return finite values, not {float(y[j])!r} at x = {float(x[j])!r}"
        )
    return y


def _tolerance(rel_tol: float, abs_tol: float) -> Callable[[float], float]:
    return lambda value: max(abs_tol, rel_tol * abs(value))


def _adapt_many(
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    meshes: Sequence[Sequence[float]],
    tolerances: Sequence[Callable[[float], float]],
) -> list[IntegrationResult]:
    """Globally adaptive Gauss-Kronrod on independent integrals in lockstep.

    Integral i starts from the sorted edges meshes[i] and refines with its
    own heap, tolerances[i](value) being the error it may keep at its
    running value, so it makes exactly the decisions it would make alone:
    while the summed error exceeds the tolerance and _MAX_SPLITS bisections
    have not been spent, bisect the worst panel,
    freezing panels too narrow to split or with zero error.  Each round
    evaluates the new panels of every unfinished integral with one call
    evaluate(x, owner), where owner[j] is the index of the integral that
    abscissa x[j] belongs to.  A result's evaluations are its abscissae.
    """
    n = len(meshes)
    heaps: list[list[tuple[float, int, float, float, float, float]]] = [[] for _ in range(n)]
    frozen: list[list[tuple[float, float]]] = [[] for _ in range(n)]  # unsplittable panels
    splits = [0] * n
    evals = [0] * n
    results: dict[int, IntegrationResult] = {}
    tick = 0

    # panels awaiting evaluation: owner, lower and upper edge
    owners = [i for i, m in enumerate(meshes) for _ in range(len(m) - 1)]
    los = [float(lo) for m in meshes for lo in m[:-1]]
    his = [float(hi) for m in meshes for hi in m[1:]]
    while owners:
        lo_a, hi_a = np.array(los), np.array(his)
        centre = 0.5 * (lo_a + hi_a)
        half = 0.5 * (hi_a - lo_a)
        nodes = (centre[:, None] + half[:, None] * _XK[None, :]).ravel()
        y = _values(evaluate, nodes, np.repeat(owners, _XK.size)).reshape(len(owners), _XK.size)
        vals = half * (y @ _WK)
        errs = np.abs(vals - half * (y[:, 1::2] @ _WG))
        for i, lo, hi, v, e in zip(owners, los, his, vals.tolist(), errs.tolist()):
            heapq.heappush(heaps[i], (-e, tick, lo, hi, v, e))
            tick += 1
            evals[i] += _XK.size

        # each integral that is still open bisects at most one panel per round
        active = dict.fromkeys(owners)
        owners, los, his = [], [], []
        for i in active:
            heap = heaps[i]
            while True:
                total_v = math.fsum(h[4] for h in heap) + math.fsum(v for v, _ in frozen[i])
                total_e = math.fsum(h[5] for h in heap) + math.fsum(e for _, e in frozen[i])
                converged = total_e <= tolerances[i](total_v)
                if converged or splits[i] >= _MAX_SPLITS or not heap:
                    results[i] = IntegrationResult(total_v, total_e, evals[i], converged)
                    break
                _, _, lo, hi, v, e = heapq.heappop(heap)
                width_floor = 8.0 * _EPS * max(abs(lo), abs(hi), 1.0)
                if hi - lo <= width_floor or e == 0.0:
                    frozen[i].append((v, e))
                    continue
                mid = 0.5 * (lo + hi)
                owners += [i, i]
                los += [lo, mid]
                his += [mid, hi]
                splits[i] += 1
                break
    return [results[i] for i in range(n)]


def integrate_1d(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig | None = None,
    *,
    breakpoints: Sequence[float] | None = None,
) -> IntegrationResult:
    """Adaptive integral of f over [a, b].

    breakpoints seeds the initial mesh (e.g. graded toward a known endpoint
    singularity); adaptivity refines from there.  Never raises on a hard
    integrand: the best estimate is returned with converged=False.
    """
    cfg = cfg or QuadratureConfig()
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, True)
    if a > b:
        raise ValueError("requires a < b")

    edges = [a, b]
    if breakpoints:
        edges += [float(p) for p in breakpoints if a < p < b]
    (res,) = _adapt_many(lambda x, _owner: f(x), [sorted(set(edges))], [cfg.tolerance])
    return res


def _neville_to_zero(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Polynomial extrapolation of (xs, ys) to x = 0.

    Returns the diagonal entry with the smallest last correction, so noise in
    late columns (quadrature round-off) does not spoil the estimate.
    """
    n = len(xs)
    p = [float(y) for y in ys]
    best = p[0]
    best_corr = math.inf
    prev = p[0]
    for k in range(1, n):
        for i in range(n - k):
            p[i] = (xs[i + k] * p[i] - xs[i] * p[i + 1]) / (xs[i + k] - xs[i])
        corr = abs(p[0] - prev)
        if corr < best_corr:
            best_corr = corr
            best = p[0]
        prev = p[0]
    if not math.isfinite(best_corr):
        best_corr = 0.0
    return best, best_corr


def _on_boundary(a: float, b: float, p: float) -> bool:
    """Whether pole p lies within floating distance of an endpoint of [a, b]."""
    btol = 1e-12 * (b - a)
    return abs(p - a) <= btol or abs(p - b) <= btol


def _excisions(
    a: float, b: float, poles: Sequence[float], shrink: np.ndarray
) -> tuple[list[float], np.ndarray]:
    """The interior poles of [a, b] and their excision half-widths.

    Row i of the (poles, stages) array scales shrink so that its first entry
    is a quarter of the room around pole i: the distance to the nearer
    endpoint or half the gap to a neighbouring pole.  A pole whose smallest
    half-width is not above the float spacing there cannot be excised.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a >= b:
        raise ValueError("requires a < b")
    interior = []
    for p in sorted(float(p) for p in poles):
        if _on_boundary(a, b, p):
            raise PoleOnBoundaryError(
                f"pole at {p!r} lies on an integration boundary of [{a}, {b}]"
            )
        if a < p < b:
            interior.append(p)
    if len(interior) != len(set(interior)):
        raise PoleSeparationError("duplicate pole locations")

    eps = np.empty((len(interior), shrink.size))
    for i, p in enumerate(interior):
        room = min(p - a, b - p)
        if len(interior) > 1:
            left_gap = interior[i] - interior[i - 1] if i > 0 else math.inf
            right_gap = interior[i + 1] - interior[i] if i < len(interior) - 1 else math.inf
            room = min(room, 0.5 * min(left_gap, right_gap))
        eps[i] = 0.5 * 0.5 * room * shrink
        if not eps[i, -1] > np.spacing(abs(p)):
            raise PoleSeparationError(
                f"pole at {p!r} has too little room: its smallest excision half-width "
                f"{eps[i, -1]:.3g} is not above the float spacing {np.spacing(abs(p)):.3g}"
            )
    return interior, eps


def _pv_many(
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    intervals: Sequence[tuple[float, float]],
    poles_list: Sequence[Sequence[float]],
    cfg: QuadratureConfig,
    stages: int = 12,
) -> list[IntegrationResult]:
    """Principal values of independent integrands, computed in lockstep.

    PV i runs over intervals[i] with the simple poles poles_list[i] and is
    evaluated as evaluate(x, owner) with owner[j] == i for its abscissae
    x[j].  Each pole is excised at stages half-widths, each half the one
    before, and planned as the module docstring describes, raising
    the errors pv_integrate_1d documents.  One call probes the excisions of
    all PVs, and the pieces of all PVs refine in one _adapt_many run, so
    each PV makes the decisions it makes alone.  A PV without an interior
    pole is the plain integral under cfg.  A result's evaluations are the
    integrand points of that PV.
    """
    n = len(intervals)
    intervals = [(float(a), float(b)) for a, b in intervals]
    shrink = 0.5 ** np.arange(stages)
    planned = [_excisions(a, b, poles, shrink) for (a, b), poles in zip(intervals, poles_list)]
    n_poles = [len(interior) for interior, _ in planned]
    counts = np.zeros(n, dtype=np.int64)

    def call(x: np.ndarray, owner: np.ndarray) -> np.ndarray:
        counts[:] += np.bincount(owner, minlength=n)
        return _values(evaluate, x, owner)

    # sub-integrals of a PV must be much tighter than the requested PV
    # tolerance, otherwise their accumulated noise dominates the final estimate
    piece_rel = max(cfg.rel_tol * 1e-3, 4.0 * _EPS)
    piece_abs = cfg.abs_tol * 1e-2

    # region outside the largest excisions
    meshes: list[tuple[float, float]] = []
    tolerances: list[Callable[[float], float]] = []
    owners: list[int] = []
    for i, ((a, b), (interior, eps)) in enumerate(zip(intervals, planned)):
        edges = [a]
        for p, e in zip(interior, eps[:, 0].tolist()):
            edges += [p - e, p + e]
        edges.append(b)
        meshes += zip(edges[::2], edges[1::2])
        tol = _tolerance(piece_rel, piece_abs) if interior else cfg.tolerance
        tolerances += [tol] * (len(interior) + 1)
        owners += [i] * (len(interior) + 1)
    n_base = len(meshes)

    # shells between consecutive excision radii, symmetrised about each pole.
    # The symmetrised integrand is a difference of two near-singular values,
    # so its achievable absolute accuracy is bounded by machine epsilon times
    # the magnitude of the cancelling terms; the shell tolerance honours that.
    at = np.array([p for interior, _ in planned for p in interior])[:, None]
    widths = np.concatenate([eps for _, eps in planned])
    pole_owner = np.repeat(np.arange(n), n_poles)
    outer_r, inner_r = widths[:, :-1], widths[:, 1:]  # shell (i, k) spans eps_k..eps_{k-1}
    if at.size:
        probes = np.stack([at - outer_r, at - inner_r, at + inner_r, at + outer_r], axis=-1)
        y = call(probes.ravel(), np.repeat(pole_owner, probes[0].size))
        mags = np.abs(y).reshape(probes.shape).max(axis=-1)
        floors = 64.0 * _EPS * mags * (outer_r - inner_r)
        meshes += zip(inner_r.ravel().tolist(), outer_r.ravel().tolist())
        tolerances += [_tolerance(piece_rel, max(piece_abs, fl)) for fl in floors.ravel().tolist()]
        owners += np.repeat(pole_owner, shrink.size - 1).tolist()
    shell_pole = np.repeat(at, shrink.size - 1)
    piece_owner = np.array(owners)

    def evaluate_pieces(x: np.ndarray, piece: np.ndarray) -> np.ndarray:
        fold = piece >= n_base
        p, t = shell_pole[piece[fold] - n_base], x[fold]
        owner = piece_owner[piece]
        y = call(
            np.concatenate([x[~fold], p + t, p - t]),
            np.concatenate([owner[~fold], owner[fold], owner[fold]]),
        )
        out = np.empty_like(x)
        m = x.size - t.size
        out[~fold] = y[:m]
        out[fold] = y[m:m + t.size] + y[m + t.size:]
        return out

    pieces = _adapt_many(evaluate_pieces, meshes, tolerances)
    results = []
    base_at = np.cumsum([0] + [k + 1 for k in n_poles]).tolist()
    shell_at = (n_base + (shrink.size - 1) * np.cumsum([0] + n_poles)).tolist()
    for i, k in enumerate(n_poles):
        base = pieces[base_at[i]:base_at[i + 1]]
        if not k:
            results.append(base[0])  # no probes: its evaluations are all its points
            continue
        own = base + pieces[shell_at[i]:shell_at[i + 1]]
        piece_err = sum(res.error_estimate for res in own)
        all_ok = all(res.converged for res in own)
        shells = np.zeros((k, shrink.size))  # shells[:, 0] stays zero
        shells[:, 1:] = np.reshape([res.value for res in own[k + 1:]], (k, -1))
        stage_vals = math.fsum(res.value for res in base) + np.cumsum(shells.sum(axis=0))
        value, extrap_err = _neville_to_zero(shrink, stage_vals)
        err = extrap_err + piece_err
        converged = all_ok and err <= cfg.tolerance(value)
        results.append(IntegrationResult(value, err, int(counts[i]), converged))
    return results


def pv_integrate_1d(
    f: Callable,
    a: float,
    b: float,
    poles: Sequence[float],
    cfg: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Cauchy principal value of f over [a, b] with simple poles inside.

    Poles listed outside [a, b] are ignored.  A pole within floating distance
    of an endpoint raises PoleOnBoundaryError; poles too close to each other
    for independent excision raise PoleSeparationError.
    """
    (res,) = _pv_many(lambda x, _owner: f(x), [(a, b)], [poles], cfg or QuadratureConfig())
    return res


def integrate_nd(
    f: Callable,
    box: Sequence[tuple[float, float]],
    cfg: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Iterated adaptive integral over a 2-box [(x_lo, x_hi), (y_lo, y_hi)].

    f is called as f(x, y) with x a float and y an array of abscissae, and
    returns an array of y's shape.  Each node x of the outer integral runs
    one inner integral over y, ten times tighter than cfg so that its noise
    stays below the outer estimate.  The reported error adds the mean inner
    error times the outer length to the outer one.  An integrable
    logarithmic singularity on a line is graded by the adaptive refinement,
    as long as no pair of outer and inner nodes lies on it: ln((x - y)^2)
    over a square [c, d]^2 meets its own nodes on x = y and raises.
    """
    cfg = cfg or QuadratureConfig()
    if len(box) != 2:
        raise ValueError("integrate_nd integrates over a 2-box only")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("box sides need finite bounds lo <= hi")
    x_side, y_side = box
    inner_tolerance = _tolerance(cfg.rel_tol * 0.1, cfg.abs_tol * 0.1)
    inner: list[IntegrationResult] = []

    def inner_error() -> float:
        mean_inner = sum(res.error_estimate for res in inner) / len(inner) if inner else 0.0
        return mean_inner * (x_side[1] - x_side[0])

    def top_tolerance(value: float) -> float:
        # the reported error adds the inner errors to the outer one, so the
        # outer integral may keep what they leave of the tolerance, and no
        # less than half of it: beyond that refining it cannot help
        tol = cfg.tolerance(value)
        return max(tol - inner_error(), 0.5 * tol)

    def inner_values(x: np.ndarray, _owner: np.ndarray) -> np.ndarray:
        for xi in x.tolist():
            inner.extend(_adapt_many(lambda y, _o, xi=xi: f(xi, y), [y_side], [inner_tolerance]))
        return np.array([res.value for res in inner[-x.size:]])

    (top,) = _adapt_many(inner_values, [x_side], [top_tolerance])
    err = top.error_estimate + inner_error()
    converged = (
        top.converged and all(res.converged for res in inner) and err <= cfg.tolerance(top.value)
    )
    return IntegrationResult(top.value, err, sum(res.evaluations for res in inner), converged)
