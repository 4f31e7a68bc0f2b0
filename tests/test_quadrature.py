"""Quadrature engine tests.

Every expected value here is frozen from an elementary antiderivative worked
out independently of the implementation; the derivation is noted next to the
assertion.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edecoh.quadrature import (
    IntegrationResult,
    NonConvergenceError,
    PoleOnBoundaryError,
    PoleSeparationError,
    QuadratureConfig,
    _WG,
    _WK,
    _XK,
    _adapt_many,
    _pv_many,
    integrate_1d,
    integrate_nd,
    pv_integrate_1d,
    require_converged,
)

CFG = QuadratureConfig()


class TestConfig:
    def test_defaults(self):
        assert CFG.rel_tol == 1e-10
        assert CFG.abs_tol == 1e-14
        # the split budget and the excision plan are the quadrature's own
        assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["rel_tol", "abs_tol"]

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        # the floor the pieces of a principal value already get
        with pytest.raises(ValueError, match="rel_tol must be at least 4 eps"):
            QuadratureConfig(rel_tol=1e-300)
        assert QuadratureConfig(rel_tol=2.0**-50).rel_tol == 2.0**-50  # 4 eps itself


def _symmetric_rule(mpmath, nodes, weights, fixed):
    """Solve the moment equations of a symmetric rule on [-1, 1].

    The unknowns are the positive nodes not in fixed (a map of known nodes
    to their exact values) and the weights at the nodes x >= 0; there are
    as many equations as unknowns, sum_i w_i x_i^k = 2/(k + 1) for even k,
    and odd moments vanish by symmetry.  Newton's method starts from the
    floats given.  Returns the solved nodes and weights, ascending in x.
    """
    half = len(nodes) // 2
    positive = list(nodes[half + 1:])
    free = [x for x in positive if x not in fixed]
    count = len(free) + half + 1

    def moments(*u):
        at = {**fixed, **dict(zip(free, u))}
        w = u[len(free):]
        return [
            (w[0] if k == 0 else 0)
            + 2 * mpmath.fsum(wi * at[x] ** k for wi, x in zip(w[1:], positive))
            - mpmath.mpf(2) / (k + 1)
            for k in range(0, 2 * count, 2)
        ]

    solution = mpmath.findroot(moments, [*free, *weights[half:]])
    return dict(zip(free, solution[: len(free)])), list(solution[len(free):])


class TestGaussKronrodRule:
    def test_constants_are_the_rounded_exact_rule(self):
        # the 7-point Gauss rule is exact through x^13 and its 15-point
        # Kronrod extension through x^23; solved at 40 digits, every node and
        # weight must be its exact value rounded to the nearest float
        mpmath = pytest.importorskip("mpmath")
        xk, wk, wg = _XK.tolist(), _WK.tolist(), _WG.tolist()
        assert xk == [-x for x in reversed(xk)] and wk == wk[::-1] and wg == wg[::-1]
        with mpmath.workdps(40):
            gauss_x, gauss_w = _symmetric_rule(mpmath, xk[1::2], wg, {})
            kronrod_x, kronrod_w = _symmetric_rule(mpmath, xk, wk, gauss_x)
        assert sorted(gauss_x) == xk[9::2]
        assert {x: float(v) for x, v in {**gauss_x, **kronrod_x}.items()} == {x: x for x in xk[8:]}
        assert [float(w) for w in gauss_w] == wg[3:]
        assert [float(w) for w in kronrod_w] == wk[7:]

    def test_weights_sum_to_the_interval_length(self):
        assert math.fsum(_WK) == 2.0
        assert math.fsum(_WG) == 2.0


class TestIntegrate1d:
    def test_constant(self):
        # trivial: unit mass on unit interval
        res = integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0, CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_quadratic(self):
        # antiderivative x^3/3 on [0,3] -> 9
        res = integrate_1d(lambda x: x * x, 0.0, 3.0, CFG)
        assert res.converged
        assert res.value == pytest.approx(9.0, rel=1e-13)

    def test_log_endpoint_singularity(self):
        # antiderivative x ln x - x on (0,1] -> -1
        res = integrate_1d(np.log, 0.0, 1.0, CFG)
        assert res.value == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("f", [lambda x: 1.0, lambda x: np.ones(3)])
    def test_scalar_return_rejected(self, f):
        # integrands map an array of abscissae to an array of its shape;
        # nothing broadcasts a scalar or re-runs them point by point
        with pytest.raises(ValueError, match="integrand must return an array"):
            integrate_1d(f, 0.0, 1.0, CFG)
        with pytest.raises(ValueError, match="integrand must return an array"):
            pv_integrate_1d(f, 0.0, 1.0, [0.5], CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("route", ["integrate_1d", "pv_integrate_1d", "integrate_nd"])
    def test_non_finite_value_raises_naming_the_node(self, route, bad):
        # nothing non-finite is counted as zero: the first node above 1/2
        # gets the value bad, and the error names that node and value
        seen = []

        def f(x):
            seen.append(x.copy())
            return np.where(x > 0.5, bad, 1.0)

        call = {
            "integrate_1d": lambda: integrate_1d(f, 0.0, 1.0, CFG),
            "pv_integrate_1d": lambda: pv_integrate_1d(f, 0.0, 1.0, [0.25], CFG),
            "integrate_nd": lambda: integrate_nd(lambda x, y: f(y), [(0.0, 1.0), (0.0, 1.0)], CFG),
        }[route]
        with pytest.raises(ValueError, match="integrand must return finite values") as info:
            call()
        node = float(seen[-1][seen[-1] > 0.5][0])
        assert f"not {bad!r} at x = {node!r}" in str(info.value)

    def test_integrand_error_propagates_from_its_one_call(self):
        calls = [0]

        def f(x):
            calls[0] += 1
            raise ValueError("no value here")

        with pytest.raises(ValueError, match="no value here"):
            integrate_1d(f, 0.0, 1.0, CFG)
        assert calls[0] == 1
        with pytest.raises(ValueError, match="no value here"):
            pv_integrate_1d(f, 0.0, 1.0, [0.5], CFG)
        assert calls[0] == 2
        # a scalar-only callable fails on its array
        with pytest.raises(TypeError):
            integrate_1d(math.exp, 0.0, 1.0, CFG)

    def test_breakpoints_graded_mesh(self):
        # sqrt singularity at 0; graded seed speeds refinement but the
        # result must not depend on it
        f = lambda x: 1.0 / np.sqrt(np.maximum(x, 1e-300))
        seeded = integrate_1d(f, 0.0, 1.0, CFG, breakpoints=[1e-8, 1e-4, 1e-2])
        assert seeded.value == pytest.approx(2.0, abs=1e-8)

    def test_error_estimate_invariants(self):
        res = integrate_1d(lambda x: np.sin(x), 0.0, 2.0, CFG)
        assert res.error_estimate >= 0.0
        assert res.evaluations > 0
        # converged implies the estimate meets tolerance
        assert res.error_estimate <= max(CFG.abs_tol, CFG.rel_tol * abs(res.value))

    def test_budget_exhaustion_returns_best_estimate(self):
        # about 1.6e5 periods: no mesh within the fixed split budget resolves them
        res = integrate_1d(lambda x: np.sin(1e6 * x), 0.0, 1.0, CFG)
        assert not res.converged
        # the first panel, then two new panels for each of the 2048 splits
        assert res.evaluations == 15 * (1 + 2 * 2048)
        assert math.isfinite(res.value)
        with pytest.raises(NonConvergenceError):
            require_converged(res, "test integral")

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 1.0, 0.0, CFG)
        with pytest.raises(ValueError):
            integrate_1d(np.sin, 0.0, math.inf, CFG)

    def test_degenerate_interval(self):
        res = integrate_1d(np.sin, 1.0, 1.0, CFG)
        assert res.value == 0.0 and res.converged


class TestPrincipalValue:
    def test_simple_pole_at_origin(self):
        # PV of 1/x on [-1,2]: ln|x| -> ln 2 - ln 1 = ln 2
        res = pv_integrate_1d(lambda x: 1.0 / x, -1.0, 2.0, [0.0], CFG)
        assert res.converged
        assert res.value == pytest.approx(math.log(2.0), abs=1e-11)

    def test_pole_outside_interval_is_ordinary(self):
        # ln|x-5| on [0,1] -> ln 4 - ln 5
        res = pv_integrate_1d(lambda x: 1.0 / (x - 5.0), 0.0, 1.0, [5.0], CFG)
        assert res.converged
        assert res.value == pytest.approx(math.log(4.0 / 5.0), rel=1e-12)

    def test_rational_pole_interior(self):
        # PV of x/(x^2-1) on [0,2]: (1/2) ln|x^2-1| -> (1/2) ln 3
        res = pv_integrate_1d(lambda x: x / (x * x - 1.0), 0.0, 2.0, [1.0], CFG)
        assert res.converged
        assert res.value == pytest.approx(0.5 * math.log(3.0), abs=1e-11)

    def test_two_poles(self):
        # partial fractions: 1/((x-1)(x-2)) = 1/(x-2) - 1/(x-1);
        # PV over [0,3]: [ln|x-2| - ln|x-1|] -> -2 ln 2
        f = lambda x: 1.0 / ((x - 1.0) * (x - 2.0))
        res = pv_integrate_1d(f, 0.0, 3.0, [1.0, 2.0], CFG)
        assert res.converged
        assert res.value == pytest.approx(-2.0 * math.log(2.0), abs=1e-10)

    def test_pole_on_boundary_rejected(self):
        with pytest.raises(PoleOnBoundaryError):
            pv_integrate_1d(lambda x: 1.0 / x, 0.0, 1.0, [0.0], CFG)
        with pytest.raises(PoleOnBoundaryError):
            pv_integrate_1d(lambda x: 1.0 / (x - 1.0), 0.0, 1.0, [1.0 - 1e-15], CFG)

    def test_coincident_poles_rejected(self):
        with pytest.raises(PoleSeparationError):
            pv_integrate_1d(
                lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0, [0.5, 0.5], CFG
            )

    @given(c=st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=25, deadline=None)
    def test_odd_kernel_annihilation(self, c):
        # PV of an odd integrand over a symmetric interval vanishes
        res = pv_integrate_1d(lambda x: 1.0 / x, -c, c, [0.0], CFG)
        assert abs(res.value) <= 1e-10 * max(1.0, c)

    @given(
        a1=st.floats(min_value=-3.0, max_value=3.0),
        a2=st.floats(min_value=-3.0, max_value=3.0),
        scale=st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a1, a2, scale):
        poles = [0.3, 0.7]
        f = lambda x: a1 / (x - 0.3) + x * x
        g = lambda x: a2 / (x - 0.7) + 1.0
        pv = lambda func: pv_integrate_1d(func, 0.0, 1.0, poles, CFG).value
        combined = pv(lambda x: f(x) + scale * g(x))
        assert combined == pytest.approx(pv(f) + scale * pv(g), abs=5e-9)

    @pytest.mark.parametrize("poles", [[0.0], [-0.5, 1.2]])
    def test_reports_every_integrand_evaluation(self, poles):
        # base pieces, both halves of every folded shell and the excision
        # probes all count
        seen = [0]

        def f(x):
            seen[0] += np.size(x)
            return np.exp(x) / np.prod([x - p for p in poles], axis=0)

        res = pv_integrate_1d(f, -1.0, 2.0, poles, CFG)
        assert res.converged
        assert res.evaluations == seen[0]

    def test_pv_against_analytic_family(self):
        # PV of 1/(x-p) on [0,1] is ln((1-p)/p)
        for p in (0.1, 0.25, 0.9):
            res = pv_integrate_1d(lambda x: 1.0 / (x - p), 0.0, 1.0, [p], CFG)
            assert res.converged
            assert res.value == pytest.approx(math.log((1 - p) / p), abs=1e-11)
        # symmetric pole: exact PV is zero, so the relative certificate is
        # unattainable and only the value itself is checked
        res = pv_integrate_1d(lambda x: 1.0 / (x - 0.5), 0.0, 1.0, [0.5], CFG)
        assert abs(res.value) <= 5e-12


class TestAdditivityAndRefinement:
    @given(c=st.floats(min_value=0.2, max_value=1.8))
    @settings(max_examples=20, deadline=None)
    def test_interval_additivity(self, c):
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        whole = integrate_1d(f, 0.0, 2.0, CFG).value
        split = integrate_1d(f, 0.0, c, CFG).value + integrate_1d(f, c, 2.0, CFG).value
        assert whole == pytest.approx(split, abs=1e-12)

    def test_refinement_monotonicity(self):
        # tightening rel_tol must not spoil agreement with the antiderivative
        cases = [
            (lambda x: x * x, 0.0, 3.0, 9.0),
            (np.log, 0.0, 1.0, -1.0),
        ]
        for f, a, b, exact in cases:
            errs = []
            for rt in (1e-4, 1e-6, 1e-8, 1e-10):
                cfg = QuadratureConfig(rel_tol=rt, abs_tol=1e-15)
                errs.append(abs(integrate_1d(f, a, b, cfg).value - exact))
            for e_loose, e_tight in zip(errs, errs[1:]):
                assert e_tight <= e_loose + 1e-14

    def test_pv_refinement_monotonicity(self):
        exact = math.log(2.0)
        errs = []
        for rt in (1e-6, 1e-8, 1e-10):
            cfg = QuadratureConfig(rel_tol=rt, abs_tol=1e-15)
            errs.append(
                abs(pv_integrate_1d(lambda x: 1.0 / x, -1.0, 2.0, [0.0], cfg).value - exact)
            )
        for e_loose, e_tight in zip(errs, errs[1:]):
            assert e_tight <= e_loose + 1e-14


class TestIntegrateNd:
    def test_unit_square(self):
        res = integrate_nd(lambda x, y: np.ones_like(y), [(0, 1), (0, 1)], CFG)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        # int xy over unit square = 1/4
        res = integrate_nd(lambda x, y: x * y, [(0, 1), (0, 1)], CFG)
        assert res.value == pytest.approx(0.25, rel=1e-11)

    def test_log_line_singularity(self):
        # int ln((x-y)^2) over [0, 1] x [1/3, 4/3]: the line x = y crosses
        # the box, but no outer node meets an inner one on it.  With
        # G(u) = u^2 ln|u| - 3u^2/2, whose second derivative is 2 ln|u|, the
        # integral is the corner sum G(1 - 1/3) - G(-1/3) - G(1 - 4/3) + G(-4/3)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            G = lambda u: u * u * mpmath.log(abs(u)) - 1.5 * u * u
            third = mpmath.mpf(1) / 3
            exact = float(G(1 - third) - G(-third) - G(1 - 4 * third) + G(-4 * third))
        f = lambda x, y: np.log((x - y) ** 2)
        cfg = QuadratureConfig(rel_tol=1e-9, abs_tol=1e-12)
        res = integrate_nd(f, [(0, 1), (1 / 3, 4 / 3)], cfg)
        assert res.converged
        assert res.value == pytest.approx(exact, abs=1e-8)

        # on the unit square the inner and outer nodes coincide on x = y,
        # where the integrand is -inf: no finite value, so the quadrature
        # raises instead of counting it as zero
        def on_the_nodes(x, y):
            with np.errstate(divide="ignore"):
                return f(x, y)

        with pytest.raises(ValueError, match=r"finite values, not -inf at x = "):
            integrate_nd(on_the_nodes, [(0, 1), (0, 1)], cfg)

    def test_periodic_direction(self):
        # int_0^1 dx int_0^{2pi} dt x (1 + 0.3 cos t) = pi
        res = integrate_nd(
            lambda x, t: x * (1.0 + 0.3 * np.cos(t)),
            [(0, 1), (0, 2 * math.pi)],
            CFG,
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi, rel=1e-10)

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="2-box"):
            integrate_nd(lambda x: x, [(0, 1)], CFG)
        with pytest.raises(ValueError, match="2-box"):
            integrate_nd(lambda x, y, z: x + y + z, [(0, 1), (0, 1), (0, 1)], CFG)


class TestLockstep:
    def test_batch_matches_batches_of_one(self):
        # smooth, log-endpoint, folded principal-value shell, and one that
        # runs out of its split budget
        p = 0.3
        f = lambda x: np.exp(x) / (x - p)
        tight = QuadratureConfig(rel_tol=1e-12, abs_tol=1e-16)
        cases = [  # (integrand, initial mesh, tolerance)
            (lambda x: np.exp(-x) * np.cos(3.0 * x), (0.0, 2.0), CFG.tolerance),
            (np.log, (0.0, 1e-4, 1e-2, 1.0), CFG.tolerance),
            (lambda t: f(p + t) + f(p - t), (1e-3, 0.2), tight.tolerance),
            (lambda x: x**-0.9, (0.0, 1.0), CFG.tolerance),
        ]

        def run(selected):
            calls = [0]

            def evaluate(x, owner):
                calls[0] += 1
                out = np.empty_like(x)
                for j, (g, _, _) in enumerate(selected):
                    out[owner == j] = g(x[owner == j])
                return out

            results = _adapt_many(evaluate, [c[1] for c in selected], [c[2] for c in selected])
            return results, calls[0]

        batch, batch_calls = run(cases)
        assert [res.converged for res in batch] == [True, True, True, False]
        rounds = []
        for case, res in zip(cases, batch):
            (alone,), calls = run([case])
            rounds.append(calls)
            assert res.evaluations == alone.evaluations
            assert res.converged == alone.converged
            assert res.value == pytest.approx(alone.value, rel=1e-14, abs=1e-300)
        # one integrand call per refinement round, shared by the whole batch
        assert batch_calls == max(rounds)

    def test_pv_batch_matches_pv_alone(self):
        # one pole, two poles, a pole outside the window (a plain integral)
        # and a window nudged off a pole that sat on its lower boundary
        cfg = QuadratureConfig(rel_tol=1e-8, abs_tol=1e-12)
        shift = 4e-12
        cases = [  # (integrand, (a, b), poles)
            (lambda x: np.exp(x) / (x - 0.3), (0.0, 1.0), [0.3]),
            (lambda x: np.cos(x) / ((x - 0.2) * (x - 0.7)), (0.0, 1.0), [0.2, 0.7]),
            (lambda x: 1.0 / (x - 2.0), (0.0, 1.0), [2.0]),
            (lambda x: 1.0 / (x * (x - 0.6)), (shift, 1.0 - shift), [0.0, 0.6]),
        ]
        with pytest.raises(PoleOnBoundaryError):
            pv_integrate_1d(cases[3][0], 0.0, 1.0, cases[3][2], cfg)

        calls = [0]

        def evaluate(x, owner):
            calls[0] += 1
            out = np.empty_like(x)
            for j, (g, _, _) in enumerate(cases):
                out[owner == j] = g(x[owner == j])
            return out

        batch = _pv_many(evaluate, [c[1] for c in cases], [c[2] for c in cases], cfg)
        rounds = []
        for (g, (a, b), poles), res in zip(cases, batch):
            alone_calls = [0]

            def counted(x, g=g):
                alone_calls[0] += 1
                return g(x)

            alone = pv_integrate_1d(counted, a, b, poles, cfg)
            has_pole = any(a < p < b for p in poles)
            rounds.append(alone_calls[0] - has_pole)  # less the excision probe call
            assert res.evaluations == alone.evaluations
            assert res.converged == alone.converged
            # batched matrix products round differently; the error estimate
            # includes differences of the stage values, so it moves by as much
            assert res.value == pytest.approx(alone.value, rel=1e-14, abs=1e-300)
            assert abs(res.error_estimate - alone.error_estimate) <= 4.0 * math.ulp(alone.value)
        plain = integrate_1d(cases[2][0], 0.0, 1.0, cfg)
        assert batch[2].evaluations == plain.evaluations
        assert batch[2].value == pytest.approx(plain.value, rel=1e-14)
        # one call for all excision probes, then one per refinement round
        assert calls[0] == 1 + max(rounds)


@pytest.fixture
def qawc():
    """QUADPACK's QAWC: PV of g(x)/(x - c) over [a, b] (scipy is test-only)."""
    quad = pytest.importorskip("scipy.integrate").quad
    return lambda g, a, b, c: quad(g, a, b, weight="cauchy", wvar=c, epsabs=1e-14, epsrel=1e-13)[0]


class TestCauchyWeightOracle:
    """pv_integrate_1d against QUADPACK's QAWC (Piessens et al. 1983), which
    integrates g(x)/(x - c) with a modified Clenshaw-Curtis rule and shares
    no code with the excision route."""

    @pytest.mark.parametrize(
        "g, a, b, c",
        [
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 2.0, 0.3),
            (lambda x: (x * x + 1.0) / (x + 2.0), -1.0, 3.0, 0.5),
            (lambda x: (x**3 - 2.0 * x) / (x * x + 0.5), -2.0, 1.0, -0.4),
        ],
    )
    def test_one_pole(self, qawc, g, a, b, c):
        res = pv_integrate_1d(lambda x: g(x) / (x - c), a, b, [c], CFG)
        assert res.converged
        assert res.value == pytest.approx(qawc(g, a, b, c), rel=1e-9, abs=1e-12)

    def test_two_poles(self, qawc):
        # QAWC takes one pole per call: split 1/((x - 0.25)(x - 0.8)) on
        # [0, 1] at the midpoint between the poles
        m = 0.525
        ref = qawc(lambda x: 1.0 / (x - 0.8), 0.0, m, 0.25)
        ref += qawc(lambda x: 1.0 / (x - 0.25), m, 1.0, 0.8)
        res = pv_integrate_1d(lambda x: 1.0 / ((x - 0.25) * (x - 0.8)), 0.0, 1.0, [0.25, 0.8], CFG)
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-12)
