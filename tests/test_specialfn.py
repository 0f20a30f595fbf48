"""Tests for the orthogonal-polynomial and quadrature building blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scipy.special as sps

from conftest import gegenbauer_weight_integral, laguerre_weight_integral
from pdmwire.specialfn import (
    MAX_DEGREE,
    MAX_QUAD_POINTS,
    QuadratureRule,
    gauss_legendre,
    gegenbauer,
    laguerre,
    laguerre_deriv,
    log_gamma,
)


def laguerre_series(n, alpha, x):
    """Direct power-series evaluation; conditioning scale returned alongside.

    L_n^(alpha)(x) = sum_k (-1)^k  Gamma(n+alpha+1) x^k
                     / (Gamma(k+alpha+1) (n-k)! k!)
    """
    total = 0.0
    scale = 0.0
    for k in range(n + 1):
        log_mag = (
            sps.gammaln(n + alpha + 1.0)
            - sps.gammaln(k + alpha + 1.0)
            - sps.gammaln(n - k + 1.0)
            - sps.gammaln(k + 1.0)
        )
        term = (-1.0) ** k * math.exp(log_mag) * x ** k
        total += term
        scale += abs(term)
    return total, scale


def gegenbauer_series(m, lam, x):
    """Direct finite-sum evaluation of C_m^(lam)(x) with conditioning scale."""
    total = 0.0
    scale = 0.0
    for k in range(m // 2 + 1):
        log_mag = (
            sps.gammaln(m - k + lam)
            - sps.gammaln(lam)
            - sps.gammaln(k + 1.0)
            - sps.gammaln(m - 2 * k + 1.0)
        )
        term = (-1.0) ** k * math.exp(log_mag) * (2.0 * x) ** (m - 2 * k)
        total += term
        scale += abs(term)
    return total, scale


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre(0, 0.7, 3.2) == 1.0

    def test_degree_one_closed_form(self):
        assert laguerre(1, 2.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_degree_two_value(self):
        # (x^2 - 4x + 2)/2 at x = 2
        assert laguerre(2, 0.0, 2.0) == pytest.approx(-1.0, abs=1e-14)

    def test_vectorized_argument(self):
        x = np.linspace(0.0, 5.0, 7)
        vals = laguerre(2, 0.5, x)
        assert vals.shape == x.shape
        for xi, vi in zip(x, vals):
            assert vi == pytest.approx(laguerre(2, 0.5, float(xi)), rel=1e-15)

    def test_matches_series_on_grid(self):
        xs = np.linspace(0.0, 25.0, 50)
        for n in range(13):
            for alpha in (0.0, 0.5, 3.7):
                for x in xs:
                    ref, scale = laguerre_series(n, alpha, float(x))
                    got = laguerre(n, alpha, float(x))
                    assert abs(got - ref) <= 1e-11 * max(1.0, scale)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(MAX_DEGREE + 1, 0.0, 1.0)
        with pytest.raises(ValueError):
            laguerre(2, 0.0, -0.5)

    @settings(deadline=None, max_examples=120)
    @given(
        n=st.integers(0, 12),
        alpha=st.floats(-0.9, 5.0),
        x=st.floats(0.0, 20.0),
    )
    def test_recurrence_equals_series(self, n, alpha, x):
        ref, scale = laguerre_series(n, alpha, x)
        assert abs(laguerre(n, alpha, x) - ref) <= 1e-11 * max(1.0, scale)

    def test_orthogonality_under_weight(self):
        for d in (0.0, 0.5, 2.3):
            for p in range(7):
                for q in range(p, 7):
                    val = laguerre_weight_integral(
                        lambda t: laguerre(p, d, t) * laguerre(q, d, t), d
                    )
                    if p == q:
                        expect = math.exp(sps.gammaln(q + d + 1.0) - sps.gammaln(q + 1.0))
                    else:
                        expect = 0.0
                    norm = math.exp(sps.gammaln(q + d + 1.0) - sps.gammaln(q + 1.0))
                    assert abs(val - expect) <= 1e-9 * max(1.0, norm)


class TestLaguerreDeriv:
    def test_degree_zero_derivative_vanishes(self):
        assert laguerre_deriv(0, 1.3, 0.5) == 0.0

    def test_degree_one_derivative(self):
        assert laguerre_deriv(1, 2.0, 1.0) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_central_difference(self):
        h = 1e-3
        for n in (1, 3, 6):
            for alpha in (0.0, 0.5, 2.0):
                for x in (0.5, 2.0, 5.0):
                    fd = (
                        -laguerre(n, alpha, x + 2 * h)
                        + 8 * laguerre(n, alpha, x + h)
                        - 8 * laguerre(n, alpha, x - h)
                        + laguerre(n, alpha, x - 2 * h)
                    ) / (12 * h)
                    assert laguerre_deriv(n, alpha, x) == pytest.approx(fd, abs=1e-8)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            laguerre_deriv(2, -1.5, 1.0)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert gegenbauer(0, 0.8, -0.3) == 1.0

    def test_degree_one_closed_form(self):
        assert gegenbauer(1, 1.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_degree_two_at_one(self):
        assert gegenbauer(2, 1.0, 1.0) == pytest.approx(3.0, abs=1e-14)

    def test_matches_series_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 50)
        for m in range(13):
            for lam in (0.75, 1.0, 1.5):
                for x in xs:
                    ref, scale = gegenbauer_series(m, lam, float(x))
                    got = gegenbauer(m, lam, float(x))
                    assert abs(got - ref) <= 1e-11 * max(1.0, scale)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            gegenbauer(2, 0.0, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(2, -0.6, 0.5)
        with pytest.raises(ValueError):
            gegenbauer(2, 1.0, 1.5)
        with pytest.raises(ValueError):
            gegenbauer(-1, 1.0, 0.5)

    @settings(deadline=None, max_examples=120)
    @given(
        m=st.integers(0, 12),
        lam=st.floats(0.51, 3.0),
        x=st.floats(-1.0, 1.0),
    )
    def test_recurrence_equals_series(self, m, lam, x):
        ref, scale = gegenbauer_series(m, lam, x)
        assert abs(gegenbauer(m, lam, x) - ref) <= 1e-11 * max(1.0, scale)

    def test_orthogonality_under_weight(self):
        for lam in (0.75, 1.0, 1.5):
            for p in range(7):
                for q in range(p, 7):
                    val = gegenbauer_weight_integral(
                        lambda x: gegenbauer(p, lam, x) * gegenbauer(q, lam, x),
                        lam,
                    )
                    norm_q = (
                        math.pi
                        * math.exp(sps.gammaln(q + 2 * lam) - sps.gammaln(q + 1.0))
                        * 2.0 ** (1.0 - 2.0 * lam)
                        / (math.gamma(lam) ** 2 * (q + lam))
                    )
                    expect = norm_q if p == q else 0.0
                    assert abs(val - expect) <= 1e-9 * max(1.0, norm_q)


class TestLogGamma:
    def test_known_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_relative_error_across_range(self):
        xs = np.geomspace(0.1, 500.0, 400)
        for x in xs:
            ref = float(sps.gammaln(x))
            assert abs(log_gamma(float(x)) - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-3.0)


class TestGaussLegendre:
    def test_single_node_rule(self):
        rule = gauss_legendre(1)
        assert list(rule.nodes) == [0.0]
        assert list(rule.weights) == [2.0]

    def test_two_node_rule(self):
        rule = gauss_legendre(2)
        assert rule.nodes[0] == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-15)
        assert rule.nodes[1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, abs=1e-15)
        assert rule.weights[1] == pytest.approx(1.0, abs=1e-15)

    def test_monomial_integral(self):
        rule = gauss_legendre(16)
        val = sum(w * x ** 10 for x, w in zip(rule.nodes, rule.weights))
        assert val == pytest.approx(2.0 / 11.0, abs=1e-14)

    @pytest.mark.parametrize("npoints", [1, 2, 3, 5, 8, 16, 33])
    def test_exact_for_low_degree_polynomials(self, npoints):
        rule = gauss_legendre(npoints)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        for deg in range(2 * npoints):
            val = float(np.sum(weights * nodes ** deg))
            expect = 0.0 if deg % 2 else 2.0 / (deg + 1.0)
            assert abs(val - expect) <= 1e-13

    def test_rule_invariants(self):
        for npoints in (1, 2, 7, 64, 257):
            rule = gauss_legendre(npoints)
            nodes = np.asarray(rule.nodes)
            weights = np.asarray(rule.weights)
            assert rule.kind == "gauss_legendre"
            assert isinstance(rule, QuadratureRule)
            assert nodes.size == npoints and weights.size == npoints
            assert np.all(np.diff(nodes) > 0)
            assert nodes[0] > -1.0 and nodes[-1] < 1.0
            assert np.all(weights > 0)
            assert abs(float(np.sum(weights)) - 2.0) <= 1e-14

    def test_rejects_bad_point_counts(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_legendre(MAX_QUAD_POINTS + 1)

    @pytest.mark.parametrize("npoints", [1, 24, 32, 512])
    def test_cached_rule_is_read_only_and_equals_a_fresh_build(self, npoints):
        rule = gauss_legendre(npoints)
        assert gauss_legendre(npoints) is rule
        fresh = gauss_legendre.__wrapped__(npoints)
        assert fresh is not rule
        for cached, built in ((rule.nodes, fresh.nodes), (rule.weights, fresh.weights)):
            assert not cached.flags.writeable
            assert np.array_equal(cached, built)
            with pytest.raises(ValueError):
                cached[0] = 0.0
