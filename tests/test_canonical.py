"""Tests for the canonical-branch closed forms: energies, norms, states."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from conftest import params_for
from pdmwire.canonical import (
    _log_laguerre,
    angular,
    axial,
    canonical_state,
    density,
    dimensionless_eigenvalue,
    energy_radial,
    energy_total,
    norm_coeff,
    radial_wavefunction,
    total_wavefunction,
)
from pdmwire.noncanonical import radial_even, radial_odd
from pdmwire.oracle import residual_radial
from pdmwire.specialfn import laguerre


@pytest.mark.parametrize("radial", [radial_wavefunction, radial_even, radial_odd])
def test_radial_rejects_nonfinite_rho(radial):
    p = params_for(a=0.0, gamma=1.0)
    for rho in (math.nan, math.inf, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            radial(p, 0, 0, rho)


class TestEnergyRadial:
    def test_oscillator_ground_state(self):
        assert energy_radial(params_for(a=0.0), 0, 0) == pytest.approx(1.0, rel=1e-15)

    def test_oscillator_excited_state(self):
        # 2n + |m| + 1 at a = 0
        assert energy_radial(params_for(a=0.0), 2, 3) == pytest.approx(8.0, rel=1e-15)

    def test_deformed_wire_value(self):
        # (a+1)(2n+1) + sqrt(m^2 + a^2/4) at a=2, n=1, m=1
        expect = 9.0 + math.sqrt(2.0)
        assert energy_radial(params_for(a=2.0), 1, 1) == pytest.approx(expect, rel=1e-15)

    def test_shallow_wire_ground_state(self):
        assert energy_radial(params_for(a=-0.6), 0, 0) == pytest.approx(0.7, rel=1e-14)

    def test_scales_with_hbar_omega(self):
        p = params_for(a=1.0, m0=2.0, omega=3.0, hbar=0.5)
        ratio = energy_radial(p, 1, 2) / (p.hbar * p.omega)
        assert ratio == pytest.approx(
            2.0 * 3.0 + math.sqrt(4.0 + 0.25), rel=1e-15
        )

    @settings(deadline=None, max_examples=100)
    @given(
        a=st.floats(-0.9, 10.0),
        n=st.integers(0, 10),
        m=st.integers(-6, 6),
    )
    def test_spectrum_linear_in_n(self, a, n, m):
        p = params_for(a=a)
        gap = energy_radial(p, n + 1, m) - energy_radial(p, n, m)
        assert gap == pytest.approx(2.0 * (a + 1.0), rel=1e-12)

    @settings(deadline=None, max_examples=100)
    @given(a=st.floats(-0.9, 10.0), n=st.integers(0, 6), m=st.integers(0, 6))
    def test_m_sign_degeneracy(self, a, n, m):
        p = params_for(a=a)
        assert energy_radial(p, n, m) == energy_radial(p, n, -m)

    def test_limit_to_circular_oscillator(self):
        p = params_for(a=1e-8)
        for n in range(6):
            for m in range(-5, 6):
                expect = 2.0 * n + abs(m) + 1.0
                assert abs(energy_radial(p, n, m) - expect) <= 1e-6


class TestEnergyTotal:
    def test_zero_axial_momentum(self):
        assert energy_total(params_for(), 0, 0, 0.0) == pytest.approx(1.0)

    def test_axial_kinetic_term(self):
        assert energy_total(params_for(), 0, 0, 2.0) == pytest.approx(3.0, rel=1e-15)

    def test_state_energy_decomposition(self):
        p = params_for(a=2.0)
        st_ = canonical_state(p, 1, 1, kappa_z=1.5)
        assert st_.E_radial == pytest.approx(9.0 + math.sqrt(2.0), rel=1e-15)
        assert st_.E_axial == pytest.approx(1.5 ** 2 / 2.0, rel=1e-15)
        assert st_.E_total == pytest.approx(st_.E_radial + st_.E_axial, rel=1e-15)

    def test_dimensionless_eigenvalue(self):
        p = params_for(a=2.0)
        assert dimensionless_eigenvalue(p, 0, 1) == pytest.approx(
            6.0 + math.sqrt(8.0), rel=1e-15
        )


class TestNormCoeff:
    def test_oscillator_ground(self):
        assert norm_coeff(params_for(), 0, 0) == pytest.approx(math.sqrt(2.0), rel=1e-14)

    def test_oscillator_m_two(self):
        # sqrt(2) * sqrt(1/Gamma(3)) = 1
        assert norm_coeff(params_for(), 0, 2) == pytest.approx(1.0, rel=1e-14)

    @settings(deadline=None, max_examples=60)
    @given(a=st.floats(-0.9, 10.0), n=st.integers(0, 8), m=st.integers(-5, 5))
    def test_always_positive(self, a, n, m):
        assert norm_coeff(params_for(a=a), n, m) > 0.0

    @pytest.mark.parametrize(
        "a,n,m",
        [(-0.6, 0, 0), (-0.6, 2, 1), (0.0, 1, 2), (2.0, 0, 0), (2.0, 3, 3)],
    )
    def test_unit_norm_under_radial_measure(self, a, n, m):
        p = params_for(a=a)

        def integrand(rho):
            return radial_wavefunction(p, n, m, rho) ** 2 * rho

        # cut where exp(-t) t^(alpha+2n) is far below double precision
        rho_hi = ((a + 1.0) * 250.0) ** (1.0 / (2.0 * (a + 1.0))) / p.lambda0
        val, err = scipy.integrate.quad(
            integrand, 0.0, rho_hi, limit=800, epsabs=1e-12, epsrel=1e-12
        )
        assert val == pytest.approx(1.0, abs=5e-9)


class TestRadialWavefunction:
    def test_gaussian_ground_state(self):
        p = params_for()
        assert radial_wavefunction(p, 0, 0, 0.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-14
        )
        rho = np.linspace(0.0, 4.0, 41)
        expect = math.sqrt(2.0) * np.exp(-0.5 * rho ** 2)
        assert np.allclose(radial_wavefunction(p, 0, 0, rho), expect, rtol=1e-13)

    def test_origin_zero_for_positive_exponent(self):
        assert radial_wavefunction(params_for(), 0, 1, 0.0) == 0.0

    def test_origin_infinite_for_negative_exponent(self):
        # m=0 with a<0 gives rho_exponent = a + |a|/2 = a/2 < 0
        p = params_for(a=-0.6)
        assert radial_wavefunction(p, 0, 0, 0.0) == math.inf
        st_ = canonical_state(p, 0, 0)
        assert st_.rho_exponent == pytest.approx(-0.3, rel=1e-14)
        assert st_.rho_exponent > -1.0

    def test_deformed_point_value(self):
        p = params_for(a=2.0)
        expect = norm_coeff(p, 0, 0) * math.exp(-1.0 / 6.0)
        assert radial_wavefunction(p, 0, 0, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_node_count_matches_n(self):
        p = params_for(a=0.5)
        rho = np.linspace(1e-3, 8.0, 4000)
        for n in range(4):
            vals = radial_wavefunction(p, n, 1, rho)
            crossings = int(np.sum(np.diff(np.sign(vals)) != 0))
            assert crossings == n

    def test_far_tail_is_zero_not_nan(self):
        # the Laguerre recurrence overflows at t = 1e18; e^{-t/2} underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert radial_wavefunction(params_for(a=0.0), 20, 1, 1e9) == 0.0
            assert radial_wavefunction(params_for(a=0.0), 20, 1, 1e300) == 0.0

    def test_overflowing_recurrence_stays_finite(self):
        # a=50, n=200 on [0, 2]: the plain recurrence overflows on 22 of 50
        # points; there the state has decayed past 1e-200, and elsewhere the
        # values are the unrepaired ones
        p = params_for(a=50.0)
        state = canonical_state(p, 200, 1)
        rho = np.linspace(0.0, 2.0, 50)
        vals = radial_wavefunction(p, 200, 1, rho)
        assert np.all(np.isfinite(vals))
        t = rho ** 102 / 51.0
        with np.errstate(over="ignore", invalid="ignore"):
            overflowed = ~np.isfinite(laguerre(200, state.alpha_L, t))
        assert np.count_nonzero(overflowed) == 22
        assert np.all(np.abs(vals[overflowed]) <= 1e-200)
        kept = np.flatnonzero(~overflowed)
        assert np.array_equal(vals[kept], radial_wavefunction(p, 200, 1, rho[kept]))
        assert np.max(np.abs(vals[kept])) > 1.0

    @pytest.mark.parametrize("n,alpha,t", [(20, 0.5, 10 ** 17), (20, 0.5, 10 ** 18),
                                           (200, 0.5, 3000), (200, 7.5, 10 ** 4),
                                           (200, 7.5, 10 ** 17)])
    def test_log_laguerre_matches_exact_rational_sum(self, n, alpha, t):
        # the plain recurrence overflows at each of these t; α and t are
        # exact binary floats, so the explicit sum can be summed exactly
        binom, total = Fraction(1), Fraction(0)
        for j in range(n + 1):                    # binom = C(n+α, j), k = n − j
            k = n - j
            total += (-1) ** k * binom * Fraction(t) ** k / math.factorial(k)
            binom = binom * (n + Fraction(alpha) - j) / (j + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(laguerre(n, alpha, float(t)))
        sign, log_abs = _log_laguerre(n, alpha, np.array([float(t)]))
        assert sign[0] == (1.0 if total > 0 else -1.0)
        expect = math.log(abs(total.numerator)) - math.log(total.denominator)
        assert log_abs[0] == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("a", [-0.6, 0.0, 2.0])
    def test_satisfies_radial_equation(self, a):
        p = params_for(a=a)
        for n in (0, 2, 3):
            for m in (0, 1, 3):
                report = residual_radial("canonical", p, n, m)
                assert report.max_abs_residual <= 1e-8


class TestAngularAndAxial:
    def test_angular_constant_mode(self):
        val = angular(0, 1.234)
        assert val == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))

    def test_angular_half_turn(self):
        assert angular(1, math.pi) == pytest.approx(
            -1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
        )

    def test_angular_normalized(self):
        phi = np.linspace(0.0, 2.0 * math.pi, 20001)
        for m in (0, 1, 3):
            dens = np.abs(angular(m, phi)) ** 2
            assert np.trapezoid(dens, phi) == pytest.approx(1.0, abs=1e-10)

    def test_axial_values(self):
        assert axial(0.0, 123.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi))
        assert axial(1.0, math.pi) == pytest.approx(
            -1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
        )

    @settings(deadline=None, max_examples=60)
    @given(kz=st.floats(-5.0, 5.0), z=st.floats(-10.0, 10.0))
    def test_axial_unimodular(self, kz, z):
        assert abs(axial(kz, z)) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), rel=1e-12
        )


class TestTotalWavefunctionAndDensity:
    @settings(deadline=None, max_examples=60)
    @given(
        phi=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        z=st.floats(-5.0, 5.0),
    )
    def test_modulus_independent_of_phase_coordinates(self, phi, z):
        p = params_for(a=2.0)
        ref = abs(total_wavefunction(p, 1, 2, 0.7, 1.1, 0.0, 0.0))
        assert abs(total_wavefunction(p, 1, 2, 0.7, 1.1, phi, z)) == pytest.approx(
            ref, rel=1e-12
        )

    def test_ground_state_reduction(self):
        p = params_for()
        rho = np.linspace(0.0, 3.0, 13)
        expect = math.sqrt(2.0) / (2.0 * math.pi) * np.exp(-0.5 * rho ** 2)
        got = total_wavefunction(p, 0, 0, 0.0, rho, 0.0, 0.0)
        assert np.allclose(got, expect, rtol=1e-13)
        assert np.allclose(got.imag, 0.0, atol=1e-15)

    def test_plane_normalization(self):
        p = params_for(a=2.0)

        def integrand(rho):
            # |radial * angular|^2 integrated over phi gives P^2 rho
            return radial_wavefunction(p, 1, 1, rho) ** 2 * rho

        val, _ = scipy.integrate.quad(integrand, 0.0, 8.0, limit=200, epsabs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_density_phi_independent(self):
        p = params_for(a=2.0)
        base = density(p, 0, 1, 0.9, 0.0)
        for phi in (0.3, 1.0, 2.0, 4.5):
            assert density(p, 0, 1, 0.9, phi) == base

    def test_density_is_squared_wavefunction_over_two_pi(self):
        p = params_for(a=-0.6)
        rho = 0.8
        expect = radial_wavefunction(p, 1, 0, rho) ** 2 / (2.0 * math.pi)
        assert density(p, 1, 0, rho) == pytest.approx(expect, rel=1e-14)

    def test_oscillator_ground_peaks_at_origin(self):
        p = params_for()
        rho = np.linspace(0.0, 3.0, 301)
        vals = density(p, 0, 0, rho)
        assert np.argmax(vals) == 0

    def test_deformed_ground_is_ring_shaped(self):
        p = params_for(a=2.0)
        rho = np.linspace(0.0, 3.0, 301)
        vals = density(p, 0, 0, rho)
        peak = int(np.argmax(vals))
        assert vals[0] == 0.0
        assert 0 < peak < 300


class TestStateMetadata:
    def test_alpha_l_and_exponent(self):
        p = params_for(a=2.0)
        st_ = canonical_state(p, 0, 2)
        nu = math.sqrt(4.0 + 1.0)
        assert st_.alpha_L == pytest.approx(nu / 3.0, rel=1e-15)
        assert st_.rho_exponent == pytest.approx(2.0 + nu, rel=1e-15)
        assert st_.alpha_L > -1.0
        assert st_.norm == pytest.approx(norm_coeff(p, 0, 2), rel=1e-15)

    def test_quantum_numbers_carried(self):
        st_ = canonical_state(params_for(), 3, -2, kappa_z=0.25)
        assert (st_.q.n, st_.q.m, st_.q.parity) == (3, -2, "none")
        assert st_.q.kappa_z == 0.25
