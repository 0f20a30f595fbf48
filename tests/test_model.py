"""Tests for the parameter container, mass profile, and confining potential."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmwire.canonical import energy_radial
from pdmwire.fields import build_density_field, radial_trace
from pdmwire.model import (
    A_MAX,
    ModelParams,
    QuantumNumbers,
    branch,
    make_params,
    mass_at,
    potential_at,
)
from pdmwire.noncanonical import density_nc, energy_even, energy_odd, m_eff
from pdmwire.oracle import orthonormality_matrix, residual_radial


class TestMakeParams:
    def test_natural_units(self):
        p = make_params()
        assert (p.m0, p.omega, p.hbar) == (1.0, 1.0, 1.0)
        assert p.a == 0.0 and p.gamma == 0.5
        assert p.lambda0 == 1.0

    def test_lambda0_definition(self):
        p = make_params(m0=0.067, omega=1.0, hbar=1.0, a=2.0, gamma=1.0)
        assert p.lambda0 == pytest.approx(math.sqrt(0.067), rel=1e-15)

    def test_rejects_a_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            make_params(a=-1.0)
        with pytest.raises(ValueError):
            make_params(a=-1.7)

    def test_rejects_a_above_operational_cap(self):
        with pytest.raises(ValueError):
            make_params(a=A_MAX + 1.0)

    def test_rejects_gamma_below_half(self):
        with pytest.raises(ValueError):
            make_params(gamma=0.49)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            make_params(m0=0.0)
        with pytest.raises(ValueError):
            make_params(omega=-1.0)
        with pytest.raises(ValueError):
            make_params(hbar=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"m0": math.inf}, {"omega": math.inf}, {"hbar": math.inf},
        {"gamma": math.inf}, {"m0": math.nan}, {"gamma": math.nan},
        {"a": math.nan}, {"a": math.inf},
        {"m0": 1e300, "omega": 1e300},      # λ0 overflows
        {"m0": 1e-300, "omega": 1e-300},    # λ0 underflows to 0
    ])
    def test_rejects_nonfinite_inputs(self, kwargs):
        with pytest.raises(ValueError):
            make_params(**kwargs)

    def test_params_immutable(self):
        p = make_params()
        with pytest.raises(Exception):
            p.a = 1.0

    @settings(deadline=None, max_examples=80)
    @given(
        m0=st.floats(1e-3, 1e3),
        omega=st.floats(1e-3, 1e3),
        hbar=st.floats(1e-3, 1e3),
    )
    def test_lambda0_consistency(self, m0, omega, hbar):
        p = make_params(m0=m0, omega=omega, hbar=hbar)
        assert p.lambda0 ** 2 * p.hbar == pytest.approx(p.m0 * p.omega, rel=1e-14)


class TestQuantumNumbers:
    def test_canonical_branch_allows_signed_m(self):
        q = QuantumNumbers(n=1, m=-3, parity="none", kappa_z=0.5)
        assert q.m == -3

    def test_noncanonical_branch_requires_nonnegative_m(self):
        with pytest.raises(ValueError):
            QuantumNumbers(n=0, m=-1, parity="odd", kappa_z=0.0)

    def test_rejects_negative_n_and_bad_parity(self):
        with pytest.raises(ValueError):
            QuantumNumbers(n=-1, m=0, parity="none", kappa_z=0.0)
        with pytest.raises(ValueError):
            QuantumNumbers(n=0, m=0, parity="sideways", kappa_z=0.0)


class TestBranch:
    """The Branch record against the paper's three formulas, written out."""

    A_GRID = (-0.99, -0.6, 0.0, 0.37, 2.0, 13.5, 50.0)
    GAMMA_GRID = (0.5, 0.75, 1.0, 1.5, 3.2)

    def states(self, m_values):
        for a in self.A_GRID:
            for g in self.GAMMA_GRID:
                p = make_params(omega=2.0, hbar=0.75, a=a, gamma=g)
                for m in m_values:
                    for n in (0, 3):
                        yield p, a, g, n, m

    def test_canonical_formulas(self):
        br = branch("none")
        for p, a, g, n, m in self.states(range(-3, 5)):
            nu_sq = m * m + 0.25 * a * a
            assert br.m_index(g, m) == m
            assert br.radicand(p, m) == nu_sq
            assert energy_radial(p, n, m) == \
                p.hbar * p.omega * ((a + 1) * (2 * n + 1) + math.sqrt(nu_sq))

    def test_even_formulas(self):
        br = branch("even")
        for p, a, g, n, m in self.states(range(5)):
            me = 2 * (g + m) - 1
            nu_sq = me * me + 0.25 * a * a - (2 * g - 1) * a
            assert br.m_index(g, m) == me == m_eff("even", g, m)
            assert br.radicand(p, m) == nu_sq
            assert energy_even(p, n, m) == \
                p.hbar * p.omega * ((a + 1) * (2 * n + 1) + math.sqrt(nu_sq))

    def test_odd_formulas(self):
        br = branch("odd")
        for p, a, g, n, m in self.states(range(5)):
            me = 2 * (g + m) + 1
            nu_sq = me * me + 0.25 * a * a + (2 * g - 1) * a
            assert br.m_index(g, m) == me == m_eff("odd", g, m)
            assert br.radicand(p, m) == nu_sq
            assert energy_odd(p, n, m) == \
                p.hbar * p.omega * ((a + 1) * (2 * n + 1) + math.sqrt(nu_sq))

    def test_labels_and_m_ranges(self):
        assert [(b.parity, b.sign, b.family) for b in map(branch, ("none", "even", "odd"))] \
            == [("none", 0, "canonical"), ("even", -1, "noncanonical"),
                ("odd", 1, "noncanonical")]
        assert list(branch("none").m_range(2)) == [-2, -1, 0, 1, 2]
        assert list(branch("odd").m_range(2)) == [0, 1, 2]

    def test_rules(self):
        with pytest.raises(ValueError):
            branch("odd").check_m(-1)
        with pytest.raises(ValueError):
            branch("even").m_index(1.0, 0.5)
        branch("none").check_m(-1)
        with pytest.raises(ValueError):
            branch("even").check_wavefunction(0.5)
        branch("odd").check_wavefunction(0.5)
        with pytest.raises(ValueError):
            branch("sideways")
        with pytest.raises(ValueError):
            branch("none", "noncanonical")

    @pytest.mark.parametrize("call, names", [
        (lambda par: radial_trace(make_params(), 0, 0, parity=par), ("sideways",)),
        (lambda par: build_density_field(make_params(gamma=1.0), 0, 0, parity=par,
                                         ngrid=11), ("sideways",)),
        (lambda par: density_nc(make_params(gamma=1.0), 0, 0, par, 1.0, 0.3),
         ("sideways", "none")),
        (lambda par: orthonormality_matrix(par, make_params(), [(0, 0)]),
         ("sideways", "none")),
        (lambda par: residual_radial(par, make_params(), 0, 0), ("sideways", "none")),
    ], ids=["radial_trace", "build_density_field", "density_nc",
            "orthonormality_matrix", "residual_radial"])
    def test_unknown_parity_raises(self, call, names):
        for name in names:
            with pytest.raises(ValueError):
                call(name)


class TestMassAt:
    def test_constant_for_a_zero(self):
        p = make_params(m0=2.5)
        for rho in (0.0, 0.3, 1.0, 7.0):
            assert mass_at(p, rho) == 2.5

    def test_quadratic_profile(self):
        p = make_params(a=1.0)
        assert mass_at(p, 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_quartic_profile(self):
        p = make_params(a=2.0)
        assert mass_at(p, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_origin_sentinel_for_negative_a(self):
        p = make_params(a=-0.5)
        assert mass_at(p, 0.0) == math.inf

    def test_origin_zero_for_positive_a(self):
        p = make_params(a=2.0)
        assert mass_at(p, 0.0) == 0.0

    def test_rejects_negative_radius(self):
        p = make_params()
        with pytest.raises(ValueError):
            mass_at(p, -1.0)

    @settings(deadline=None, max_examples=80)
    @given(a=st.floats(-0.9, 10.0), rho=st.floats(1e-6, 50.0))
    def test_positive_off_origin(self, a, rho):
        p = make_params(a=a)
        assert mass_at(p, rho) > 0.0


class TestPotentialAt:
    def test_parabola_for_a_zero(self):
        p = make_params()
        assert potential_at(p, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_sextic_for_a_two(self):
        p = make_params(a=2.0)
        assert potential_at(p, 1.2) == pytest.approx(0.5 * 1.2 ** 6, rel=1e-14)

    def test_subquadratic_monotone_for_negative_a(self):
        p = make_params(a=-0.6)
        rho = np.linspace(1e-3, 3.0, 200)
        vals = np.array([potential_at(p, r) for r in rho])
        assert np.all(np.diff(vals) > 0)
        # concave cone-like profile: second differences negative
        assert np.all(np.diff(vals, 2) < 0)

    def test_zero_at_origin_even_for_negative_a(self):
        assert potential_at(make_params(a=-0.6), 0.0) == 0.0
        assert potential_at(make_params(a=2.0), 0.0) == 0.0

    def test_steepening_with_large_a(self):
        shallow = make_params(a=2.0)
        steep = make_params(a=10.0)
        assert potential_at(steep, 0.5) < potential_at(shallow, 0.5)
        assert potential_at(steep, 1.5) > potential_at(shallow, 1.5)

    def test_continuous_in_a_at_zero(self):
        base = make_params()
        for rho in (0.2, 1.0, 3.0):
            ref = potential_at(base, rho)
            for eps in (1e-12, -1e-13):
                got = potential_at(make_params(a=eps), rho)
                assert got == pytest.approx(ref, rel=1e-10)
            ref_m = mass_at(base, rho)
            assert mass_at(make_params(a=1e-12), rho) == pytest.approx(ref_m, rel=1e-10)

    def test_matches_mass_times_omega_sq_rho_sq_over_two(self):
        p = make_params(m0=0.4, omega=2.0, hbar=1.5, a=1.3)
        for rho in (0.3, 1.0, 2.2):
            expect = 0.5 * mass_at(p, rho) * p.omega ** 2 * rho ** 2
            assert potential_at(p, rho) == pytest.approx(expect, rel=1e-13)
