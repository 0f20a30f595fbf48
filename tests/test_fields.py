"""Tests for density rasters and 1-D traces."""

import math

import numpy as np
import pytest

from conftest import params_for, ring_relative_spread
from pdmwire.canonical import density, radial_wavefunction
from pdmwire.fields import (
    DensityField,
    angular_trace,
    build_density_field,
    potential_trace,
    radial_trace,
    riemann_mass,
)
from pdmwire.model import potential_at
from pdmwire.noncanonical import SINGULAR_ANGLES, angular_even, angular_odd


class TestBuildDensityField:
    def test_field_structure_and_metadata(self):
        p = params_for(a=0.0)
        fld = build_density_field(p, 0, 0, ngrid=41)
        assert isinstance(fld, DensityField)
        assert fld.nx == fld.ny == 41
        assert fld.values.shape == (41, 41)
        assert np.all(np.isfinite(fld.values))
        assert np.all(fld.values >= 0.0)
        md = fld.metadata
        assert md["a"] == 0.0 and md["gamma"] == 0.5
        assert md["n"] == 0 and md["m"] == 0 and md["parity"] == "none"
        assert md["units"] == "natural"
        assert md["ngrid"] == 41
        assert md["half_width"] > 0.0
        assert fld.x_range == (-md["half_width"], md["half_width"])

    def test_window_contains_required_mass(self):
        for a, n, m in ((-0.6, 1, 1), (0.0, 1, 0), (2.0, 0, 1)):
            fld = build_density_field(params_for(a=a), n, m, ngrid=201)
            assert abs(riemann_mass(fld) - 1.0) <= 1e-3

    def test_explicit_half_width_respected(self):
        p = params_for(a=0.0)
        fld = build_density_field(p, 0, 0, ngrid=21, half_width=3.5)
        assert fld.metadata["half_width"] == 3.5
        assert fld.metadata["window_rule"] == "explicit"
        assert fld.x_range == (-3.5, 3.5)

    def test_canonical_rings_share_exact_values(self):
        fld = build_density_field(params_for(a=2.0), 1, 1, ngrid=61)
        assert ring_relative_spread(fld) == 0.0

    def test_center_value_matches_pointwise_density(self):
        # analytic-at-origin case: the lattice center carries the pointwise
        # density value, not a disc average
        p = params_for(a=0.0)
        fld = build_density_field(p, 0, 0, ngrid=41)
        center = fld.values[20, 20]
        assert center == pytest.approx(density(p, 0, 0, 0.0), rel=1e-13)
        assert fld.metadata["origin_regularization"] == "none"

    def test_weak_singularity_gets_disc_average(self):
        p = params_for(a=-0.6)
        fld = build_density_field(p, 0, 0, ngrid=41)
        assert fld.metadata["origin_regularization"] == "disc_average"
        assert fld.metadata["origin_cut_cells"] > 0
        # the raw pointwise density diverges at the origin; the raster value
        # must be the finite equal-area disc average instead
        assert np.isfinite(fld.values[20, 20])
        assert fld.values[20, 20] > 0.0

    def test_smooth_positive_exponent_not_averaged(self):
        fld = build_density_field(params_for(a=2.0), 0, 0, ngrid=41)
        assert fld.metadata["origin_regularization"] == "none"
        assert fld.values[20, 20] == 0.0

    def test_noncanonical_axes_exactly_zero(self):
        p = params_for(a=2.0, gamma=1.0)
        for parity in ("even", "odd"):
            fld = build_density_field(p, 0, 0, parity=parity, ngrid=41)
            c = 20
            assert np.all(fld.values[c, :] == 0.0)
            assert np.all(fld.values[:, c] == 0.0)

    def test_noncanonical_mass(self):
        p = params_for(a=2.0, gamma=1.5)
        fld = build_density_field(p, 0, 0, parity="odd", ngrid=201)
        assert abs(riemann_mass(fld) - 1.0) <= 1e-3

    def test_noncanonical_metadata_extras(self):
        p = params_for(a=2.0, gamma=1.0)
        fld = build_density_field(p, 0, 0, parity="even", ngrid=31)
        assert fld.metadata["m_eff"] == 1.0
        assert fld.metadata["degenerate_contact"] is True

    def test_rejects_even_at_gamma_half(self):
        p = params_for(a=1.0, gamma=0.5)
        with pytest.raises(ValueError):
            build_density_field(p, 0, 0, parity="even", ngrid=21)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            build_density_field(params_for(), 0, 0, ngrid=1)

    def test_custom_units_echoed(self):
        p = params_for(a=0.0, m0=0.067)
        fld = build_density_field(p, 0, 0, ngrid=21)
        assert fld.metadata["units"] == "custom"
        assert fld.metadata["m0"] == 0.067


class TestPotentialTrace:
    def test_parabola(self):
        rho, vals = potential_trace(params_for(a=0.0), rho_max=4.0, npoints=11)
        assert rho[0] == 0.0 and rho[-1] == 4.0
        assert np.allclose(vals, 0.5 * rho ** 2, rtol=1e-14)

    def test_matches_pointwise_model(self):
        p = params_for(a=-0.6)
        rho, vals = potential_trace(p, rho_max=3.0, npoints=7)
        for r, v in zip(rho[1:], vals[1:]):
            assert v == pytest.approx(potential_at(p, float(r)), rel=1e-14)


class TestRadialTrace:
    def test_matches_wavefunction(self):
        p = params_for(a=2.0)
        rho, vals = radial_trace(p, 1, 1, npoints=51)
        assert rho.size == vals.size == 51
        expect = radial_wavefunction(p, 1, 1, rho)
        assert np.array_equal(vals, expect)

    def test_window_covers_state(self):
        p = params_for(a=0.0)
        rho, vals = radial_trace(p, 2, 1, npoints=401)
        # trace window reaches into the exponential tail (the window is a
        # quantile of the probability mass P^2 rho, so the amplitude at the
        # edge is small but not negligible)
        assert abs(vals[-1]) < 1e-2 * np.max(np.abs(vals))

    def test_noncanonical_branch(self):
        p = params_for(a=2.0, gamma=1.5)
        rho, vals = radial_trace(p, 0, 1, parity="odd", npoints=31)
        assert np.all(np.isfinite(vals))


class TestAngularTrace:
    def test_canonical_is_complex_phase(self):
        phi, vals = angular_trace(params_for(), 2, npoints=16)
        assert vals.dtype.kind == "c"
        assert np.allclose(np.abs(vals), 1.0 / math.sqrt(2.0 * math.pi), rtol=1e-13)

    def test_noncanonical_matches_closed_form(self):
        p = params_for(gamma=1.0)
        phi, vals = angular_trace(p, 1, parity="odd", npoints=32)
        expect = angular_odd(p, 1, phi)
        assert np.array_equal(vals, expect)

    def test_cell_centered_grid_avoids_axes(self):
        p = params_for(gamma=1.0)
        phi, vals = angular_trace(p, 0, parity="even", npoints=720)
        assert np.all(np.isfinite(vals))
        for bad in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            assert np.min(np.abs(phi - bad)) > 1e-8

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_off_axis_grid_equals_strict_evaluator(self, parity):
        p = params_for(a=-0.6, gamma=1.5)
        phi, vals = angular_trace(p, 2, parity=parity, npoints=720)
        strict = angular_even if parity == "even" else angular_odd
        assert np.array_equal(vals, strict(p, 2, phi))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("npoints, n_axis", [(201, 1), (202, 2), (203, 1)])
    def test_on_axis_cells_carry_the_limit_zero(self, parity, npoints, n_axis):
        p = params_for(a=-0.6, gamma=1.5)
        phi, vals = angular_trace(p, 1, parity=parity, npoints=npoints)
        on_axis = np.isin(phi, SINGULAR_ANGLES)
        assert np.count_nonzero(on_axis) == n_axis
        assert np.array_equal(vals == 0.0, on_axis)
