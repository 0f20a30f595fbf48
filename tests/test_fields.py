"""Tests for density rasters and 1-D traces."""

import math

import numpy as np
import pytest

from conftest import params_for, ring_relative_spread
from pdmwire import noncanonical as nc
from pdmwire.canonical import density, radial_eval, radial_profile, radial_wavefunction
from pdmwire.fields import (
    ORIGIN_CUT_CELLS,
    TWO_PI,
    DensityField,
    _analytic_at_origin,
    _disc_averages,
    angular_trace,
    build_density_field,
    potential_trace,
    radial_trace,
    riemann_mass,
)
from pdmwire.model import branch, potential_at
from pdmwire.noncanonical import SINGULAR_ANGLES, angular_even, angular_odd


def reference_density_field(p, n, m, parity, ngrid, half_width):
    """Raster values evaluated on every cell of the full grid, with no mirroring."""
    br = branch(parity)
    _, s, alpha_l, log_norm = radial_profile(p, n, br.radicand(p, m))
    h = 2.0 * half_width / (ngrid - 1)
    dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
    dx, dy = np.meshgrid(dd, dd)
    ksq = dx * dx + dy * dy
    rho = 0.5 * h * np.sqrt(ksq.astype(float))

    def radial_sq(r):
        return np.square(radial_eval(p, n, s, alpha_l, log_norm, r))

    needs_avg = (2.0 * s + 2.0 < 4.0) and not _analytic_at_origin(p.a, s)
    rc = h / math.sqrt(math.pi)
    cut_ksq = 4 * ORIGIN_CUT_CELLS * ORIGIN_CUT_CELLS
    if br.sign == 0:
        ku, inverse = np.unique(ksq, return_inverse=True)
        rho_u = 0.5 * h * np.sqrt(ku.astype(float))
        with np.errstate(invalid="ignore"):
            vals_u = radial_sq(rho_u) / TWO_PI
        if needs_avg:
            sel = ku < cut_ksq
            vals_u[sel] = _disc_averages(lambda x, y: radial_sq(np.hypot(x, y)) / TWO_PI,
                                         radial_sq, s, rc, rho_u[sel], np.zeros(sel.sum()))
        return vals_u[inverse].reshape(ngrid, ngrid)
    phi = np.arctan2(dy.astype(float), dx.astype(float)) % TWO_PI
    ang = nc._angular(p, parity, m, phi, strict=False)
    with np.errstate(invalid="ignore"):
        values = radial_sq(rho) * np.square(ang)
    if needs_avg:
        mask = ksq < cut_ksq

        def dens2d(x, y):
            ph = np.arctan2(y, x) % TWO_PI
            return radial_sq(np.hypot(x, y)) * np.square(nc._angular(p, parity, m, ph,
                                                                     strict=False))

        values[mask] = _disc_averages(dens2d, radial_sq, s, rc, (0.5 * h) * dx[mask],
                                      (0.5 * h) * dy[mask])
    return values


#: (parity, a, gamma, n, m, half_width): every branch, origin disc averaging in
#: the canonical and the non-canonical branch, and an explicit window
OCTANT_STATES = [
    ("none", 2.0, 0.5, 1, 1, None),
    ("none", -0.6, 0.5, 0, 0, None),
    ("none", 1.0, 0.5, 2, -1, 3.5),
    ("even", 2.0, 1.5, 1, 1, None),
    ("even", 0.34, 0.83, 6, 0, None),
    ("odd", 0.5, 1.0, 0, 2, None),
    ("odd", 1.0, 1.0, 1, 1, 2.5),
]


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


class TestOctantRaster:
    @pytest.fixture(scope="class", params=OCTANT_STATES, ids=lambda st: "-".join(map(str, st)))
    def state(self, request):
        return request.param

    @pytest.fixture(scope="class", params=[2, 3, 50, 51, 201])
    def rasters(self, request, state):
        """(field, full-grid reference values), built once per state and ngrid."""
        parity, a, gamma, n, m, half_width = state
        ngrid = request.param
        p = params_for(a=a, gamma=gamma)
        fld = build_density_field(p, n, m, parity=parity, ngrid=ngrid, half_width=half_width)
        ref = reference_density_field(p, n, m, parity, ngrid, fld.metadata["half_width"])
        return fld, ref

    def test_matches_full_grid_evaluation(self, rasters):
        fld, ref = rasters
        values, ngrid = fld.values, fld.nx
        if fld.metadata["parity"] == "none":
            assert values.tobytes() == ref.tobytes()
            return
        dd = 2 * np.arange(ngrid) - (ngrid - 1)
        dx, dy = np.meshgrid(dd, dd)
        octant = (dy >= 0) & (dx >= dy)
        assert values[octant].tobytes() == ref[octant].tobytes()
        # every other cell carries the value of its octant image
        to_index = lambda d: (d + ngrid - 1) // 2
        lo, hi = np.minimum(abs(dx), abs(dy)), np.maximum(abs(dx), abs(dy))
        assert np.array_equal(values, values[to_index(lo), to_index(hi)])
        assert np.max(np.abs(values - ref)) <= 1e-13 * np.max(ref)

    def test_exact_d4_symmetry(self, rasters):
        fld = rasters[0]
        values = fld.values
        for image in (np.flipud(values), np.fliplr(values), values.T):
            assert image.tobytes() == values.tobytes()
        if (fld.metadata["parity"] != "none" and fld.nx % 2 == 1
                and fld.metadata["origin_regularization"] == "none"):
            # the lattice axes are confinement angles: exact zeros
            c = fld.nx // 2
            assert np.all(values[c, :] == 0.0) and np.all(values[:, c] == 0.0)


class TestDegenerateInputs:
    @pytest.mark.parametrize("half_width", [0.0, -1.0, math.nan, math.inf])
    def test_half_width_must_be_finite_and_positive(self, half_width):
        with pytest.raises(ValueError, match="half_width"):
            build_density_field(params_for(), 0, 0, ngrid=11, half_width=half_width)

    @pytest.mark.parametrize("mass_tail", [math.nan, 0.0, 1.0, 1.5, -0.1])
    def test_mass_tail_must_lie_in_the_unit_interval(self, mass_tail):
        with pytest.raises(ValueError, match="mass_tail"):
            build_density_field(params_for(), 0, 0, ngrid=11, mass_tail=mass_tail)

    @pytest.mark.parametrize("npoints", [-3, 0, 1])
    def test_radial_trace_needs_two_points(self, npoints):
        with pytest.raises(ValueError, match="npoints"):
            radial_trace(params_for(), 0, 0, npoints=npoints)

    @pytest.mark.parametrize("npoints", [-3, 0])
    def test_angular_trace_needs_one_point(self, npoints):
        with pytest.raises(ValueError, match="npoints"):
            angular_trace(params_for(gamma=1.0), 0, parity="even", npoints=npoints)


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
