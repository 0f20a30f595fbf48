"""Tests for the independent numerical verification machinery."""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import params_for
from pdmwire import oracle, verification
from pdmwire.canonical import dimensionless_eigenvalue
from pdmwire.noncanonical import dimensionless_eigenvalue_nc
from pdmwire.oracle import (
    BISECTION_TOL,
    MIN_GRID_POINTS,
    GridSpec,
    ResidualReport,
    TridiagonalOperator,
    build_radial_operator,
    limit_sweep_a_to_zero,
    lowest_eigenvalues,
    lowest_eigenvalues_many,
    orthonormality_matrix,
    residual_angular,
    residual_radial,
)


class TestBuildRadialOperator:
    def test_operator_shape_and_invariants(self):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 0.0, 0, npoints=500)
        assert isinstance(op, TridiagonalOperator)
        diag = np.asarray(op.diag)
        off = np.asarray(op.offdiag)
        weight = np.asarray(op.weight)
        assert diag.size == 500 and off.size == 499 and weight.size == 500
        assert np.all(np.isfinite(diag)) and np.all(np.isfinite(off))
        assert np.all(weight > 0)
        assert op.grid.npoints == 500
        assert 0.0 < op.grid.rho_min < op.grid.rho_max

    def test_symmetric_by_construction(self):
        # a single offdiagonal array represents both triangles, so the
        # weight-scaled operator equals its transpose bit for bit
        p = params_for(a=2.0)
        op = build_radial_operator(p, 1.0, 0, npoints=300)
        full = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
        assert np.array_equal(full, full.T)

    def test_rejects_small_grids(self):
        p = params_for()
        with pytest.raises(ValueError):
            build_radial_operator(p, 0.0, 0, npoints=MIN_GRID_POINTS - 1)

    def test_rejects_bad_parity_sign(self):
        p = params_for(gamma=1.0)
        with pytest.raises(ValueError):
            build_radial_operator(p, 1.0, 2)

    def test_rejects_negative_m_sq_term(self):
        p = params_for()
        with pytest.raises(ValueError):
            build_radial_operator(p, -1.0, 0)

    def test_oscillator_ground_state(self):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 0.0, 0, npoints=4000)
        val = lowest_eigenvalues(op, 1)[0]
        assert abs(val - 2.0) <= 1e-4


class TestLowestEigenvalues:
    def test_oscillator_ladder(self):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 0.0, 0, npoints=4000)
        vals = lowest_eigenvalues(op, 3)
        for got, expect in zip(vals, (2.0, 6.0, 10.0)):
            assert abs(got - expect) <= 1e-3

    def test_deformed_wire_ground(self):
        p = params_for(a=2.0)
        op = build_radial_operator(p, 1.0, 0, npoints=4000)
        val = lowest_eigenvalues(op, 1)[0]
        assert abs(val - (6.0 + math.sqrt(8.0))) <= 1e-3

    def test_deformed_odd_branch_ground(self):
        # gamma=1, a=2, m=0: m_eff=3, radicand 9+1+2=12, so the dimensionless
        # ground value is 2(a+1) + 2 sqrt(12)
        p = params_for(a=2.0, gamma=1.0)
        expect = dimensionless_eigenvalue_nc(p, "odd", 0, 0)
        assert expect == pytest.approx(6.0 + 2.0 * math.sqrt(12.0), rel=1e-15)
        op = build_radial_operator(p, 9.0, +1, npoints=4000)
        val = lowest_eigenvalues(op, 1)[0]
        assert abs(val - expect) <= 1e-3

    def test_matches_dense_solver(self):
        p = params_for(a=-0.6)
        op = build_radial_operator(p, 4.0, 0, npoints=800)
        vals = lowest_eigenvalues(op, 5)
        ref = scipy.linalg.eigh_tridiagonal(
            np.asarray(op.diag), np.asarray(op.offdiag),
            select="i", select_range=(0, 4),
        )[0]
        assert np.allclose(vals, ref, atol=5e-10)

    def test_matches_dense_solver_below_zero(self):
        # shifting the diagonal by -50 puts eigenvalues below 0, so the
        # solver must give up 0 as its lower bracket and start from the
        # Gershgorin bound
        p = params_for(a=-0.6)
        op = build_radial_operator(p, 4.0, 0, npoints=800)
        shifted = TridiagonalOperator(diag=op.diag - 50.0, offdiag=op.offdiag,
                                      grid=op.grid, weight=op.weight)
        vals = lowest_eigenvalues(shifted, 5)
        assert vals[0] < 0.0
        ref = scipy.linalg.eigh_tridiagonal(
            np.asarray(shifted.diag), np.asarray(shifted.offdiag),
            select="i", select_range=(0, 4),
        )[0]
        assert np.allclose(vals, ref, atol=5e-10)

    @pytest.mark.parametrize("a,m_sq,shift", [(-0.6, 4.0, 0.0), (2.0, 1.0, 0.0),
                                              (0.0, 0.0, -50.0)])
    def test_bitwise_equal_to_plain_bisection(self, a, m_sq, shift):
        # one midpoint per Sturm count from the Gershgorin bracket: the
        # multisection sweeps must land on exactly the same brackets
        op = build_radial_operator(params_for(a=a), m_sq, 0, npoints=300)
        diag = op.diag + shift
        off_sq = op.offdiag ** 2
        radius = (np.abs(np.hstack([[0.0], op.offdiag]))
                  + np.abs(np.hstack([op.offdiag, [0.0]])))
        lo = np.full(4, np.min(diag - radius))
        hi = np.full(4, np.max(diag + radius))
        while np.max(hi - lo) >= BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            below = oracle._sturm_count(diag, off_sq, mid) > np.arange(4)
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        shifted = TridiagonalOperator(diag=diag, offdiag=op.offdiag,
                                      grid=op.grid, weight=op.weight)
        assert lowest_eigenvalues(shifted, 4) == list(0.5 * (lo + hi))

    def test_sweep_cap_raises(self, monkeypatch):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 0.0, 0, npoints=300)
        monkeypatch.setattr(oracle, "BISECTION_LEVELS", 1)
        with pytest.raises(RuntimeError, match="did not reach"):
            lowest_eigenvalues(op, 2)

    @pytest.mark.parametrize("field", ["diag", "offdiag"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_operator(self, field, bad):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 0.0, 0, npoints=300)
        entries = {"diag": op.diag.copy(), "offdiag": op.offdiag.copy()}
        entries[field][17] = bad
        broken = TridiagonalOperator(grid=op.grid, weight=op.weight, **entries)
        with pytest.raises(ValueError):
            lowest_eigenvalues(broken, 1)

    @pytest.mark.parametrize("diag,offdiag,k", [
        ([2.0, 3.0, 4.0], [1.0, 1.0], 4),       # more eigenvalues than rows
        ([2.0, 3.0, 4.0], [1.0], 1),            # offdiag not one shorter
        ([[2.0, 3.0]], [], 1),                  # diag not 1-D
    ])
    def test_rejects_malformed_operator(self, diag, offdiag, k):
        grid = GridSpec(rho_min=0.1, rho_max=1.0, npoints=3)
        broken = TridiagonalOperator(diag=np.array(diag), offdiag=np.array(offdiag),
                                     grid=grid, weight=np.ones(3))
        with pytest.raises(ValueError):
            lowest_eigenvalues(broken, k)

    def test_ascending_order_and_tolerance(self):
        p = params_for(a=0.0)
        op = build_radial_operator(p, 1.0, 0, npoints=600)
        vals = lowest_eigenvalues(op, 6)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert BISECTION_TOL <= 1e-10

    def test_rejects_bad_k(self):
        p = params_for()
        op = build_radial_operator(p, 0.0, 0, npoints=300)
        with pytest.raises(ValueError):
            lowest_eigenvalues(op, 0)
        with pytest.raises(ValueError):
            lowest_eigenvalues(op, 21)

    def test_second_order_grid_convergence(self):
        p = params_for(a=2.0)
        expect = dimensionless_eigenvalue(p, 0, 1)
        errs = []
        for npoints in (500, 1000, 2000):
            op = build_radial_operator(p, 1.0, 0, npoints=npoints)
            errs.append(abs(lowest_eigenvalues(op, 1)[0] - expect))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.8
        assert order2 >= 1.8


def _scaled(op, diag_scale=1.0, shift=0.0, off_scale=1.0):
    return TridiagonalOperator(diag=op.diag * diag_scale + shift,
                               offdiag=op.offdiag * off_scale,
                               grid=op.grid, weight=op.weight)


def _verify_batches(fast, names=("canonical", "even", "odd")):
    families = [f for f in verification._eigensolver_families(fast) if f[0] in names]
    return verification._eigensolver_batches(families)


class TestLowestEigenvaluesMany:
    # every batched result must be bit for bit the one-operator solve

    def test_fast_verify_operators(self):
        (k, ops), = _verify_batches(fast=True).items()
        assert len(ops) == 6
        assert lowest_eigenvalues_many(ops, k) == [lowest_eigenvalues(op, k) for op in ops]

    def test_full_verify_canonical_operators(self):
        (k, ops), = _verify_batches(fast=False, names=("canonical",)).items()
        assert (k, len(ops)) == (4, 12)
        assert lowest_eigenvalues_many(ops, k) == [lowest_eigenvalues(op, k) for op in ops]

    def test_ladders_of_different_length(self):
        ops = [_scaled(build_radial_operator(params_for(a=a), m_sq, 0, npoints=300),
                       shift=shift)
               for a, m_sq, shift in [(-0.6, 4.0, 0.0), (2.0, 1.0, 0.0), (0.0, 0.0, -50.0)]]
        rungs = {oracle._ladder(oracle._checked_operator(op, 4)[3]).size for op in ops}
        assert len(rungs) == 3
        assert lowest_eigenvalues_many(ops, 4) == [lowest_eigenvalues(op, 4) for op in ops]

    def test_operator_that_converges_first_drops_out(self, monkeypatch):
        # eigenvalues ~1e-5 need fewer bisection levels than eigenvalues ~10
        op = build_radial_operator(params_for(a=2.0), 1.0, 0, npoints=300)
        ops = [op, _scaled(op, diag_scale=1e-6, off_scale=1e-6)]
        expect = [lowest_eigenvalues(o, 4) for o in ops]
        batch_sizes = []
        count = oracle._sturm_count

        def recording(diag, off_sq, shifts):
            batch_sizes.append(diag.shape[0])
            return count(diag, off_sq, shifts)

        monkeypatch.setattr(oracle, "_sturm_count", recording)
        assert lowest_eigenvalues_many(ops, 4) == expect
        assert batch_sizes[0] == 2 and batch_sizes[-1] == 1
        assert batch_sizes == sorted(batch_sizes, reverse=True)

    def test_stacked_sturm_count_equals_rows(self):
        ops = [build_radial_operator(params_for(a=a), 1.0, 0, npoints=300)
               for a in (-0.6, 0.0, 2.0)]
        diag = np.stack([op.diag for op in ops])
        off_sq = np.stack([op.offdiag ** 2 for op in ops])
        shifts = np.stack([np.linspace(-1.0, 40.0, 17) * (b + 1) for b in range(3)])
        stacked = oracle._sturm_count(diag, off_sq, shifts)
        assert stacked.shape == (3, 17)
        for b in range(3):
            assert np.array_equal(stacked[b], oracle._sturm_count(diag[b], off_sq[b], shifts[b]))

    def test_empty_batch(self):
        assert lowest_eigenvalues_many([], 3) == []

    def test_rejects_mixed_sizes(self):
        ops = [build_radial_operator(params_for(), 0.0, 0, npoints=n) for n in (300, 301)]
        with pytest.raises(ValueError, match="same size"):
            lowest_eigenvalues_many(ops, 1)

    @pytest.mark.parametrize("k", [0, 21])
    def test_rejects_bad_k(self, k):
        op = build_radial_operator(params_for(), 0.0, 0, npoints=300)
        with pytest.raises(ValueError):
            lowest_eigenvalues_many([op, op], k)

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_nan_in_any_operator(self, position):
        op = build_radial_operator(params_for(), 0.0, 0, npoints=300)
        ops = [op, op, op]
        diag = op.diag.copy()
        diag[17] = math.nan
        ops[position] = TridiagonalOperator(diag=diag, offdiag=op.offdiag,
                                            grid=op.grid, weight=op.weight)
        with pytest.raises(ValueError):
            lowest_eigenvalues_many(ops, 1)

    def test_sweep_cap_raises(self, monkeypatch):
        op = build_radial_operator(params_for(a=0.0), 0.0, 0, npoints=300)
        monkeypatch.setattr(oracle, "BISECTION_LEVELS", 1)
        with pytest.raises(RuntimeError, match="did not reach"):
            lowest_eigenvalues_many([op, _scaled(op, shift=-50.0)], 2)


def reference_sturm_count(diag, off_sq, shifts):
    """The guarded Sturm recurrence, one numpy expression per cell.

    A pivot below 1e-300 in magnitude is stored as −1e-300, so it counts as
    negative (LAPACK dstebz's convention) and divides as −1e-300.
    """
    tiny = 1e-300
    d = diag[..., 0, None] - shifts
    d = np.where(np.abs(d) < tiny, -tiny, d)
    count = (d < 0.0).astype(int)
    with np.errstate(over="ignore"):
        for i in range(1, diag.shape[-1]):
            d = diag[..., i, None] - shifts - off_sq[..., i - 1, None] / d
            d = np.where(np.abs(d) < tiny, -tiny, d)
            count += d < 0.0
    return count


def _zero_pivots(diag, off_sq, cells):
    """diag changed so the pivots at `cells` are exactly 0 at shift 0.

    Also returns the count at shift 0 with each zero pivot counted as
    non-negative; the guarded count must exceed it by one per zero.
    """
    diag = diag.copy()
    guarded = None
    negatives = 0
    for i in range(diag.size):
        if i in cells:
            diag[i] = 0.0 if i == 0 else off_sq[i - 1] / guarded
        d = diag[0] if i == 0 else diag[i] - off_sq[i - 1] / guarded
        assert (d == 0.0) == (i in cells)
        guarded = -1e-300 if abs(d) < 1e-300 else d
        negatives += d < 0.0
    return diag, negatives


def _sturm_case(rng, batch, n):
    diag = rng.uniform(1.0, 3.0, (batch, n))
    off_sq = rng.uniform(0.25, 1.0, (batch, n - 1))
    shifts = np.sort(rng.uniform(-0.5, 4.0, (batch, 5)), axis=1)
    shifts[:, 1] = 0.0
    return diag, off_sq, shifts


class TestSturmCount:
    # the blocked kernel must count exactly as the guarded per-cell loop

    def test_radial_operators_stacked(self):
        ops = [build_radial_operator(params_for(a=a, gamma=g), m_sq, sign, npoints=1000)
               for a, g, m_sq, sign in [(-0.6, 0.5, 4.0, 0), (0.0, 0.5, 0.0, 0),
                                        (2.0, 1.3, 9.0, -1), (1.1, 1.7, 1.0, 1)]]
        diag = np.stack([op.diag for op in ops])
        off_sq = np.stack([op.offdiag ** 2 for op in ops])
        rng = np.random.default_rng(12)
        for width in (1, 15, 63, 700):
            shifts = np.sort(rng.uniform(-5.0, 200.0, (len(ops), width)), axis=1)
            expect = reference_sturm_count(diag, off_sq, shifts)
            assert np.array_equal(oracle._sturm_count(diag, off_sq, shifts), expect)
            assert np.array_equal(oracle._sturm_count(diag[2], off_sq[2], shifts[2]), expect[2])

    @pytest.mark.parametrize("block_rows,n", [(7, 50), (7, 8), (1, 20), (49, 50), (64, 50)])
    def test_sizes_not_a_multiple_of_the_block(self, monkeypatch, block_rows, n):
        diag, off_sq, shifts = _sturm_case(np.random.default_rng(n), 3, n)
        monkeypatch.setattr(oracle, "_STURM_BLOCK_BYTES", 8 * shifts.size * block_rows)
        assert np.array_equal(oracle._sturm_count(diag, off_sq, shifts),
                              reference_sturm_count(diag, off_sq, shifts))

    def test_default_block_on_a_long_operator(self):
        op = build_radial_operator(params_for(a=0.4), 1.0, 0, npoints=4001)
        off_sq = op.offdiag ** 2
        shifts = np.linspace(0.0, 90.0, 15)
        assert (op.diag.size - 1) % (oracle._STURM_BLOCK_BYTES // (8 * shifts.size)) != 0
        assert np.array_equal(oracle._sturm_count(op.diag, off_sq, shifts),
                              reference_sturm_count(op.diag, off_sq, shifts))

    @pytest.mark.parametrize("cells", [(0,), (10,), (14,), (7, 8), (0, 1, 2), (10, 14, 21, 49)])
    @pytest.mark.parametrize("row", [0, 2])
    def test_zero_pivots(self, monkeypatch, cells, row):
        # seven cells per block: blocks hold cells 1–7, 8–14, 15–21, …, so
        # cell 10 sits mid-block and cells 7, 14 and 21 on a block's last row
        diag, off_sq, shifts = _sturm_case(np.random.default_rng(5), 3, 50)
        diag[row], zero_non_negative = _zero_pivots(diag[row], off_sq[row], cells)
        monkeypatch.setattr(oracle, "_STURM_BLOCK_BYTES", 8 * shifts.size * 7)
        expect = reference_sturm_count(diag, off_sq, shifts)
        assert expect[row, 1] == zero_non_negative + len(cells)
        assert np.array_equal(oracle._sturm_count(diag, off_sq, shifts), expect)

    def test_zero_over_zero(self):
        # zero coupling after a zero pivot: unguarded, 0/0 is NaN and hides
        # the last, negative pivot; the zero pivot itself (eigenvalue 1 at
        # shift 1) counts as negative
        diag = np.array([2.0, 1.0, 3.0, 0.5])
        args = (diag, np.zeros(3), np.array([1.0]))
        assert reference_sturm_count(*args).tolist() == [2]
        assert oracle._sturm_count(*args).tolist() == [2]

    def test_zero_pivot_counts_as_negative(self):
        # at shift 2 the first pivot is exactly 0; counted as non-negative it
        # would drop the eigenvalue 0.1206 below 2 and break monotonicity
        diag, off = np.array([2.0, 1.0, 3.0]), np.array([1.0, 1.0])
        shifts = np.array([1.9999999, 2.0, 2.0000001])
        eigs = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        assert np.count_nonzero(eigs < 2.0) == 1
        assert reference_sturm_count(diag, off ** 2, shifts).tolist() == [1, 1, 1]
        assert oracle._sturm_count(diag, off ** 2, shifts).tolist() == [1, 1, 1]

    def test_counts_monotone_through_zero_pivots(self):
        # shifts on every diagonal entry put exact zero pivots at cell 0
        # and, through the integer entries, at later cells too
        rng = np.random.default_rng(7)
        diag = np.stack([[2.0, 1.0, 3.0, 2.0, 1.0], *rng.integers(0, 4, (5, 5))]).astype(float)
        off_sq = np.stack([[1.0] * 4, *rng.integers(0, 3, (5, 4))]).astype(float)
        grid = np.linspace(-3.0, 7.0, 1001)
        shifts = np.sort(np.concatenate(
            [np.broadcast_to(grid, (6, grid.size)), diag, np.nextafter(diag, np.inf),
             np.nextafter(diag, -np.inf)], axis=1), axis=1)
        counts = oracle._sturm_count(diag, off_sq, shifts)
        assert np.array_equal(counts, reference_sturm_count(diag, off_sq, shifts))
        assert np.all(np.diff(counts, axis=1) >= 0)
        assert np.all(counts[:, 0] == 0) and np.all(counts[:, -1] == 5)

    @pytest.mark.parametrize("depth", range(1, 9))
    def test_multisection_depth_does_not_change_bits(self, monkeypatch, depth):
        (k, ops), = _verify_batches(fast=True).items()
        expect = lowest_eigenvalues_many(ops, k)
        monkeypatch.setattr(oracle, "MULTISECTION_DEPTH", depth)
        assert lowest_eigenvalues_many(ops, k) == expect


class TestResidualRadial:
    def test_oscillator_ground_at_rounding_level(self):
        report = residual_radial("canonical", params_for(a=0.0), 0, 0)
        assert report.max_abs_residual <= 1e-12

    def test_deformed_excited_state(self):
        report = residual_radial("canonical", params_for(a=2.0), 3, 2)
        assert report.max_abs_residual <= 1e-8

    def test_odd_branch_state(self):
        report = residual_radial("odd", params_for(a=-0.6, gamma=1.5), 1, 1)
        assert report.max_abs_residual <= 1e-8

    def test_report_fields(self):
        report = residual_radial("canonical", params_for(a=0.0), 1, 1)
        assert isinstance(report, ResidualReport)
        assert report.max_abs_residual >= 0.0
        assert report.npoints == 2381
        assert 0.05 <= report.argmax_rho_or_phi <= 6.0
        assert report.equation_id == "radial_ode_canonical"

    def test_custom_grid(self):
        grid = np.linspace(0.5, 3.0, 101)
        report = residual_radial("even", params_for(a=1.0, gamma=1.2), 0, 1, grid=grid)
        assert report.npoints == 101
        assert report.max_abs_residual <= 1e-8

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            residual_radial("sideways", params_for(), 0, 0)


class TestResidualAngular:
    def test_sine_mode_at_gamma_half(self):
        # odd branch, gamma=1/2, m=0: the potential term vanishes and the
        # state is the pure sine mode with eigenvalue m_eff^2 = 4; the
        # truncation error is below the 1e-10 floor already on a coarse
        # grid, and refining further only re-exposes the h^-2 rounding
        # amplification of the second-derivative stencil
        coarse = np.linspace(0.05, 0.5 * math.pi - 0.05, 501)
        report = residual_angular("odd", params_for(gamma=0.5), 0, grid_phi=coarse)
        assert report.max_abs_residual <= 1e-10
        default = residual_angular("odd", params_for(gamma=0.5), 0)
        assert default.max_abs_residual <= 1e-7

    @pytest.mark.parametrize("gamma,parity", [(1.0, "even"), (1.5, "odd")])
    def test_closed_forms_satisfy_equation(self, gamma, parity):
        p = params_for(gamma=gamma)
        for m in range(5):
            report = residual_angular(parity, p, m)
            assert report.max_abs_residual <= 1e-7

    def test_fourth_order_convergence(self):
        p = params_for(gamma=1.0)
        res = []
        for npoints in (1001, 2001):
            grid = np.linspace(0.05, 0.5 * math.pi - 0.05, npoints)
            res.append(residual_angular("even", p, 0, grid_phi=grid).max_abs_residual)
        order = math.log2(res[0] / res[1])
        assert 3.5 <= order <= 4.5

    def test_report_fields(self):
        report = residual_angular("odd", params_for(gamma=1.0), 2)
        assert report.equation_id == "angular_ode_odd"
        assert report.npoints == 4001
        assert 0.05 <= report.argmax_rho_or_phi <= 0.5 * math.pi - 0.05

    def test_rejects_nonuniform_grid(self):
        grid = np.array([0.1, 0.2, 0.35, 0.5, 0.6])
        with pytest.raises(ValueError):
            residual_angular("odd", params_for(gamma=1.0), 0, grid_phi=grid)


class TestOrthonormality:
    def test_canonical_radial_identity(self):
        p = params_for(a=2.0)
        states = [(n, 2) for n in range(5)]
        gram = orthonormality_matrix("canonical", p, states)
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-8

    def test_shallow_wire_radial_identity(self):
        p = params_for(a=-0.6)
        states = [(n, 0) for n in range(5)]
        gram = orthonormality_matrix("canonical", p, states)
        assert np.max(np.abs(gram - np.eye(5))) <= 1e-8

    def test_noncanonical_radial_identity(self):
        p = params_for(a=-0.6, gamma=1.5)
        states = [(n, 1) for n in range(4)]
        gram = orthonormality_matrix("odd", p, states)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-8

    def test_angular_identities(self):
        for gamma, branch in ((1.0, "angular_odd"), (1.5, "angular_even")):
            p = params_for(gamma=gamma)
            gram = orthonormality_matrix(branch, p, list(range(5)))
            assert np.max(np.abs(gram - np.eye(5))) <= 1e-8

    def test_single_state_unit_norm(self):
        p = params_for(a=2.0)
        gram = orthonormality_matrix("canonical", p, [(3, 1)])
        assert abs(gram[0][0] - 1.0) <= 1e-9

    def test_norm_perturbation_breaks_identity(self):
        p = params_for(a=2.0)
        gram = orthonormality_matrix("canonical", p, [(0, 0)], norm_scale=1.01)
        assert abs(gram[0][0] - 1.0) > 1e-8

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            orthonormality_matrix("axial", params_for(), [(0, 0)])


class TestLimitSweep:
    def test_zero_entry_exact(self):
        p = params_for()
        rows = limit_sweep_a_to_zero(p, 2, 1, [0.0])
        assert rows[0]["energy_deviation"] == 0.0
        assert rows[0]["max_wavefunction_deviation"] == 0.0
        assert rows[0]["energy_limit"] == pytest.approx(2 * 2 + 1 + 1, rel=1e-15)

    def test_energy_limit_at_small_a(self):
        p = params_for()
        for n in range(5):
            for m in range(-4, 5):
                rows = limit_sweep_a_to_zero(p, n, m, [1e-6])
                assert rows[0]["energy_deviation"] <= 1e-5

    def test_monotone_convergence(self):
        p = params_for()
        rows = limit_sweep_a_to_zero(p, 1, 2, [1e-2, 1e-3, 1e-4, 1e-5])
        edevs = [r["energy_deviation"] for r in rows]
        wdevs = [r["max_wavefunction_deviation"] for r in rows]
        assert all(b < a for a, b in zip(edevs, edevs[1:]))
        assert all(b < a for a, b in zip(wdevs, wdevs[1:]))

    def test_nodeless_wavefunction_limit_at_target_a(self):
        p = params_for()
        for m in (1, 2, 3, 4):
            rows = limit_sweep_a_to_zero(p, 0, m, [1e-4])
            assert rows[0]["max_wavefunction_deviation"] <= 1e-4


class TestVerificationSweep:
    def test_full_canonical_eigensolver_check_passes(self):
        # the domain is sized for the levels solved (n_target = n_max + 1);
        # the default n_target = 6 missed the 1e-3 tolerance at a = -0.6
        row = next(row for row in verification._table(fast=False, perturb_norm=0.0)
                   if row[0] == "eigensolver_closed_form_canonical")
        record = verification._record(*row[:3], verification._worst(row[3]))
        assert record["pass"], record

    def test_worst_keeps_nan(self):
        worst = verification._worst
        assert worst([]) == 0.0 and worst([], lowest=True) == math.inf
        assert worst([3e-9, 1e-8, 2e-9]) == 1e-8
        assert worst([0.4, 0.2, 0.3], lowest=True) == 0.2
        for values in ([math.nan], [1e-9, math.nan, 2e-9], [math.nan, 0.0]):
            assert math.isnan(worst(values)) and math.isnan(worst(values, lowest=True))

    def test_nan_measurement_fails_its_record(self, monkeypatch):
        # a NaN among finite residuals must fail the record, not vanish in a max
        residual_radial = oracle.residual_radial

        def nan_at_canonical_ground(branch, p, n, m, **kwargs):
            report = residual_radial(branch, p, n, m, **kwargs)
            if (branch, n, m) == ("canonical", 0, 0):
                report = ResidualReport(math.nan, report.argmax_rho_or_phi,
                                        report.npoints, report.equation_id)
            return report

        monkeypatch.setattr(oracle, "residual_radial", nan_at_canonical_ground)
        records, all_pass = verification.run_verification(fast=True)
        by_id = {rec["equation_id"]: rec for rec in records}
        assert by_id["radial_ode_canonical"]["pass"] is False
        assert math.isnan(by_id["radial_ode_canonical"]["measured"])
        assert by_id["radial_ode_even"]["pass"] and by_id["radial_ode_odd"]["pass"]
        assert all_pass is False

    @pytest.mark.parametrize("perturb_norm", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturb_norm_raises(self, monkeypatch, perturb_norm):
        def no_solve(ops, k):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(oracle, "lowest_eigenvalues_many", no_solve)
        with pytest.raises(ValueError, match="perturb_norm"):
            verification.run_verification(perturb_norm=perturb_norm, fast=True)
