"""End-to-end verification sweep: every closed form against its oracle.

Each check emits one JSON-serializable record
``{equation_id, params, tolerance, measured, pass}``; the sweep returns the
record list and an overall flag.  ``fast=True`` trims the parameter sweeps
(same rigor per case, fewer cases, no rasters) so the command-line smoke
path stays quick.  ``perturb_norm`` is a sensitivity hook: it scales every
radial normalization constant by (1 + perturb_norm), which must break the
orthonormality identity — a verification suite that cannot fail proves
nothing.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import canonical as can
from . import noncanonical as nc
from . import oracle
from .fields import build_density_field, riemann_mass
from .model import branch, make_params

__all__ = ["run_verification"]


def _record(equation_id: str, params: dict, tolerance: float, measured: float,
            passed: bool = None) -> dict:
    if passed is None:
        passed = bool(measured <= tolerance)
    return {"equation_id": equation_id, "params": params,
            "tolerance": tolerance, "measured": float(measured),
            "pass": bool(passed)}


# ---------------------------------------------------------------------------
# eigensolver vs closed forms

def _eigensolver_families(fast: bool) -> list:
    """(name, branch, record params, n_max, [(p, m), ...]) per radial branch."""
    a_values = (0.0, 2.0) if fast else (-0.6, 0.0, 2.0)
    m_values = (0, 1) if fast else (0, 1, 2, 3)
    n_max = 1 if fast else 3
    families = [("canonical", branch("none"),
                 {"a": list(a_values), "m_values": list(m_values), "n_max": n_max,
                  "npoints": 4000},
                 n_max, [(make_params(a=a), m) for a in a_values for m in m_values])]

    gamma_values = (1.0,) if fast else (1.0, 1.5)
    a_values = (2.0,) if fast else (-0.6, 0.0, 2.0)
    m_values = (0,) if fast else (0, 1, 2)
    n_max = 1 if fast else 2
    for parity in ("even", "odd"):
        families.append((
            parity, branch(parity),
            {"gamma": list(gamma_values), "a": list(a_values),
             "m_values": list(m_values), "n_max": n_max, "npoints": 4000},
            n_max, [(make_params(a=a, gamma=gamma), m) for gamma, a, m
                    in itertools.product(gamma_values, a_values, m_values)]))
    return families


def _eigensolver_batches(families: list) -> dict:
    """k -> the operators, in case order, of every family solving for k levels."""
    batches = {}
    for _, br, _, n_max, cases in families:
        for p, m in cases:
            me = br.m_index(p.gamma, m)
            batches.setdefault(n_max + 1, []).append(oracle.build_radial_operator(
                p, float(me * me), br.sign, n_target=n_max + 1))
    return batches


def _check_eigensolvers(records: list, fast: bool,
                        names=("canonical", "even", "odd")) -> None:
    """One record per branch; all operators of one k share one batched solve."""
    families = [f for f in _eigensolver_families(fast) if f[0] in names]
    eigs = {k: iter(oracle.lowest_eigenvalues_many(batch, k))
            for k, batch in _eigensolver_batches(families).items()}
    for name, br, params, n_max, cases in families:
        worst = 0.0
        for p, m in cases:
            for n, eig in enumerate(next(eigs[n_max + 1])):
                closed = 2.0 * can.branch_energy(p, br, n, m) / (p.hbar * p.omega)
                worst = max(worst, abs(eig - closed))
        records.append(_record(f"eigensolver_closed_form_{name}", params, 1e-3, worst))


def _check_eigensolver_canonical(records: list, fast: bool) -> None:
    """The canonical eigensolver record alone, through the same batched path."""
    _check_eigensolvers(records, fast, ("canonical",))


# ---------------------------------------------------------------------------
# ODE residuals

def _check_residual_radial(records: list, fast: bool) -> None:
    canonical_cases = [(0.0, 0, 0), (2.0, 3, 2)] if fast else [
        (a, n, m) for a in (-0.6, 0.0, 2.0) for n in (0, 3) for m in (0, 2)]
    worst = 0.0
    for a, n, m in canonical_cases:
        p = make_params(a=a)
        worst = max(worst, oracle.residual_radial("canonical", p, n, m).max_abs_residual)
    records.append(_record(
        "radial_ode_canonical", {"cases": [list(c) for c in canonical_cases]},
        1e-8, worst))

    nc_gammas = (1.5,) if fast else (1.0, 1.5)
    nc_cases = [(-0.6, 1, 1)] if fast else [
        (a, n, m) for a in (-0.6, 2.0) for n in (0, 2) for m in (0, 2)]
    for parity in ("even", "odd"):
        worst = 0.0
        for gamma in nc_gammas:
            for a, n, m in nc_cases:
                p = make_params(a=a, gamma=gamma)
                worst = max(worst, oracle.residual_radial(parity, p, n, m).max_abs_residual)
        records.append(_record(
            f"radial_ode_{parity}",
            {"gamma": list(nc_gammas), "cases": [list(c) for c in nc_cases]},
            1e-8, worst))


def _check_residual_angular(records: list, fast: bool) -> None:
    m_max = 2 if fast else 4
    for parity, gammas in (("even", (1.0, 1.5)), ("odd", (0.5, 1.0, 1.5))):
        worst = 0.0
        for gamma in gammas:
            p = make_params(gamma=gamma)
            for m in range(m_max + 1):
                worst = max(worst, oracle.residual_angular(parity, p, m).max_abs_residual)
        records.append(_record(
            f"angular_ode_{parity}", {"gamma": list(gammas), "m_max": m_max},
            1e-7, worst))


# ---------------------------------------------------------------------------
# orthonormality

def _check_orthonormality(records: list, fast: bool, perturb_norm: float) -> None:
    scale = 1.0 + perturb_norm
    radial_cases = [("canonical", 0.5, (2.0,), 2)] if fast else [
        ("canonical", 0.5, (-0.6, 0.0, 2.0), 2),
        ("even", 1.5, (2.0,), 1),
        ("odd", 1.0, (-0.6,), 1),
    ]
    for branch, gamma, a_values, m_fixed in radial_cases:
        worst = 0.0
        states = [(n, m_fixed) for n in range(5)]
        for a in a_values:
            p = make_params(a=a, gamma=gamma)
            gram = oracle.orthonormality_matrix(branch, p, states,
                                                norm_scale=scale)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(len(states))))))
        records.append(_record(
            f"orthonormality_radial_{branch}",
            {"a": list(a_values), "gamma": gamma, "m": m_fixed, "n_max": 4},
            1e-8, worst))

    angular_cases = [("angular_odd", (1.0,))] if fast else [
        ("angular_even", (1.0, 1.5)), ("angular_odd", (0.5, 1.0, 1.5))]
    states = list(range(5))
    for branch, gammas in angular_cases:
        worst = 0.0
        for gamma in gammas:
            p = make_params(gamma=gamma)
            gram = oracle.orthonormality_matrix(branch, p, states)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(len(states))))))
        records.append(_record(
            f"orthonormality_{branch}", {"gamma": list(gammas), "m_max": 4},
            1e-8, worst))


# ---------------------------------------------------------------------------
# limits and collapse

def _check_limits(records: list, fast: bool) -> None:
    p = make_params()
    span = 2 if fast else 4
    worst_e = 0.0
    for n in range(span + 1):
        for m in range(span + 1):
            row = oracle.limit_sweep_a_to_zero(p, n, m, [1e-6])[0]
            worst_e = max(worst_e, row["energy_deviation"] / (p.hbar * p.omega))
    records.append(_record(
        "energy_limit_a_to_zero", {"a": 1e-6, "n_max": span, "m_max": span},
        1e-5, worst_e))

    # nodeless m >= 1 states: the only ones whose a-derivative stays below 1
    # on [0.1, 4] (at m = 0 the indicial kink nu = |a|/2 forces a deviation
    # of ~4.6e-4 at a = 1e-4, so no m = 0 state can meet this bound)
    worst_wf = 0.0
    for m in range(1, 5):
        row = oracle.limit_sweep_a_to_zero(p, 0, m, [1e-4])[0]
        worst_wf = max(worst_wf, row["max_wavefunction_deviation"])
    records.append(_record(
        "wavefunction_limit_a_to_zero", {"a": 1e-4, "n": 0, "m_values": [1, 2, 3, 4]},
        1e-4, worst_wf))


def _check_collapse_gamma_half(records: list) -> None:
    p = make_params(a=1.37, gamma=0.5)
    rho = np.linspace(0.0, 5.0, 257)
    worst = 0.0
    for n in range(3):
        for m in range(3):
            m_can = 2 * m + 2       # odd-branch index ladder at γ = 1/2
            e_dev = abs(nc.energy_odd(p, n, m) - can.energy_radial(p, n, m_can))
            wf_dev = float(np.max(np.abs(
                nc.radial_odd(p, n, m, rho) - can.radial_wavefunction(p, n, m_can, rho))))
            worst = max(worst, e_dev, wf_dev)
    records.append(_record(
        "collapse_at_gamma_half", {"a": 1.37, "n_max": 2, "m_max": 2},
        0.0, worst))


# ---------------------------------------------------------------------------
# density rasters

def _ring_relative_spread(fld) -> float:
    ngrid = fld.nx
    dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
    dx, dy = np.meshgrid(dd, dd)
    ksq = (dx * dx + dy * dy).ravel()
    vals = fld.values.ravel()
    ku, inverse = np.unique(ksq, return_inverse=True)
    vmax = np.full(ku.size, -np.inf)
    vmin = np.full(ku.size, np.inf)
    np.maximum.at(vmax, inverse, vals)
    np.minimum.at(vmin, inverse, vals)
    spread = np.where(vmax > 0.0, (vmax - vmin) / np.where(vmax > 0.0, vmax, 1.0), 0.0)
    return float(np.max(spread))


def _check_rasters(records: list) -> None:
    worst_spread = 0.0
    worst_mass = 0.0
    for a in (-0.6, 0.0, 2.0):
        p = make_params(a=a)
        for n in (0, 1):
            for m in (0, 1):
                fld = build_density_field(p, n, m)
                worst_spread = max(worst_spread, _ring_relative_spread(fld))
                worst_mass = max(worst_mass, abs(riemann_mass(fld) - 1.0))
    records.append(_record(
        "raster_ring_invariance_canonical",
        {"a": [-0.6, 0.0, 2.0], "n_max": 1, "m_max": 1, "ngrid": 201},
        1e-12, worst_spread))
    records.append(_record(
        "raster_mass_canonical",
        {"a": [-0.6, 0.0, 2.0], "n_max": 1, "m_max": 1, "ngrid": 201},
        1e-3, worst_mass))

    worst_axis = 0.0
    min_peak = math.inf
    worst_mass = 0.0
    for gamma in (1.0, 1.5):
        for parity in ("even", "odd"):
            p = make_params(a=2.0, gamma=gamma)
            fld = build_density_field(p, 0, 0, parity=parity)
            ngrid = fld.nx
            dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
            dx, dy = np.meshgrid(dd, dd)
            on_axis = (dx == 0) | (dy == 0)
            worst_axis = max(worst_axis, float(np.max(np.abs(fld.values[on_axis]))))
            for qx, qy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
                quadrant = (np.sign(dx) == qx) & (np.sign(dy) == qy)
                min_peak = min(min_peak, float(np.max(fld.values[quadrant])))
            worst_mass = max(worst_mass, abs(riemann_mass(fld) - 1.0))
    records.append(_record(
        "raster_confinement_angles_noncanonical",
        {"gamma": [1.0, 1.5], "a": 2.0, "n": 0, "m": 0}, 0.0, worst_axis))
    records.append(_record(
        "raster_quadrant_peaks_noncanonical",
        {"gamma": [1.0, 1.5], "a": 2.0, "n": 0, "m": 0},
        0.0, min_peak, passed=min_peak > 0.0))
    records.append(_record(
        "raster_mass_noncanonical",
        {"gamma": [1.0, 1.5], "a": 2.0, "n": 0, "m": 0}, 1e-3, worst_mass))


# ---------------------------------------------------------------------------

def run_verification(perturb_norm: float = 0.0, fast: bool = False):
    """Run the sweep; returns (records, all_pass)."""
    records: list = []
    _check_eigensolvers(records, fast)
    _check_residual_radial(records, fast)
    _check_residual_angular(records, fast)
    _check_orthonormality(records, fast, perturb_norm)
    _check_limits(records, fast)
    _check_collapse_gamma_half(records)
    if not fast:
        _check_rasters(records)
    return records, all(r["pass"] for r in records)
