"""End-to-end verification sweep: every closed form against its oracle.

Each check emits one JSON-serializable record
``{equation_id, params, tolerance, measured, pass}``.  Every record but the
raster ones is one row ``(equation_id, params, tolerance, values)`` of one
table, in report order, and its measured value is ``_worst(values)``: the
largest, or NaN if any value is NaN, so a NaN measurement fails its record.
The sweep returns the record list and an overall flag.  ``fast=True`` trims
the parameter sweeps (same rigor per case, fewer cases, no rasters) so the
command-line smoke path stays quick.  ``perturb_norm`` is a sensitivity
hook: it scales every radial normalization constant by (1 + perturb_norm),
which must break the orthonormality identity — a verification suite that
cannot fail proves nothing.  A non-finite ``perturb_norm`` raises
ValueError.
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


def _worst(values, lowest: bool = False) -> float:
    """The largest of values (the smallest with lowest=True), NaN if any is NaN.

    With no values it is 0.0 (lowest: +inf).  On finite values it is bit for
    bit a max() (min()) chain started from that value.
    """
    return float(np.min([math.inf, *values]) if lowest else np.max([0.0, *values]))


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


# ---------------------------------------------------------------------------
# the table

def _gram_error(name: str, p, states: list, norm_scale: float = 1.0) -> float:
    gram = oracle.orthonormality_matrix(name, p, states, norm_scale=norm_scale)
    return float(np.max(np.abs(gram - np.eye(len(states)))))


def _table(fast: bool, perturb_norm: float):
    """Yield (equation_id, params, tolerance, values) per record, in report order.

    All eigensolver operators of one k share one batched solve, made before
    the first row; every other row computes its values when it is reached.
    """
    families = _eigensolver_families(fast)
    eigs = {k: iter(oracle.lowest_eigenvalues_many(batch, k))
            for k, batch in _eigensolver_batches(families).items()}
    for name, br, params, n_max, cases in families:
        yield (f"eigensolver_closed_form_{name}", params, 1e-3,
               [abs(eig - 2.0 * can.branch_energy(p, br, n, m) / (p.hbar * p.omega))
                for p, m in cases for n, eig in enumerate(next(eigs[n_max + 1]))])

    # ODE residuals
    cases = [(0.0, 0, 0), (2.0, 3, 2)] if fast else [
        (a, n, m) for a in (-0.6, 0.0, 2.0) for n in (0, 3) for m in (0, 2)]
    yield ("radial_ode_canonical", {"cases": [list(c) for c in cases]}, 1e-8,
           [oracle.residual_radial("canonical", make_params(a=a), n, m).max_abs_residual
            for a, n, m in cases])
    gammas = (1.5,) if fast else (1.0, 1.5)
    cases = [(-0.6, 1, 1)] if fast else [
        (a, n, m) for a in (-0.6, 2.0) for n in (0, 2) for m in (0, 2)]
    for parity in ("even", "odd"):
        yield (f"radial_ode_{parity}",
               {"gamma": list(gammas), "cases": [list(c) for c in cases]}, 1e-8,
               [oracle.residual_radial(parity, make_params(a=a, gamma=gamma), n, m)
                .max_abs_residual for gamma in gammas for a, n, m in cases])
    m_max = 2 if fast else 4
    for parity, gammas in (("even", (1.0, 1.5)), ("odd", (0.5, 1.0, 1.5))):
        yield (f"angular_ode_{parity}", {"gamma": list(gammas), "m_max": m_max}, 1e-7,
               [oracle.residual_angular(parity, make_params(gamma=gamma), m).max_abs_residual
                for gamma in gammas for m in range(m_max + 1)])

    # orthonormality
    radial_cases = [("canonical", 0.5, (2.0,), 2)] if fast else [
        ("canonical", 0.5, (-0.6, 0.0, 2.0), 2),
        ("even", 1.5, (2.0,), 1),
        ("odd", 1.0, (-0.6,), 1),
    ]
    for name, gamma, a_values, m in radial_cases:
        yield (f"orthonormality_radial_{name}",
               {"a": list(a_values), "gamma": gamma, "m": m, "n_max": 4}, 1e-8,
               [_gram_error(name, make_params(a=a, gamma=gamma), [(n, m) for n in range(5)],
                            norm_scale=1.0 + perturb_norm) for a in a_values])
    angular_cases = [("angular_odd", (1.0,))] if fast else [
        ("angular_even", (1.0, 1.5)), ("angular_odd", (0.5, 1.0, 1.5))]
    for name, gammas in angular_cases:
        yield (f"orthonormality_{name}", {"gamma": list(gammas), "m_max": 4}, 1e-8,
               [_gram_error(name, make_params(gamma=gamma), list(range(5)))
                for gamma in gammas])

    # limits and collapse
    p = make_params()
    span = 2 if fast else 4
    yield ("energy_limit_a_to_zero", {"a": 1e-6, "n_max": span, "m_max": span}, 1e-5,
           [oracle.limit_sweep_a_to_zero(p, n, m, [1e-6])[0]["energy_deviation"]
            / (p.hbar * p.omega) for n in range(span + 1) for m in range(span + 1)])
    # nodeless m >= 1 states: the only ones whose a-derivative stays below 1
    # on [0.1, 4] (at m = 0 the indicial kink nu = |a|/2 forces a deviation
    # of ~4.6e-4 at a = 1e-4, so no m = 0 state can meet this bound)
    yield ("wavefunction_limit_a_to_zero", {"a": 1e-4, "n": 0, "m_values": [1, 2, 3, 4]},
           1e-4, [oracle.limit_sweep_a_to_zero(p, 0, m, [1e-4])[0]
                  ["max_wavefunction_deviation"] for m in range(1, 5)])
    p = make_params(a=1.37, gamma=0.5)
    rho = np.linspace(0.0, 5.0, 257)
    # odd-branch index ladder at γ = 1/2: m -> 2m + 2
    yield ("collapse_at_gamma_half", {"a": 1.37, "n_max": 2, "m_max": 2}, 0.0,
           [dev for n in range(3) for m in range(3) for dev in (
               abs(nc.energy_odd(p, n, m) - can.energy_radial(p, n, 2 * m + 2)),
               float(np.max(np.abs(nc.radial_odd(p, n, m, rho)
                                   - can.radial_wavefunction(p, n, 2 * m + 2, rho)))))])


# ---------------------------------------------------------------------------
# density rasters

def _offsets(ngrid: int):
    """(dx, dy): the doubled integer offsets of the cell centres from the centre."""
    dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
    return np.meshgrid(dd, dd)


def _ring_relative_spread(fld) -> float:
    dx, dy = _offsets(fld.nx)
    ksq = (dx * dx + dy * dy).ravel()
    vals = fld.values.ravel()
    ku, inverse = np.unique(ksq, return_inverse=True)
    vmax = np.full(ku.size, -np.inf)
    vmin = np.full(ku.size, np.inf)
    np.maximum.at(vmax, inverse, vals)
    np.minimum.at(vmin, inverse, vals)
    spread = np.where(vmax > 0.0, (vmax - vmin) / np.where(vmax > 0.0, vmax, 1.0), 0.0)
    return float(np.max(spread))


def _raster_records() -> list:
    """The five raster records; each raster is built once and feeds two or three."""
    spreads, masses = [], []
    for a, n, m in itertools.product((-0.6, 0.0, 2.0), (0, 1), (0, 1)):
        fld = build_density_field(make_params(a=a), n, m)
        spreads.append(_ring_relative_spread(fld))
        masses.append(abs(riemann_mass(fld) - 1.0))
    canonical = {"a": [-0.6, 0.0, 2.0], "n_max": 1, "m_max": 1, "ngrid": 201}

    axis, peaks, nc_masses = [], [], []
    for gamma, parity in itertools.product((1.0, 1.5), ("even", "odd")):
        fld = build_density_field(make_params(a=2.0, gamma=gamma), 0, 0, parity=parity)
        dx, dy = _offsets(fld.nx)
        axis.append(float(np.max(np.abs(fld.values[(dx == 0) | (dy == 0)]))))
        peaks += [float(np.max(fld.values[(np.sign(dx) == qx) & (np.sign(dy) == qy)]))
                  for qx, qy in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
        nc_masses.append(abs(riemann_mass(fld) - 1.0))
    noncanonical = {"gamma": [1.0, 1.5], "a": 2.0, "n": 0, "m": 0}
    min_peak = _worst(peaks, lowest=True)
    return [
        _record("raster_ring_invariance_canonical", canonical, 1e-12, _worst(spreads)),
        _record("raster_mass_canonical", canonical, 1e-3, _worst(masses)),
        _record("raster_confinement_angles_noncanonical", noncanonical, 0.0, _worst(axis)),
        _record("raster_quadrant_peaks_noncanonical", noncanonical, 0.0, min_peak,
                passed=min_peak > 0.0),
        _record("raster_mass_noncanonical", noncanonical, 1e-3, _worst(nc_masses)),
    ]


# ---------------------------------------------------------------------------

def run_verification(perturb_norm: float = 0.0, fast: bool = False):
    """Run the sweep; returns (records, all_pass)."""
    if not math.isfinite(perturb_norm):
        raise ValueError(f"perturb_norm must be finite, got {perturb_norm!r}")
    records = [_record(equation_id, params, tolerance, _worst(values))
               for equation_id, params, tolerance, values in _table(fast, perturb_norm)]
    if not fast:
        records += _raster_records()
    return records, all(r["pass"] for r in records)
