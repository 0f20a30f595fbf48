"""2-D probability-density rasters and 1-D traces with reproducible metadata.

The raster value at a lattice point is the plane density |Ψ(ρ,φ)|² with two
grid-motivated conventions, both recorded in the output metadata:

* window size: the default half-width is max(4/λ0, 1.05 × the radius
  containing all but 1e-4 of the state's radial probability mass), so the
  Riemann sum of the raster always captures the state regardless of how
  slowly the a < 0 tails decay;
* origin regularization: states whose density behaves like ρ^{2s} with
  2s+2 < 4 near the axis (and is not an even polynomial there) are sampled
  as equal-area disc averages (disc radius h/√π) on the lattice points
  with ρ < 24h — a pointwise lattice sum over such a density converges
  only at order h^{2s+2} and misses the integrable origin peak.  The disc
  average depends on ρ and the state only, so rotational invariance of
  canonical rasters is preserved exactly.

Every plane density has the D4 symmetry of the square lattice: canonical
ones depend on ρ only, and non-canonical ones on ρ and η = cos 2φ through
(1−η²)^{2β}·C_m(η)², with C_m(−η)² = C_m(η)².  So a raster is evaluated
on the octant 0 ≤ dy ≤ dx of the doubled integer offsets only and mirrored
into the other seven images; every raster is exactly D4-symmetric.  The
radial factor is taken once per distinct ksq = dx²+dy², at the radius
(h/2)·√ksq, so every geometric ring shares one floating-point radius (and
hence one value in the canonical branch: ring spread is exactly zero).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import canonical as can
from . import noncanonical as nc
from .canonical import radial_eval, radial_profile
from .model import ModelParams, branch
from .specialfn import gauss_legendre, laguerre

__all__ = ["DensityField", "build_density_field", "riemann_mass", "radial_trace",
           "angular_trace", "potential_trace"]

TWO_PI = 2.0 * math.pi

#: raster defaults
GRID_DEFAULT = 201
MASS_TAIL_DEFAULT = 1e-4
ORIGIN_CUT_CELLS = 24


@dataclass(frozen=True)
class DensityField:
    """A sampled |Ψ|² raster on a centered square (x, y) window."""

    nx: int
    ny: int
    x_range: tuple
    y_range: tuple
    values: np.ndarray          # shape (ny, nx), row-major
    metadata: dict = field(default_factory=dict)


def riemann_mass(fld: DensityField) -> float:
    """Σ values · ΔA — the plain Riemann estimate of the total probability."""
    hx = (fld.x_range[1] - fld.x_range[0]) / (fld.nx - 1)
    hy = (fld.y_range[1] - fld.y_range[0]) / (fld.ny - 1)
    return float(np.sum(fld.values) * hx * hy)


# ---------------------------------------------------------------------------
# radial mass quantile (in the Laguerre-weight variable t)

def _laguerre_cumulative(n: int, alpha_l: float, t_hi: float, rule) -> float:
    """∫₀^{t_hi} t^α e^-t L_n(t)² dt / Γ-normalization, by graded panels."""
    total = 0.0
    hi = t_hi
    for _ in range(80):
        lo = 0.5 * hi
        t = 0.5 * (hi - lo) * rule.nodes + 0.5 * (hi + lo)
        w = 0.5 * (hi - lo) * rule.weights
        lag = laguerre(n, alpha_l, t)
        total += float(np.sum(w * np.power(t, alpha_l) * np.exp(-t) * lag * lag))
        hi = lo
        if hi ** (alpha_l + 1.0) < 1e-18 * max(t_hi, 1.0):
            break
    return total


def _mass_quantile_t(n: int, alpha_l: float, frac: float) -> float:
    """Smallest T with normalized radial mass ∫₀^T ≥ frac (bisection)."""
    from .specialfn import log_gamma
    rule = gauss_legendre(32)
    norm = math.exp(log_gamma(n + 1.0) - log_gamma(n + alpha_l + 1.0))
    lo, hi = 1e-6, 10.0
    while norm * _laguerre_cumulative(n, alpha_l, hi, rule) < frac:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("mass quantile bracket failed to close")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if norm * _laguerre_cumulative(n, alpha_l, mid, rule) >= frac:
            hi = mid
        else:
            lo = mid
    return hi


def _mass_window(p: ModelParams, n: int, alpha_l: float, mass_tail: float) -> float:
    """max(4/λ0, 1.05 × the radius holding all but mass_tail of the radial mass)."""
    t_q = _mass_quantile_t(n, alpha_l, 1.0 - mass_tail)
    zeta_q = ((p.a + 1.0) * t_q) ** (1.0 / (2.0 * (p.a + 1.0)))
    return max(4.0 / p.lambda0, 1.05 * zeta_q / p.lambda0)


# ---------------------------------------------------------------------------
# origin-region disc averages

def _analytic_at_origin(a: float, s: float) -> bool:
    """True when ρ^{2s} g((λ0 ρ)^{2(a+1)}) is an even polynomial series in
    (x, y) near the axis — the lattice sum then converges spectrally and no
    regularization is needed."""
    two_s = 2.0 * s
    two_ap1 = 2.0 * (a + 1.0)
    return (two_s >= 0.0
            and float(two_s).is_integer() and float(two_ap1).is_integer()
            and int(round(two_s)) % 2 == 0 and int(round(two_ap1)) % 2 == 0)


def _origin_disc_average(radial_sq, s: float, rc: float) -> float:
    """Disc average of the density over the axis-centered disc of radius rc.

    The angular factor integrates to 1/(2π)·2π = 1 over a full turn in both
    branches, so the average is ∫₀^{rc} P² ρ dρ / (π rc²).  The power
    substitution ρ = rc v^{1/(2s+2)} removes the ρ^{2s} singularity exactly;
    radial_sq is the squared radial factor P².
    """
    e2 = 2.0 * s + 2.0
    rule = gauss_legendre(32)
    v = 0.5 * (rule.nodes + 1.0)
    w = 0.5 * rule.weights
    rho = rc * np.power(v, 1.0 / e2)
    g = radial_sq(rho) / np.power(rho, 2.0 * s)
    integral = rc ** e2 / e2 * float(np.sum(w * g))       # ∫₀^{rc} P² ρ dρ
    return integral / (math.pi * rc * rc)


def _offcenter_disc_averages(dens2d, centers_x, centers_y, rc: float,
                             nr: int = 24, ntheta: int = 64) -> np.ndarray:
    """Disc averages of a plane density about off-axis centers.

    dens2d(x, y) must accept arrays; the quadrature is Gauss–Legendre in
    the squared radius (uniform in area) × periodic trapezoid in angle.
    """
    rule = gauss_legendre(nr)
    v = 0.5 * (rule.nodes + 1.0)
    wv = 0.5 * rule.weights
    r = rc * np.sqrt(v)
    th = (np.arange(ntheta) + 0.5) * (TWO_PI / ntheta)
    ux = np.outer(r, np.cos(th))                    # (nr, ntheta)
    uy = np.outer(r, np.sin(th))
    cx = np.asarray(centers_x, dtype=float)[:, None, None]
    cy = np.asarray(centers_y, dtype=float)[:, None, None]
    dens = dens2d(cx + ux[None, :, :], cy + uy[None, :, :])
    return np.einsum("krt,r->k", dens, wv) / ntheta


def _disc_averages(dens2d, radial_sq, s: float, rc: float, cx, cy) -> np.ndarray:
    """Disc averages about the lattice points (cx, cy), the axis point exactly."""
    avg = np.empty(cx.size)
    origin = (cx == 0.0) & (cy == 0.0)
    if np.any(origin):
        avg[origin] = _origin_disc_average(radial_sq, s, rc)
    off = ~origin
    if np.any(off):
        avg[off] = _offcenter_disc_averages(dens2d, cx[off], cy[off], rc)
    return avg


# ---------------------------------------------------------------------------
# raster construction

def build_density_field(p: ModelParams, n: int, m: int, parity: str = "none",
                        ngrid: int = GRID_DEFAULT, half_width: float = None,
                        mass_tail: float = MASS_TAIL_DEFAULT) -> DensityField:
    """Sample |Ψ(ρ,φ)|² on a centered (2L)×(2L) square of ngrid² points.

    parity "none" selects the canonical branch (signed m); "even"/"odd" the
    non-canonical branches (m ≥ 0, even requires γ > 1/2).  half_width
    overrides the automatic mass-quantile window; both the window and the
    origin-regularization convention land in the metadata.

    Only the octant 0 ≤ y ≤ x is evaluated (and disc-averaged where the
    origin rule applies); the other cells are its exact mirror images, so
    values, flipud(values), fliplr(values) and values.T are equal.  Raises
    ValueError for a half_width that is not finite and > 0 and for a
    mass_tail outside (0, 1).
    """
    if ngrid < 2:
        raise ValueError("ngrid must be at least 2")
    if not 0.0 < mass_tail < 1.0:
        raise ValueError("mass_tail must lie in (0, 1)")
    br = branch(parity)
    br.check_wavefunction(p.gamma)
    radicand = br.radicand(p, m)
    nu, s, alpha_l, log_norm = radial_profile(p, n, radicand)

    if half_width is None:
        half_width = _mass_window(p, n, alpha_l, mass_tail)
        window_rule = "mass_quantile"
    else:
        window_rule = "explicit"
    half_width = float(half_width)
    if not (math.isfinite(half_width) and half_width > 0.0):
        raise ValueError("half_width must be finite and > 0")

    h = 2.0 * half_width / (ngrid - 1)
    # doubled integer offsets (exact for odd and even ngrid alike); q holds the
    # quarter's offsets |d| and fold maps each of the ngrid offsets onto q
    dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
    q = dd[ngrid // 2:]
    fold = (np.abs(dd) - q[0]) // 2
    iy, ix = np.triu_indices(q.size)        # the octant 0 ≤ dy ≤ dx
    dx, dy = q[ix], q[iy]
    ksq = dx * dx + dy * dy
    ku, inverse = np.unique(ksq, return_inverse=True)
    rho_u = 0.5 * h * np.sqrt(ku.astype(float))

    def radial_sq(r):
        val = radial_eval(p, n, s, alpha_l, log_norm, r)
        return np.square(val)

    needs_avg = (2.0 * s + 2.0 < 4.0) and not _analytic_at_origin(p.a, s)
    rc = h / math.sqrt(math.pi)
    cut_ksq = 4 * ORIGIN_CUT_CELLS * ORIGIN_CUT_CELLS   # ρ < 24 h in doubled-offset units

    with np.errstate(invalid="ignore"):
        radial_u = radial_sq(rho_u)
    if br.sign == 0:
        vals_u = radial_u / TWO_PI
        if needs_avg:
            sel = ku < cut_ksq
            vals_u[sel] = _disc_averages(lambda x, y: radial_sq(np.hypot(x, y)) / TWO_PI,
                                         radial_sq, s, rc, rho_u[sel], np.zeros(sel.sum()))
        octant = vals_u[inverse]
    else:
        ang = nc._angular(p, parity, m, np.arctan2(dy.astype(float), dx.astype(float)),
                          strict=False)
        with np.errstate(invalid="ignore"):
            octant = radial_u[inverse] * np.square(ang)
        if needs_avg:
            mask = ksq < cut_ksq
            cx = (0.5 * h) * dx[mask].astype(float)
            cy = (0.5 * h) * dy[mask].astype(float)

            def dens2d(x, y):
                ph = np.arctan2(y, x) % TWO_PI
                return radial_sq(np.hypot(x, y)) * np.square(nc._angular(p, parity, m, ph, strict=False))

            octant[mask] = _disc_averages(dens2d, radial_sq, s, rc, cx, cy)
    quarter = np.empty((q.size, q.size))
    quarter[iy, ix] = octant
    quarter[ix, iy] = octant
    values = quarter[np.ix_(fold, fold)]     # rows follow y (dy), columns x (dx)

    metadata = {
        "branch": br.family,
        "a": p.a, "gamma": p.gamma, "n": n, "m": m, "parity": parity,
        "units": "natural" if (p.m0, p.omega, p.hbar) == (1.0, 1.0, 1.0) else "custom",
        "m0": p.m0, "omega": p.omega, "hbar": p.hbar, "lambda0": p.lambda0,
        "ngrid": ngrid, "half_width": half_width, "spacing": h,
        "window_rule": window_rule, "mass_tail": mass_tail,
        "origin_regularization": "disc_average" if needs_avg else "none",
        "origin_cut_cells": ORIGIN_CUT_CELLS if needs_avg else 0,
        "disc_radius": rc if needs_avg else 0.0,
        "rho_exponent": s, "alpha_L": alpha_l,
    }
    if br.sign:
        metadata["m_eff"] = br.m_index(p.gamma, m)
        metadata["degenerate_contact"] = bool(radicand == 0.0)
    return DensityField(nx=ngrid, ny=ngrid,
                        x_range=(-half_width, half_width),
                        y_range=(-half_width, half_width),
                        values=values, metadata=metadata)


# ---------------------------------------------------------------------------
# 1-D traces

def potential_trace(p: ModelParams, rho_max: float = None, npoints: int = 401):
    """(ρ, V(ρ)) on a uniform grid; default window 4/λ0."""
    from .model import potential_at
    if rho_max is None:
        rho_max = 4.0 / p.lambda0
    rho = np.linspace(0.0, rho_max, npoints)
    return rho, potential_at(p, rho)


def radial_trace(p: ModelParams, n: int, m: int, parity: str = "none",
                 rho_max: float = None, npoints: int = 801):
    """(ρ, P(ρ)) for the requested branch on a uniform grid of npoints ≥ 2."""
    if npoints < 2:
        raise ValueError("npoints must be >= 2")
    _, s, alpha_l, log_norm = radial_profile(p, n, branch(parity).radicand(p, m))
    if rho_max is None:
        rho_max = _mass_window(p, n, alpha_l, MASS_TAIL_DEFAULT)
    rho = np.linspace(0.0, rho_max, npoints)
    return rho, radial_eval(p, n, s, alpha_l, log_norm, rho)


def angular_trace(p: ModelParams, m: int, parity: str = "none", npoints: int = 720):
    """(φ, Φ(φ)) on the cell-centered grid φ_k = (k + 1/2)·2π/npoints.

    Canonical traces are complex (a pure phase); non-canonical are real.  When
    npoints is not a multiple of 4 some cell centers land exactly on a
    confinement angle; there a non-canonical trace carries the analytic
    limit 0, as the density paths do.
    """
    if npoints < 1:
        raise ValueError("npoints must be >= 1")
    phi = (np.arange(npoints) + 0.5) * (TWO_PI / npoints)
    if branch(parity).sign == 0:
        return phi, can.angular(m, phi)
    return phi, nc._angular(p, parity, m, phi, strict=False)
