"""Canonical-branch closed forms: radial/angular/axial factors, energies, densities.

The stationary states separate as Ψ = P_nm(ρ) Φ_m(φ) Z(z) with

    P_nm(ρ) = C_nm ρ^s exp(-(λ0 ρ)^{2(a+1)} / (2(a+1))) L_n^(α)(t),
    t = (λ0 ρ)^{2(a+1)} / (a+1),   s = a + ν,   ν = √(m² + a²/4),
    α = ν / (a+1),

Φ_m = e^{imφ}/√(2π), Z = e^{iκz z}/√(2π).  C_nm makes ∫ P² ρ dρ = 1.  The
same radial template with a different ν serves the non-canonical branch, so
the evaluator helpers here take a `Branch` record and are shared
(guaranteeing the branches agree bitwise where they coincide at γ = 1/2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Branch, ModelParams, QuantumNumbers, branch
from .specialfn import laguerre, log_gamma

__all__ = [
    "CanonicalState",
    "canonical_state",
    "energy_radial",
    "energy_total",
    "norm_coeff",
    "radial_wavefunction",
    "angular",
    "axial",
    "total_wavefunction",
    "density",
    "dimensionless_eigenvalue",
]

TWO_PI = 2.0 * math.pi
CANONICAL = branch("none")


# ---------------------------------------------------------------------------
# shared radial template: every branch differs only in its radicand ν²

def radial_profile(p: ModelParams, n: int, radicand: float):
    """Derived radial quantities (ν, s, α, log C) for a given radicand ν²."""
    if radicand < 0:
        raise ValueError(f"radicand of the radial exponent is negative ({radicand})")
    nu = math.sqrt(radicand)
    s = p.a + nu
    alpha_l = nu / (p.a + 1.0)
    log_norm = (0.5 * math.log(2.0)
                + (s + 1.0) * math.log(p.lambda0)
                - nu / (2.0 * (p.a + 1.0)) * math.log(p.a + 1.0)
                + 0.5 * (log_gamma(n + 1.0) - log_gamma(n + alpha_l + 1.0)))
    return nu, s, alpha_l, log_norm


def _log_laguerre(n: int, alpha: float, t: np.ndarray):
    """sign(L_n^(α)(t)) and log|L_n^(α)(t)|, free of overflow for finite t.

    The recurrence of specialfn.laguerre, with both carried terms divided
    by the larger of their magnitudes after every step and the logs of
    those scales summed.  Slower than laguerre; radial_eval calls it only
    where laguerre overflowed.
    """
    prev = np.ones_like(t)
    cur = 1.0 + alpha - t
    log_scale = np.zeros_like(t)
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - t) * cur - (k + alpha) * prev) / (k + 1)
        scale = np.maximum(np.abs(prev), np.abs(cur))
        prev, cur = prev / scale, cur / scale
        log_scale += np.log(scale)
    with np.errstate(divide="ignore"):
        return np.sign(cur), log_scale + np.log(np.abs(cur))


def radial_eval(p: ModelParams, n: int, s: float, alpha_l: float,
                log_norm: float, rho, norm_scale: float = 1.0):
    """Evaluate the normalized radial factor C ρ^s e^{-t/2} L_n^(α)(t).

    Assembled in log space (the Γ-ratio inside C and the ρ^s e^{-t/2}
    envelope can individually overflow long before their product does).
    Far outside the state the Laguerre recurrence itself overflows; those
    points are evaluated again with _log_laguerre, so the value is the
    tiny (or underflowed 0) product rather than NaN, and every other point
    is untouched.  ρ = 0 returns 0 for s > 0, the finite limit for s = 0,
    and the +inf sentinel for s < 0.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if not np.all(np.isfinite(rho_arr)):
        raise ValueError("rho must be finite")
    if np.any(rho_arr < 0):
        raise ValueError("rho must be >= 0")
    scalar = rho_arr.ndim == 0
    r = np.atleast_1d(rho_arr).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        t = (p.lambda0 * r) ** (2.0 * (p.a + 1.0)) / (p.a + 1.0)
        lag = np.atleast_1d(laguerre(n, alpha_l, t))
    out = np.zeros_like(r)
    pos = r > 0
    if np.any(pos):
        lv = lag[pos]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # log|L| = -inf where L = 0; sign(L) = 0 there, so the value is 0
            logmag = log_norm + s * np.log(r[pos]) - 0.5 * t[pos] + np.log(np.abs(lv))
            out[pos] = norm_scale * np.sign(lv) * np.exp(logmag)
    overflow = pos & ~np.isfinite(lag)
    if np.any(overflow):
        # where t itself overflowed, e^{-t/2} = 0 outweighs any power of t
        t_over = t[overflow]
        sign, log_lag = _log_laguerre(n, alpha_l, np.where(np.isinf(t_over), 0.0, t_over))
        logmag = log_norm + s * np.log(r[overflow]) - 0.5 * t_over + log_lag
        out[overflow] = norm_scale * sign * np.exp(logmag)
    if np.any(~pos):
        if s > 0:
            origin = 0.0
        elif s == 0:
            origin = norm_scale * math.exp(log_norm) * float(laguerre(n, alpha_l, 0.0))
        else:
            origin = math.inf
        out[~pos] = origin
    return float(out[0]) if scalar else out


def branch_radial(p: ModelParams, br: Branch, n: int, m: int, rho):
    """Normalized radial factor of any branch: the template at br's radicand."""
    _, s, alpha_l, log_norm = radial_profile(p, n, br.radicand(p, m))
    return radial_eval(p, n, s, alpha_l, log_norm, rho)


def branch_energy(p: ModelParams, br: Branch, n: int, m: int) -> float:
    """In-plane energy ħω[(a+1)(2n+1) + ν] of any branch, ν² its radicand."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rad = br.radicand(p, m)
    if rad < 0:
        raise ValueError(
            f"negative radicand {rad} for parity={br.parity}, gamma={p.gamma}, "
            f"a={p.a}, m={m}: the {br.parity}-branch energy is undefined here")
    return p.hbar * p.omega * ((p.a + 1.0) * (2 * n + 1) + math.sqrt(rad))


# ---------------------------------------------------------------------------
# canonical state

@dataclass(frozen=True)
class CanonicalState:
    """Fully resolved canonical stationary state."""

    params: ModelParams
    q: QuantumNumbers
    alpha_L: float
    rho_exponent: float
    norm: float
    E_radial: float
    E_axial: float

    @property
    def E_total(self) -> float:
        return self.E_radial + self.E_axial


def canonical_state(p: ModelParams, n: int, m: int, kappa_z: float = 0.0) -> CanonicalState:
    q = QuantumNumbers(n=n, m=m, parity="none", kappa_z=kappa_z)
    nu, s, alpha_l, log_norm = radial_profile(p, n, CANONICAL.radicand(p, m))
    return CanonicalState(
        params=p, q=q, alpha_L=alpha_l, rho_exponent=s,
        norm=math.exp(log_norm),
        E_radial=energy_radial(p, n, m),
        E_axial=p.hbar ** 2 * kappa_z ** 2 / (2.0 * p.m0),
    )


def energy_radial(p: ModelParams, n: int, m: int) -> float:
    """In-plane energy ħω(a+1)[2n + 1 + √(m²+a²/4)/(a+1)]."""
    return branch_energy(p, CANONICAL, n, m)


def energy_total(p: ModelParams, n: int, m: int, kappa_z: float = 0.0) -> float:
    """E_radial plus the free axial kinetic term ħ²κz²/(2 m0)."""
    return energy_radial(p, n, m) + p.hbar ** 2 * kappa_z ** 2 / (2.0 * p.m0)


def dimensionless_eigenvalue(p: ModelParams, n: int, m: int) -> float:
    """κ² λ0⁻² = 2 E_radial / (ħω) = 4n(a+1) + 2(a+1) + √(a²+4m²)."""
    return 2.0 * energy_radial(p, n, m) / (p.hbar * p.omega)


def norm_coeff(p: ModelParams, n: int, m: int) -> float:
    """Radial normalization C_nm (unit norm under the measure ρ dρ).

    C_nm = √2 λ0^{s+1} (a+1)^{-ν/(2(a+1))} √(n!/Γ(n+α+1)), assembled in
    log space and exponentiated once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _, _, _, log_norm = radial_profile(p, n, CANONICAL.radicand(p, m))
    return math.exp(log_norm)


def radial_wavefunction(p: ModelParams, n: int, m: int, rho):
    """Normalized radial factor P_nm(ρ); see module docstring for the form."""
    return branch_radial(p, CANONICAL, n, m, rho)


def angular(m: int, phi):
    """Angular factor e^{imφ}/√(2π) (orthonormal on [0, 2π))."""
    phi_arr = np.asarray(phi, dtype=float)
    out = np.exp(1j * m * phi_arr) / math.sqrt(TWO_PI)
    return out if phi_arr.ndim else complex(out)


def axial(kappa_z: float, z):
    """Axial plane wave e^{iκz z}/√(2π) (delta-normalized in κz)."""
    z_arr = np.asarray(z, dtype=float)
    out = np.exp(1j * kappa_z * z_arr) / math.sqrt(TWO_PI)
    return out if z_arr.ndim else complex(out)


def total_wavefunction(p: ModelParams, n: int, m: int, kappa_z: float,
                       rho, phi, z):
    """Product state P_nm(ρ) · e^{imφ}/√(2π) · e^{iκz z}/√(2π)."""
    return radial_wavefunction(p, n, m, rho) * angular(m, phi) * axial(kappa_z, z)


def density(p: ModelParams, n: int, m: int, rho, phi=0.0):
    """In-plane probability density |P_nm(ρ) Φ_m(φ)|² = P_nm(ρ)²/(2π).

    Independent of φ (the angular factor is a pure phase); the argument is
    accepted for signature symmetry with the non-canonical branch.
    """
    val = radial_wavefunction(p, n, m, rho)
    return np.square(val) / TWO_PI if np.asarray(val).ndim else val * val / TWO_PI
