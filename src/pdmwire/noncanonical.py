"""Non-canonical (Wigner-deformed) branch: reflection-even/odd closed forms.

The deformed algebra [ρ̂, p̂_φ] = iħ(1 + (2γ-1) R̂) splits the angular
problem into reflection-even and reflection-odd families solved by
Gegenbauer polynomials in η = cos 2φ:

    Φ_m^(e|o)(φ) = C^(e|o) ε(φ) (1 - η²)^{(γ∓1/2)/2} C_m^(λ)(η),
    λ = γ - 1/2 (even), γ + 1/2 (odd),

with the quadrant sign ε = [1, (-1)^m, 1, (-1)^m] on ⌊2φ/π⌋.  The angular
eigenvalue feeds an effective index m_eff = 2(γ+m) ∓ 1 into the same radial
template as the canonical branch, with radicand

    ν² = m_eff² + a²/4 ∓ (2γ-1) a      (- even, + odd),

both written once on `model.Branch`, so at γ = 1/2 the odd radial/energy
forms collapse bitwise onto canonical states with m → m_eff.  The
coefficients C^(e|o) normalize ∫₀^{2π} Φ² dφ to exactly 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .canonical import axial, branch_energy, branch_radial, radial_profile
from .model import Branch, ModelParams, QuantumNumbers, branch
from .specialfn import gegenbauer, log_gamma

__all__ = [
    "NoncanonicalState",
    "noncanonical_state",
    "m_eff",
    "angular_even",
    "angular_odd",
    "radial_even",
    "radial_odd",
    "energy_even",
    "energy_odd",
    "total_wavefunction_nc",
    "density_nc",
    "dimensionless_eigenvalue_nc",
]

TWO_PI = 2.0 * math.pi

#: singular support angles of the angular measure (the exact floats)
SINGULAR_ANGLES = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)


def m_eff(parity: str, gamma: float, m: int) -> float:
    """Effective angular index: 2(γ+m) - 1 (even) or 2(γ+m) + 1 (odd).

    Both signs ±m_eff solve the angular problem; the wavefunctions depend
    on cos 2φ only, so the positive magnitude labels the state and the
    sign multiplicity is a twofold degeneracy.
    """
    return branch(parity, "noncanonical").m_index(gamma, m)


def _angular_log_coeff(br: Branch, gamma: float, m: int) -> float:
    """log of the positive normalization constant C_m^(e|o)."""
    if br.sign > 0:
        return ((gamma - 0.5) * math.log(2.0) + log_gamma(gamma + 0.5)
                + 0.5 * (math.log(m + gamma + 0.5) + log_gamma(m + 1.0)
                         - math.log(math.pi) - log_gamma(m + 2.0 * gamma + 1.0)))
    return ((gamma - 1.5) * math.log(2.0) + log_gamma(gamma - 0.5)
            + 0.5 * (math.log(m + gamma - 0.5) + log_gamma(m + 1.0)
                     - math.log(math.pi) - log_gamma(m + 2.0 * gamma - 1.0)))


def _angular(p: ModelParams, parity: str, m: int, phi, strict: bool):
    """Shared evaluator; strict=True enforces the open-domain precondition."""
    br = branch(parity, "noncanonical")
    br.check_wavefunction(p.gamma)
    br.check_m(m)
    lam_g = p.gamma + 0.5 * br.sign
    beta = 0.5 * (p.gamma + 0.5 * br.sign)   # exponent of (1-η²) in Φ, i.e. (γ∓1/2)/2
    phi_arr = np.asarray(phi, dtype=float)
    scalar = phi_arr.ndim == 0
    ph = np.atleast_1d(phi_arr).astype(float)
    if strict:
        if np.any(ph <= 0.0) or np.any(ph >= TWO_PI):
            raise ValueError("phi must lie strictly inside (0, 2*pi)")
        if np.any(np.isin(ph, SINGULAR_ANGLES)):
            raise ValueError("phi coincides exactly with a singular support "
                             "angle {0, pi/2, pi, 3pi/2}; these are excluded "
                             "from the wavefunction domain (density paths "
                             "return the analytic limit 0)")
    # quadrant reduction: φ = q·π/2 + r with r ∈ [0, π/2).  sin2φ = ±sin2r and
    # cos2φ = (−1)^q cos2r, so the confinement-angle zeros (r = 0 exactly) and
    # the π/2 periodicity of Φ hold bitwise, not merely to rounding.
    r = np.remainder(ph, 0.5 * math.pi)
    quadrant = np.round((ph - r) / (0.5 * math.pi)).astype(int) % 4
    u = np.sin(2.0 * r)                   # |sin 2φ|: 2r ∈ [0, π)
    eta = np.where(quadrant % 2 == 0, 1.0, -1.0) * np.cos(2.0 * r)
    w = u * u
    eps = np.where((quadrant % 2 == 1) & (m % 2 == 1), -1.0, 1.0)
    geg = np.atleast_1d(gegenbauer(m, lam_g, np.clip(eta, -1.0, 1.0)))
    log_c = _angular_log_coeff(br, p.gamma, m)
    out = np.zeros_like(ph)
    inside = w > 0.0
    if np.any(inside):
        with np.errstate(divide="ignore"):
            logmag = log_c + beta * np.log(w[inside]) + np.log(np.abs(geg[inside]))
        out[inside] = eps[inside] * np.sign(geg[inside]) * np.exp(logmag)
    # w == 0 exactly: analytic limit 0 (beta > 0 on every admitted branch)
    return float(out[0]) if scalar else out


def angular_even(p: ModelParams, m: int, phi):
    """Reflection-even angular state Φ_m^(e)(φ); requires γ > 1/2."""
    return _angular(p, "even", m, phi, strict=True)


def angular_odd(p: ModelParams, m: int, phi):
    """Reflection-odd angular state Φ_m^(o)(φ); defined for all γ ≥ 1/2."""
    return _angular(p, "odd", m, phi, strict=True)


def radial_even(p: ModelParams, n: int, m: int, rho):
    """Even-branch radial factor (canonical template with the even radicand)."""
    return branch_radial(p, branch("even"), n, m, rho)


def radial_odd(p: ModelParams, n: int, m: int, rho):
    """Odd-branch radial factor (canonical template with the odd radicand)."""
    return branch_radial(p, branch("odd"), n, m, rho)


def _energy(p: ModelParams, parity: str, n: int, m: int, kappa_z: float) -> float:
    return (branch_energy(p, branch(parity, "noncanonical"), n, m)
            + p.hbar ** 2 * kappa_z ** 2 / (2.0 * p.m0))


def energy_even(p: ModelParams, n: int, m: int, kappa_z: float = 0.0) -> float:
    """Even-branch energy ħω(a+1)[2n+1+ν/(a+1)] + ħ²κz²/(2m0), ν² = even radicand."""
    return _energy(p, "even", n, m, kappa_z)


def energy_odd(p: ModelParams, n: int, m: int, kappa_z: float = 0.0) -> float:
    """Odd-branch energy; same template with the odd radicand."""
    return _energy(p, "odd", n, m, kappa_z)


def dimensionless_eigenvalue_nc(p: ModelParams, parity: str, n: int, m: int) -> float:
    """κ² λ0⁻² = 2 E_radial/(ħω) = 4n(a+1) + 2(a+1) + 2√(radicand)."""
    return 2.0 * _energy(p, parity, n, m, 0.0) / (p.hbar * p.omega)


@dataclass(frozen=True)
class NoncanonicalState:
    """Fully resolved non-canonical stationary state."""

    params: ModelParams
    q: QuantumNumbers
    m_eff: float
    lambda_G: float
    radial_exponent: float
    alpha_L: float
    norms: tuple          # (radial C_nm^(e|o), angular C_m^(e|o))
    E_radial: float
    E_axial: float

    @property
    def E_total(self) -> float:
        return self.E_radial + self.E_axial

    @property
    def degenerate_contact(self) -> bool:
        """True when the radicand vanishes exactly (α_L = 0, exponent = a)."""
        return self.radial_exponent == self.params.a


def noncanonical_state(p: ModelParams, n: int, m: int, parity: str,
                       kappa_z: float = 0.0) -> NoncanonicalState:
    br = branch(parity, "noncanonical")
    br.check_wavefunction(p.gamma)
    q = QuantumNumbers(n=n, m=m, parity=parity, kappa_z=kappa_z)
    _, s, alpha_l, log_norm = radial_profile(p, n, br.radicand(p, m))
    return NoncanonicalState(
        params=p, q=q,
        m_eff=m_eff(parity, p.gamma, m),
        lambda_G=p.gamma + 0.5 * br.sign,
        radial_exponent=s,
        alpha_L=alpha_l,
        norms=(math.exp(log_norm), math.exp(_angular_log_coeff(br, p.gamma, m))),
        E_radial=_energy(p, parity, n, m, 0.0),
        E_axial=p.hbar ** 2 * kappa_z ** 2 / (2.0 * p.m0),
    )


def total_wavefunction_nc(p: ModelParams, n: int, m: int, parity: str,
                          kappa_z: float, rho, phi, z):
    """Product state radial × angular × axial (complex through the axial phase)."""
    radial = branch_radial(p, branch(parity, "noncanonical"), n, m, rho)
    return radial * _angular(p, parity, m, phi, strict=True) * axial(kappa_z, z)


def density_nc(p: ModelParams, n: int, m: int, parity: str, rho, phi):
    """In-plane density |radial × angular|²; fourfold symmetric in φ.

    Unlike the wavefunction API this accepts the singular angles and
    returns their analytic limit 0, so lattice-aligned grids never raise.
    """
    radial = branch_radial(p, branch(parity, "noncanonical"), n, m, rho)
    ang = _angular(p, parity, m, phi, strict=False)
    val = radial * ang
    return val * val
