"""Physical configuration: parameters, mass profile, confining potential.

The wire is an electron gas confined in the (x, y) plane by an oscillator
potential whose effective mass varies radially as M(ρ) = m0 (λ0 ρ)^{2a}.
The deformation exponent a > -1 flattens (a < 0) or steepens (a > 0) the
resulting potential V(ρ) = M(ρ) ω² ρ² / 2; γ ≥ 1/2 is the Wigner
deformation parameter of the non-canonical branch, with γ = 1/2 exactly
the canonical algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ModelParams", "QuantumNumbers", "Branch", "branch", "make_params",
           "mass_at", "potential_at"]

#: operational cap on the deformation exponent: normalization Γ-ratios with
#: α = √(m²+a²/4)/(a+1) stay finite in double precision up to here
A_MAX = 50.0

@dataclass(frozen=True)
class ModelParams:
    """Immutable model configuration (natural units m0 = ω = ħ = 1 by default).

    Attributes
    ----------
    m0, omega, hbar : float
        Mass scale, confinement frequency, action quantum; all > 0.
    a : float
        Mass-profile exponent, -1 < a ≤ 50.
    gamma : float
        Wigner parameter, γ ≥ 1/2; γ = 1/2 designates the canonical branch.
    lambda0 : float
        Derived inverse length √(m0 ω / ħ).
    """

    m0: float
    omega: float
    hbar: float
    a: float
    gamma: float
    lambda0: float


@dataclass(frozen=True)
class Branch:
    """One branch of the radial problem: canonical, or a non-canonical parity.

    All three branches share one Laguerre template and differ only in the
    radicand ν² = m_index² + a²/4 + sign·(2γ−1)·a of the radial exponent,
    with m_index = m on the canonical branch and 2(γ+m) + sign on the
    reflection-even (sign −1) and reflection-odd (sign +1) branches.  At
    γ = 1/2 the sign term vanishes and the odd branch is the canonical one
    at m → 2m + 2.
    """

    parity: str     # "none" (canonical), "even" or "odd"
    sign: int       # 0, −1 or +1
    family: str     # "canonical" or "noncanonical": the label artifacts print

    def check_m(self, m) -> None:
        """Non-canonical branches take a non-negative integer ladder index m."""
        if self.sign and (m != int(m) or m < 0):
            raise ValueError("non-canonical branches use a non-negative integer "
                             f"index m, got {m!r}")

    def m_range(self, m_max: int) -> range:
        """Indices with |m| ≤ m_max: signed on the canonical branch, else m ≥ 0."""
        return range(-m_max if self.sign == 0 else 0, m_max + 1)

    def m_index(self, gamma: float, m):
        """m as given on the canonical branch; m_eff = 2(γ+m) + sign otherwise."""
        if self.sign == 0:
            return m
        self.check_m(m)
        if not gamma >= 0.5:
            raise ValueError(f"gamma must be >= 1/2, got {gamma}")
        return 2.0 * (gamma + m) + self.sign

    def radicand(self, p: ModelParams, m) -> float:
        """ν² = m_index² + a²/4 + sign·(2γ−1)·a; bit for bit m² + a²/4 at sign 0."""
        mi = self.m_index(p.gamma, m)
        return mi * mi + 0.25 * p.a * p.a + self.sign * (2.0 * p.gamma - 1.0) * p.a

    def check_wavefunction(self, gamma: float) -> None:
        """Even states need γ > 1/2 (their energy stays defined at γ = 1/2)."""
        if self.sign < 0 and not gamma > 0.5:
            raise ValueError("even branch requires gamma > 1/2 (the Gegenbauer "
                             "order gamma - 1/2 must be positive)")


BRANCHES = (Branch("none", 0, "canonical"),
            Branch("even", -1, "noncanonical"),
            Branch("odd", +1, "noncanonical"))
PARITIES = tuple(b.parity for b in BRANCHES)


def branch(parity: str, family: str = None) -> Branch:
    """The Branch of a parity name; ValueError if unknown or outside `family`."""
    for b in BRANCHES:
        if b.parity == parity and family in (None, b.family):
            return b
    allowed = tuple(b.parity for b in BRANCHES if family in (None, b.family))
    raise ValueError(f"parity must be one of {allowed}, got {parity!r}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Quantum numbers of one stationary state.

    `parity` selects the branch: "none" is canonical (m is a signed angular
    momentum index), "even"/"odd" are the non-canonical reflection branches
    (m is a non-negative ladder index).  kappa_z is the continuous axial
    wavenumber.
    """

    n: int
    m: int
    parity: str = field(default="none")
    kappa_z: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.n != int(self.n) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
        if self.m != int(self.m):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        branch(self.parity).check_m(self.m)
        if not math.isfinite(self.kappa_z):
            raise ValueError("kappa_z must be finite")


def make_params(m0: float = 1.0, omega: float = 1.0, hbar: float = 1.0,
                a: float = 0.0, gamma: float = 0.5) -> ModelParams:
    """Validate inputs and derive λ0 = √(m0 ω / ħ).

    Raises
    ------
    ValueError
        If any of m0, ω, ħ is non-positive or not finite, if a ≤ -1 (the
        mass profile would not be integrable against the oscillator weight),
        if a > 50 (normalization Γ-ratios overflow double precision), if γ
        is below 1/2 or not finite, or if λ0 over- or underflows.
    """
    for name, val in (("m0", m0), ("omega", omega), ("hbar", hbar)):
        if not 0 < val < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {val}")
    if not a > -1:
        raise ValueError(f"the deformation exponent requires a > -1, got a={a}")
    if a > A_MAX:
        raise ValueError(f"a={a} exceeds the operational cap {A_MAX}")
    if not 0.5 <= gamma < math.inf:
        raise ValueError(f"the Wigner parameter requires finite gamma >= 1/2, got {gamma}")
    lambda0 = math.sqrt(m0 * omega / hbar)
    if not 0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 = sqrt(m0*omega/hbar) = {lambda0} is out of range")
    return ModelParams(m0=float(m0), omega=float(omega), hbar=float(hbar),
                       a=float(a), gamma=float(gamma), lambda0=lambda0)


def mass_at(p: ModelParams, rho):
    """Effective mass M(ρ) = m0 (λ0 ρ)^{2a} for ρ ≥ 0.

    For a < 0 the profile diverges on the axis; M(0) is reported as the
    +inf sentinel (the analytic limit).  For a = 0 the mass is constant m0.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be >= 0")
    if p.a == 0.0:
        out = np.full_like(rho_arr, p.m0)
    else:
        with np.errstate(divide="ignore"):
            out = p.m0 * np.power(p.lambda0 * rho_arr, 2.0 * p.a)
    return out if rho_arr.ndim else float(out)


def potential_at(p: ModelParams, rho):
    """Confining potential V(ρ) = M(ρ) ω² ρ² / 2 = (m0 ω²/2) λ0^{2a} ρ^{2a+2}.

    The exponent 2a+2 is positive for every admissible a, so V(0) = 0 even
    where the mass itself diverges.
    """
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ValueError("rho must be >= 0")
    out = 0.5 * p.m0 * p.omega ** 2 * p.lambda0 ** (2.0 * p.a) * np.power(rho_arr, 2.0 * p.a + 2.0)
    return out if rho_arr.ndim else float(out)
