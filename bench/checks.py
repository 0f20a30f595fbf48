"""Output checks of the benchmark, made apart from the program.

Every check returns a list of failure messages; an empty list is a pass.
The references are either independent computations (the paper's spectrum
and normalization written out here, `scipy.special`, `scipy.integrate`) or
properties of the method (second-order convergence, exact ring symmetry,
the (1+δ)² scaling of a perturbed Gram diagonal).  None of them compares
against stored copies of the program's output, and none imports pdmwire.
"""
from __future__ import annotations

import math

import numpy as np

#: relative tolerance on closed-form energies (same formula, other operation order)
ENERGY_RTOL = 1e-12
#: a perturbed Gram diagonal must read |(1+δ)² − 1| to this absolute tolerance
PERTURB_ATOL = 1e-8
#: observed convergence order of the finite-volume eigensolver
ORDER_EXPECTED, ORDER_ATOL = 2.0, 0.05
#: eigenvalue differences below this are too close to the bisection tolerance
#: (1e-10) for an order to be read to ORDER_ATOL
ORDER_MIN_DIFF = 2e-8
#: Richardson-extrapolated eigenvalue against the closed form
RICHARDSON_ATOL = 1e-8
#: raster Riemann mass
MASS_ATOL = 1e-3
#: sampled values against scipy, relative to the largest value of the output
SCIPY_RTOL = 1e-9
#: ∫ P² ρ dρ by adaptive quadrature
NORM_ATOL = 1e-7


# ---------------------------------------------------------------------------
# the paper's closed forms, written out independently of the program

def nu(branch: str, a: float, gamma: float, m: int) -> float:
    """Radial index ν: √(m²+a²/4) (canonical) or √(m_eff² + a²/4 ∓ (2γ−1)a)."""
    if branch == "none":
        return math.sqrt(m * m + 0.25 * a * a)
    sign = -1.0 if branch == "even" else 1.0
    m_eff = 2.0 * (gamma + m) + sign
    return math.sqrt(m_eff * m_eff + 0.25 * a * a + sign * (2.0 * gamma - 1.0) * a)


def energy(branch: str, a: float, gamma: float, n: int, m: int) -> float:
    """In-plane energy ħω[(a+1)(2n+1) + ν] in natural units."""
    return (a + 1.0) * (2 * n + 1) + nu(branch, a, gamma, m)


def eigenvalue(branch: str, a: float, gamma: float, n: int, m: int) -> float:
    """Dimensionless eigenvalue 4n(a+1) + 2(a+1) + 2ν of the radial equation."""
    return 4.0 * n * (a + 1.0) + 2.0 * (a + 1.0) + 2.0 * nu(branch, a, gamma, m)


def radial_reference(branch: str, a: float, gamma: float, n: int, m: int, rho):
    """P(ρ) = C ρ^s e^{−t/2} L_n^(α)(t) by scipy, with C² = 2(a+1)^{−α} n!/Γ(n+α+1)."""
    from scipy.special import eval_genlaguerre, gammaln

    v = nu(branch, a, gamma, m)
    s, alpha = a + v, v / (a + 1.0)
    rho = np.asarray(rho, dtype=float)
    t = rho ** (2.0 * (a + 1.0)) / (a + 1.0)
    log_c = 0.5 * (math.log(2.0) - alpha * math.log(a + 1.0)
                   + gammaln(n + 1.0) - gammaln(n + alpha + 1.0))
    with np.errstate(divide="ignore"):
        envelope = np.exp(log_c + s * np.log(rho) - 0.5 * t)
    return envelope * eval_genlaguerre(n, alpha, t)


def angular_sq_reference(branch: str, gamma: float, m: int, phi):
    """Φ² = C² (1−η²)^λ C_m^(λ)(η)², η = cos 2φ, λ = γ ∓ 1/2, with C fixed by
    ∫₀^{2π} Φ² dφ = 1 through the Gegenbauer norm
    ∫ (1−x²)^{λ−1/2} C_m^(λ)² dx = π 2^{1−2λ} Γ(m+2λ) / (m! (m+λ) Γ(λ)²)."""
    from scipy.special import eval_gegenbauer, gammaln

    lam = gamma - 0.5 if branch == "even" else gamma + 0.5
    log_c2 = (gammaln(m + 1.0) + math.log(m + lam) + 2.0 * gammaln(lam)
              - math.log(2.0 * math.pi) - (1.0 - 2.0 * lam) * math.log(2.0)
              - gammaln(m + 2.0 * lam))
    eta = np.cos(2.0 * np.asarray(phi, dtype=float))
    return np.exp(log_c2) * (1.0 - eta * eta) ** lam * eval_gegenbauer(m, lam, eta) ** 2


def _close_to(values, reference, scale=None) -> bool:
    """|values − reference| ≤ SCIPY_RTOL × scale, scale defaulting to max|reference|."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if scale is None:
        scale = float(np.max(np.abs(reference)))
    scale = max(scale, np.finfo(float).tiny)
    return bool(np.all(np.abs(values - reference) <= SCIPY_RTOL * scale))


# ---------------------------------------------------------------------------
# certify: `pdmwire verify --fast` sweeps

def eigensolver_records(report: dict) -> list:
    return [rec for rec in report["checks"] if rec["equation_id"].startswith("eigensolver_")]


def check_sweep(report: dict, exit_code: int, delta: float) -> list:
    """An unperturbed sweep passes whole; a perturbed one fails exactly its
    radial Gram records, each by |(1+δ)² − 1|."""
    errors = []
    records = report["checks"]
    if report["config"]["options"]["perturb_norm"] != delta:
        errors.append("report does not echo the requested perturbation")
    if delta == 0.0:
        if exit_code != 0:
            errors.append(f"unperturbed sweep exited {exit_code}, expected 0")
        failing = [rec["equation_id"] for rec in records if not rec["pass"]]
        if failing or not report["all_pass"]:
            errors.append(f"unperturbed sweep failed records {failing}")
        return errors
    if exit_code != 2:
        errors.append(f"perturbed sweep (delta={delta!r}) exited {exit_code}, expected 2")
    failing = {rec["equation_id"] for rec in records if not rec["pass"]}
    radial_gram = [rec for rec in records
                   if rec["equation_id"].startswith("orthonormality_radial_")]
    if not radial_gram or failing != {rec["equation_id"] for rec in radial_gram}:
        errors.append(f"perturbed sweep failed {sorted(failing)}, expected exactly "
                      "the orthonormality_radial_* records")
    expected = abs((1.0 + delta) ** 2 - 1.0)
    for rec in radial_gram:
        if not abs(rec["measured"] - expected) <= PERTURB_ATOL:
            errors.append(f"{rec['equation_id']} measured {rec['measured']!r}, "
                          f"expected |(1+delta)^2-1| = {expected!r}")
    return errors


def check_eigensolver_unchanged(unperturbed: list, perturbed: list) -> list:
    if not unperturbed or unperturbed != perturbed:
        return ["eigensolver records differ between unperturbed and perturbed sweeps"]
    return []


# ---------------------------------------------------------------------------
# converge: one state solved on the grid-refinement ladder

def check_ladder(sizes, values, exact: float) -> list:
    """Observed order log2((λ_N−λ_2N)/(λ_2N−λ_4N)) ≈ 2 above rounding, and the
    Richardson extrapolation of the two finest grids ≈ the closed form."""
    errors = []
    if any(big != 2 * small for small, big in zip(sizes, sizes[1:])):
        return [f"grid ladder {list(sizes)} does not double"]
    diffs = np.diff(np.asarray(values, dtype=float))
    checked = 0
    for coarse, fine in zip(diffs, diffs[1:]):
        if abs(fine) < ORDER_MIN_DIFF:
            continue
        checked += 1
        order = math.log2(coarse / fine) if coarse / fine > 0 else math.nan
        if not abs(order - ORDER_EXPECTED) <= ORDER_ATOL:
            errors.append(f"observed order {order:.4f}, expected {ORDER_EXPECTED}")
    if checked == 0:
        errors.append("no eigenvalue difference above rounding: order not observable")
    extrapolated = (4.0 * values[-1] - values[-2]) / 3.0
    if not abs(extrapolated - exact) <= RICHARDSON_ATOL * max(1.0, abs(exact)):
        errors.append(f"Richardson value {extrapolated!r} vs closed form {exact!r}")
    return errors


# ---------------------------------------------------------------------------
# render: CSV + JSON sidecar written by `pdmwire density`

def read_raster(csv_path: str):
    """(header pairs, data array of x,y,value rows) of a density CSV."""
    header = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("# "):
                columns = line.strip()
                break
            key, _, value = line[2:].rstrip("\n").partition("=")
            header.append((key, value))
        else:
            columns = None
    if columns != "x,y,value":
        return header, None
    data = np.loadtxt(csv_path, delimiter=",", skiprows=len(header) + 1, ndmin=2)
    return header, data


def _same_value(text: str, value) -> bool:
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if value is None:
        return text == "None"
    if isinstance(value, (int, float)):
        try:
            return float(text) == float(value)
        except ValueError:
            return False
    return text == str(value)


def lattice_offsets(ngrid: int):
    """Doubled integer offsets (dx, dy) of the row-major x,y rows."""
    dd = 2 * np.arange(ngrid, dtype=np.int64) - (ngrid - 1)
    return np.tile(dd, ngrid), np.repeat(dd, ngrid)


def check_raster(header: list, data, sidecar: dict, branch: str, ngrid: int) -> list:
    """Row count, header/sidecar agreement, Riemann mass, and the branch's
    exact symmetries: constant canonical rings, or zero non-canonical axes
    with a positive peak in every quadrant."""
    errors = []
    options = sidecar["config"]["options"]
    metadata = sidecar["metadata"]
    expected = ([("command", sidecar["config"]["command"])]
                + [(key, options[key]) for key in sorted(options)]
                + [(key, metadata[key]) for key in sorted(metadata)])
    if [key for key, _ in header] != [key for key, _ in expected]:
        errors.append("CSV header keys differ from the sidecar's")
    elif not all(_same_value(text, value) for (_, text), (_, value) in zip(header, expected)):
        errors.append("CSV header values differ from the sidecar's")
    if sidecar["nx"] != ngrid or sidecar["ny"] != ngrid or options["ngrid"] != ngrid:
        errors.append("sidecar grid size differs from the request")
    if data is None or data.shape != (ngrid * ngrid, 3):
        return errors + [f"CSV holds {None if data is None else data.shape} rows, "
                         f"expected ({ngrid * ngrid}, 3)"]
    x, y, values = data[:, 0], data[:, 1], data[:, 2]
    x_lo, x_hi = sidecar["x_range"]
    y_lo, y_hi = sidecar["y_range"]
    hx, hy = (x_hi - x_lo) / (ngrid - 1), (y_hi - y_lo) / (ngrid - 1)
    if (x[0], x[-1], y[0], y[-1]) != (x_lo, x_lo + (ngrid - 1) * hx,
                                      y_lo, y_lo + (ngrid - 1) * hy):
        errors.append("CSV coordinates do not span the sidecar's window")
    mass = float(np.sum(values)) * hx * hy
    if not abs(mass - 1.0) <= MASS_ATOL:
        errors.append(f"Riemann mass {mass!r} is not within {MASS_ATOL} of 1")
    errors += check_symmetry(values, branch, ngrid)
    return errors


def check_symmetry(values, branch: str, ngrid: int) -> list:
    values = np.asarray(values).ravel()
    dx, dy = lattice_offsets(ngrid)
    if branch == "none":
        ksq = dx * dx + dy * dy
        order = np.argsort(ksq, kind="stable")
        same_ring = ksq[order][1:] == ksq[order][:-1]
        ring_values = values[order]
        if not np.array_equal(ring_values[1:][same_ring], ring_values[:-1][same_ring]):
            return ["canonical raster is not exactly constant on lattice rings"]
        return []
    errors = []
    on_axis = (dx == 0) | (dy == 0)
    if np.any(values[on_axis] != 0.0):
        errors.append("non-canonical raster is not exactly 0 on the confinement axes")
    for qx in (1, -1):
        for qy in (1, -1):
            quadrant = (np.sign(dx) == qx) & (np.sign(dy) == qy)
            if not np.max(values[quadrant]) > 0.0:
                errors.append(f"quadrant ({qx},{qy}) has no positive peak")
    return errors


def check_canonical_cells(a: float, n: int, m: int, x, y, values, scale: float) -> list:
    """Sampled canonical cells against |P_nm|²/2π evaluated by scipy."""
    reference = radial_reference("none", a, 0.5, n, m, np.hypot(x, y)) ** 2 / (2.0 * math.pi)
    if not _close_to(values, reference, scale):
        return [f"canonical cells differ from scipy |P_nm|^2/2pi (a={a}, n={n}, m={m})"]
    return []


# ---------------------------------------------------------------------------
# explore: library calls

def check_energies(branch: str, a: float, gamma: float, table) -> list:
    """table[i, j] is the energy of (n=i, m=m_values[j]) as (n, m, E) triples."""
    for n, m, value in table:
        want = energy(branch, a, gamma, n, m)
        if not abs(value - want) <= ENERGY_RTOL * abs(want):
            return [f"{branch} energy (n={n}, m={m}) = {value!r}, formula gives {want!r}"]
    return []


def check_collapse(odd_values, canonical_values, odd_energy: float,
                   canonical_energy: float) -> list:
    """At γ = 1/2 the odd state m is the canonical state 2m+2, bit for bit."""
    if odd_energy != canonical_energy or not np.array_equal(odd_values, canonical_values):
        return ["odd branch at gamma=1/2 does not collapse onto canonical m -> 2m+2"]
    return []


def check_polynomial(kind: str, degree: int, order: float, x, values, scale) -> list:
    from scipy.special import eval_gegenbauer, eval_genlaguerre

    ref_fn = eval_genlaguerre if kind == "laguerre" else eval_gegenbauer
    reference = ref_fn(degree, order, np.asarray(x, dtype=float))
    if not _close_to(values, reference, scale):
        return [f"{kind}({degree}, {order}) differs from scipy"]
    return []


def check_radial_values(branch, a, gamma, n, m, rho, values, scale) -> list:
    reference = radial_reference(branch, a, gamma, n, m, rho)
    if not _close_to(values, reference, scale):
        return [f"{branch} radial values differ from scipy (a={a}, n={n}, m={m})"]
    return []


def check_angular_values(branch, gamma, m, phi, values, scale) -> list:
    """Φ² against the scipy reference (the quadrant sign ε squares away)."""
    if not _close_to(np.square(values), angular_sq_reference(branch, gamma, m, phi), scale):
        return [f"{branch} angular values differ from scipy (gamma={gamma}, m={m})"]
    return []


def check_density_values(branch, a, gamma, n, m, rho, phi, values, scale) -> list:
    """|Ψ|² = P² Φ², with Φ² = 1/2π on the canonical branch."""
    radial_sq = radial_reference(branch, a, gamma, n, m, rho) ** 2
    angular_sq = (1.0 / (2.0 * math.pi) if branch == "none"
                  else angular_sq_reference(branch, gamma, m, phi))
    if not _close_to(values, radial_sq * angular_sq, scale):
        return [f"{branch} density differs from scipy (a={a}, n={n}, m={m})"]
    return []


def check_normalization(radial, a: float) -> list:
    """∫ P(ρ)² ρ dρ = 1 by scipy.integrate.quad; radial maps ρ to P(ρ).

    The integral stops where t = (λ0ρ)^{2(a+1)}/(a+1) reaches 1500, past
    which the weight e^{−t} leaves nothing a double can hold; the program's
    radial factors overflow to NaN much farther out (see README)."""
    from scipy.integrate import quad

    rho_cut = ((a + 1.0) * 1500.0) ** (1.0 / (2.0 * (a + 1.0)))
    value, _ = quad(lambda r: radial(r) ** 2 * r, 0.0, rho_cut, limit=400,
                    epsabs=1e-12, epsrel=1e-12)
    if not abs(value - 1.0) <= NORM_ATOL:
        return [f"radial norm integral {value!r} is not 1"]
    return []
