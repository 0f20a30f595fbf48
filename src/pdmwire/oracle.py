"""Independent numerical certification of the closed-form states.

Three cross-checks, none of which reuse the closed-form eigenvalues:

* a finite-volume Sturm–Liouville eigensolver for the radial equation,
  built on the peeled substitution P = ζ^s w (ζ = λ0·ρ) so the origin
  face carries exactly zero flux and no boundary fit is needed there,
  and solved by Sturm-sequence bisection run as multisection sweeps over
  the bracket [0, doubled upper bound]; a batch of same-size operators
  shares every sweep (lowest_eigenvalues_many), with each operator's
  eigenvalues bit for bit those of a solve on its own, and a sweep's
  Sturm counts cost two in-place ufunc calls per grid cell, over all
  operators and shifts at once;
* analytic ODE residuals: P, P′, P″ assembled by the product rule over
  power × exponential × Laguerre and pushed through the radial equation,
  and a 4th-order finite-difference check of the angular equation;
* quadrature Gram matrices for the radial (ρ dρ) and angular (dφ)
  orthonormality relations.

All eigenvalues are reported in the dimensionless variable κ²/λ0²,
where the closed-form value is 4n(a+1) + 2(a+1) + 2ν.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import noncanonical as nc
from .canonical import energy_radial, radial_eval, radial_profile, radial_wavefunction
from .model import ModelParams, branch as branch_of, make_params
from .specialfn import gauss_legendre, laguerre, laguerre_deriv

__all__ = [
    "GridSpec", "TridiagonalOperator", "ResidualReport",
    "build_radial_operator", "lowest_eigenvalues", "lowest_eigenvalues_many",
    "residual_radial", "residual_angular",
    "orthonormality_matrix", "limit_sweep_a_to_zero",
]

MIN_GRID_POINTS = 200
MAX_EIGENVALUES = 20
BISECTION_TOL = 1e-10
BISECTION_LEVELS = 200       # cap on multisection sweeps per solve
MULTISECTION_DEPTH = 4       # bisection levels per sweep: 2^4 − 1 shifts each
_STURM_BLOCK_BYTES = 1 << 16  # pivots per Sturm-count block: 64 KiB, 8192 doubles
_TINY_PIVOT = 1e-300          # a smaller pivot is stored as −1e-300

RADIAL_BRANCHES = ("canonical", "even", "odd")
ANGULAR_BRANCHES = ("angular_even", "angular_odd")


@dataclass(frozen=True)
class GridSpec:
    """Uniform radial grid of cell centers, strictly inside (0, rho_max]."""

    rho_min: float
    rho_max: float
    npoints: int


@dataclass(frozen=True)
class TridiagonalOperator:
    """Symmetric tridiagonal eigenproblem for the radial equation.

    diag/offdiag define the weight-normalized (already symmetric) matrix;
    weight holds the positive cell masses of the underlying generalized
    problem.  Eigenvalues are dimensionless (κ²/λ0²).
    """

    diag: np.ndarray
    offdiag: np.ndarray
    grid: GridSpec
    weight: np.ndarray


@dataclass(frozen=True)
class ResidualReport:
    """Max normalized ODE residual and where it was attained."""

    max_abs_residual: float
    argmax_rho_or_phi: float
    npoints: int
    equation_id: str


# ---------------------------------------------------------------------------
# radial eigensolver

def _centrifugal_constant(p: ModelParams, m_eff_sq_term: float, parity_sign: int) -> float:
    """c in the radial equation: m² − 3a²/4, shifted by ∓(2γ−1)a off-branch."""
    return m_eff_sq_term - 0.75 * p.a * p.a + parity_sign * (2.0 * p.gamma - 1.0) * p.a


def _domain_zeta_max(a: float, nu: float, n_target: int) -> float:
    """Outer cutoff: 3 Gaussian widths past the turning point of level n_target.

    In the stretched coordinate ξ = ζ^{a+1}/√(a+1) the equation is a unit
    oscillator, so the turning point sits at ξ_t = √(ℰ/(a+1)) and the tail
    decays like exp(−ξ²/2); padding by 3 in ξ puts the Dirichlet wall where
    the state is below ~1e−12 regardless of a.
    """
    e_t = 4.0 * n_target * (a + 1.0) + 2.0 * (a + 1.0) + 2.0 * nu
    xi_t = math.sqrt(e_t / (a + 1.0))
    return (math.sqrt(a + 1.0) * (xi_t + 3.0)) ** (1.0 / (a + 1.0))


def _cell_integrals(q: float, h: float, idx: np.ndarray) -> np.ndarray:
    """∫ ζ^q dζ over cells [(i−1)h, ih] — exact, via face-power differences."""
    qq = q + 1.0
    return h ** qq * (idx ** qq - (idx - 1.0) ** qq) / qq


def build_radial_operator(p: ModelParams, m_eff_sq_term: float, parity_sign: int,
                          npoints: int = 4000, zeta_max: float = None,
                          n_target: int = 6) -> TridiagonalOperator:
    """Discretize the radial equation as a symmetric tridiagonal eigenproblem.

    parity_sign selects the branch: 0 canonical, −1 even, +1 odd (the sign of
    the (2γ−1)a shift in the centrifugal constant).  The discretization peels
    the indicial power first (P = ζ^s w with s = a + ν), then applies a
    cell-centered finite-volume scheme in the self-adjoint form
    (ζ^μ w′)′ + [ℰ ζ^{2a} − ζ^{4a+2}] ζ^μ w = 0 with μ = 1 + 2ν: the flux at
    the ζ=0 face vanishes identically (μ ≥ 1), so only the outer Dirichlet
    wall needs a boundary closure (a one-sided half-cell flux).
    """
    if parity_sign not in (-1, 0, 1):
        raise ValueError("parity_sign must be -1 (even), 0 (canonical) or +1 (odd)")
    if npoints < MIN_GRID_POINTS:
        raise ValueError(f"npoints must be at least {MIN_GRID_POINTS}, got {npoints}")
    if m_eff_sq_term < 0.0:
        raise ValueError("m_eff_sq_term is a squared index and must be >= 0")
    a = p.a
    c0 = _centrifugal_constant(p, m_eff_sq_term, parity_sign)
    radicand = c0 + a * a
    if radicand < 0.0:
        raise ValueError(
            f"indicial radicand {radicand!r} is negative: no bound radial branch "
            f"for a={a!r}, gamma={p.gamma!r}, m_eff_sq_term={m_eff_sq_term!r}")
    nu = math.sqrt(radicand)
    mu = 1.0 + 2.0 * nu
    if zeta_max is None:
        zeta_max = _domain_zeta_max(a, nu, n_target)

    h = zeta_max / npoints
    idx = np.arange(1, npoints + 1, dtype=float)
    face_flux = (idx * h) ** mu / h            # right-face coefficient of cell i
    stiff = _cell_integrals(4.0 * a + 2.0 + mu, h, idx)
    weight = _cell_integrals(2.0 * a + mu, h, idx)

    diag_a = stiff
    diag_a[:-1] += face_flux[:-1]
    diag_a[1:] += face_flux[:-1]
    diag_a[-1] += 2.0 * face_flux[-1]          # Dirichlet wall: half-cell one-sided flux
    off_a = -face_flux[:-1]

    inv_sqrt_w = 1.0 / np.sqrt(weight)
    diag = diag_a * inv_sqrt_w * inv_sqrt_w
    off = off_a * inv_sqrt_w[:-1] * inv_sqrt_w[1:]

    centers = (idx - 0.5) * h / p.lambda0
    grid = GridSpec(rho_min=centers[0], rho_max=centers[-1], npoints=npoints)
    return TridiagonalOperator(diag=diag, offdiag=off, grid=grid, weight=weight)


def _sturm_count(diag: np.ndarray, off_sq: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Eigenvalue counts below each shift, via the Sturm sequence.

    Operators may be stacked: diag (..., N), off_sq (..., N−1) and shifts
    (..., S), with the same leading shape, give counts (..., S).  The
    pivots follow the guarded recurrence
    d_i = (diag_i − shift) − off_sq_{i−1} / d_{i−1}, where a pivot smaller
    than 1e-300 in magnitude is stored as −1e-300: it counts as negative,
    as in LAPACK's dstebz, and divides as −1e-300.  An eigenvalue that
    equals a shift in floating point may so count as below it, and the
    count stays monotone in the shift.  Every count sees the same
    arithmetic as a one-operator call.

    The cells run in blocks of _STURM_BLOCK_BYTES of pivots, all operators
    and shifts of a cell side by side in one row.  A block first runs
    unguarded, two in-place ufunc calls per cell; only if one of its
    pivots is tiny, zero or NaN is it run again with the guard, which
    stores each tiny pivot as −1e-300.  The pivot a block starts from is
    already stored so, and a divisor that passes the check is one the guard
    leaves alone, so both runs give the same bits.
    """
    batch, n, s = shifts.shape[:-1], diag.shape[-1], shifts.shape[-1]
    ops = math.prod(batch)
    diag, off_sq = diag.reshape(ops, n), off_sq.reshape(ops, n - 1)
    shifts = shifts.reshape(ops, s)
    width = shifts.size
    block = max(1, min(n - 1, _STURM_BLOCK_BYTES // (8 * width)))

    # row 0 of pivots carries the last pivot of the previous block
    pivots = np.empty((block + 1,) + shifts.shape)
    coupling = np.empty((block,) + shifts.shape)
    quotient = np.empty(width)
    flat_pivots = pivots.reshape(block + 1, width)
    flat_coupling = coupling.reshape(block, width)
    np.subtract(diag[:, 0, None], shifts, out=pivots[0])
    np.copyto(flat_pivots[0], -_TINY_PIVOT, where=np.abs(flat_pivots[0]) < _TINY_PIVOT)
    count = (flat_pivots[0] < 0.0).astype(int)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for lo in range(1, n, block):
            rows = min(block, n - lo)
            d, e = flat_pivots[:rows + 1], flat_coupling[:rows]
            cells = diag[:, lo:lo + rows].T[..., None]
            np.subtract(cells, shifts, out=pivots[1:rows + 1])
            np.copyto(coupling[:rows], off_sq[:, lo - 1:lo - 1 + rows].T[..., None])
            for e_i, prev, cur in zip(e, d[:-1], d[1:]):
                np.divide(e_i, prev, out=quotient)
                np.subtract(cur, quotient, out=cur)
            if not np.all(np.abs(d) >= _TINY_PIVOT):
                np.subtract(cells, shifts, out=pivots[1:rows + 1])
                for e_i, prev, cur in zip(e, d[:-1], d[1:]):
                    np.divide(e_i, prev, out=quotient)
                    np.subtract(cur, quotient, out=cur)
                    np.copyto(cur, -_TINY_PIVOT, where=np.abs(cur) < _TINY_PIVOT)
            count += np.count_nonzero(d[1:] < 0.0, axis=0)
            d[0] = d[rows]
    return count.reshape(batch + (s,))


def _bisection_tree(lo: np.ndarray, hi: np.ndarray, depth: int) -> np.ndarray:
    """All bisection points of `depth` levels below each bracket [lo, hi].

    Brackets may be stacked: lo and hi of shape (...) give points of shape
    (..., 2^depth + 1), ascending, with lo and hi at the ends; every interior
    point is 0.5·(left + right) of its parent bracket, the same floating-point
    operation a bisection step performs.
    """
    pts = np.stack([lo, hi], axis=-1)
    for _ in range(depth):
        finer = np.empty(pts.shape[:-1] + (2 * pts.shape[-1] - 1,))
        finer[..., ::2] = pts
        finer[..., 1::2] = 0.5 * (pts[..., :-1] + pts[..., 1:])
        pts = finer
    return pts


def _checked_operator(op: TridiagonalOperator, k: int):
    """(diag, off², Gershgorin lower, upper bound); ValueError on a bad operator."""
    diag = np.asarray(op.diag, dtype=float)
    off = np.asarray(op.offdiag, dtype=float)
    if diag.ndim != 1 or off.shape != (diag.size - 1,) or k > diag.size:
        raise ValueError(f"need a 1-D diag of size >= k={k} and an offdiag one shorter, "
                         f"got shapes {diag.shape} and {off.shape}")
    # NaN and ±inf entries propagate into these, as does overflow
    with np.errstate(over="ignore", invalid="ignore"):
        off_sq = off * off
        radius = np.hstack([[0.0], np.abs(off)]) + np.hstack([np.abs(off), [0.0]])
        g_lo = np.min(diag - radius)
        g_hi = np.max(diag + radius)
    if not (np.all(np.isfinite(off_sq)) and np.isfinite(g_hi - g_lo)):
        raise ValueError("operator diag/offdiag must be finite, with squares and "
                         "Gershgorin bounds inside the floating-point range")
    return diag, off_sq, g_lo, g_hi


def _ladder(g_hi: float) -> np.ndarray:
    """0 and the doubling rungs 1e-10·2^j, capped at the Gershgorin upper bound."""
    top = max(g_hi, BISECTION_TOL)
    steps = np.arange(math.ceil(math.log2(top / BISECTION_TOL)) + 1)
    return np.minimum(np.concatenate([[0.0], BISECTION_TOL * 2.0 ** steps]), top)


def _count_free_steps(lo, hi, known_lo, known_hi):
    """Bisect [lo, hi] while every midpoint falls outside [known_lo, known_hi]."""
    while np.max(hi - lo) >= BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        below = mid >= known_hi
        if not np.all(below | (mid <= known_lo)):
            break
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return lo, hi


def _descend(tree: np.ndarray, tree_counts: np.ndarray, order: np.ndarray):
    """Walk one operator's brackets down its counted bisection tree."""
    rows = np.arange(order.size)
    left = np.zeros(order.size, dtype=int)
    right = np.full(order.size, 2 ** MULTISECTION_DEPTH)
    for _ in range(MULTISECTION_DEPTH):
        if np.max(tree[rows, right] - tree[rows, left]) < BISECTION_TOL:
            break
        middle = (left + right) // 2
        below = tree_counts[rows, middle - 1] > order
        right = np.where(below, middle, right)
        left = np.where(below, left, middle)
    return tree[rows, left], tree[rows, right]


def lowest_eigenvalues_many(ops, k: int) -> list:
    """k smallest eigenvalues of each operator, as lowest_eigenvalues returns them.

    All operators must have the same size; they share every Sturm sweep.
    One sweep counts all their ladders, each padded to the longest with its
    own top rung.  Each multisection sweep then counts the trees of the
    operators whose brackets are still at least BISECTION_TOL wide, so every
    operator takes exactly the steps, and returns exactly the bits, of a
    solve on its own.  A sweep's two ufunc calls per cell cost about the
    same for one operator as for a few, which is what the batch saves.
    """
    if not 1 <= k <= MAX_EIGENVALUES:
        raise ValueError(f"k must be between 1 and {MAX_EIGENVALUES}, got {k}")
    checked = [_checked_operator(op, k) for op in ops]
    if not checked:
        return []
    diags, off_sqs, g_los, g_his = zip(*checked)
    sizes = sorted({d.size for d in diags})
    if len(sizes) > 1:
        raise ValueError(f"operators of one batch must have the same size, got {sizes}")
    diag, off_sq = np.stack(diags), np.stack(off_sqs)
    order = np.arange(k)

    # eigenvalue i lies in [ladder[j-1], ladder[j]), j the first rung counting
    # more than i; below rung 0 only the Gershgorin bound is known
    ladders = [_ladder(g_hi) for g_hi in g_his]
    width = max(ladder.size for ladder in ladders)
    counts = _sturm_count(diag, off_sq, np.stack(
        [np.pad(ladder, (0, width - ladder.size), mode="edge") for ladder in ladders]))
    lo = np.empty((len(diags), k))
    hi = np.empty((len(diags), k))
    for b, (g_lo, g_hi, ladder) in enumerate(zip(g_los, g_his, ladders)):
        first = np.searchsorted(counts[b, :ladder.size], order, side="right")
        edges = np.concatenate([[-np.inf], ladder, [np.inf]])
        lo[b], hi[b] = _count_free_steps(np.full(k, g_lo), np.full(k, g_hi),
                                         edges[first], edges[first + 1])

    active = np.arange(len(diags))
    sweeps = 0
    while True:
        keep = np.max(hi[active] - lo[active], axis=1) >= BISECTION_TOL
        if not np.all(keep):
            active, diag, off_sq = active[keep], diag[keep], off_sq[keep]
        if not active.size:
            break
        if sweeps == BISECTION_LEVELS:
            raise RuntimeError(
                f"bisection did not reach {BISECTION_TOL} within {BISECTION_LEVELS} "
                f"sweeps (bracket width {np.max(hi[active] - lo[active]):.3e})")
        tree = _bisection_tree(lo[active], hi[active], MULTISECTION_DEPTH)
        inner = tree[..., 1:-1]
        tree_counts = _sturm_count(diag, off_sq, inner.reshape(active.size, -1))
        tree_counts = tree_counts.reshape(inner.shape)
        for j, b in enumerate(active):
            lo[b], hi[b] = _descend(tree[j], tree_counts[j], order)
        sweeps += 1
    return [list(row) for row in 0.5 * (lo + hi)]


def lowest_eigenvalues(op: TridiagonalOperator, k: int) -> list:
    """k smallest eigenvalues, ascending, to 1e-10 absolute.

    The result is bit for bit the Sturm-sequence bisection of the Gershgorin
    bracket (Barth, Martin & Wilkinson 1967), in about 11 Sturm sweeps per
    operator instead of ~100.  One sweep counts the eigenvalues below 0 and
    below the doubling ladder 1e-10·2^j, capped at the Gershgorin upper
    bound.  The radial operators are positive definite, so this puts every
    wanted eigenvalue between two rungs; an eigenvalue that the count at 0
    finds below 0 keeps the Gershgorin lower bound.  Bisection steps whose
    midpoint falls outside an eigenvalue's rung interval are then decided
    without a count, which assumes that the computed count is monotone in
    the shift (tests compare against plain bisection).  The remaining steps
    are multisection sweeps (Lo, Philippe & Sameh 1987): each resolves
    MULTISECTION_DEPTH bisection levels at once by counting all
    2^depth − 1 midpoints below the current bracket.  Every depth gives the
    same bits, since the tree's points are the bisection midpoints and the
    stop test is taken per level; four levels (15 midpoints) per sweep
    measured fastest, on single operators and on verify's batches alike
    (2 cores, numpy 2.4.6).  BISECTION_LEVELS caps the sweeps; past it a
    RuntimeError is raised.  This is a one-operator call of
    lowest_eigenvalues_many, which solves a batch of operators in shared
    sweeps.
    """
    return lowest_eigenvalues_many([op], k)[0]


# ---------------------------------------------------------------------------
# ODE residuals

def _branch_profile(name: str, p: ModelParams, n: int, m: int):
    """(nu, s, alpha_l, log_norm, c0, eigenvalue) per branch; ν² is the ODE's c0 + a²."""
    if name not in RADIAL_BRANCHES:
        raise ValueError(f"unknown branch {name!r}")
    br = branch_of("none" if name == "canonical" else name)
    me = br.m_index(p.gamma, m)
    c0 = _centrifugal_constant(p, float(me * me), br.sign)
    radicand = c0 + p.a * p.a
    nu, s, alpha_l, log_norm = radial_profile(p, n, radicand)
    eig = 4.0 * n * (p.a + 1.0) + 2.0 * (p.a + 1.0) + 2.0 * nu
    return nu, s, alpha_l, log_norm, c0, eig


def residual_radial(branch: str, p: ModelParams, n: int, m: int,
                    grid=None) -> ResidualReport:
    """Normalized residual of the radial ODE with analytic derivatives.

    P, P′, P″ come from the product rule over ρ^s · e^{−t/2} · L_n^{(α)}(t);
    the residual is normalized by the max of the eigenvalue term
    |ℰ λ0^{2a+2} ρ^{2a} P| so tolerances are scale-free in a and γ.
    """
    if grid is None:
        grid = np.linspace(0.05, 6.0, 2381)
    rho = np.asarray(grid, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("residual grid must be strictly positive")
    a = p.a
    nu, s, alpha_l, log_norm, c0, eig = _branch_profile(branch, p, n, m)

    t = (p.lambda0 * rho) ** (2.0 * (a + 1.0)) / (a + 1.0)
    envelope = np.exp(log_norm + s * np.log(rho) - 0.5 * t)
    lag = laguerre(n, alpha_l, t)
    dlag = laguerre_deriv(n, alpha_l, t)
    d2lag = laguerre(n - 2, alpha_l + 2.0, t) if n >= 2 else np.zeros_like(t)

    tp = 2.0 * p.lambda0 ** (2.0 * (a + 1.0)) * rho ** (2.0 * a + 1.0)
    tpp = (2.0 * a + 1.0) * tp / rho
    g = s / rho - 0.5 * tp
    gp = -s / rho ** 2 - 0.5 * tpp

    wf = envelope * lag
    dwf = envelope * (g * lag + tp * dlag)
    d2wf = envelope * ((g * g + gp) * lag + (2.0 * g * tp + tpp) * dlag
                       + tp * tp * d2lag)

    eig_term = eig * p.lambda0 ** (2.0 * a + 2.0) * rho ** (2.0 * a) * wf
    residual = (d2wf + (1.0 - 2.0 * a) / rho * dwf + eig_term
                - p.lambda0 ** (4.0 * a + 4.0) * rho ** (4.0 * a + 2.0) * wf
                - c0 / rho ** 2 * wf)

    scale = np.max(np.abs(eig_term))
    normalized = np.abs(residual) / scale
    imax = int(np.argmax(normalized))
    return ResidualReport(max_abs_residual=float(normalized[imax]),
                          argmax_rho_or_phi=float(rho[imax]),
                          npoints=rho.size,
                          equation_id=f"radial_ode_{branch}")


def residual_angular(parity: str, p: ModelParams, m: int,
                     grid_phi=None) -> ResidualReport:
    """Normalized residual of the angular ODE, Φ″ by 4th-order differences.

    The residual of Φ″ − q(γ)(1/cos²φ + 1/sin²φ)Φ + m_eff²Φ = 0 is
    normalized by max|m_eff²Φ|; q = (γ−1/2)(γ−3/2) on the even branch and
    (γ−1/2)(γ+1/2) on the odd branch.
    """
    if grid_phi is None:
        grid_phi = np.linspace(0.05, 0.5 * math.pi - 0.05, 4001)
    phi = np.asarray(grid_phi, dtype=float)
    if phi.size < 5:
        raise ValueError("angular residual grid needs at least 5 points")
    h = phi[1] - phi[0]
    # spacing tolerance covers linspace rounding, which scales with the
    # endpoint magnitude rather than with h
    tol = 1e-9 * abs(h) + 8.0 * np.finfo(float).eps * np.max(np.abs(phi))
    if not np.allclose(np.diff(phi), h, rtol=0.0, atol=tol):
        raise ValueError("angular residual grid must be uniform")

    br = branch_of(parity, "noncanonical")
    q = (p.gamma - 0.5) * (p.gamma + (br.sign - 0.5))
    me = br.m_index(p.gamma, m)

    extended = np.concatenate([[phi[0] - 2 * h, phi[0] - h], phi,
                               [phi[-1] + h, phi[-1] + 2 * h]])
    values = nc._angular(p, parity, m, extended, strict=True)
    d2 = (-values[:-4] + 16.0 * values[1:-3] - 30.0 * values[2:-2]
          + 16.0 * values[3:-1] - values[4:]) / (12.0 * h * h)

    core = values[2:-2]
    residual = d2 - q * (1.0 / np.cos(phi) ** 2 + 1.0 / np.sin(phi) ** 2) * core \
        + me * me * core
    scale = np.max(np.abs(me * me * core))
    normalized = np.abs(residual) / scale
    imax = int(np.argmax(normalized))
    return ResidualReport(max_abs_residual=float(normalized[imax]),
                          argmax_rho_or_phi=float(phi[imax]),
                          npoints=phi.size,
                          equation_id=f"angular_ode_{parity}")


# ---------------------------------------------------------------------------
# orthonormality

def _radial_quad_nodes(a: float, t_max: float = 200.0):
    """Panelized Gauss–Legendre nodes/weights in the t variable on (0, t_max].

    Panels halve geometrically toward t=0 (the integrand carries a t^{β−1}
    factor with β ≥ 1 after the measure substitution) and march in steps of 4
    to t_max, where e^{−t} has long since underflowed any polynomial factor.
    """
    edges = [0.0] + [2.0 ** -j for j in range(60, 0, -1)]
    x = 1.0
    while x < t_max:
        x = min(x + 4.0, t_max)
        edges.append(x)
    edges = np.asarray(edges)
    rule = gauss_legendre(24)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * rule.nodes[None, :]).ravel()
    weights = (half[:, None] * rule.weights[None, :]).ravel()
    return nodes, weights


def _angular_quad_nodes():
    """Nodes/weights on (0, 2π), graded toward the four confinement angles."""
    quarter = 0.5 * math.pi
    # grading stops at width ~7e-10: the truncated corner contributes O(1e-19)
    # while deeper panels would round their nodes onto the singular angles
    offsets = [0.0] + [2.0 ** -j * 0.5 * quarter for j in range(30, -1, -1)]
    offsets = np.asarray(offsets)
    rule = gauss_legendre(24)
    nodes, weights = [], []
    for q in range(4):
        lo = q * quarter
        for left, right in ((lo + offsets[:-1], lo + offsets[1:]),
                            (lo + quarter - offsets[1:][::-1],
                             lo + quarter - offsets[:-1][::-1])):
            half = 0.5 * (right - left)
            mid = 0.5 * (right + left)
            nodes.append((mid[:, None] + half[:, None] * rule.nodes[None, :]).ravel())
            weights.append((half[:, None] * rule.weights[None, :]).ravel())
    return np.concatenate(nodes), np.concatenate(weights)


def orthonormality_matrix(branch: str, p: ModelParams, states: list,
                          norm_scale: float = 1.0) -> np.ndarray:
    """Gram matrix of radial (ρ dρ) or angular (dφ) inner products.

    branch "canonical" | "even" | "odd" treats states as (n, m) pairs and
    integrates radial profiles against the measure ρ dρ; "angular_even" |
    "angular_odd" treats states as angular indices m and integrates against
    dφ over the full circle.  norm_scale multiplies every wavefunction (a
    verification hook: a perturbed normalization must break the identity).
    """
    if branch in RADIAL_BRANCHES:
        a = p.a
        t_nodes, t_weights = _radial_quad_nodes(a)
        rho = ((a + 1.0) * t_nodes) ** (1.0 / (2.0 * (a + 1.0))) / p.lambda0
        measure = t_weights * rho * rho / (2.0 * (a + 1.0) * t_nodes)
        table = np.empty((len(states), t_nodes.size))
        for i, (n, m) in enumerate(states):
            _, s, alpha_l, log_norm, _, _ = _branch_profile(branch, p, n, m)
            table[i] = radial_eval(p, n, s, alpha_l, log_norm, rho,
                                   norm_scale=norm_scale)
        return np.einsum("ik,jk,k->ij", table, table, measure)
    if branch in ANGULAR_BRANCHES:
        parity = branch.split("_", 1)[1]
        phi, weights = _angular_quad_nodes()
        table = np.empty((len(states), phi.size))
        for i, m in enumerate(states):
            table[i] = norm_scale * nc._angular(p, parity, int(m), phi, strict=True)
        return np.einsum("ik,jk,k->ij", table, table, weights)
    raise ValueError(f"unknown branch {branch!r}; expected one of "
                     f"{RADIAL_BRANCHES + ANGULAR_BRANCHES}")


# ---------------------------------------------------------------------------
# a → 0 limit sweep

def limit_sweep_a_to_zero(p: ModelParams, n: int, m: int, a_values) -> list:
    """Energy and wavefunction deviations from the a=0 oscillator forms.

    Returns one row per a: the radial energy, its a=0 limit ħω(2n+|m|+1),
    the absolute energy deviation, and the max pointwise deviation of the
    radial wavefunction from its limit on ρ ∈ [0.1, 4].
    """
    rho = np.linspace(0.1, 4.0, 391)
    p0 = make_params(m0=p.m0, omega=p.omega, hbar=p.hbar, a=0.0, gamma=p.gamma)
    limit_energy = p.hbar * p.omega * (2 * n + abs(m) + 1)
    limit_wf = radial_wavefunction(p0, n, m, rho)
    rows = []
    for a in a_values:
        pa = make_params(m0=p.m0, omega=p.omega, hbar=p.hbar, a=float(a),
                         gamma=p.gamma)
        energy = energy_radial(pa, n, m)
        wf_dev = float(np.max(np.abs(radial_wavefunction(pa, n, m, rho) - limit_wf)))
        rows.append({
            "a": float(a),
            "energy": energy,
            "energy_limit": limit_energy,
            "energy_deviation": abs(energy - limit_energy),
            "max_wavefunction_deviation": wf_dev,
        })
    return rows
