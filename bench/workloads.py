"""The four workloads: seeded inputs, the ops that run them, and their checks.

Each workload draws its inputs from the seed as a list of rounds; a round is
the workload's fixed list of ops, the same kinds in the same order every
round, so a run attempts whole rounds.  `run` performs one op through the
program's public functions (looked up on the module at call time, so a
traced run sees them), `check` tests its output outside the timed span, and
`finish` runs the checks that need scipy once the loop is over, after the
peak resident set has been read.

Parameter ranges stay inside the envelope where the outputs are correct
today; the README lists the faults outside it.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import checks
from pdmwire import canonical, cli, fields, model, noncanonical, oracle, specialfn

BRANCHES = ("none", "even", "odd")
#: rounds drawn per seed at set-up; a run that outlives them starts over
ROUNDS = 64


def _sign(branch: str) -> int:
    return {"none": 0, "even": -1, "odd": 1}[branch]


def _m_eff_squared(branch: str, gamma: float, m: int) -> float:
    if branch == "none":
        return float(m * m)
    m_eff = 2.0 * (gamma + m) + _sign(branch)
    return m_eff * m_eff


def _draw_state(rng, branch: str, a_range, gamma_range, n_max: int, m_max: int) -> dict:
    a = float(rng.uniform(*a_range))
    gamma = 0.5 if branch == "none" else float(rng.uniform(*gamma_range))
    m_lo = -m_max if branch == "none" else 0
    return {"branch": branch, "a": a, "gamma": gamma,
            "n": int(rng.integers(0, n_max + 1)), "m": int(rng.integers(m_lo, m_max + 1))}


class Workload:
    """Base: rounds of ops drawn from the seed at set-up."""

    name = ""
    #: percentile reported as op_tail_s; None below 40 ops per run
    tail_percentile = None

    def __init__(self, seed: int, tmpdir: str):
        self.seed = seed
        self.tmpdir = tmpdir
        self.out_bytes = 0
        self.rounds = [self.make_round(np.random.default_rng([seed, r]), r)
                       for r in range(ROUNDS)]

    def round(self, index: int) -> list:
        return self.rounds[index % ROUNDS]

    def make_round(self, rng, index: int) -> list:
        raise NotImplementedError

    def run(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, output) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        return []

    def _cli(self, argv: list):
        """`pdmwire.cli.main` in-process; stdout is captured, not printed."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _take(self, path: str) -> int:
        """Size of an artifact the op wrote; the file is removed."""
        size = os.path.getsize(path)
        os.remove(path)
        return size


class Certify(Workload):
    """`pdmwire verify --fast` sweeps, unperturbed and with --perturb-norm δ."""

    name = "certify"

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.unperturbed = []       # eigensolver records of the round's unperturbed sweep

    def make_round(self, rng, index):
        delta = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, -1.0))
        return [{"delta": 0.0}, {"delta": delta}]

    def run(self, op):
        argv = ["verify", "--fast", "--out", os.path.join(self.tmpdir, "report.json")]
        if op["delta"]:
            argv += ["--perturb-norm", repr(op["delta"])]
        return self._cli(argv)

    def check(self, op, output):
        code, text = output
        path = os.path.join(self.tmpdir, "report.json")
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        self.out_bytes += self._take(path) + len(text.encode())
        errors = checks.check_sweep(report, code, op["delta"])
        records = checks.eigensolver_records(report)
        if op["delta"] == 0.0:
            self.unperturbed = records
        else:
            errors += checks.check_eigensolver_unchanged(self.unperturbed, records)
        return errors


class Converge(Workload):
    """Single-operator solves up the grid-refinement ladder, one state per branch."""

    name = "converge"
    tail_percentile = 75
    SIZES = (500, 1000, 2000, 4000, 8000)

    def make_round(self, rng, index):
        # n alternates between {0, 2, 4} and {1, 3, 5}, so every two rounds
        # solve each k = n+1 from 1 to 6 once
        ops = []
        for branch, n in zip(BRANCHES, rng.permutation(np.arange(index % 2, 6, 2))):
            state = _draw_state(rng, branch, (-0.5, 2.5), (0.75, 2.5), 0, 3)
            state["n"] = int(n)
            ops += [{"state": state, "npoints": size} for size in self.SIZES]
        return ops

    def run(self, op):
        st = op["state"]
        p = model.make_params(a=st["a"], gamma=st["gamma"])
        operator = oracle.build_radial_operator(
            p, _m_eff_squared(st["branch"], st["gamma"], st["m"]), _sign(st["branch"]),
            npoints=op["npoints"], n_target=st["n"] + 2)
        return oracle.lowest_eigenvalues(operator, st["n"] + 1)[st["n"]]

    def check(self, op, output):
        if op["npoints"] == self.SIZES[0]:
            self.ladder = []
        self.ladder.append(output)
        if op["npoints"] != self.SIZES[-1]:
            return []
        st = op["state"]
        exact = checks.eigenvalue(st["branch"], st["a"], st["gamma"], st["n"], st["m"])
        return checks.check_ladder(self.SIZES, self.ladder, exact)


class Render(Workload):
    """`pdmwire density --out` rasters: nineteen at 201², one at 1001² per round."""

    name = "render"
    tail_percentile = 75
    RANGES = {"none": ((-0.5, 2.5), None), "even": ((0.0, 2.5), (1.25, 2.5)),
              "odd": ((0.0, 2.5), (0.75, 2.5))}
    #: the 1001² rasters, the same in every run: their CSV size sets the peak
    #: resident set, which seeded states would move by ±8 % (245–287 MiB)
    LARGE = ({"branch": "none", "a": 0.5, "gamma": 0.5, "n": 1, "m": 1},
             {"branch": "even", "a": 1.0, "gamma": 1.5, "n": 1, "m": 1},
             {"branch": "odd", "a": 1.0, "gamma": 1.0, "n": 1, "m": 1})
    CELL_SAMPLES = 16

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.cells = []

    def make_round(self, rng, index):
        # 19 rasters at 201² (7 of one branch, 6 of each other) and one at 1001²,
        # so two rounds give the 40 ops a tail needs
        ops = [dict(self.LARGE[index % 3], ngrid=1001)]
        for b, branch in enumerate(BRANCHES):
            count = 7 if b == index % 3 else 6
            (a_lo, a_hi), gamma_range = self.RANGES[branch]
            # n and a stratified, so every round holds the same mix of raster costs
            for i, j in enumerate(rng.permutation(count)):
                state = _draw_state(rng, branch, (a_lo, a_hi), gamma_range, 4,
                                    3 if branch == "none" else 2)
                a = a_lo + (j + rng.uniform()) / count * (a_hi - a_lo)
                ops.append(dict(state, n=i % 5, a=float(a), ngrid=201))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op):
        argv = ["density", f"--a={op['a']!r}", f"--gamma={op['gamma']!r}",
                "--parity", op["branch"], "--n", str(op["n"]), "--m", str(op["m"]),
                "--ngrid", str(op["ngrid"]), "--out", os.path.join(self.tmpdir, "density.csv")]
        return self._cli(argv)

    def check(self, op, output):
        code, text = output
        csv_path = os.path.join(self.tmpdir, "density.csv")
        json_path = os.path.join(self.tmpdir, "density.json")
        if code != 0:
            return [f"density exited {code}"]
        header, data = checks.read_raster(csv_path)
        with open(json_path, "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        self.out_bytes += self._take(csv_path) + self._take(json_path) + len(text.encode())
        errors = checks.check_raster(header, data, sidecar, op["branch"], op["ngrid"])
        if op["branch"] == "none" and data is not None and not errors:
            self._sample_cells(op, sidecar["metadata"], data)
        return errors

    def _sample_cells(self, op, metadata, data):
        """Keep a few cells outside the origin-averaged disc for scipy."""
        dx, dy = checks.lattice_offsets(op["ngrid"])
        ksq = dx * dx + dy * dy
        cut = 2 * metadata["origin_cut_cells"]
        values = data[:, 2]
        eligible = np.flatnonzero((ksq > 0) & (ksq >= cut * cut)
                                  & (values >= 1e-6 * np.max(values)))
        rng = np.random.default_rng([self.seed, len(self.cells)])
        pick = rng.choice(eligible, size=min(self.CELL_SAMPLES, eligible.size), replace=False)
        self.cells.append((op, data[pick].copy(), float(np.max(values))))

    def finish(self):
        errors = []
        for op, cells, scale in self.cells:
            errors += checks.check_canonical_cells(op["a"], op["n"], op["m"], cells[:, 0],
                                                   cells[:, 1], cells[:, 2], scale)
        return errors


class Explore(Workload):
    """Interactive library calls: spectra, point evaluations, traces, small rasters."""

    name = "explore"
    tail_percentile = 90
    POINTS = 20000
    SAMPLES = 64
    #: deferred quadratures per run (each costs milliseconds)
    QUAD_CAP = 16
    #: the op input an evaluation's output is sampled against
    POINTS_KEY = {"radial": "rho", "laguerre": "x", "gegenbauer": "x", "angular": "phi"}

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.deferred = []

    def make_round(self, rng, index):
        # Degrees cycle through 0..20.  The trace and raster states walk a
        # fixed grid of (n, branch, m, a-bin); the seed draws only a's place
        # in its bin and γ: window cost spans 10x across (n, a, m), and free
        # draws of those moved op_tail_s by ±15 % from seed to seed.
        cycle = lambda stride, offset: (index * stride + offset + self.seed) % 21
        st = lambda branch, n: dict(
            _draw_state(rng, branch, (-0.5, 3.0), (0.75, 2.5), 0, 6), n=n)
        trace, raster = (dict(self._grid_state(rng, index + 32 * k), n=(index + 10 * k) % 21)
                         for k in (0, 1))
        pts = self.POINTS
        # ten ops, so the median falls among the four radial-cost evaluations
        # and p90 among the two window-bound calls, not in a gap between kinds
        return [
            {"kind": "spectrum", **st(BRANCHES[index % 3], 0)},
            {"kind": "laguerre", "n": cycle(5, 3),
             "alpha": float(rng.uniform(-0.5, 5.0)), "x": rng.uniform(0.0, 60.0, pts)},
            {"kind": "gegenbauer", "n": cycle(8, 6),
             "lam": float(rng.uniform(0.25, 3.0)), "x": rng.uniform(-1.0, 1.0, pts)},
            {"kind": "radial", **st("none", cycle(2, 9)),
             "rho": np.sort(rng.uniform(0.0, 6.0, pts))},
            {"kind": "radial", **st(("even", "odd")[index % 2], cycle(4, 12)),
             "rho": np.sort(rng.uniform(0.0, 6.0, pts))},
            {"kind": "collapse", **st("odd", cycle(10, 15)), "gamma": 0.5,
             "m": index % 7, "rho": np.sort(rng.uniform(0.0, 6.0, pts))},
            {"kind": "angular", **st(("odd", "even")[index % 2], 0),
             "phi": rng.uniform(0.0, 2.0 * math.pi, pts)},
            {"kind": "density", **st(BRANCHES[(index + 2) % 3], cycle(16, 18)),
             "rho": rng.uniform(0.0, 5.0, pts), "phi": rng.uniform(0.0, 2.0 * math.pi, pts)},
            {"kind": "trace", **trace},
            {"kind": "raster", **raster},
        ]

    @staticmethod
    def _grid_state(rng, slot: int) -> dict:
        """State `slot` of a 3 branches × 7 m × 8 a-bins grid, jittered in its bin.

        a ≥ 0 and even γ ≥ 1.25 keep s ≥ 1 (canonical m ≠ 0): rasters with
        2s+2 < 4 disc-average the cells near the axis, ~1 s and +25 MiB at any
        ngrid, which would let one rare state set the tail and the peak."""
        branch = BRANCHES[slot % 3]
        m = (slot // 3) % 7
        a = (((slot * 5) % 8) + rng.uniform()) * 3.0 / 8
        gamma_lo = 1.25 if branch == "even" else 0.75
        return {"branch": branch, "a": float(a), "m": m + 1 if branch == "none" else m,
                "gamma": 0.5 if branch == "none" else float(rng.uniform(gamma_lo, 2.5))}

    def run(self, op):
        kind, n = op["kind"], op["n"]
        if kind == "laguerre":
            return specialfn.laguerre(n, op["alpha"], op["x"])
        if kind == "gegenbauer":
            return specialfn.gegenbauer(n, op["lam"], op["x"])
        p = model.make_params(a=op["a"], gamma=op["gamma"])
        branch, m = op["branch"], op["m"]
        if kind == "spectrum":
            if branch == "none":
                return [(i, j, canonical.energy_radial(p, i, j))
                        for i in range(21) for j in range(-10, 11)]
            energy = noncanonical.energy_even if branch == "even" else noncanonical.energy_odd
            return [(i, j, energy(p, i, j)) for i in range(21) for j in range(11)]
        if kind == "radial":
            return self._radial(p, branch, n, m, op["rho"])
        if kind == "angular":
            angular = (noncanonical.angular_even if branch == "even"
                       else noncanonical.angular_odd)
            return angular(p, m, op["phi"])
        if kind == "density":
            if branch == "none":
                return canonical.density(p, n, m, op["rho"], op["phi"])
            return noncanonical.density_nc(p, n, m, branch, op["rho"], op["phi"])
        if kind == "collapse":
            return noncanonical.radial_odd(p, n, m, op["rho"]), noncanonical.energy_odd(p, n, m)
        if kind == "trace":
            return fields.radial_trace(p, n, m, parity=branch)
        if kind == "raster":
            return fields.build_density_field(p, n, m, parity=branch, ngrid=101)
        raise ValueError(f"unknown op kind {kind!r}")

    @staticmethod
    def _radial(p, branch, n, m, rho):
        if branch == "none":
            return canonical.radial_wavefunction(p, n, m, rho)
        radial = noncanonical.radial_even if branch == "even" else noncanonical.radial_odd
        return radial(p, n, m, rho)

    def check(self, op, output):
        kind = op["kind"]
        if kind == "spectrum":
            return checks.check_energies(op["branch"], op["a"], op["gamma"], output)
        if kind == "collapse":
            p = model.make_params(a=op["a"], gamma=0.5)
            m_can = 2 * op["m"] + 2
            return checks.check_collapse(
                output[0], canonical.radial_wavefunction(p, op["n"], m_can, op["rho"]),
                output[1], canonical.energy_radial(p, op["n"], m_can))
        if kind == "raster":
            return checks.check_symmetry(output.values, op["branch"], output.nx)
        if kind == "trace":
            # ρ = 0 holds the documented axis sentinel (0, the limit, or +inf)
            points, values = output[0][1:], output[1][1:]
        elif kind == "density":
            points, values = np.stack([op["rho"], op["phi"]]), output
        else:
            points, values = op[self.POINTS_KEY[kind]], output
        pick = np.random.default_rng([self.seed, len(self.deferred)]).choice(
            values.size, self.SAMPLES, replace=False)
        self.deferred.append((op, points[..., pick], values[pick],
                              float(np.max(np.abs(values)))))
        return []

    def finish(self):
        errors = []
        quads = 0
        for op, points, values, scale in self.deferred:
            kind = op["kind"]
            if kind in ("laguerre", "gegenbauer"):
                order = op["alpha"] if kind == "laguerre" else op["lam"]
                errors += checks.check_polynomial(kind, op["n"], order, points, values, scale)
            elif kind == "angular":
                errors += checks.check_angular_values(op["branch"], op["gamma"], op["m"],
                                                      points, values, scale * scale)
            elif kind == "density":
                errors += checks.check_density_values(op["branch"], op["a"], op["gamma"],
                                                      op["n"], op["m"], points[0], points[1],
                                                      values, scale)
            else:
                errors += checks.check_radial_values(op["branch"], op["a"], op["gamma"],
                                                     op["n"], op["m"], points, values, scale)
                if kind == "radial" and quads < self.QUAD_CAP:
                    quads += 1
                    p = model.make_params(a=op["a"], gamma=op["gamma"])
                    errors += checks.check_normalization(
                        lambda r: self._radial(p, op["branch"], op["n"], op["m"], r), op["a"])
        return errors


WORKLOADS = {cls.name: cls for cls in (Certify, Converge, Render, Explore)}
