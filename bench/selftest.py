#!/usr/bin/env python3
"""Self-tests of the benchmark: every check passes on a good output and
fails on a corrupted one, and run.py fails without the program's source.

    python3 bench/selftest.py

Good outputs come from the program on small inputs (two `verify --fast`
sweeps, one refinement ladder, two 201² rasters); each corruption is the
smallest change the check must catch.  Exit status 1 if any case misbehaves.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from pdmwire import canonical, model, noncanonical, specialfn  # noqa: E402

RESULTS = []


def expect(label: str, good: list, bad: list) -> None:
    ok = not good and bool(bad)
    RESULTS.append(ok)
    detail = f"good output: {good}" if good else ("corruption not caught" if not bad else "")
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))


def certify_cases(tmp: str) -> None:
    w = workloads.Certify(1, tmp)
    delta = 0.02
    reports = []
    for argv in (["verify", "--fast"], ["verify", "--fast", "--perturb-norm", repr(delta)]):
        path = str(Path(tmp) / "report.json")
        code, _ = w._cli(argv + ["--out", path])
        reports.append((json.loads(Path(path).read_text()), code))
    (plain, code0), (pert, code1) = reports
    eig0, eig1 = checks.eigensolver_records(plain), checks.eigensolver_records(pert)

    passing = copy.deepcopy(pert)
    for rec in passing["checks"]:
        rec["pass"] = True
    passing["all_pass"] = True
    expect("certify: a perturbed sweep that passes",
           checks.check_sweep(pert, code1, delta), checks.check_sweep(passing, 0, delta))
    failing = copy.deepcopy(plain)
    failing["checks"][-1]["pass"] = False
    expect("certify: an unperturbed sweep with one failing record",
           checks.check_sweep(plain, code0, 0.0), checks.check_sweep(failing, code0, 0.0))
    expect("certify: an unperturbed sweep that exits 2",
           checks.check_sweep(plain, code0, 0.0), checks.check_sweep(plain, 2, 0.0))
    off = copy.deepcopy(pert)
    for rec in off["checks"]:
        if rec["equation_id"].startswith("orthonormality_radial_"):
            rec["measured"] += 1e-6
    expect("certify: perturbed Gram diagonal off (1+delta)^2-1 by 1e-6",
           checks.check_sweep(pert, code1, delta), checks.check_sweep(off, code1, delta))
    extra = copy.deepcopy(pert)
    angular = next(rec for rec in extra["checks"] if rec["equation_id"].startswith("angular_ode"))
    angular["pass"] = False
    expect("certify: a perturbed sweep failing one more record",
           checks.check_sweep(pert, code1, delta), checks.check_sweep(extra, code1, delta))
    moved = copy.deepcopy(eig1)
    moved[0]["measured"] *= 1.0 + 1e-15
    expect("certify: eigensolver record moved by the perturbation",
           checks.check_eigensolver_unchanged(eig0, eig1),
           checks.check_eigensolver_unchanged(eig0, moved))


def converge_cases(tmp: str) -> None:
    w = workloads.Converge(1, tmp)
    state = {"branch": "odd", "a": 0.7, "gamma": 1.3, "n": 2, "m": 1}
    ladder = [w.run({"state": state, "npoints": size}) for size in w.SIZES]
    exact = checks.eigenvalue("odd", 0.7, 1.3, 2, 1)
    good = checks.check_ladder(w.SIZES, ladder, exact)
    first_order = [exact + 5.0 / size for size in w.SIZES]
    expect("converge: an eigenvalue ladder of order 1", good,
           checks.check_ladder(w.SIZES, first_order, exact))
    expect("converge: a ladder shifted by 1e-6 (Richardson off)", good,
           checks.check_ladder(w.SIZES, [v + 1e-6 for v in ladder], exact))
    expect("converge: a flat ladder (order not observable)", good,
           checks.check_ladder(w.SIZES, [exact] * len(w.SIZES), exact))


def render_cases(tmp: str) -> None:
    w = workloads.Render(1, tmp)
    rasters = {}
    for branch, a, gamma, n, m in (("none", -0.3, 0.5, 1, 1), ("odd", 1.2, 1.1, 1, 1)):
        op = {"branch": branch, "a": a, "gamma": gamma, "n": n, "m": m, "ngrid": 201}
        code, _ = w.run(op)
        header, data = checks.read_raster(str(Path(tmp) / "density.csv"))
        sidecar = json.loads((Path(tmp) / "density.json").read_text())
        rasters[branch] = (op, code, header, data, sidecar)

    op, code, header, data, sidecar = rasters["none"]
    good = checks.check_raster(header, data, sidecar, "none", 201)
    flipped = data.copy()
    flipped[[201 * 90 + 95, 201 * 90 + 96], 2] = flipped[[201 * 90 + 96, 201 * 90 + 95], 2]
    expect("render: one flipped canonical raster cell", good,
           checks.check_raster(header, flipped, sidecar, "none", 201))
    expect("render: a missing CSV row", good,
           checks.check_raster(header, data[:-1], sidecar, "none", 201))
    bad_header = [(k, "0.25" if k == "a" else v) for k, v in header]
    expect("render: header disagrees with the sidecar", good,
           checks.check_raster(bad_header, data, sidecar, "none", 201))
    heavy = data.copy()
    heavy[:, 2] *= 1.002
    expect("render: Riemann mass off by 2e-3", good,
           checks.check_raster(header, heavy, sidecar, "none", 201))
    cells = data[[201 * 30 + 40, 201 * 150 + 120, 201 * 70 + 100]]
    scale = float(np.max(data[:, 2]))
    good_cells = checks.check_canonical_cells(-0.3, 1, 1, cells[:, 0], cells[:, 1],
                                              cells[:, 2], scale)
    expect("render: canonical cells off scipy by 1e-6 relative", good_cells,
           checks.check_canonical_cells(-0.3, 1, 1, cells[:, 0], cells[:, 1],
                                        cells[:, 2] * (1 + 1e-6), scale))

    op, code, header, data, sidecar = rasters["odd"]
    good = checks.check_raster(header, data, sidecar, "odd", 201)
    on_axis = data.copy()
    on_axis[201 * 100 + 150, 2] = 1e-300
    expect("render: a nonzero cell on a confinement axis", good,
           checks.check_raster(header, on_axis, sidecar, "odd", 201))
    dark = data.copy()
    dx, dy = checks.lattice_offsets(201)
    dark[(dx > 0) & (dy > 0), 2] = 0.0
    expect("render: a quadrant with no peak", good,
           checks.check_symmetry(dark[:, 2], "odd", 201))


def explore_cases() -> None:
    p = model.make_params(a=0.4, gamma=1.3)
    table = [(n, m, noncanonical.energy_even(p, n, m)) for n in range(4) for m in range(4)]
    bumped = table[:-1] + [(3, 3, table[-1][2] * (1 + 1e-10))]
    expect("explore: an energy off the formula by 1e-10",
           checks.check_energies("even", 0.4, 1.3, table),
           checks.check_energies("even", 0.4, 1.3, bumped))

    half = model.make_params(a=0.4, gamma=0.5)
    rho = np.linspace(0.01, 5.0, 300)
    odd = noncanonical.radial_odd(half, 2, 1, rho)
    can = canonical.radial_wavefunction(half, 2, 4, rho)
    e_odd, e_can = noncanonical.energy_odd(half, 2, 1), canonical.energy_radial(half, 2, 4)
    nudged = odd.copy()
    nudged[100] = np.nextafter(nudged[100], np.inf)
    expect("explore: gamma=1/2 collapse off by one ulp",
           checks.check_collapse(odd, can, e_odd, e_can),
           checks.check_collapse(nudged, can, e_odd, e_can))

    x = np.linspace(0.0, 40.0, 200)
    lag = specialfn.laguerre(15, 1.7, x)
    scale = float(np.max(np.abs(lag)))
    expect("explore: a Laguerre value off by 1e-6",
           checks.check_polynomial("laguerre", 15, 1.7, x, lag, scale),
           checks.check_polynomial("laguerre", 15, 1.7, x, lag + 1e-6 * scale, scale))
    y = np.linspace(-1.0, 1.0, 200)
    geg = specialfn.gegenbauer(12, 0.8, y)
    scale = float(np.max(np.abs(geg)))
    expect("explore: a Gegenbauer value off by 1e-6",
           checks.check_polynomial("gegenbauer", 12, 0.8, y, geg, scale),
           checks.check_polynomial("gegenbauer", 12, 0.8, y, geg * (1 + 1e-6), scale))

    radial = noncanonical.radial_even(p, 3, 1, rho)
    scale = float(np.max(np.abs(radial)))
    expect("explore: radial values off scipy by 1e-6",
           checks.check_radial_values("even", 0.4, 1.3, 3, 1, rho, radial, scale),
           checks.check_radial_values("even", 0.4, 1.3, 3, 1, rho, radial * (1 + 1e-6), scale))
    phi = np.linspace(0.05, 6.2, 300)
    ang = noncanonical.angular_odd(p, 2, phi)
    scale = float(np.max(ang * ang))
    expect("explore: angular values off scipy by 1e-6",
           checks.check_angular_values("odd", 1.3, 2, phi, ang, scale),
           checks.check_angular_values("odd", 1.3, 2, phi, ang * (1 + 1e-6), scale))
    dens = noncanonical.density_nc(p, 1, 2, "even", rho, phi)
    scale = float(np.max(dens))
    expect("explore: density off scipy by 1e-6",
           checks.check_density_values("even", 0.4, 1.3, 1, 2, rho, phi, dens, scale),
           checks.check_density_values("even", 0.4, 1.3, 1, 2, rho, phi, dens * (1 + 1e-6),
                                       scale))
    expect("explore: a radial state normalized to 1 + 1e-4",
           checks.check_normalization(lambda r: noncanonical.radial_even(p, 3, 1, r), 0.4),
           checks.check_normalization(
               lambda r: (1 + 5e-5) * noncanonical.radial_even(p, 3, 1, r), 0.4))


def layout_case(tmp: str) -> None:
    """run.py exits nonzero, printing no result, beside no program source."""
    bare = Path(tmp) / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "explore",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} run.py without the program's source exits "
          f"{proc.returncode}")


def main() -> int:
    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_parent)
    try:
        certify_cases(tmp)
        converge_cases(tmp)
        render_cases(tmp)
        explore_cases()
        layout_case(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-tests behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
