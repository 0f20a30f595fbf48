#!/usr/bin/env python3
"""Grid-refinement study of the finite-difference radial eigensolver.

For a few representative states of each branch, solve the radial problem at
a ladder of grid resolutions and print the deviation of each computed
eigenvalue from its closed form, plus the observed convergence order
log2(err(N) / err(2N)).  The scheme is second order, so the order column
should approach 2 until rounding noise takes over.
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pdmwire import canonical as can          # noqa: E402
from pdmwire import noncanonical as nc        # noqa: E402
from pdmwire import oracle                    # noqa: E402
from pdmwire.model import branch, make_params  # noqa: E402

CASES = (
    # label, a, gamma, parity, n, m
    ("canonical  a=0    m=0", 0.0, 0.5, "none", 0, 0),
    ("canonical  a=-0.6 m=1", -0.6, 0.5, "none", 1, 1),
    ("canonical  a=2    m=3", 2.0, 0.5, "none", 2, 3),
    ("even       a=2    g=1.0 m=0", 2.0, 1.0, "even", 0, 0),
    ("odd        a=2    g=1.0 m=0", 2.0, 1.0, "odd", 0, 0),
    ("odd        a=-0.6 g=1.5 m=2", -0.6, 1.5, "odd", 1, 2),
)


def exact_eigenvalue(p, parity, n, m):
    if parity == "none":
        return can.dimensionless_eigenvalue(p, n, m)
    return nc.dimensionless_eigenvalue_nc(p, parity, n, m)


def radial_operator(p, parity, n, m, npoints):
    br = branch(parity)
    me = br.m_index(p.gamma, m)
    return oracle.build_radial_operator(p, float(me * me), br.sign, npoints=npoints,
                                        n_target=n + 2)


def solver_eigenvalues(sizes):
    """Eigenvalue n of every case at every size, keyed (label, size).

    One lowest_eigenvalues_many call per (size, k): cases that share both
    share their Sturm sweeps, and each gets the bits of a solve on its own.
    k enters the shared stop test, so cases of different k stay apart.
    """
    by_k = {}
    for case in CASES:
        by_k.setdefault(case[4] + 1, []).append(case)
    values = {}
    for npoints in sizes:
        for k, cases in by_k.items():
            ops = [radial_operator(make_params(a=a, gamma=gamma), parity, n, m, npoints)
                   for _, a, gamma, parity, n, m in cases]
            for case, vals in zip(cases, oracle.lowest_eigenvalues_many(ops, k)):
                values[case[0], npoints] = vals[case[4]]
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--resolutions", default="500,1000,2000,4000,8000",
                    help="comma-separated grid sizes (default 500..8000)")
    args = ap.parse_args()
    sizes = [int(tok) for tok in args.resolutions.split(",") if tok.strip()]

    values = solver_eigenvalues(sizes)
    for label, a, gamma, parity, n, m in CASES:
        p = make_params(a=a, gamma=gamma)
        exact = exact_eigenvalue(p, parity, n, m)
        print(f"\n{label}  n={n}  (exact dimensionless eigenvalue "
              f"{exact:.12f})")
        print(f"  {'N':>6}  {'eigenvalue':>18}  {'abs error':>12}  {'order':>6}")
        prev_err = None
        for npoints in sizes:
            val = values[label, npoints]
            err = abs(val - exact)
            order = (f"{math.log2(prev_err / err):6.2f}"
                     if prev_err and err > 0.0 else "     -")
            print(f"  {npoints:>6}  {val:18.12f}  {err:12.3e}  {order}")
            prev_err = err


if __name__ == "__main__":
    main()
