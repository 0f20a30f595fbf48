"""Command-line front end: spectrum tables, traces, density rasters, verify.

Subcommands: spectrum | potential | wavefunction | density | verify.
Exit codes: 0 success, 1 usage error, 2 verification failure.

All numeric output is printed with 17 significant digits so reruns (and
cross-language consumers) can diff files byte-for-byte at double precision.
A config file of ``key=value`` lines may supply any flag's value; explicit
flags win.  Every output embeds the fully resolved option set, defaults
included, so any artifact can be regenerated from its own header.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import canonical as can
from .fields import angular_trace, build_density_field, potential_trace, radial_trace
from .model import PARITIES, branch, make_params
from .verification import run_verification

__all__ = ["RunConfig", "main"]


def _fmt(x) -> str:
    """17-significant-digit text for reals; plain text for ints/strings."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _fmt_floats(values) -> np.ndarray:
    """`_fmt` text of every element of a float array, as an object array of its shape.

    Each distinct bit pattern is formatted once ("%.17g" is `format`'s ".17g"
    text); bit patterns rather than float equality keep 0.0 and -0.0 apart.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    bits, inverse = np.unique(arr.view(np.uint64), return_inverse=True)
    texts = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse.reshape(-1)].reshape(arr.shape)


def _jsonable(obj):
    """Recursively coerce numpy scalars so json.dumps accepts the payload."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value) for value in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved option set of one invocation (defaults included)."""

    command: str
    options: dict

    def to_json(self) -> str:
        return json.dumps({"command": self.command, "options": self.options},
                          sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        data = json.loads(text)
        return cls(command=data["command"], options=data["options"])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# config file / option resolution

#: converters for config-file values, per option name
_OPTION_TYPES = {
    "a": float, "gamma": float, "kz": float, "n": int, "m": int,
    "nmax": int, "mmax": int, "parity": str, "format": str,
    "rho_max": float, "npoints": int, "ngrid": int, "half_width": float,
    "out": str, "outdir": str, "trace": str,
    "fast": lambda v: v.lower() in ("1", "true", "yes"),
    "perturb_norm": float,
}


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from exc
    options = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        options[key.replace("-", "_")] = value
    return options


def _resolve(args: argparse.Namespace, defaults: dict, converters: dict = None) -> dict:
    """defaults < config file < flags; config values typed by _OPTION_TYPES | converters."""
    types = dict(_OPTION_TYPES, **(converters or {}))
    resolved = dict(defaults)
    if getattr(args, "config", None):
        for key, raw in _load_config(args.config).items():
            if key not in defaults:
                raise _UsageError(
                    f"config key {key!r} is not an option of this command")
            try:
                resolved[key] = types[key](raw)
            except ValueError as exc:
                raise _UsageError(f"config value {key}={raw!r}: {exc}") from exc
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    return resolved


def _params_from(options: dict):
    try:
        return make_params(a=options["a"], gamma=options["gamma"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _write_text(path, text) -> None:
    """Write `text`, a string or an iterable of string chunks, to `path` or stdout."""
    chunks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from exc


def _csv_header(config: RunConfig, extra: dict = None) -> list:
    lines = [f"# command={config.command}"]
    for key in sorted(config.options):
        lines.append(f"# {key}={_fmt(config.options[key])}")
    for key in sorted(extra or {}):
        lines.append(f"# {key}={_fmt(extra[key])}")
    return lines


# ---------------------------------------------------------------------------
# spectrum

def _cmd_spectrum(args) -> int:
    defaults = {"a": 0.0, "gamma": 0.5, "kz": 0.0, "nmax": 2, "mmax": 2,
                "parity": "none", "format": "csv", "out": None}
    options = _resolve(args, defaults)
    if options["nmax"] < 0 or options["mmax"] < 0:
        raise _UsageError("nmax and mmax must be >= 0")
    if options["format"] not in ("csv", "json"):
        raise _UsageError("format must be csv or json")
    p = _params_from(options)
    kz = options["kz"]
    e_axial = p.hbar ** 2 * kz ** 2 / (2.0 * p.m0)

    rows = []
    try:
        br = branch(options["parity"])
        for n in range(options["nmax"] + 1):
            for m in br.m_range(options["mmax"]):
                e_rad = can.branch_energy(p, br, n, m)
                rows.append((br.family, n, m, br.parity, e_rad, e_axial,
                             e_rad + e_axial))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    config = RunConfig("spectrum", options)
    if options["format"] == "json":
        payload = {
            "config": json.loads(config.to_json()),
            "columns": ["branch", "n", "m", "parity", "E_radial", "E_axial",
                        "E_total"],
            "rows": [list(r) for r in rows],
        }
        _write_text(options["out"], json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        lines = _csv_header(config)
        lines.append("branch,n,m,parity,E_radial,E_axial,E_total")
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        _write_text(options["out"], "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# potential

def _cmd_potential(args) -> int:
    defaults = {"a": "0", "gamma": 0.5, "rho_max": None, "npoints": 401,
                "outdir": None}
    options = _resolve(args, defaults, converters={"a": str})
    gamma, npoints, rho_max = options["gamma"], options["npoints"], options["rho_max"]
    try:
        a_values = [float(tok) for tok in options["a"].split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    if not a_values:
        raise _UsageError("potential needs at least one a value")
    if npoints < 2:
        raise _UsageError("npoints must be >= 2")
    if options["outdir"] is not None:
        try:
            os.makedirs(options["outdir"], exist_ok=True)
        except OSError as exc:
            raise _UsageError(f"cannot create {options['outdir']!r}: {exc}") from exc

    for a in a_values:
        try:
            p = make_params(a=a, gamma=gamma)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        rho, values = potential_trace(p, rho_max=rho_max, npoints=npoints)
        resolved = {"a": a, "gamma": gamma, "rho_max": float(rho[-1]),
                    "npoints": npoints, "outdir": options["outdir"]}
        config = RunConfig("potential", resolved)
        lines = _csv_header(config)
        lines.append("rho,value")
        for r, v in zip(rho, values):
            lines.append(f"{_fmt(float(r))},{_fmt(float(v))}")
        text = "\n".join(lines) + "\n"
        if options["outdir"] is None:
            sys.stdout.write(text)
        else:
            _write_text(f"{options['outdir']}/potential_a{a:g}.csv", text)
    return 0


# ---------------------------------------------------------------------------
# wavefunction

def _cmd_wavefunction(args) -> int:
    defaults = {"a": 0.0, "gamma": 0.5, "n": 0, "m": 0, "parity": "none",
                "trace": "radial", "rho_max": None, "npoints": 801,
                "out": None}
    options = _resolve(args, defaults)
    if options["trace"] not in ("radial", "angular"):
        raise _UsageError("trace must be radial or angular")
    if options["n"] < 0:
        raise _UsageError("n must be >= 0")
    p = _params_from(options)

    try:
        if options["trace"] == "radial":
            rho, values = radial_trace(p, options["n"], options["m"],
                                       parity=options["parity"],
                                       rho_max=options["rho_max"],
                                       npoints=options["npoints"])
            resolved = dict(options, rho_max=float(rho[-1]))
            config = RunConfig("wavefunction", resolved)
            lines = _csv_header(config)
            lines.append("rho,value")
            for r, v in zip(rho, values):
                lines.append(f"{_fmt(float(r))},{_fmt(float(v))}")
        else:
            phi, values = angular_trace(p, options["m"],
                                        parity=options["parity"],
                                        npoints=options["npoints"])
            config = RunConfig("wavefunction", options)
            lines = _csv_header(config)
            if np.iscomplexobj(values):
                lines.append("phi,re,im")
                for f, v in zip(phi, values):
                    lines.append(f"{_fmt(float(f))},{_fmt(float(v.real))},"
                                 f"{_fmt(float(v.imag))}")
            else:
                lines.append("phi,value")
                for f, v in zip(phi, values):
                    lines.append(f"{_fmt(float(f))},{_fmt(float(v))}")
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _write_text(options["out"], "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# density

def _density_chunks(header: str, fld):
    """The density CSV as chunks: `header`, then one "x,y,value" chunk per raster row."""
    yield header
    hx = (fld.x_range[1] - fld.x_range[0]) / (fld.nx - 1)
    hy = (fld.y_range[1] - fld.y_range[0]) / (fld.ny - 1)
    xs = [_fmt(fld.x_range[0] + ix * hx) + "," for ix in range(fld.nx)]
    cells = _fmt_floats(fld.values)
    for iy in range(fld.ny):
        y = _fmt(fld.y_range[0] + iy * hy) + ","
        yield "".join([x + y + v + "\n" for x, v in zip(xs, cells[iy].tolist())])


def _cmd_density(args) -> int:
    defaults = {"a": 0.0, "gamma": 0.5, "n": 0, "m": 0, "parity": "none",
                "ngrid": 201, "half_width": None, "out": None}
    options = _resolve(args, defaults)
    if options["n"] < 0:
        raise _UsageError("n must be >= 0")
    if options["ngrid"] < 2:
        raise _UsageError("ngrid must be >= 2")
    p = _params_from(options)
    try:
        fld = build_density_field(p, options["n"], options["m"],
                                  parity=options["parity"],
                                  ngrid=options["ngrid"],
                                  half_width=options["half_width"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    resolved = dict(options, half_width=fld.metadata["half_width"])
    config = RunConfig("density", resolved)
    lines = _csv_header(config, extra=fld.metadata)
    lines.append("x,y,value")
    _write_text(options["out"], _density_chunks("\n".join(lines) + "\n", fld))

    if options["out"] is not None:
        sidecar = _jsonable({
            "config": json.loads(config.to_json()),
            "metadata": fld.metadata,
            "nx": fld.nx, "ny": fld.ny,
            "x_range": list(fld.x_range), "y_range": list(fld.y_range),
        })
        base = options["out"]
        json_path = base[:-4] + ".json" if base.endswith(".csv") else base + ".json"
        _write_text(json_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args) -> int:
    defaults = {"fast": False, "perturb_norm": 0.0, "out": None}
    options = _resolve(args, defaults)
    try:
        records, all_pass = run_verification(perturb_norm=options["perturb_norm"],
                                             fast=options["fast"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    for rec in records:
        status = "PASS" if rec["pass"] else "FAIL"
        print(f"{status} {rec['equation_id']}: measured={rec['measured']:.3e} "
              f"tolerance={rec['tolerance']:.1e}")
    print(f"{'all checks passed' if all_pass else 'VERIFICATION FAILED'} "
          f"({sum(r['pass'] for r in records)}/{len(records)})")
    config = RunConfig("verify", options)
    report = _jsonable({
        "all_pass": all_pass,
        "checks": records,
        "config": json.loads(config.to_json()),
    })
    if options["out"] is not None:
        _write_text(options["out"], json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if all_pass else 2


# ---------------------------------------------------------------------------
# parser assembly

def _add_common(sub, *names):
    if "config" in names:
        sub.add_argument("--config", help="key=value config file (flags override)")
    if "a" in names:
        sub.add_argument("--a", type=float, help="deformation exponent a > -1")
    if "gamma" in names:
        sub.add_argument("--gamma", type=float, help="confinement strength (>= 1/2)")
    if "parity" in names:
        sub.add_argument("--parity", choices=PARITIES,
                         help="none = canonical branch, else non-canonical parity")
    if "n" in names:
        sub.add_argument("--n", type=int, help="radial quantum number")
    if "m" in names:
        sub.add_argument("--m", type=int, help="angular quantum number")
    if "out" in names:
        sub.add_argument("--out", "-o", help="output file (default: stdout)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="pdmwire",
                     description="Position-dependent-mass quantum wire: spectra, "
                                 "wavefunctions, densities, verification.")
    subs = parser.add_subparsers(dest="command", metavar="command")

    sp = subs.add_parser("spectrum", help="energy table over (n, m)")
    _add_common(sp, "config", "a", "gamma", "parity", "out")
    sp.add_argument("--kz", type=float, help="axial wavenumber")
    sp.add_argument("--nmax", type=int, help="largest radial quantum number")
    sp.add_argument("--mmax", type=int, help="largest |angular| quantum number")
    sp.add_argument("--format", choices=("csv", "json"), help="output format")
    sp.set_defaults(func=_cmd_spectrum)

    pp = subs.add_parser("potential", help="V(rho) traces, one file per a")
    pp.add_argument("--config", help="key=value config file (flags override)")
    pp.add_argument("--a", help="comma-separated list of deformation exponents")
    pp.add_argument("--gamma", type=float, help="confinement strength (metadata only)")
    pp.add_argument("--rho-max", dest="rho_max", type=float, help="trace endpoint")
    pp.add_argument("--npoints", type=int, help="number of trace points")
    pp.add_argument("--outdir", help="directory for the CSV files (default: stdout)")
    pp.set_defaults(func=_cmd_potential)

    wp = subs.add_parser("wavefunction", help="radial or angular trace of one state")
    _add_common(wp, "config", "a", "gamma", "parity", "n", "m", "out")
    wp.add_argument("--trace", choices=("radial", "angular"), help="which factor")
    wp.add_argument("--rho-max", dest="rho_max", type=float, help="radial endpoint")
    wp.add_argument("--npoints", type=int, help="number of trace points")
    wp.set_defaults(func=_cmd_wavefunction)

    dp = subs.add_parser("density", help="|Psi|^2 raster on a centered square")
    _add_common(dp, "config", "a", "gamma", "parity", "n", "m", "out")
    dp.add_argument("--ngrid", type=int, help="points per side (default 201)")
    dp.add_argument("--half-width", dest="half_width", type=float,
                    help="window half-width L (default: mass-quantile rule)")
    dp.set_defaults(func=_cmd_density)

    vp = subs.add_parser("verify", help="run the verification sweep")
    vp.add_argument("--config", help="key=value config file (flags override)")
    vp.add_argument("--fast", action="store_const", const=True,
                    help="trimmed sweep (no rasters)")
    vp.add_argument("--perturb-norm", dest="perturb_norm", type=float,
                    help="sensitivity hook: scale radial norms by 1+this")
    vp.add_argument("--out", "-o", help="JSON report path")
    vp.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        print("pdmwire: error: a subcommand is required", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"pdmwire {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
