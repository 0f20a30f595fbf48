#!/usr/bin/env python3
"""SHA-256 digests of the artifacts of a fixed list of CLI invocations.

Each invocation runs in-process through `pdmwire.cli.main`, in a fresh
temporary working directory, and prints one line per artifact:

    <sha256>  <argv> :: exit=<code> <artifact>

where the exit code reads `raised:<Exception>` if main raised, and the
artifact is `stdout` or the name of a file the command wrote (CSV data,
JSON sidecar or report).  Running this script on two checkouts and diffing
the output shows which artifacts a change alters.  The hashes depend on the
machine's libm, so they are compared between checkouts on one machine,
never pinned.
"""

import contextlib
import hashlib
import io
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from pdmwire.cli import main  # noqa: E402

INVOCATIONS = [
    *[["spectrum", "--a=2", "--gamma", "1", "--parity", parity, "--nmax", "2",
       "--mmax", "2", "--kz", "0.5", "--format", fmt, "--out", f"spectrum.{fmt}"]
      for parity in ("none", "even", "odd") for fmt in ("csv", "json")],
    *[["wavefunction", "--a=-0.6", "--gamma", "1.5", "--parity", parity,
       "--n", "2", "--m", "1", "--trace", trace, "--npoints", "200",
       "--out", "trace.csv"]
      for parity in ("none", "even", "odd") for trace in ("radial", "angular")],
    ["density", "--a=2", "--gamma", "1.5", "--parity", "none", "--n", "1",
     "--m", "1", "--ngrid", "51", "--out", "dens.csv"],
    ["density", "--a=-0.6", "--parity", "none", "--n", "0", "--m", "0",
     "--ngrid", "51", "--out", "dens.csv"],
    ["density", "--a=2", "--gamma", "1.5", "--parity", "even", "--n", "1",
     "--m", "1", "--ngrid", "51", "--out", "dens.csv"],
    ["density", "--a=-0.6", "--gamma", "1", "--parity", "even", "--n", "0",
     "--m", "0", "--ngrid", "51", "--out", "dens.csv"],
    ["density", "--a=0.5", "--gamma", "1", "--parity", "odd", "--n", "0",
     "--m", "2", "--ngrid", "51", "--out", "dens.csv"],
    ["density", "--a=0.5", "--gamma", "1", "--parity", "odd", "--n", "0",
     "--m", "2", "--ngrid", "50", "--out", "dens.csv"],
    ["density", "--a=0.34", "--gamma", "0.83", "--parity", "even", "--n", "6",
     "--m", "0", "--ngrid", "51", "--out", "dens.csv"],
    ["potential", "--a=-0.6,0,2", "--rho-max", "4", "--outdir", "traces"],
    ["potential", "--a=-0.6,0,2", "--npoints", "51"],
    ["verify", "--fast", "--out", "report.json"],
    ["verify", "--fast", "--perturb-norm", "0.01", "--out", "report.json"],
    ["verify", "--fast", "--perturb-norm", "nan"],
    ["verify", "--out", "report.json"],
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> list:
    """(artifact, sha256) pairs of one invocation, stdout first."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(argv))
                except Exception as exc:  # an uncaught error is an outcome too
                    code = f"raised:{type(exc).__name__}"
            rows = [(f"exit={code} stdout", digest(out.getvalue().encode("utf-8")))]
            for path in sorted(pathlib.Path(tmp).rglob("*")):
                if path.is_file():
                    rows.append((f"exit={code} {path.relative_to(tmp).as_posix()}",
                                 digest(path.read_bytes())))
        finally:
            os.chdir(home)
    return rows


def main_digest() -> None:
    for argv in INVOCATIONS:
        for artifact, sha in run(argv):
            print(f"{sha}  {' '.join(argv)} :: {artifact}", flush=True)


if __name__ == "__main__":
    main_digest()
