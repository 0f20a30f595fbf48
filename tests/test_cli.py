"""End-to-end tests of the command-line interface (in-process main calls)."""

import json
import math

import numpy as np
import pytest

from conftest import params_for
from pdmwire.cli import RunConfig, _csv_header, _fmt, _fmt_floats, main
from pdmwire.fields import build_density_field, radial_trace
from pdmwire.noncanonical import SINGULAR_ANGLES


def run_cli(*argv):
    return main(list(argv))


def csv_rows(path):
    """Data rows of a CSV artifact (header comments and column line skipped)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if any(c.isalpha() for c in line.split(",")[0]):
                # words in the first cell mean a column-name line or a
                # branch label; keep branch rows, drop the name line
                if line.split(",")[0] in ("canonical", "noncanonical"):
                    rows.append(line.split(","))
                continue
            rows.append(line.split(","))
    return rows


def reference_density_csv(out=None, **state) -> bytes:
    """The density CSV as one `_fmt` call per value writes it: the writer's reference."""
    options = {"a": 0.0, "gamma": 0.5, "n": 0, "m": 0, "parity": "none",
               "ngrid": 201, "half_width": None, "out": out, **state}
    fld = build_density_field(params_for(a=options["a"], gamma=options["gamma"]),
                              options["n"], options["m"], parity=options["parity"],
                              ngrid=options["ngrid"], half_width=options["half_width"])
    config = RunConfig("density", dict(options, half_width=fld.metadata["half_width"]))
    lines = _csv_header(config, extra=fld.metadata)
    lines.append("x,y,value")
    hx = (fld.x_range[1] - fld.x_range[0]) / (fld.nx - 1)
    hy = (fld.y_range[1] - fld.y_range[0]) / (fld.ny - 1)
    for iy in range(fld.ny):
        y = fld.y_range[0] + iy * hy
        for ix in range(fld.nx):
            x = fld.x_range[0] + ix * hx
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(float(fld.values[iy, ix]))}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def density_flags(state: dict) -> list:
    # str() of a float round-trips, so the flags resolve to exactly `state`
    return [f"--{key.replace('_', '-')}={value}" for key, value in state.items()]


def header_options(path):
    opts = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("# "):
                break
            key, _, value = line[2:].strip().partition("=")
            opts[key] = value
    return opts


class TestRunConfig:
    def test_json_round_trip(self):
        cfg = RunConfig("spectrum", {"a": 0.0, "nmax": 2})
        back = RunConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_sorted_keys(self):
        cfg = RunConfig("density", {"b_key": 1, "a_key": 2})
        text = cfg.to_json()
        assert text.index("a_key") < text.index("b_key")


class TestSpectrum:
    def test_harmonic_ladder_pattern(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run_cli("spectrum", "--out", str(out)) == 0
        energies = sorted(float(r[6]) for r in csv_rows(out))
        assert energies[:9] == [1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 4.0, 4.0, 5.0]

    def test_odd_branch_ground_energy_digits(self, tmp_path):
        out = tmp_path / "odd.csv"
        assert run_cli("spectrum", "--a=2", "--gamma=1", "--parity", "odd",
                       "--nmax", "0", "--mmax", "0", "--out", str(out)) == 0
        row = csv_rows(out)[0]
        assert row[4] == "6.4641016151377544"
        assert float(row[4]) == pytest.approx(3.0 + 2.0 * math.sqrt(3.0), rel=1e-15)

    def test_axial_energy_column(self, tmp_path):
        out = tmp_path / "kz.csv"
        assert run_cli("spectrum", "--kz", "1.5", "--nmax", "0", "--mmax", "0",
                       "--out", str(out)) == 0
        row = csv_rows(out)[0]
        assert float(row[5]) == pytest.approx(1.125, rel=1e-15)
        assert float(row[6]) == pytest.approx(1.0 + 1.125, rel=1e-15)

    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "twice.csv"
        args = ("spectrum", "--a=-0.6", "--nmax", "3", "--mmax", "3",
                "--out", str(out))
        assert run_cli(*args) == 0
        first = out.read_bytes()
        assert run_cli(*args) == 0
        assert out.read_bytes() == first

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert run_cli("spectrum", "--format", "json", "--nmax", "1",
                       "--mmax", "1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][4] == "E_radial"
        assert len(payload["rows"]) == 6
        assert payload["config"]["command"] == "spectrum"

    def test_header_echoes_resolved_options(self, tmp_path):
        out = tmp_path / "hdr.csv"
        assert run_cli("spectrum", "--a=2", "--out", str(out)) == 0
        opts = header_options(out)
        assert opts["command"] == "spectrum"
        assert opts["a"] == "2"
        assert opts["nmax"] == "2"          # default, still echoed


class TestPotential:
    def test_one_file_per_a(self, tmp_path):
        assert run_cli("potential", "--a=-0.6,0,2", "--npoints", "5",
                       "--rho-max", "4", "--outdir", str(tmp_path)) == 0
        for tag in ("-0.6", "0", "2"):
            assert (tmp_path / f"potential_a{tag}.csv").exists()

    def test_parabola_values(self, tmp_path):
        assert run_cli("potential", "--a=0", "--npoints", "5", "--rho-max", "4",
                       "--outdir", str(tmp_path)) == 0
        rows = csv_rows(tmp_path / "potential_a0.csv")
        for r, v in ((float(x), float(y)) for x, y in rows):
            assert v == pytest.approx(0.5 * r * r, abs=1e-15)

    def test_creates_missing_outdir(self, tmp_path):
        outdir = tmp_path / "traces" / "sub"
        assert run_cli("potential", "--a=-0.6,0,2", "--npoints", "5",
                       "--outdir", str(outdir)) == 0
        assert sorted(f.name for f in outdir.iterdir()) == [
            "potential_a-0.6.csv", "potential_a0.csv", "potential_a2.csv"]

    def test_config_supplies_a_list(self, tmp_path):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text("a = 0,2\nnpoints = 3\n")
        assert run_cli("potential", "--config", str(cfg), "--outdir", str(tmp_path)) == 0
        assert len(csv_rows(tmp_path / "potential_a2.csv")) == 3

    def test_power_law_value(self, tmp_path):
        assert run_cli("potential", "--a=2", "--npoints", "3", "--rho-max", "4",
                       "--outdir", str(tmp_path)) == 0
        rows = csv_rows(tmp_path / "potential_a2.csv")
        assert float(rows[-1][1]) == pytest.approx(0.5 * 4.0 ** 6, rel=1e-15)


class TestWavefunction:
    def test_radial_trace_matches_library(self, tmp_path):
        out = tmp_path / "rad.csv"
        assert run_cli("wavefunction", "--a=2", "--n", "1", "--m", "1",
                       "--npoints", "33", "--rho-max", "5", "--out", str(out)) == 0
        rows = csv_rows(out)
        rho, expect = radial_trace(params_for(a=2.0), 1, 1, rho_max=5.0,
                                   npoints=33)
        # 17-significant-digit text round-trips doubles exactly
        assert [float(r[0]) for r in rows] == list(rho)
        assert [float(r[1]) for r in rows] == list(expect)

    def test_angular_canonical_is_unimodular(self, tmp_path):
        out = tmp_path / "ang.csv"
        assert run_cli("wavefunction", "--trace", "angular", "--m", "2",
                       "--npoints", "16", "--out", str(out)) == 0
        rows = csv_rows(out)
        assert len(rows) == 16
        for _, re_s, im_s in rows:
            mag = math.hypot(float(re_s), float(im_s))
            assert mag == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_angular_noncanonical_real_column(self, tmp_path):
        out = tmp_path / "nc.csv"
        assert run_cli("wavefunction", "--trace", "angular", "--gamma", "1",
                       "--parity", "odd", "--m", "0", "--npoints", "8",
                       "--out", str(out)) == 0
        rows = csv_rows(out)
        assert len(rows) == 8 and len(rows[0]) == 2
        assert all(float(v) >= 0.0 for _, v in rows)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("npoints", [201, 202, 203])
    def test_angular_grid_through_an_axis(self, tmp_path, parity, npoints):
        out = tmp_path / "axis.csv"
        assert run_cli("wavefunction", "--trace", "angular", "--gamma", "1.5",
                       "--parity", parity, "--m", "1", "--npoints", str(npoints),
                       "--out", str(out)) == 0
        rows = csv_rows(out)
        assert len(rows) == npoints
        zeros = [float(f) for f, v in rows if float(v) == 0.0]
        assert zeros and all(f in SINGULAR_ANGLES for f in zeros)


class TestDensity:
    def test_grid_size_and_sidecar(self, tmp_path):
        out = tmp_path / "dens.csv"
        assert run_cli("density", "--a=0", "--ngrid", "21", "--out", str(out)) == 0
        rows = csv_rows(out)
        assert len(rows) == 21 * 21
        sidecar = json.loads((tmp_path / "dens.json").read_text())
        assert sidecar["nx"] == sidecar["ny"] == 21
        assert sidecar["metadata"]["ngrid"] == 21
        assert sidecar["metadata"]["origin_regularization"] == "none"
        assert sidecar["config"]["options"]["half_width"] == pytest.approx(
            sidecar["metadata"]["half_width"])

    def test_ring_invariance_from_artifact(self, tmp_path):
        out = tmp_path / "ring.csv"
        assert run_cli("density", "--a=2", "--n", "1", "--m", "1",
                       "--ngrid", "41", "--out", str(out)) == 0
        rows = csv_rows(out)
        sidecar = json.loads((tmp_path / "ring.json").read_text())
        hw = sidecar["metadata"]["half_width"]
        h = 2.0 * hw / 40
        by_ring = {}
        for x_s, y_s, v_s in rows:
            i = round((float(x_s) + hw) / h)
            j = round((float(y_s) + hw) / h)
            ksq = (2 * i - 40) ** 2 + (2 * j - 40) ** 2
            by_ring.setdefault(ksq, []).append(float(v_s))
        for ring in by_ring.values():
            hi, lo = max(ring), min(ring)
            if hi > 0.0:
                assert (hi - lo) / hi <= 1e-12

    def test_riemann_mass_from_artifact(self, tmp_path):
        out = tmp_path / "mass.csv"
        assert run_cli("density", "--a=-0.6", "--out", str(out)) == 0
        rows = csv_rows(out)
        sidecar = json.loads((tmp_path / "mass.json").read_text())
        hw = sidecar["metadata"]["half_width"]
        h = 2.0 * hw / (sidecar["metadata"]["ngrid"] - 1)
        mass = sum(float(v) for _, _, v in rows) * h * h
        assert abs(mass - 1.0) <= 1e-3

    def test_confinement_angles_are_ring_minima(self, tmp_path):
        out = tmp_path / "conf.csv"
        assert run_cli("density", "--gamma", "1", "--parity", "even",
                       "--ngrid", "41", "--out", str(out)) == 0
        rows = csv_rows(out)
        sidecar = json.loads((tmp_path / "conf.json").read_text())
        hw = sidecar["metadata"]["half_width"]
        h = 2.0 * hw / 40
        rings = {}
        for x_s, y_s, v_s in rows:
            x, y, v = float(x_s), float(y_s), float(v_s)
            i = round((x + hw) / h)
            j = round((y + hw) / h)
            dx, dy = 2 * i - 40, 2 * j - 40
            ksq = dx * dx + dy * dy
            if ksq == 0:
                continue
            phi = math.atan2(dy, dx) % (0.5 * math.pi)
            dist = min(phi, 0.5 * math.pi - phi)  # distance to nearest axis
            rings.setdefault(ksq, []).append((dist, v))
        checked = 0
        for ring in rings.values():
            if len(ring) < 8:
                continue
            nearest_v = min(ring)[1]
            ring_min = min(v for _, v in ring)
            ring_max = max(v for _, v in ring)
            assert nearest_v <= ring_min + 1e-12 * ring_max
            checked += 1
        assert checked > 5

    def test_rejects_even_branch_at_gamma_half(self):
        assert run_cli("density", "--parity", "even", "--ngrid", "11") == 1


#: writer cases: each branch, origin disc averaging, an explicit window and
#: the smallest, an even and an odd grid
WRITER_STATES = {
    "canonical": {"a": 2.0, "gamma": 1.5, "n": 1, "m": 1, "ngrid": 51},
    "even": {"a": 2.0, "gamma": 1.5, "parity": "even", "n": 1, "m": 1, "ngrid": 51},
    "odd": {"a": 0.5, "gamma": 1.0, "parity": "odd", "n": 0, "m": 2, "ngrid": 50},
    "disc_averaged": {"a": -0.6, "n": 0, "m": 0, "ngrid": 51},
    "half_width": {"a": 1.0, "n": 2, "m": -1, "ngrid": 51, "half_width": 3.5},
    "ngrid_2": {"a": 0.5, "gamma": 1.0, "parity": "odd", "n": 1, "m": 1, "ngrid": 2},
}


class TestDensityWriter:
    @pytest.mark.parametrize("state", WRITER_STATES.values(), ids=WRITER_STATES.keys())
    def test_file_matches_per_value_writer(self, tmp_path, state):
        out = tmp_path / "dens.csv"
        assert run_cli("density", *density_flags(state), "--out", str(out)) == 0
        assert out.read_bytes() == reference_density_csv(out=str(out), **state)

    def test_stdout_matches_per_value_writer(self, capsys):
        state = WRITER_STATES["even"]
        assert run_cli("density", *density_flags(state)) == 0
        assert capsys.readouterr().out.encode("utf-8") == reference_density_csv(**state)

    def test_fmt_floats_is_fmt_per_value(self):
        tiny = 5e-324                             # smallest subnormal
        values = np.array([[0.0, -0.0, tiny, 1.0 / 3.0],
                           [1.0 / 3.0, -0.0, 0.0, 3 * tiny],
                           [1e300, -2.5, math.inf, math.nan]])
        texts = _fmt_floats(values)
        assert texts.shape == values.shape
        assert texts.tolist() == [[_fmt(float(v)) for v in row] for row in values]
        assert texts[0, 0] == "0" and texts[0, 1] == "-0"


class TestVerify:
    def test_fast_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--fast", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "all checks passed" in text
        assert "FAIL" not in text
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert all(chk["pass"] for chk in report["checks"])
        assert report["config"]["options"]["fast"] is True

    def test_perturbed_norms_fail(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        assert run_cli("verify", "--fast", "--perturb-norm", "0.01",
                       "--out", str(out)) == 2
        text = capsys.readouterr().out
        assert "FAIL" in text and "VERIFICATION FAILED" in text
        report = json.loads(out.read_text())
        assert report["all_pass"] is False
        assert any(not chk["pass"] for chk in report["checks"])


@pytest.fixture(scope="module")
def fast_sweeps(tmp_path_factory):
    """Report bytes of two unperturbed `verify --fast` runs and one perturbed run."""
    tmp = tmp_path_factory.mktemp("sweeps")
    reports = {}
    for name, extra in (("first", ()), ("second", ()),
                        ("perturbed", ("--perturb-norm", "0.01"))):
        # the same --out in every run, since the report echoes it
        out = tmp / "report.json"
        run_cli("verify", "--fast", *extra, "--out", str(out))
        reports[name] = out.read_bytes()
    return reports


class TestVerifyReproducible:
    def test_reruns_are_byte_identical(self, fast_sweeps):
        assert fast_sweeps["first"] == fast_sweeps["second"]

    def test_perturbation_leaves_eigensolver_records_unchanged(self, fast_sweeps):
        def eigensolver_records(report):
            return [rec for rec in json.loads(report)["checks"]
                    if rec["equation_id"].startswith("eigensolver_")]

        unperturbed = eigensolver_records(fast_sweeps["first"])
        assert unperturbed
        assert eigensolver_records(fast_sweeps["perturbed"]) == unperturbed


CERTIFY_SEQUENCE = (0.0, -0.05, 0.001, 0.0)


@pytest.fixture(scope="module")
def certify_sweeps(tmp_path_factory):
    """(delta, exit code, report bytes) of `verify --fast` sweeps run in one
    process: unperturbed, two perturbed, then unperturbed again."""
    tmp = tmp_path_factory.mktemp("certify")
    out = tmp / "report.json"
    sweeps = []
    for delta in CERTIFY_SEQUENCE:
        extra = ("--perturb-norm", repr(delta)) if delta else ()
        code = run_cli("verify", "--fast", *extra, "--out", str(out))
        sweeps.append((delta, code, out.read_bytes()))
    return sweeps


class TestCertifyContract:
    """A perturbed normalization fails exactly the radial Gram records, by
    |(1+δ)² − 1|; nothing else in a sweep depends on δ or on earlier sweeps."""

    def test_exit_codes(self, certify_sweeps):
        assert [code for _, code, _ in certify_sweeps] == [0, 2, 2, 0]

    def test_failing_records(self, certify_sweeps):
        for delta, _, report in certify_sweeps:
            report = json.loads(report)
            assert report["config"]["options"]["perturb_norm"] == delta
            failing = {rec["equation_id"] for rec in report["checks"] if not rec["pass"]}
            radial_gram = [rec for rec in report["checks"]
                           if rec["equation_id"].startswith("orthonormality_radial_")]
            assert radial_gram
            if delta == 0.0:
                assert not failing and report["all_pass"] is True
                continue
            assert failing == {rec["equation_id"] for rec in radial_gram}
            for rec in radial_gram:
                assert abs(rec["measured"] - abs((1.0 + delta) ** 2 - 1.0)) <= 1e-8

    def test_eigensolver_records_equal(self, certify_sweeps):
        def eigensolver_records(report):
            return [rec for rec in json.loads(report)["checks"]
                    if rec["equation_id"].startswith("eigensolver_")]

        first = eigensolver_records(certify_sweeps[0][2])
        assert [rec["equation_id"] for rec in first] == [
            "eigensolver_closed_form_canonical", "eigensolver_closed_form_even",
            "eigensolver_closed_form_odd"]
        for _, _, report in certify_sweeps[1:]:
            assert eigensolver_records(report) == first

    def test_last_report_equals_first(self, certify_sweeps):
        assert certify_sweeps[-1][2] == certify_sweeps[0][2]


class TestFullVerify:
    def test_full_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--out", str(out)) == 0
        assert "all checks passed (21/21)" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        assert report["config"]["options"]["fast"] is False
        assert len(report["checks"]) == 21
        assert all(chk["pass"] for chk in report["checks"])


class TestUsageErrors:
    def test_no_subcommand(self):
        assert run_cli() == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run_cli("eigenvalues")
        assert err.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run_cli("spectrum", "--zeta", "3")
        assert err.value.code == 1

    def test_invalid_exponent(self):
        assert run_cli("spectrum", "--a=-1.5") == 1

    def test_negative_nmax(self):
        assert run_cli("spectrum", "--nmax", "-2") == 1

    def test_even_spectrum_at_gamma_half_collapses(self, tmp_path):
        # the even energy tower is still defined at gamma = 1/2 (it collapses
        # onto the canonical ladder with m -> 2m); only wavefunction-bearing
        # commands reject the branch there
        out = tmp_path / "collapse.csv"
        assert run_cli("spectrum", "--parity", "even", "--nmax", "1",
                       "--mmax", "1", "--out", str(out)) == 0
        rows = csv_rows(out)
        for row in rows:
            n, m = int(row[1]), int(row[2])
            assert float(row[4]) == 2.0 * n + 2.0 * m + 1.0

    def test_config_line_without_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nmax 3\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad2.cfg"
        cfg.write_text("zeta=3\n")
        assert run_cli("spectrum", "--config", str(cfg)) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_cli("spectrum", "--config", str(tmp_path / "nope.cfg")) == 1

    @pytest.mark.parametrize("command", ["spectrum", "wavefunction", "density"])
    def test_config_unknown_parity(self, tmp_path, command):
        cfg = tmp_path / "parity.cfg"
        cfg.write_text("parity = sideways\n")
        assert run_cli(command, "--config", str(cfg)) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_verify_non_finite_perturb_norm(self, tmp_path, capsys, value):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--fast", f"--perturb-norm={value}", "--out", str(out)) == 1
        assert "perturb_norm must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_verify_config_non_finite_perturb_norm(self, tmp_path, value):
        cfg = tmp_path / "verify.cfg"
        cfg.write_text(f"fast = true\nperturb_norm = {value}\n")
        assert run_cli("verify", "--config", str(cfg)) == 1

    @pytest.mark.parametrize("value", ["0", "-2", "nan", "inf"])
    def test_density_degenerate_half_width(self, tmp_path, capsys, value):
        out = tmp_path / "dens.csv"
        assert run_cli("density", "--ngrid", "11", f"--half-width={value}",
                       "--out", str(out)) == 1
        assert "half_width must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trace, npoints", [("radial", "0"), ("radial", "1"),
                                                ("angular", "0"), ("angular", "-3")])
    def test_wavefunction_degenerate_npoints(self, capsys, trace, npoints):
        assert run_cli("wavefunction", "--trace", trace, f"--npoints={npoints}") == 1
        captured = capsys.readouterr()
        assert "npoints must be >=" in captured.err and captured.out == ""

    def test_unopenable_out_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "dens.csv"
        assert run_cli("density", "--ngrid", "11", "--out", str(out)) == 1
        assert "cannot write" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_outdir_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("potential", "--outdir", str(blocker)) == 1
        assert "cannot create" in capsys.readouterr().err


class TestConfigResolution:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\na = 2\nnmax = 0\nmmax = 0\n")
        out = tmp_path / "cfg.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--out", str(out)) == 0
        row = csv_rows(out)[0]
        assert float(row[4]) == pytest.approx(4.0, rel=1e-15)   # 3(a+1-term)+nu

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a=2\nnmax=0\nmmax=0\n")
        out = tmp_path / "cfg2.csv"
        assert run_cli("spectrum", "--config", str(cfg), "--a=0",
                       "--out", str(out)) == 0
        row = csv_rows(out)[0]
        assert float(row[4]) == pytest.approx(1.0, rel=1e-15)
