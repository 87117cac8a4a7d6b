"""End-to-end CLI behavior: output formats, exit codes, config files."""
from __future__ import annotations

import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import wsdirac
from wsdirac import cli
from wsdirac.cli import CSV_HEADER, main


BOUND_FLAGS = ["--depth", "10", "--alpha-prime", "0.0015"]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


class TestTable:
    def test_table1_shape_and_values(self, capsys):
        code, out = run(capsys, "table", "1")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 21
        row = next(l for l in lines[1:] if l.startswith("0,3,20,0,"))
        e_binding = float(row.split(",")[6])
        assert e_binding == pytest.approx(-20.11635, abs=1e-4)

    def test_table2_shape(self, capsys):
        code, out = run(capsys, "table", "2")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert len(lines) == 21
        assert {l.split(",")[2] for l in lines[1:]} == \
            {"20", "21", "22", "23", "24"}

    @pytest.mark.parametrize("which, key", [("1", 1), ("2", 2)])
    def test_rows_ordered_by_row_label_then_alpha(self, capsys, which, key):
        code, out = run(capsys, "table", which)
        assert code == 0
        rows = [l.split(",") for l in out.out.strip().splitlines()[1:]]
        labels = cli.TABLE1_DIMS if which == "1" else cli.TABLE2_ELLS
        assert [(int(r[key]), float(r[0])) for r in rows] == \
            [(v, a) for v in labels for a in cli.TABLE_ALPHAS]

    def test_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "3"])
        assert exc.value.code == 2


class TestSolve:
    def test_default_configuration(self, capsys):
        code, out = run(capsys, "solve")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[:4] == ["0", "3", "20", "0"]
        assert float(fields[6]) == pytest.approx(-20.11635, abs=1e-4)
        assert fields[7] == "upper" and fields[8] == "true"

    def test_json_lines(self, capsys):
        code, out = run(capsys, "solve", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out.out.strip())
        assert rec["roots_real"] is True
        assert rec["e_binding"] == pytest.approx(-20.11635, abs=1e-4)

    def test_degenerate_exit_code(self, capsys):
        code, out = run(capsys, "solve", "--ell", "0")
        assert code == 3
        assert "error" in out.err

    def test_non_real_slope_exit_code(self, capsys):
        # gamma < 0 (ell = 0, D = 2) and R/a < 48^(1/4): B is not real
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wsdirac.SurfaceRegimeWarning)
            warnings.simplefilter("error", RuntimeWarning)
            code, out = run(capsys, "solve", "--radius", "1.2", "--ell", "0",
                            "--dim", "2")
        assert code == 3
        assert out.out == ""
        assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1

    def test_no_real_root_exit_code(self, capsys):
        code, out = run(capsys, "solve", "--ell", "5")
        assert code == 4
        assert "NoRealRoot" in out.out

    def test_invalid_physics_exit_code(self, capsys):
        code, out = run(capsys, "solve", "--surface-thickness", "-1")
        assert code == 2
        assert "error" in out.err

    def test_output_file_and_timestamp(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, _ = run(capsys, "solve", "--output", str(path), "--timestamp")
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# generated ")
        assert lines[1] == CSV_HEADER


class TestWavefunction:
    def test_bound_configuration(self, capsys):
        code, out = run(capsys, "wavefunction", *BOUND_FLAGS, "--samples", "50")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert lines[0] == "r,F"
        assert len(lines) == 51
        values = [tuple(map(float, l.split(","))) for l in lines[1:]]
        assert values[0][0] == 0.0
        assert all(F > 0.0 for _, F in values[:-1])

    def test_growing_profile_exit_code(self, capsys):
        # the reference-well root has a non-normalizable analytic profile
        code, out = run(capsys, "wavefunction")
        assert code == 5
        assert "not normalizable" in out.err

    def test_monotone_profile_exit_code(self, capsys):
        # A < 0 but A + B < 0: the profile falls from r = 0, no bound state
        code, out = run(capsys, "wavefunction", "--depth", "10", "--dim", "1")
        assert code == 5
        assert out.out == ""
        assert len(out.err.strip().splitlines()) == 1
        assert "not normalizable" in out.err

    def test_wide_well_normalized(self, capsys):
        # N ~ e^888 at R = 120 fm overflows a float; the profile is built
        # from log N
        code, out = run(capsys, "wavefunction", "--radius", "120", *BOUND_FLAGS)
        assert code == 0 and out.err == ""
        r, F = np.loadtxt(io.StringIO(out.out), delimiter=",", skiprows=1,
                          unpack=True)
        assert np.all(np.isfinite(F))
        assert np.trapezoid(F * F, r) == pytest.approx(1.0, abs=1e-6)

    def test_excited_level_rejected(self, capsys):
        # the analytic profile solves the radial equation at n = 0 only
        code, out = run(capsys, "wavefunction", *BOUND_FLAGS, "--n", "1")
        assert code == 2
        assert out.out == ""
        assert len(out.err.strip().splitlines()) == 1
        assert "ground state" in out.err

    def test_rejects_bad_sample_count(self, capsys):
        code, _ = run(capsys, "wavefunction", "--samples", "0")
        assert code == 2


class TestVerify:
    def test_reference_configuration_passes(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        lines = out.out.strip().splitlines()
        assert all(l.split()[0] in ("pass", "skip") for l in lines)
        assert any(l.startswith("skip shooting-cross-check") for l in lines)

    def test_with_oracle_on_bound_configuration(self, capsys):
        code, out = run(capsys, "verify", *BOUND_FLAGS, "--with-oracle")
        assert code == 0
        assert any(l.startswith("pass shooting-cross-check")
                   for l in out.out.strip().splitlines())

    def test_with_oracle_on_reference_configuration(self, capsys):
        # the reference-well root is not a bound state and the oracle finds
        # no eigenvalue near it: the two routes agree
        code, out = run(capsys, "verify", "--with-oracle")
        assert code == 0
        assert any(l.startswith("pass shooting-cross-check")
                   for l in out.out.strip().splitlines())

    @pytest.mark.parametrize("flags", [[], BOUND_FLAGS])
    def test_excited_level_passes(self, capsys, flags):
        code, out = run(capsys, "verify", *flags, "--n", "1")
        assert code == 0
        assert not any(l.startswith("fail") for l in out.out.splitlines())

    def test_failed_check_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "closed_form_A", lambda *args: 1e3)
        code, out = run(capsys, "verify")
        assert code == 1
        assert "fail superpotential-elimination-agreement" in out.out

    @pytest.mark.parametrize("n, flag, gap_range", [
        # the bound n = 1 root sits on the oracle's 1-node state
        ("1", "normalizable=true", (0.0, 1e-3)),
        # the n = 2 root is not bound; the 1-node state 5.5e-3 below shares
        # its bracket but is not a match
        ("2", "normalizable=false", (1e-3, 1e-2)),
    ])
    def test_with_oracle_on_excited_levels(self, capsys, n, flag, gap_range):
        code, out = run(capsys, "verify", *BOUND_FLAGS, "--n", n,
                        "--with-oracle")
        assert code == 0
        line = next(l for l in out.out.splitlines()
                    if "shooting-cross-check" in l)
        assert line.startswith(f"pass shooting-cross-check {flag}, gap=")
        gap = float(line.rsplit("gap=", 1)[1])
        assert gap_range[0] <= gap < gap_range[1]

    def test_degenerate_fails(self, capsys):
        code, out = run(capsys, "verify", "--ell", "0")
        assert code == 1
        assert "fail energy-solve" in out.out


@pytest.mark.parametrize("command", [["table", "1"], ["solve"], ["verify"]])
def test_negative_label_exit_code(capsys, command):
    code, out = run(capsys, *command, "--n", "-1")
    assert code == 2
    assert out.err.startswith("error: ") and "Traceback" not in out.err


def test_solver_value_error_is_not_a_usage_error(monkeypatch):
    # exit 2 is for inputs outside their domain; a ValueError raised inside
    # the solver is a fault and propagates
    def broken(p, state):
        raise ValueError("inside the solver")
    monkeypatch.setattr(cli, "solve_energy", broken)
    with pytest.raises(ValueError, match="inside the solver"):
        main(["solve"])


class TestConfigFile:
    def test_values_loaded(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("depth = 10  # attractive well\nalpha_prime = 0.0015\n")
        code, out = run(capsys, "solve", "--config", str(cfg))
        assert code == 0
        rec = out.out.strip().splitlines()[1].split(",")
        assert float(rec[0]) == 0.0015

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell = 5\n")
        code, out = run(capsys, "solve", "--config", str(cfg), "--ell", "20")
        assert code == 0
        assert out.out.strip().splitlines()[1].split(",")[2] == "20"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("depht = 10\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert exc.value.code == 2


def test_common_commands_load_no_scipy():
    # scipy is imported only where it is used (normalize and the oracle), not
    # by `import wsdirac`; the bracketing route resolves the reference well's
    # sub-grid root pair by re-scanning, without scipy.optimize
    script = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import wsdirac\n"
        "from wsdirac import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "bound = ['--depth', '10', '--alpha-prime', '0.0015']\n"
        "for argv in (['table', '1'], ['table', '2'], ['solve'], ['verify'],\n"
        "             ['verify', *bound], ['verify', *bound, '--n', '1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert not loaded(), (argv, loaded())\n"
    )
    src = str(Path(wsdirac.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
