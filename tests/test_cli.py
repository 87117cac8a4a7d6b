"""End-to-end CLI behavior: output formats, exit codes, config files."""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import wsdirac
from wsdirac import checks, cli
from wsdirac.cli import main

from conftest import reference_params


BOUND_FLAGS = ["--depth", "10", "--alpha-prime", "0.0015"]
CSV_HEADER = ("alpha_prime,dim,ell,n,e_upper,e_lower,e_binding,"
              "branch,roots_real,normalizable,error")


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def assert_one_error_line(out):
    """stderr is one error line that names what failed: no line of the run
    is float pow's errno tuple, a division by a square that underflowed to 0,
    or a traceback."""
    assert out.err.startswith("error: ") and len(out.err.splitlines()) == 1, out.err
    for line in (out.out + out.err).splitlines():
        assert not re.match(r"error: \(\d+, '", line), line
        assert "division by zero" not in line and "Traceback" not in line, line


def test_records_follow_the_csv_schema():
    # the CSV header is the writer's columns: a sweep cell's labels (D as
    # dim), the record attributes the writer names, then the cell's error;
    # each column holds the value of its name, for a rooted and a no-root cell
    for ell, error in [(20, ""), (5, "NoRealRoot")]:
        cell, = wsdirac.sweep(reference_params(0.0), [0.0], [3], [ell], [0])
        assert cell.error == (error or None)
        columns = cli._cell_columns([cell])
        assert ",".join(columns) == CSV_HEADER
        labels = {"alpha_prime": cell.alpha_prime, "dim": cell.D,
                  "ell": cell.ell, "n": cell.n, "error": error}
        for name, column in columns.items():
            value = labels[name] if name in labels else getattr(cell.result, name)
            assert repr(column) == repr([value]), name


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
        labels = cli.TABLES[key][key - 1]  # table 1's dims, table 2's ells
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

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unopenable_output_exit_code(self, capsys, tmp_path, command, target):
        # an --output that cannot be opened is a usage error: exit 2 and one
        # error line naming the path, with nothing written and no file made
        path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
        code, out = run(capsys, command, "--output", str(path))
        assert code == 2 and out.out == ""
        assert_one_error_line(out)
        assert str(path) in out.err
        assert list(tmp_path.iterdir()) == []


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

    def test_no_real_root_exit_code(self, capsys):
        # the reference well has no real root at ell = 5: no sample is written
        code, out = run(capsys, "wavefunction", "--ell", "5")
        assert code == 4 and out.out == ""
        assert out.err == "error: no real energy root for this configuration\n"


# verify's lines in order; a failed energy-solve line is the last
VERIFY_CHECKS = ("centrifugal-surrogate-taylor-match", "energy-solve",
                 "superpotential-matching-residuals",
                 "superpotential-elimination-agreement",
                 "ground-state-route-agreement", "closed-form-vs-bracketing",
                 "below-continuum-edge", "shooting-cross-check")
ALL_PASS = "pass pass pass pass pass pass skip"
LEVEL_N = "pass pass pass pass skip pass skip"


def verify_statuses(statuses: str, continuum: str) -> list[tuple[str, str]]:
    """(status, check) of each line verify prints: statuses gives every
    line's status but the continuum check's, which is `continuum` where the
    run reaches it ("skip" for a root that is not normalizable)."""
    expected = statuses.split()
    if len(expected) == len(VERIFY_CHECKS) - 1:
        expected.insert(-1, continuum)
    return list(zip(expected, VERIFY_CHECKS))


def verify_lines(out, statuses: str, continuum: str = "skip") -> bool:
    """Whether verify printed exactly these statuses of VERIFY_CHECKS."""
    return ([tuple(l.split()[:2]) for l in out.out.splitlines()]
            == verify_statuses(statuses, continuum))


class TestVerify:
    @pytest.mark.parametrize("flags, statuses", [
        (BOUND_FLAGS, ALL_PASS),
        pytest.param(["--radius", "1.2", "--ell", "0", "--dim", "2"],
                     "pass fail", marks=pytest.mark.filterwarnings(
                         "ignore::wsdirac.SurfaceRegimeWarning")),
        (["--depth", "10"], ALL_PASS),
        (["--n", "2"], LEVEL_N),
        (["--depth", "10", "--dim", "1"], ALL_PASS),
        (["--alpha-prime", "0.01", "--ell", "3"], ALL_PASS),
        (["--ell", "5"], "pass fail"),
        ([*BOUND_FLAGS, "--n", "3"], LEVEL_N),
        # B - 1/a = 0 at this radius: B_n = 0 at n = 1 fails the solve line
        (["--radius", "5.009970139234591", "--n", "1"], "pass fail"),
    ])
    def test_line_contract(self, capsys, flags, statuses):
        # the tests below lock the lines of the other flag sets, --with-oracle
        # among them.  Of these roots only BOUND's is normalizable, so only
        # its continuum line passes
        code, out = run(capsys, "verify", *flags)
        assert verify_lines(out, statuses,
                            "pass" if flags == BOUND_FLAGS else "skip")
        assert code == (1 if "fail" in statuses else 0)

    def test_reference_configuration_passes(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert verify_lines(out, ALL_PASS)

    def test_with_oracle_on_bound_configuration(self, capsys):
        code, out = run(capsys, "verify", *BOUND_FLAGS, "--with-oracle")
        assert code == 0
        assert verify_lines(out, "pass pass pass pass pass pass pass", "pass")

    def test_with_oracle_on_reference_configuration(self, capsys):
        # the reference-well root is not a bound state and the oracle finds
        # no eigenvalue near it: the two routes agree
        code, out = run(capsys, "verify", "--with-oracle")
        assert code == 0
        assert verify_lines(out, "pass pass pass pass pass pass pass")

    @pytest.mark.parametrize("flags", [[], BOUND_FLAGS])
    def test_excited_level_passes(self, capsys, flags):
        # BOUND's n = 1 root is normalizable, the reference well's is not
        code, out = run(capsys, "verify", *flags, "--n", "1")
        assert code == 0
        assert verify_lines(out, LEVEL_N, "pass" if flags else "skip")

    def test_failed_check_sets_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(checks, "closed_form_A", lambda *args: 1e3)
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
        assert verify_lines(out, "pass pass pass pass skip pass pass",
                            "pass" if flag == "normalizable=true" else "skip")
        line = next(l for l in out.out.splitlines()
                    if "shooting-cross-check" in l)
        assert line.startswith(f"pass shooting-cross-check {flag}, gap=")
        gap = float(line.rsplit("gap=", 1)[1])
        assert gap_range[0] <= gap < gap_range[1]

    @pytest.mark.parametrize("flags, code, continuum", [
        # the root 10.0093 is flagged normalizable and the oracle finds it,
        # but it lies above the physical continuum edge sqrt(M^2 + Q) = 10
        (["--depth", "10", "--alpha-prime", "0.01", "--ell", "20", "--dim", "4"],
         1, "fail"),
        (BOUND_FLAGS, 0, "pass"),
        # E0 = 12: Q = 5.808 lifts the edge to 10.286, above the root 9.3804
        ([*BOUND_FLAGS, "--e0", "12"], 0, "pass"),
    ])
    def test_continuum_edge(self, capsys, flags, code, continuum):
        got, out = run(capsys, "verify", *flags, "--n", "0", "--with-oracle")
        assert got == code
        assert verify_lines(out, "pass pass pass pass pass pass pass", continuum)

    def test_companion_route_without_real_root_fails(self, capsys):
        # a near-tangent quadratic: the closed form has its root pair, the
        # companion-matrix route finds none, and the check fails with no gap
        code, out = run(capsys, "verify", "--depth=-1e10")
        assert code == 1
        assert "fail ground-state-route-agreement gap=inf" in out.out

    @pytest.mark.filterwarnings("ignore::wsdirac.SurfaceRegimeWarning")
    def test_float64_range_error_ends_the_run(self, capsys):
        # the solve overflows: no energy-solve line, no NaN, one error line;
        # at tiny R/a the surrogate's coefficients overflow before any line
        for argv, statuses in [(["--depth", "1e200"], "pass"),
                               (["--depth", "1e160", "--alpha-prime", "0.001"], "pass"),
                               (["--radius", "1e-154"], ""),
                               (["--surface-thickness", "1e155"], "")]:
            code, out = run(capsys, "verify", *argv)
            assert code == 2
            assert verify_lines(out, statuses)
            assert_one_error_line(out)

    def test_degenerate_fails(self, capsys):
        code, out = run(capsys, "verify", "--ell", "0")
        assert code == 1
        assert verify_lines(out, "pass fail")


SHOOTING = "shooting-cross-check"


def shooting_line(out) -> str:
    """verify's shooting-cross-check line."""
    return next(l for l in out.out.splitlines() if f" {SHOOTING} " in l)


class TestOracleCommands:
    """verify --with-oracle's shooting line, pinned where each command
    reaches a different part of the oracle."""

    @pytest.mark.parametrize("flags, code, detail", [
        ([*BOUND_FLAGS, "--n", "0"], 0, "normalizable=true, gap=1.401e-11"),
        ([*BOUND_FLAGS, "--n", "1"], 0, "normalizable=true, gap=2.028e-11"),
        ([*BOUND_FLAGS, "--n", "2"], 0, "normalizable=false, gap=5.482e-03"),
        # node counts rise with E over the bracket, yet a scan for every
        # state runs to its end
        ([*BOUND_FLAGS, "--n", "3"], 0, "normalizable=false, gap=1.977e-01"),
        # E0 != M: the deformation's Q and kappa_const terms are nonzero
        ([*BOUND_FLAGS, "--e0", "12", "--n", "0"], 0,
         "normalizable=true, gap=4.846e-12"),
        ([*BOUND_FLAGS, "--e0", "12", "--n", "1"], 0,
         "normalizable=true, gap=2.961e-10"),
        # the reference well: the 400-point scan ends with no sign change
        (["--n", "0"], 0, "normalizable=false, no eigenvalue in bracket"),
        # the outward amplitudes grow by about e^6000 and are rescaled
        (["--depth", "1000", "--alpha-prime", "0.0015", "--n", "0"], 0,
         "normalizable=true, gap=1.936e-10"),
        # the kernel renormalizes every 5 tree levels, fewer than a row's 7,
        # so a bit that schedule moved shows here; the matching-residual
        # line fails (ROADMAP item 27)
        (["--depth", "1e4", "--alpha-prime", "0.0015", "--n", "0"], 1,
         "normalizable=true, gap=1.316e-10"),
        # the bracket reaches the continuum (c0 < 0 at its top), so the
        # inward sweep stays uniform and outnumbers the outward one in rows
        (["--depth", "10", "--alpha-prime", "0.01", "--dim", "1", "--n", "0"], 0,
         "normalizable=true, gap=1.402e-10"),
        # the root lies above the continuum edge: that line fails
        (["--depth", "10", "--alpha-prime", "0.01", "--ell", "20", "--dim", "4",
          "--n", "0"], 1, "normalizable=true, gap=1.864e-10"),
    ])
    def test_shooting_line(self, capsys, flags, code, detail):
        got, out = run(capsys, "verify", "--with-oracle", *flags)
        assert got == code and out.err == ""
        assert shooting_line(out) == f"pass {SHOOTING} {detail}"
        # exit 0 exactly when no line fails
        assert any(l.startswith("fail ") for l in out.out.splitlines()) == (code == 1)

    @pytest.mark.parametrize("depth, statuses", [
        ("1e8", {"pass"}), ("1e10", {"pass"}), ("1e12", {"pass"}),
        ("1e13", {"pass"}), ("1e16", {"pass", "fail"}),
    ])
    def test_deep_well(self, capsys, depth, statuses):
        # the values move with ROADMAP items 17, 23 and 25: only the status,
        # the exit code's bound and the absence of an error line are pinned.
        # At 1e10 the outward amplitudes reach about 1e225 and the node count
        # read from their signs must not overflow; from 1e12 on each sweep
        # scales its transfer matrices before a block's prefix products; at
        # 1e16 the states' trajectories run with their matrices scaled
        got, out = run(capsys, "verify", "--with-oracle", "--depth", depth,
                       "--alpha-prime", "0.0015", "--n", "0")
        assert got <= 1 and out.err == ""
        assert shooting_line(out).split()[0] in statuses

    def test_deepest_well_finds_no_eigenvalue(self, capsys):
        # transfer-matrix entries reach about 2e72: the kernel renormalizes
        # every second tree level and stays in range (the line is ROADMAP
        # item 25's defect)
        got, out = run(capsys, "verify", "--with-oracle", "--depth", "1e20",
                       "--alpha-prime", "0.0015", "--n", "0")
        assert got == 1 and out.err == ""
        assert shooting_line(out) == (f"fail {SHOOTING} normalizable=true, "
                                      "no eigenvalue in bracket")


@pytest.mark.parametrize("command", [["table", "1"], ["solve"], ["verify"]])
def test_negative_label_exit_code(capsys, command):
    code, out = run(capsys, *command, "--n", "-1")
    assert code == 2
    assert out.err.startswith("error: ") and "Traceback" not in out.err


@pytest.mark.parametrize("argv", [
    ["solve", "--mass", "nan"],
    ["verify", "--mass", "nan"],
    ["verify", "--depth", "inf"],
    ["table", "1", "--e0=-inf"],
    # finite, but the arithmetic leaves the float64 range
    ["solve", "--mass", "1e200"],
    ["solve", "--e0", "1e160", "--alpha-prime", "0.5"],
    ["solve", "--surface-thickness", "1e-200"],
    ["solve", "--radius", "1e300"],
    pytest.param(["solve", "--radius", "1e-300"], marks=pytest.mark.filterwarnings(
        "ignore::wsdirac.SurfaceRegimeWarning")),
    ["solve", "--depth", "1e200"],
    ["solve", "--depth", "1e200", "--format", "json-lines"],
    ["table", "1", "--depth", "1e200"],
    # B = inf: the radial coefficients overflow, not B_n = 0
    ["solve", "--depth", "1e160", "--alpha-prime", "0.001"],
    ["wavefunction", "--depth", "1e160", "--alpha-prime", "0.001"],
    # R^2 overflows after the surrogate's own check has passed
    ["verify", "--with-oracle", "--radius", "1e308",
     "--surface-thickness", "1e307"],
    # R/a = inf: no surrogate coefficients, so no Taylor line passes
    ["verify", "--radius", "1e300", "--surface-thickness", "1e-10"],
    # a square underflows to 0: (R/a)^2, R^2 and a^2, then R/a itself
    pytest.param(["solve", "--radius", "1e-320"], marks=pytest.mark.filterwarnings(
        "ignore::wsdirac.SurfaceRegimeWarning")),
    ["solve", "--radius", "1e-300", "--surface-thickness", "1e-301"],
    ["solve", "--radius", "1e-150", "--surface-thickness", "1e-165"],
    pytest.param(["verify", "--radius", "1e-200", "--surface-thickness", "1e200"],
                 marks=pytest.mark.filterwarnings(
                     "ignore::wsdirac.SurfaceRegimeWarning")),
])
def test_non_finite_parameter_exit_code(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    if "--with-oracle" in argv:  # the check that ran before the failure
        assert out.out.splitlines() == [
            "pass centrifugal-surrogate-taylor-match max_gap=0.000e+00"]
    else:
        assert out.out == ""
    assert_one_error_line(out)


def test_deformation_square_may_underflow(capsys):
    # (E0 + M)^2 = 4e-340 rounds to 0 but only multiplies into v, so the
    # well is solved as at v = 0 and every check runs
    code, out = run(capsys, "verify", "--mass", "1e-170", "--e0", "1e-170")
    assert code == 0
    assert not any(line.startswith("error:")
                   for line in (out.out + out.err).splitlines())
    assert out.out.startswith("pass ")


class TestOutputFile:
    @pytest.mark.parametrize("argv, expected", [
        (["verify", "--n", "-1"], 2),
        (["solve", "--ell", "0"], 3),
        (["wavefunction"], 5),  # the default well's root is not bound
        (["table", "1", "--dim", "0"], 2),
    ])
    def test_failed_command_leaves_file_untouched(self, capsys, tmp_path,
                                                  argv, expected):
        path = tmp_path / "out.txt"
        path.write_bytes(b"earlier run\n")
        code, out = run(capsys, *argv, "--output", str(path))
        assert code == expected
        assert out.out == "" and out.err.startswith("error: ")
        assert path.read_bytes() == b"earlier run\n"

    def test_failed_command_prints_no_timestamp(self, capsys):
        code, out = run(capsys, "verify", "--timestamp", "--n", "-1")
        assert code == 2
        assert out.out == ""

    @pytest.mark.parametrize("fmt, prefix", [("csv", "# generated "),
                                             ("json-lines", '{"timestamp": ')])
    def test_timestamp_is_the_first_line(self, capsys, fmt, prefix):
        code, out = run(capsys, "verify", "--timestamp", "--format", fmt)
        assert code == 0
        lines = out.out.splitlines()
        assert lines[0].startswith(prefix)
        assert len(lines) == 1 + len(VERIFY_CHECKS)
        if fmt == "csv":
            assert lines[1].startswith(f"pass {VERIFY_CHECKS[0]} ")
            return
        # a JSON-lines reader takes every line, the timestamp's and each check's
        stamp, *records = map(json.loads, lines)
        assert list(stamp) == ["timestamp"]
        assert [list(r) for r in records] == \
            [["status", "check", "detail"]] * len(VERIFY_CHECKS)
        assert [(r["status"], r["check"]) for r in records] == \
            verify_statuses(ALL_PASS, "skip")


# sha256 over the exit code and stdout of each run below: every byte the
# spectrum commands write in both formats, typed-error cells included
_OUTPUT_DIGEST = "510209e6d5e51e72ffbda2f896554c4216d14e39d5319ead626251133e3f0588"


def test_output_bytes_digest(capsys):
    h = hashlib.sha256()
    for command in (["table", "1"], ["table", "2"], ["solve"]):
        for fmt in ("csv", "json-lines"):
            for flags in ([], BOUND_FLAGS, ["--ell", "0"], ["--ell", "5"],
                          ["--n", "2"], ["--depth", "10", "--dim", "1"]):
                code, out = run(capsys, *command, *flags, "--format", fmt)
                h.update(repr((code, out.out)).encode())
    assert h.hexdigest() == _OUTPUT_DIGEST


# wavefunction writes its samples in blocks of this many records (cli._BLOCK)
WF_BLOCK = 4096
# sha256 over the exit code and stdout of each run below: wavefunction samples
# in both formats on both sides of the block boundaries
_WAVEFUNCTION_DIGEST = "9dad75117c8227fcf6b9071cae9255c797a970c051590e163b698712d8da889c"


def test_wavefunction_bytes_digest(capsys):
    h = hashlib.sha256()
    for flags in ([], ["--radius", "120"]):
        for samples in (1, 50, 1000, WF_BLOCK - 1, WF_BLOCK, WF_BLOCK + 1,
                        2 * WF_BLOCK + 1):
            for fmt in ("csv", "json-lines"):
                code, out = run(capsys, "wavefunction", *BOUND_FLAGS, *flags,
                                "--samples", str(samples), "--format", fmt)
                h.update(repr((code, out.out)).encode())
    assert h.hexdigest() == _WAVEFUNCTION_DIGEST


class TestBlocks:
    @pytest.mark.parametrize("fmt, header", [("csv", 1), ("json-lines", 0)])
    def test_one_write_per_block(self, monkeypatch, fmt, header):
        writes = []

        class Stream:
            def write(self, text):
                writes.append(text)

        monkeypatch.setattr(sys, "stdout", Stream())
        assert main(["wavefunction", *BOUND_FLAGS, "--format", fmt,
                     "--samples", str(2 * WF_BLOCK + 1)]) == 0
        assert [text.count("\n") for text in writes] == \
            [WF_BLOCK + header, WF_BLOCK, 1]
        assert cli._BLOCK == WF_BLOCK

    @pytest.mark.parametrize("fmt, prefix", [("csv", "# generated "),
                                             ("json-lines", '{"timestamp": ')])
    def test_output_file_across_blocks(self, capsys, tmp_path, fmt, prefix):
        # the timestamp opens the file, the CSV header follows it once, and
        # the records are those written to stdout
        argv = ["wavefunction", *BOUND_FLAGS, "--format", fmt,
                "--samples", str(WF_BLOCK + 1)]
        _, out = run(capsys, *argv)
        path = tmp_path / "out.txt"
        code, file_out = run(capsys, *argv, "--output", str(path), "--timestamp")
        assert code == 0 and file_out.out == ""
        lines = path.read_text().splitlines()
        assert lines[0].startswith(prefix)
        assert lines[1:] == out.out.splitlines()
        assert lines.count("r,F") == (fmt == "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json-lines"])
    @pytest.mark.parametrize("samples", [1, 2, 3 * WF_BLOCK + 5])
    def test_samples_match_whole_array(self, capsys, fmt, samples):
        # the blockwise radii and amplitudes are those of one np.linspace
        # over every sample, written as the per-cell join writes them
        code, out = run(capsys, "wavefunction", *BOUND_FLAGS, "--format", fmt,
                        "--samples", str(samples))
        p, state = cli._inputs(cli._build_parser().parse_args(
            ["wavefunction", *BOUND_FLAGS]))
        E = wsdirac.solve_energy(p, state).e_upper
        sp = wsdirac.solve_susy_parameters(wsdirac.derive_coefficients(p, state),
                                           wsdirac.pekeris_coefficients(p.R, p.a),
                                           p, E)
        wf = wsdirac.normalize(sp.A, sp.B, p.a, p.R)
        r = np.linspace(0.0, wf.r_max, samples)
        rows = zip(r.tolist(), wsdirac.evaluate(wf, r).tolist())
        want = (["r,F", *(",".join(map(cli._csv_cell, row)) for row in rows)]
                if fmt == "csv" else
                [json.dumps({"r": x, "F": F}) for x, F in rows])
        assert code == 0
        assert out.out == "\n".join(want) + "\n"

    def test_memory_does_not_grow_with_samples(self, tmp_path):
        # one block's arrays at a time: the peak at 20 blocks is that of one
        def peak(samples):
            tracemalloc.start()
            try:
                assert main(["wavefunction", *BOUND_FLAGS, "--samples",
                             str(samples), "--output", str(tmp_path / "F.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(WF_BLOCK)  # caches the parser
        assert peak(20 * WF_BLOCK) < 2 * peak(WF_BLOCK)


class TestCsvRows:
    # a column of Python floats alone, one with a numpy float, NaN, +-inf and
    # -0.0 among them, and columns of None, bool, int and str, mixed within
    # a column too
    COLUMNS = {
        "x": [1.5, -0.0, math.nan, math.inf, -math.inf, 1e-320, 1 / 3],
        "y": [np.float64(2.5), 1.25, np.float64(math.nan), -0.0, 7.0, 0.1, 1e300],
        "z": [None, True, False, 3, "NoRealRoot", 2.5, ""],
        "w": [None] * 7,
        "b": [False, True, False, True, True, False, False],
        "s": ["upper", "", "a,b", "%s", "%", "x", "y"],
        "i": [0, 1, -2, 3, 10**20, 5, 6],
    }

    def _written(self, capsys, fmt, **cols):
        args = cli._build_parser().parse_args(["solve", "--format", fmt])
        writer = cli._Writer(args)
        writer.block(**cols)
        writer.block(**cols)  # a later block repeats no header
        writer.close()
        return capsys.readouterr().out

    def test_csv_rows_are_the_per_cell_join(self, capsys):
        for names in (list(self.COLUMNS), ["x"], ["z"], ["x", "y"], ["s", "x"]):
            cols = {name: self.COLUMNS[name] for name in names}
            rows = [",".join(map(cli._csv_cell, rec)) for rec in zip(*cols.values())]
            want = "\n".join([",".join(cols), *rows]) + "\n" + "\n".join(rows) + "\n"
            assert self._written(capsys, "csv", **cols) == want

    def test_json_lines_unchanged(self, capsys):
        rows = [json.dumps(dict(zip(self.COLUMNS, rec)))
                for rec in zip(*self.COLUMNS.values())]
        assert self._written(capsys, "json-lines", **self.COLUMNS) == \
            "\n".join(rows) + "\n" + "\n".join(rows) + "\n"

    def test_float_column_formats_without_a_call_per_cell(self, capsys, monkeypatch):
        # _csv_cell runs on the cells of the columns that are not all
        # Python floats, and on no other
        seen = []
        csv_cell = cli._csv_cell

        def counted(x):
            seen.append(x)
            return csv_cell(x)

        monkeypatch.setattr(cli, "_csv_cell", counted)
        self._written(capsys, "csv", x=self.COLUMNS["x"], y=self.COLUMNS["y"])
        assert len(seen) == 2 * len(self.COLUMNS["y"])
        assert all(a is b for a, b in zip(seen, 2 * self.COLUMNS["y"]))


def test_resolution_limit_is_a_typed_error(capsys):
    # at E0 = 1e17 the root is 6.84e24, where E +- 0.5 rounds to E: the
    # shooting check's bracket is below float64 resolution, an exit-2 error
    # line after the root checks' lines, not a traceback
    code, out = run(capsys, "verify", "--with-oracle", "--e0", "1e17",
                    "--alpha-prime", "0.0015")
    assert code == 2
    assert out.err.count("\n") == 1
    assert re.fullmatch(r"error: the shooting bracket E \+- 0\.5 collapses to "
                        r"E = 6\.83871721\d*e\+24: below the float64 resolution "
                        r"there \(ulp\(E\) = 1\.07e\+09\)\n", out.err)
    # the lines before it are those of the run without the oracle
    code_without, without = run(capsys, "verify", "--e0", "1e17",
                                "--alpha-prime", "0.0015")
    assert code_without == 1 and without.err == ""
    assert out.out == without.out.replace(
        "skip shooting-cross-check oracle disabled\n", "")


def test_solver_value_error_is_not_a_usage_error(monkeypatch):
    # exit 2 is for inputs outside their domain; a ValueError raised inside
    # the solver is a fault and propagates
    def broken(p, state):
        raise ValueError("inside the solver")
    monkeypatch.setattr(cli, "solve_energy", broken)
    with pytest.raises(ValueError, match="inside the solver"):
        main(["solve"])


def test_parser_built_once_per_process(capsys, monkeypatch):
    # two commands, one root parser: parse_args leaves the parser as it was
    init, progs = argparse.ArgumentParser.__init__, []

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["solve"]) == main(["solve", "--n", "1"]) == 0
    assert progs.count("wsdirac") == 1


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

    def test_value_checked_like_its_flag(self, capsys, tmp_path):
        # `--format xml` is not a choice, and neither is the config entry
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--format" in out.err and "xml" in out.err

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert exc.value.code == 2

    def test_blank_and_comment_lines_skipped(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n# the attractive well\ndepth = 10\n\n"
                       "  # deformed\nalpha_prime = 0.0015\n")
        assert run(capsys, "solve", "--config", str(cfg)) == \
            run(capsys, "solve", *BOUND_FLAGS)

    def test_line_without_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("depth = 10\nalpha_prime\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(cfg)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "bad config file: line 2: expected key=value" in out.err

    # a value for each key, none its flag's default; {tmp} is the test's
    # directory
    KEY_VALUES = {"mass": "10.5", "surface_thickness": "0.55", "radius": "7.5",
                  "depth": "10", "e0": "9.5", "alpha_prime": "0.0015",
                  "ell": "19", "dim": "4", "n": "1", "format": "json-lines",
                  "output": "{tmp}/run.out"}

    @pytest.mark.parametrize("key", cli._CONFIG_KEYS)
    def test_every_key_acts_as_its_flag(self, capsys, tmp_path, key):
        # `key = value` in a file gives the arguments, the inputs and the
        # solve bytes of the typed --key=value
        value = self.KEY_VALUES[key].format(tmp=tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        typed = f"--{key.replace('_', '-')}={value}"
        parser = cli._build_parser()
        parse = lambda *flags: parser.parse_args(["solve", *flags])
        from_file = parse(*cli._config_flags(parser, str(cfg)))
        assert vars(from_file) == vars(parse(typed)) != vars(parse())
        assert cli._inputs(from_file) == cli._inputs(parse(typed))
        written = []
        for argv in (["--config", str(cfg)], [typed]):
            code, out = run(capsys, "solve", *argv)
            assert code == 0 and out.err == ""
            written.append(out.out + (Path(value).read_text() if key == "output"
                                      else ""))
        assert written[0] == written[1] != ""


# each command's --help at a terminal width of 80 columns: argparse wraps
# to the width that COLUMNS gives.  Every subcommand's ends with these groups
HELP_GROUPS = """
physical parameters:
  --mass MASS           fermion mass M (fm^-1)
  --surface-thickness SURFACE_THICKNESS
                        surface thickness a (fm)
  --radius RADIUS       potential width R (fm)
  --depth DEPTH         potential depth V0 (fm^-1)
  --e0 E0               zeroth-order energy E0 (fm^-1)
  --alpha-prime ALPHA_PRIME
                        deformation parameter alpha' (fm^2)
  --ell ELL             azimuthal quantum number
  --dim DIM             spatial dimension D
  --n N                 principal quantum number

input/output:
  --config FILE         key=value configuration file; flags override it
  --format {csv,json-lines}
  --output FILE         write to FILE instead of stdout
  --timestamp           include a generation timestamp in the output
"""
HELP = {
    "wsdirac": """\
usage: wsdirac [-h] {table,solve,wavefunction,verify} ...

Bound-state spectra of a deformed Woods-Saxon Dirac problem

positional arguments:
  {table,solve,wavefunction,verify}
    table               reproduce a reference 5x4 grid
    solve               solve one configuration and print the record
    wavefunction        emit normalized ground-state samples (r, F)
    verify              run the self-consistency checks

options:
  -h, --help            show this help message and exit
""",
    "table": """\
usage: wsdirac table [-h] [--mass MASS]
                     [--surface-thickness SURFACE_THICKNESS] [--radius RADIUS]
                     [--depth DEPTH] [--e0 E0] [--alpha-prime ALPHA_PRIME]
                     [--ell ELL] [--dim DIM] [--n N] [--config FILE]
                     [--format {csv,json-lines}] [--output FILE] [--timestamp]
                     {1,2}

positional arguments:
  {1,2}                 1: dimension grid at ell=20; 2: ell grid at D=3

options:
  -h, --help            show this help message and exit
""" + HELP_GROUPS,
    "solve": """\
usage: wsdirac solve [-h] [--mass MASS]
                     [--surface-thickness SURFACE_THICKNESS] [--radius RADIUS]
                     [--depth DEPTH] [--e0 E0] [--alpha-prime ALPHA_PRIME]
                     [--ell ELL] [--dim DIM] [--n N] [--config FILE]
                     [--format {csv,json-lines}] [--output FILE] [--timestamp]

options:
  -h, --help            show this help message and exit
""" + HELP_GROUPS,
    "wavefunction": """\
usage: wsdirac wavefunction [-h] [--mass MASS]
                            [--surface-thickness SURFACE_THICKNESS]
                            [--radius RADIUS] [--depth DEPTH] [--e0 E0]
                            [--alpha-prime ALPHA_PRIME] [--ell ELL]
                            [--dim DIM] [--n N] [--config FILE]
                            [--format {csv,json-lines}] [--output FILE]
                            [--timestamp] [--samples SAMPLES]

options:
  -h, --help            show this help message and exit
  --samples SAMPLES     number of equally spaced radii on [0, r_max]
""" + HELP_GROUPS,
    "verify": """\
usage: wsdirac verify [-h] [--mass MASS]
                      [--surface-thickness SURFACE_THICKNESS]
                      [--radius RADIUS] [--depth DEPTH] [--e0 E0]
                      [--alpha-prime ALPHA_PRIME] [--ell ELL] [--dim DIM]
                      [--n N] [--config FILE] [--format {csv,json-lines}]
                      [--output FILE] [--timestamp] [--with-oracle]

options:
  -h, --help            show this help message and exit
  --with-oracle         also cross-check against the shooting solver
""" + HELP_GROUPS,
}


@pytest.mark.parametrize("command", HELP)
def test_help_text(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*([] if command == "wsdirac" else [command]), "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.out == HELP[command] and out.err == ""


# the directory that holds the wsdirac package, for a fresh interpreter
SRC = str(Path(wsdirac.__file__).resolve().parents[1])


@pytest.mark.parametrize("argv, code, errors", [
    (["solve"], 0, 0),
    (["verify", "--ell", "0"], 1, 0),
    (["verify", "--with-oracle", "--e0", "1e17", "--alpha-prime", "0.0015"], 2, 1),
    (["solve", "--ell", "5"], 4, 0),
])
def test_module_entry_point_exit_code(argv, code, errors):
    # python -m wsdirac.cli exits with main's code, and prints no traceback
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "wsdirac.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sum(l.startswith("error: ") for l in proc.stderr.splitlines()) == errors


def test_common_commands_load_no_scipy():
    # no command loads scipy: the bracketing route resolves the reference
    # well's sub-grid root pair by re-scanning, the shooting oracle refines
    # its roots by its own Brent iteration, both without scipy.optimize, and
    # normalize takes its incomplete beta function from the standard library
    script = (
        "import contextlib, io, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import wsdirac\n"
        "from wsdirac import cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded(), loaded()\n"
        "bound = ['--depth', '10', '--alpha-prime', '0.0015']\n"
        "for argv in (['table', '1'], ['table', '2'], ['solve'], ['verify'],\n"
        "             ['verify', *bound], ['verify', *bound, '--n', '1'],\n"
        "             ['verify', '--with-oracle', *bound, '--n', '0'],\n"
        "             ['verify', '--with-oracle', *bound, '--n', '1'],\n"
        "             ['wavefunction'], ['wavefunction', *bound]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "            contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    # the reference well's ground state is not normalizable: exit 5\n"
        "    assert code == (5 if argv == ['wavefunction'] else 0), argv\n"
        "    assert not loaded(), (argv, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, SRC],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
