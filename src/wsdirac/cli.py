"""Command-line surface: reference tables, single solves, wavefunction samples
and a self-consistency verification suite.  All outputs machine-readable.

Exit codes: 0 success, 1 verification/table-cell failure, 2 argument or
validation error (float64 range exceeded too), 3 degenerate superpotential,
4 no real energy root, 5 non-normalizable wavefunction.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import operator
import sys

import numpy as np

from . import checks
from .errors import (DegenerateSuperpotential, LadderSingular, NoRealRoot,
                     NotNormalizable, WsdiracError)
from .params import PhysicalParams, QuantumState, derive_coefficients
from .pekeris import pekeris_coefficients
from .spectrum import _NO_ROOT_RESULT, SpectrumResult, SweepCell, solve_energy, sweep
from .susyqm import solve_susy_parameters
from .wavefunction import evaluate, normalize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NO_REAL_ROOT = 4
EXIT_NOT_NORMALIZABLE = 5

TABLE_ALPHAS = [0.0, 0.001, 0.005, 0.01]
TABLE1_DIMS = [1, 2, 3, 4, 5]
TABLE2_ELLS = [20, 21, 22, 23, 24]
_BLOCK = 4096  # records per write of wavefunction's samples
# a record's output columns, each a SpectrumResult attribute: a field the
# record gains appears in no output until it is named here
_RESULT_COLUMNS = ("e_upper", "e_lower", "e_binding", "branch", "roots_real",
                   "normalizable")

# the keys a --config file may set, each the name of a flag
_CONFIG_KEYS = ("mass", "surface_thickness", "radius", "depth", "e0",
                "alpha_prime", "ell", "dim", "n", "format", "output")


def _csv_cell(x) -> str:
    if isinstance(x, float):  # the common cell first; numpy floats too
        return "%.10g" % x
    if x is None:
        return ""
    return str(x).lower() if isinstance(x, bool) else str(x)


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    phys = common.add_argument_group("physical parameters")
    phys.add_argument("--mass", type=float, default=10.0,
                      help="fermion mass M (fm^-1)")
    phys.add_argument("--surface-thickness", type=float, default=0.5,
                      help="surface thickness a (fm)")
    phys.add_argument("--radius", type=float, default=7.0,
                      help="potential width R (fm)")
    phys.add_argument("--depth", type=float, default=-10.0,
                      help="potential depth V0 (fm^-1)")
    phys.add_argument("--e0", type=float, default=10.0,
                      help="zeroth-order energy E0 (fm^-1)")
    phys.add_argument("--alpha-prime", type=float, default=0.0,
                      help="deformation parameter alpha' (fm^2)")
    phys.add_argument("--ell", type=int, default=20,
                      help="azimuthal quantum number")
    phys.add_argument("--dim", type=int, default=3, help="spatial dimension D")
    phys.add_argument("--n", type=int, default=0,
                      help="principal quantum number")
    io = common.add_argument_group("input/output")
    io.add_argument("--config", metavar="FILE",
                    help="key=value configuration file; flags override it")
    io.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    io.add_argument("--output", metavar="FILE",
                    help="write to FILE instead of stdout")
    io.add_argument("--timestamp", action="store_true",
                    help="include a generation timestamp in the output")

    parser = argparse.ArgumentParser(
        prog="wsdirac",
        description="Bound-state spectra of a deformed Woods-Saxon Dirac problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common],
                             help="reproduce a reference 5x4 grid")
    p_table.add_argument("which", type=int, choices=[1, 2],
                         help="1: dimension grid at ell=20; 2: ell grid at D=3")

    p_solve = sub.add_parser("solve", parents=[common],
                             help="solve one configuration and print the record")

    p_wf = sub.add_parser("wavefunction", parents=[common],
                          help="emit normalized ground-state samples (r, F)")
    p_wf.add_argument("--samples", type=int, default=1000,
                      help="number of equally spaced radii on [0, r_max]")

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the self-consistency checks")
    p_ver.add_argument("--with-oracle", action="store_true",
                       help="also cross-check against the shooting solver")
    return parser


def _config_flags(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """Each key=value line of a --config file as a --key=value flag, which
    argparse converts and checks like the typed flag."""
    flags = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, value = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key not in _CONFIG_KEYS:
                    raise ValueError(f"line {lineno}: unknown key '{key}'")
                flags.append(f"--{key.replace('_', '-')}={value}")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(f"bad config file: {exc}")
    return flags


class _InvalidInput(Exception):
    """A parameter or label outside its domain: exit 2."""


def _inputs(args) -> tuple[PhysicalParams, QuantumState]:
    try:
        return PhysicalParams(
            M=args.mass,
            a=args.surface_thickness,
            R=args.radius,
            V0=args.depth,
            E0=args.e0,
            alpha_prime=args.alpha_prime,
        ), QuantumState(n=args.n, ell=args.ell, D=args.dim)
    except ValueError as exc:
        raise _InvalidInput(exc) from None


class _Writer:
    """Output opened at the first record: a failed command leaves --output as it was."""

    def __init__(self, args):
        self._args = args
        self._fh = None

    def line(self, text: str):
        if self._fh is None:
            path = self._args.output
            self._fh = open(path, "w", encoding="utf-8") if path else sys.stdout
            if self._args.timestamp:
                stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
                self._fh.write(f"# generated {stamp}\n" if self._args.format == "csv"
                               else json.dumps({"timestamp": stamp}) + "\n")
        self._fh.write(text + "\n")

    def block(self, **cols):
        """Write the records of equal-length columns in one write."""
        if self._args.format == "json-lines":
            lines = [json.dumps(dict(zip(cols, rec))) for rec in zip(*cols.values())]
        else:  # the first block's header opens the output
            lines = [",".join(cols)] if self._fh is None else []
            lines += map(",".join, zip(*(map(_csv_cell, c) for c in cols.values())))
        self.line("\n".join(lines))

    def close(self):
        if self._args.output and self._fh is not None:
            self._fh.close()


def _cell_columns(cells: list[SweepCell]) -> dict[str, list]:
    """Sweep cells as columns; the no-root record stands in for a typed-error cell."""
    read = operator.attrgetter(*_RESULT_COLUMNS)
    rows = [(*c[:4], *read(c.result or _NO_ROOT_RESULT), c.error or "") for c in cells]
    # lists, not zip(*rows): freed tuples of up to 20 items stay in CPython free lists
    return {name: [row[k] for row in rows] for k, name in enumerate(
        ("alpha_prime", "dim", "ell", "n", *_RESULT_COLUMNS, "error"))}


def _cmd_table(args, p, state, writer) -> int:
    if args.which == 1:
        dims, ells = TABLE1_DIMS, [20]
    else:
        dims, ells = [3], TABLE2_ELLS
    cells = sweep(p, TABLE_ALPHAS, dims, ells, [state.n])
    # rows are D (table 1) or ell (table 2), columns the deformation values:
    # the sort is stable, so each row keeps the sweep's alpha order
    writer.block(**_cell_columns(sorted(cells, key=lambda c: (c.D, c.ell))))
    failed = any(cell.error is not None for cell in cells)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_solve(args, p, state, writer) -> int:
    result = solve_energy(p, state)
    writer.block(**_cell_columns([SweepCell(
        p.alpha_prime, state.D, state.ell, state.n, result,
        None if result.roots_real else "NoRealRoot")]))
    return EXIT_OK if result.roots_real else EXIT_NO_REAL_ROOT


def _cmd_wavefunction(args, p, state, writer) -> int:
    if args.samples < 1:
        raise _InvalidInput("--samples must be >= 1")
    if state.n != 0:
        # the analytic profile solves the radial equation at n = 0 only
        raise _InvalidInput("wavefunction emits the ground state; --n must be 0")
    result = solve_energy(p, state)
    if not result.roots_real:
        raise NoRealRoot("no real energy root for this configuration")
    sp = solve_susy_parameters(derive_coefficients(p, state),
                               pekeris_coefficients(p.R, p.a), p, result.e_upper)
    wf = normalize(sp.A, sp.B, p.a, p.R)
    r = np.linspace(0.0, wf.r_max, args.samples)
    F = evaluate(wf, r)
    for k in range(0, args.samples, _BLOCK):  # Python floats for one block at a time
        writer.block(r=r[k:k + _BLOCK].tolist(), F=F[k:k + _BLOCK].tolist())
    return EXIT_OK


def _cmd_verify(args, p, state, writer) -> int:
    failures = 0

    def report(name: str, ok: bool | None, detail: str):
        # ok may be a numpy bool, never `is False`: count every falsy value
        nonlocal failures
        status = "skip" if ok is None else ("pass" if ok else "fail")
        failures += status == "fail"
        writer.line(f"{status} {name} {detail}" if args.format == "csv" else
                    json.dumps({"status": status, "check": name, "detail": detail}))

    def run(check: checks.Check, result: SpectrumResult | None):
        value = check.metric(p, state, result)
        if value is None:
            return report(check.name, None, check.skip)
        report(check.name, value < check.bound, f"{check.label}={value:.3e}")

    run(checks.TAYLOR_MATCH, None)
    try:
        result = solve_energy(p, state)
        failed = "" if result.roots_real else "no real root"
    except DegenerateSuperpotential as exc:
        failed = f"degenerate: {exc}"
    except LadderSingular as exc:
        failed = f"singular: {exc}"
    report("energy-solve", not failed,
           failed or f"e_binding={result.e_binding:.10g}")
    if not failed:
        for check in checks.ROOT_CHECKS:
            run(check, result)
        if args.with_oracle:
            gap = checks.SHOOTING.metric(p, state, result)
            bound = result.normalizable
            report(checks.SHOOTING.name, checks.shooting_agrees(bound, state.n, gap),
                   f"normalizable={str(bound).lower()}, "
                   + ("no eigenvalue in bracket" if gap == math.inf
                      else f"gap={gap:.3e}"))
        else:
            report(checks.SHOOTING.name, None, "oracle disabled")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # the root parser takes no argument but the command word, argv[0]; the
        # file's flags go right after it, so a typed flag overrides them
        args = parser.parse_args(
            argv[:1] + _config_flags(parser, args.config) + argv[1:])
    handler = {
        "table": _cmd_table,
        "solve": _cmd_solve,
        "wavefunction": _cmd_wavefunction,
        "verify": _cmd_verify,
    }[args.command]
    writer = _Writer(args)
    # typed failures to their exit codes; float64 range errors, numpy's too, to 2
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return handler(args, *_inputs(args), writer)
    except (_InvalidInput, ArithmeticError, WsdiracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {DegenerateSuperpotential: EXIT_DEGENERATE,
                NoRealRoot: EXIT_NO_REAL_ROOT,
                NotNormalizable: EXIT_NOT_NORMALIZABLE,
                }.get(type(exc), EXIT_CHECK_FAILED
                      if isinstance(exc, WsdiracError) else EXIT_USAGE)
    finally:
        writer.close()


if __name__ == "__main__":
    sys.exit(main())
