"""Command-line surface: reference tables, single solves, wavefunction samples
and a self-consistency verification suite.  All outputs machine-readable.

Exit codes: 0 success, 1 verification/table-cell failure, 2 argument or
validation error (float64 range or resolution exceeded too), 3 degenerate
superpotential, 4 no real energy root, 5 non-normalizable wavefunction.
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import operator
import sys

import numpy as np

from . import checks
from .errors import (DegenerateSuperpotential, LadderSingular, NoRealRoot,
                     NotNormalizable, ResolutionLimit, WsdiracError)
from .params import PhysicalParams, QuantumState, derive_coefficients
from .pekeris import pekeris_coefficients
from .spectrum import _NO_ROOT_RESULT, SweepCell, solve_energy, sweep
from .susyqm import solve_susy_parameters
from .wavefunction import evaluate, normalize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NO_REAL_ROOT = 4
EXIT_NOT_NORMALIZABLE = 5

TABLE_ALPHAS = [0.0, 0.001, 0.005, 0.01]
# each reference grid's (dims, ells): table 1's rows are D, table 2's ell
TABLES = {1: ([1, 2, 3, 4, 5], [20]), 2: ([3], [20, 21, 22, 23, 24])}
_BLOCK = 4096  # records per write of wavefunction's samples
# a record's output columns, each a SpectrumResult attribute: a field the
# record gains appears in no output until it is named here
_RESULT_COLUMNS = ("e_upper", "e_lower", "e_binding", "branch", "roots_real",
                   "normalizable")

# the physical flags in --help's order: the class and field each sets, its
# name as a --config key, its default, whose type converts the value, and help
_PHYSICAL_FLAGS = (
    (PhysicalParams, "M", "mass", 10.0, "fermion mass M (fm^-1)"),
    (PhysicalParams, "a", "surface_thickness", 0.5, "surface thickness a (fm)"),
    (PhysicalParams, "R", "radius", 7.0, "potential width R (fm)"),
    (PhysicalParams, "V0", "depth", -10.0, "potential depth V0 (fm^-1)"),
    (PhysicalParams, "E0", "e0", 10.0, "zeroth-order energy E0 (fm^-1)"),
    (PhysicalParams, "alpha_prime", "alpha_prime", 0.0,
     "deformation parameter alpha' (fm^2)"),
    (QuantumState, "ell", "ell", 20, "azimuthal quantum number"),
    (QuantumState, "D", "dim", 3, "spatial dimension D"),
    (QuantumState, "n", "n", 0, "principal quantum number"),
)

# the keys a --config file may set, each the name of a flag
_CONFIG_KEYS = (*(key for _, _, key, _, _ in _PHYSICAL_FLAGS), "format", "output")


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
    for _, _, key, default, text in _PHYSICAL_FLAGS:
        phys.add_argument("--" + key.replace("_", "-"), type=type(default),
                          default=default, help=text)
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

    # each subcommand's args.handler runs it
    p_table = sub.add_parser("table", parents=[common],
                             help="reproduce a reference 5x4 grid")
    p_table.add_argument("which", type=int, choices=TABLES,
                         help="1: dimension grid at ell=20; 2: ell grid at D=3")
    p_table.set_defaults(handler=_cmd_table)

    sub.add_parser("solve", parents=[common],
                   help="solve one configuration and print the record"
                   ).set_defaults(handler=_cmd_solve)

    p_wf = sub.add_parser("wavefunction", parents=[common],
                          help="emit normalized ground-state samples (r, F)")
    p_wf.add_argument("--samples", type=int, default=1000,
                      help="number of equally spaced radii on [0, r_max]")
    p_wf.set_defaults(handler=_cmd_wavefunction)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the self-consistency checks")
    p_ver.add_argument("--with-oracle", action="store_true",
                       help="also cross-check against the shooting solver")
    p_ver.set_defaults(handler=_cmd_verify)
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
    fields = {PhysicalParams: {}, QuantumState: {}}
    for cls, field, key, _, _ in _PHYSICAL_FLAGS:
        fields[cls][field] = getattr(args, key)
    try:
        return tuple(cls(**kwargs) for cls, kwargs in fields.items())
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
            try:
                self._fh = open(path, "w", encoding="utf-8") if path else sys.stdout
            except OSError as exc:  # a missing directory, a directory, no access
                raise _InvalidInput(f"cannot open output file: {exc}") from None
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
            # one % per row: _csv_cell's %.10g in the row's format for a
            # column of Python floats alone, _csv_cell's strings for any other
            floats = [set(map(type, c)) == {float} for c in cols.values()]
            row = ",".join("%.10g" if f else "%s" for f in floats)
            lines += map(row.__mod__, zip(*(c if f else map(_csv_cell, c)
                                             for c, f in zip(cols.values(), floats))))
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
    cells = sweep(p, TABLE_ALPHAS, *TABLES[args.which], [state.n])
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
    # one block at a time, each radius as np.linspace(0, r_max, samples)
    # forms it: k step + 0.0, the last one r_max (linspace's branch for a
    # step of 0 needs over 1e160 samples: r_max > R, and R^2 > 0)
    last = args.samples - 1
    step = wf.r_max / last if last else 0.0
    for k in range(0, args.samples, _BLOCK):
        r = np.arange(k, min(k + _BLOCK, args.samples), dtype=float) * step + 0.0
        if k + _BLOCK > last > 0:
            r[-1] = wf.r_max
        writer.block(r=r.tolist(), F=evaluate(wf, r).tolist())
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

    report(checks.TAYLOR_MATCH.name, *checks.TAYLOR_MATCH.verdict(p, state, None))
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
            report(check.name, *check.verdict(p, state, result))
        report(checks.SHOOTING.name, *(checks.SHOOTING.verdict(p, state, result)
                                       if args.with_oracle
                                       else (None, "oracle disabled")))
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
    writer = _Writer(args)
    # typed failures to their exit codes; float64 range errors, numpy's too,
    # and resolution errors to 2
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.handler(args, *_inputs(args), writer)
    except (_InvalidInput, ArithmeticError, WsdiracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {DegenerateSuperpotential: EXIT_DEGENERATE,
                NoRealRoot: EXIT_NO_REAL_ROOT,
                NotNormalizable: EXIT_NOT_NORMALIZABLE,
                ResolutionLimit: EXIT_USAGE,
                }.get(type(exc), EXIT_CHECK_FAILED
                      if isinstance(exc, WsdiracError) else EXIT_USAGE)
    finally:
        writer.close()


if __name__ == "__main__":
    sys.exit(main())
