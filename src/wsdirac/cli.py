"""Command-line surface: reference tables, single solves, wavefunction samples
and a self-consistency verification suite.  All outputs machine-readable.

Exit codes: 0 success, 1 verification/table-cell failure, 2 argument or
validation error, 3 degenerate superpotential, 4 no real energy root,
5 non-normalizable wavefunction.
"""
from __future__ import annotations

import argparse
import datetime
import json
import sys

import numpy as np

from .errors import (
    DegenerateSuperpotential,
    NoEigenvalueInBracket,
    NotNormalizable,
    WsdiracError,
)
from . import oracle
from .params import (PhysicalParams, QuantumState, RadialCoefficients,
                     derive_coefficients)
from .pekeris import pekeris_coefficients, taylor_match_report
from .spectrum import (
    SpectrumResult,
    closed_form_vs_bracketing_gap,
    ground_state_energy,
    solve_energy,
    sweep,
)
from .susyqm import closed_form_A, ladder, shifted_A, solve_susy_parameters
from .wavefunction import evaluate, normalize

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_NO_REAL_ROOT = 4
EXIT_NOT_NORMALIZABLE = 5

CSV_HEADER = ("alpha_prime,dim,ell,n,e_upper,e_lower,e_binding,"
              "branch,roots_real,normalizable,error")

TABLE_ALPHAS = [0.0, 0.001, 0.005, 0.01]
TABLE1_DIMS = [1, 2, 3, 4, 5]
TABLE2_ELLS = [20, 21, 22, 23, 24]

_PHYSICS_KEYS = {
    "mass": float,
    "surface_thickness": float,
    "radius": float,
    "depth": float,
    "e0": float,
    "alpha_prime": float,
    "ell": int,
    "dim": int,
    "n": int,
}


def _num(x) -> str:
    return "%.10g" % x


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
    # subparsers parse into a fresh namespace, so config-file defaults must
    # be installed on each of them, not on the root parser
    parser.command_parsers = [p_table, p_solve, p_wf, p_ver]
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Load key=value defaults from a --config file, if given."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if not known.config:
        return argv
    defaults = {}
    try:
        with open(known.config, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"line {lineno}: expected key=value")
                key, value = (s.strip() for s in line.split("=", 1))
                key = key.replace("-", "_")
                if key in _PHYSICS_KEYS:
                    defaults[key] = _PHYSICS_KEYS[key](value)
                elif key in ("format", "output"):
                    defaults[key] = value
                else:
                    raise ValueError(f"line {lineno}: unknown key '{key}'")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    except ValueError as exc:
        parser.error(f"bad config file: {exc}")
    for sub in parser.command_parsers:
        sub.set_defaults(**defaults)
    return argv


class _InvalidInput(Exception):
    """A parameter or label outside its domain: exit 2."""


def _inputs(args, alpha_prime: float | None = None
            ) -> tuple[PhysicalParams, QuantumState]:
    try:
        return PhysicalParams(
            M=args.mass,
            a=args.surface_thickness,
            R=args.radius,
            V0=args.depth,
            E0=args.e0,
            alpha_prime=args.alpha_prime if alpha_prime is None else alpha_prime,
        ), QuantumState(n=args.n, ell=args.ell, D=args.dim)
    except ValueError as exc:
        raise _InvalidInput(exc) from None


class _Writer:
    def __init__(self, args):
        self._path = getattr(args, "output", None)
        self._fh = open(self._path, "w", encoding="utf-8") if self._path else sys.stdout
        self.fmt = args.format
        self._wrote_header = False
        if args.timestamp:
            stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
            if self.fmt == "csv":
                self._fh.write(f"# generated {stamp}\n")
            else:
                self._fh.write(json.dumps({"timestamp": stamp}) + "\n")

    def spectrum_row(self, alpha: float, dim: int, ell: int, n: int,
                     result: SpectrumResult | None, error: str | None):
        fields = {
            "alpha_prime": alpha, "dim": dim, "ell": ell, "n": n,
            "e_upper": None, "e_lower": None, "e_binding": None,
            "branch": None, "roots_real": False, "normalizable": False,
            "error": error or "",
        }
        if result is not None:
            fields.update(
                e_upper=result.e_upper, e_lower=result.e_lower,
                e_binding=result.e_binding, branch=result.branch,
                roots_real=result.roots_real, normalizable=result.normalizable,
            )
        if self.fmt == "json-lines":
            self._fh.write(json.dumps(fields) + "\n")
            return
        if not self._wrote_header:
            self._fh.write(CSV_HEADER + "\n")
            self._wrote_header = True
        cells = [
            _num(fields["alpha_prime"]), str(dim), str(ell), str(n),
            _num(fields["e_upper"]) if fields["e_upper"] is not None else "",
            _num(fields["e_lower"]) if fields["e_lower"] is not None else "",
            _num(fields["e_binding"]) if fields["e_binding"] is not None else "",
            fields["branch"] or "",
            str(bool(fields["roots_real"])).lower(),
            str(bool(fields["normalizable"])).lower(),
            fields["error"],
        ]
        self._fh.write(",".join(cells) + "\n")

    def sample_row(self, r: float, F: float):
        if self.fmt == "json-lines":
            self._fh.write(json.dumps({"r": r, "F": F}) + "\n")
            return
        if not self._wrote_header:
            self._fh.write("r,F\n")
            self._wrote_header = True
        self._fh.write(f"{_num(r)},{_num(F)}\n")

    def line(self, text: str):
        self._fh.write(text + "\n")

    def close(self):
        if self._path:
            self._fh.close()


def _cmd_table(args) -> int:
    if args.which == 1:
        dims, ells = TABLE1_DIMS, [20]
    else:
        dims, ells = [3], TABLE2_ELLS
    p, _ = _inputs(args, alpha_prime=0.0)
    cells = sweep(p, TABLE_ALPHAS, dims, ells, [args.n])
    writer = _Writer(args)
    # rows are D (table 1) or ell (table 2), columns the deformation values:
    # the sort is stable, so each row keeps the sweep's alpha order
    for cell in sorted(cells, key=lambda c: (c.D, c.ell)):
        writer.spectrum_row(cell.alpha_prime, cell.D, cell.ell, cell.n,
                            cell.result, cell.error)
    writer.close()
    failed = any(cell.error is not None for cell in cells)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_solve(args) -> int:
    result = solve_energy(*_inputs(args))
    writer = _Writer(args)
    writer.spectrum_row(args.alpha_prime, args.dim, args.ell, args.n,
                        result, None if result.roots_real else "NoRealRoot")
    writer.close()
    return EXIT_OK if result.roots_real else EXIT_NO_REAL_ROOT


def _cmd_wavefunction(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.n != 0:
        # the analytic profile solves the radial equation at n = 0 only
        print("error: wavefunction emits the ground state; --n must be 0",
              file=sys.stderr)
        return EXIT_USAGE
    p, state = _inputs(args)
    result = solve_energy(p, state)
    if not result.roots_real:
        print("error: no real energy root for this configuration", file=sys.stderr)
        return EXIT_NO_REAL_ROOT
    sp = solve_susy_parameters(derive_coefficients(p, state),
                               pekeris_coefficients(p.R, p.a), p, result.e_upper)
    wf = normalize(sp.A, sp.B, p.a, p.R)
    writer = _Writer(args)
    for r in np.linspace(0.0, wf.r_max, args.samples):
        writer.sample_row(float(r), evaluate(wf, float(r)))
    writer.close()
    return EXIT_OK


def _cmd_verify(args) -> int:
    writer = _Writer(args)
    failures = 0

    def report(name: str, ok: bool | None, detail: str):
        # ok may be a numpy bool, never `is False`: count every falsy value
        nonlocal failures
        status = "skip" if ok is None else ("pass" if ok else "fail")
        failures += status == "fail"
        writer.line(f"{status} {name} {detail}")

    p, state = _inputs(args)
    pk = pekeris_coefficients(p.R, p.a)
    t = taylor_match_report(pk)
    gap = max(abs(t[0] - 1.0), abs(t[1] + 2.0), abs(t[2] - 3.0))
    report("centrifugal-surrogate-taylor-match", gap < 1e-10, f"max_gap={gap:.3e}")

    dc = derive_coefficients(p, state)
    try:
        result = solve_energy(p, state)
    except DegenerateSuperpotential as exc:
        report("energy-solve", False, f"degenerate: {exc}")
        writer.close()
        return EXIT_CHECK_FAILED

    if not result.roots_real:
        report("energy-solve", False, "no real root")
        writer.close()
        return EXIT_CHECK_FAILED
    report("energy-solve", True, f"e_binding={_num(result.e_binding)}")

    E = result.e_upper
    sp = solve_susy_parameters(dc, pk, p, E)
    rc = RadialCoefficients(dc, pk, p)
    # level n: the superpotential -(A_n + B_n f) against the partner potential
    # reached by n shape-invariant steps, whose f and f^2 coefficients those
    # steps shift by +s and -s, s = sum of 2 B_k / a over k < n (0 at n = 0)
    b_n = ladder(sp.B, args.n, p.a)
    a_n = shifted_A(sp.frak_u, b_n)
    s = args.n / p.a * (2.0 * b_n + (args.n + 1) / p.a)
    res = (
        abs(a_n**2 - rc.c0(E)),
        abs(2 * a_n * b_n - b_n / p.a - (rc.frak_u(E) - rc.c2 + s)),
        abs(b_n**2 + b_n / p.a - (rc.c2 - s)),
    )
    report("superpotential-matching-residuals", max(res) < 1e-10,
           f"max_residual={max(res):.3e}")

    a_gap = abs(closed_form_A(dc, pk, p, E) - sp.A)
    report("superpotential-elimination-agreement", a_gap < 1e-10,
           f"gap={a_gap:.3e}")

    if args.n == 0:
        gs = ground_state_energy(p, state)
        gs_gap = abs(gs.e_upper - result.e_upper)
        report("ground-state-route-agreement", gs_gap < 1e-10,
               f"gap={gs_gap:.3e}")
    else:
        report("ground-state-route-agreement", None, "n > 0")

    br_gap = closed_form_vs_bracketing_gap(p, state)
    report("closed-form-vs-bracketing", br_gap < 1e-10, f"gap={br_gap:.3e}")

    if getattr(args, "with_oracle", False):
        # the routes agree when a bound root has a shooting eigenvalue within
        # 1e-3.  At n = 0 that is the lowest-node state in the bracket, and a
        # root that is not bound must have none there; at n >= 1 it is the
        # nearest one, and a root that is not bound must have none within
        # 1e-3, since genuine neighbouring levels share its bracket.
        bound = result.normalizable
        flag = f"normalizable={str(bound).lower()}"
        cfg = oracle.default_config(p, (E - 0.5, E + 0.5))
        try:
            # every eigenvalue in the bracket, in node order
            eigs = oracle.find_eigenvalues(cfg, p, state, count=sys.maxsize)
        except NoEigenvalueInBracket:
            report("shooting-cross-check", not bound,
                   f"{flag}, no eigenvalue in bracket")
        else:
            o_gap = min(abs(e - E) for e in (eigs if args.n else eigs[:1]))
            ok = o_gap < 1e-3 if bound else (args.n > 0 and o_gap >= 1e-3)
            report("shooting-cross-check", ok, f"{flag}, gap={o_gap:.3e}")
    else:
        report("shooting-cross-check", None, "oracle disabled")

    writer.close()
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    handler = {
        "table": _cmd_table,
        "solve": _cmd_solve,
        "wavefunction": _cmd_wavefunction,
        "verify": _cmd_verify,
    }[args.command]
    # the exit codes of the typed failures, for every command
    try:
        return handler(args)
    except (_InvalidInput, WsdiracError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {_InvalidInput: EXIT_USAGE,
                DegenerateSuperpotential: EXIT_DEGENERATE,
                NotNormalizable: EXIT_NOT_NORMALIZABLE,
                }.get(type(exc), EXIT_CHECK_FAILED)


if __name__ == "__main__":
    sys.exit(main())
