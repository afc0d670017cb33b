"""Command-line entry point.

One executable, eight subcommands:

* ``eval``     -- evaluate a special function at a point
* ``series``   -- prove a named exact series identity, or dump an expansion
* ``selberg``  -- closed-form beta-type integral against its quadrature oracle
* ``smatrix``  -- closed-form shift/modular matrices with relation residuals
* ``modular``  -- the same, and with --numeric against quadrature matrices
* ``block``    -- one quadrature block value
* ``verify``   -- one or all of the ten closed-form evaluations
* ``suite``    -- the whole desk-scale battery

Reports are one compact line of JSON with sorted keys (``python -m
json.tool`` indents it) or CSV; every report embeds its resolved
configuration so a run can be reproduced from the
output alone.  Exit codes: 0 success, 1 a verification failed, 2 usage
error.  Execution is sequential and deterministic: identical configs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache

import numpy as np

from .blocks import BlockIndex, u_block
from .errors import EllipticSelbergError
from .macdonald import modular_matrices, relation_residuals
from .qseries import NAMED_IDENTITIES, check_series_identity, \
    expand_builtin, named_identity, series_rows
from .quadrature import QuadratureSpec
from .selberg import SelbergParams, selberg_oracle_terms, selberg_value
from .specfun import ModularPoint, dedekind_eta, phi, theta1, theta_level
from .transforms import numeric_modular_matrices
from . import verify as verify_mod

__all__ = ["main", "build_parser", "parse_complex", "parse_tau"]

_CSV_COLUMNS = ("name", "param-key", "param-value", "lhs_re", "lhs_im",
                "rhs_re", "rhs_im", "rel_err", "pass")


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def parse_complex(text: str) -> complex:
    """Read 'a+bi' (or plain 'a', or 'bi') into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        return complex(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a complex number like '0.3+0.9i', got {text!r}")


def parse_tau(text: str) -> complex:
    value = parse_complex(text)
    if value.imag <= 0:
        raise argparse.ArgumentTypeError(
            f"tau must have positive imaginary part, got {text!r}")
    return value


def _parse_grid(text: str):
    """Comma-separated points, each read by parse_complex; a grid with no
    imaginary part keeps its points as floats."""
    points = tuple(parse_complex(part) for part in text.split(",")
                   if part.strip())
    return points if any(z.imag for z in points) \
        else tuple(z.real for z in points)


def _add_quadrature_options(sub):
    sub.add_argument("--gauss-order", type=int, default=None,
                     help="panel Gauss order override")
    sub.add_argument("--mesh-levels", type=int, default=None,
                     help="graded-mesh depth override")
    sub.add_argument("--max-evals", type=int, default=None,
                     help="cap on the quadrature points of one pass")


def _quad_from_args(args) -> QuadratureSpec:
    kwargs = {}
    if getattr(args, "gauss_order", None) is not None:
        kwargs["gauss_order"] = args.gauss_order
    if getattr(args, "mesh_levels", None) is not None:
        kwargs["graded_mesh_levels"] = args.mesh_levels
    if getattr(args, "max_evals", None) is not None:
        kwargs["max_evals"] = args.max_evals
    return QuadratureSpec(**kwargs)


def _c2l(z: complex):
    return [z.real, z.imag]


def _matrix_payload(mat) -> dict:
    return {
        "labels": list(mat.labels),
        "entries": [[_c2l(complex(v)) for v in row] for row in mat.entries],
    }


def _config_echo(args, fields) -> dict:
    config = {"subcommand": args.subcommand}
    for name in fields:
        value = getattr(args, name)
        if isinstance(value, complex):
            value = _c2l(value)
        elif isinstance(value, tuple):  # a grid, complex points as [re, im]
            value = [_c2l(v) if isinstance(v, complex) else v for v in value]
        config[name.replace("_", "-")] = value
    return config


def _emit(args, payload: dict, rows=None, columns=_CSV_COLUMNS) -> None:
    """Write the report: CSV rows when asked for and given, else one line
    of sorted-key JSON (json's C encoder; an indent takes the Python one)."""
    if rows is not None and getattr(args, "csv", False):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_EVAL_FUNCTIONS = ("theta1", "theta", "eta", "phi1", "phi2", "phi3")


def _cmd_eval(args) -> int:
    pt = ModularPoint(args.tau)
    name = args.function
    if name == "theta1":
        value = theta1(args.lam, pt, d_lambda=args.d_lambda,
                       d_tau=args.d_tau)
    elif name == "theta":
        if args.kappa is None or args.n is None:
            raise EllipticSelbergError(
                "--function theta needs --kappa and --n")
        value = theta_level(args.kappa, args.n, args.lam, pt,
                            d_lambda=args.d_lambda, d_tau=args.d_tau,
                            symmetrized=args.symmetrized)
    elif name == "eta":
        value = dedekind_eta(pt)
    else:
        value = phi(int(name[-1]), pt)
    payload = {
        "config": _config_echo(args, ("function", "lam", "tau", "kappa", "n",
                                      "d_lambda", "d_tau", "symmetrized")),
        "value": _c2l(value),
    }
    _emit(args, payload)
    return 0


def _cmd_series(args) -> int:
    if (args.name is None) == (args.expand is None):
        raise EllipticSelbergError(
            "give exactly one of --name (prove) or --expand (dump)")
    if args.expand is not None:
        series = expand_builtin(args.expand, args.order, kappa=args.kappa,
                                n=args.n, at_lambda_zero=args.at_lambda_zero)
        rows = series_rows(series)
        payload = {
            "config": _config_echo(args, ("expand", "order", "kappa", "n",
                                          "at_lambda_zero")),
            "rows": [list(r) for r in rows],
        }
        _emit(args, payload, rows=rows,
              columns=("q_exponent", "x_exponent", "re", "im"))
        return 0
    report = check_series_identity(named_identity(args.name, args.order))
    payload = {
        "config": _config_echo(args, ("name", "order")),
        "name": report.name,
        "passed": report.passed,
        "checked_order": str(report.checked_order),
        "terms_compared": report.terms_compared,
        "first_mismatch": [str(v) for v in report.first_mismatch]
        if report.first_mismatch else None,
    }
    _emit(args, payload)
    return 0 if report.passed else 1


def _cmd_selberg(args) -> int:
    params = SelbergParams(p=args.p, alpha=args.alpha, beta=args.beta,
                           gamma=args.gamma)
    closed = selberg_value(params)
    payload = {
        "config": _config_echo(args, ("p", "alpha", "beta", "gamma",
                                      "skip_oracle")),
        "value": _c2l(closed),
    }
    code = 0
    if not args.skip_oracle:
        oracle, scale = selberg_oracle_terms(params, _quad_from_args(args))
        # against the rule's sum of |terms|, the scale of its rounding: a
        # value near or at a zero is judged by the terms that cancel to it
        err = abs(closed - oracle) / scale
        ok = err <= 1e-8
        payload.update({"oracle": _c2l(oracle), "oracle_scale": scale,
                        "discrepancy": err, "passed": ok})
        code = 0 if ok else 1
    _emit(args, payload)
    return code


def _cmd_matrices(args) -> int:
    """smatrix and modular: the closed-form T and S with their relation
    residuals, and with modular --numeric the quadrature matrices and their
    max differences from them; residuals and differences held to 1e-8."""
    tmat, smat = modular_matrices(args.p, args.kappa)
    residuals = relation_residuals(tmat, smat, args.p, args.kappa)
    payload = {
        "config": _config_echo(args, [name for name in ("p", "kappa", "numeric")
                                      if hasattr(args, name)]),
        "t_matrix": _matrix_payload(tmat),
        "s_matrix": _matrix_payload(smat),
        "relation_residuals": residuals,
    }
    worst = max(residuals.values())
    if getattr(args, "numeric", False):
        tnum, snum = numeric_modular_matrices(args.p, args.kappa,
                                              quad=_quad_from_args(args))
        t_diff = float(np.max(np.abs(tnum.entries - tmat.entries)))
        s_diff = float(np.max(np.abs(snum.entries - smat.entries)))
        worst = max(worst, t_diff, s_diff)
        payload.update({
            "t_matrix_numeric": _matrix_payload(tnum),
            "s_matrix_numeric": _matrix_payload(snum),
            "t_difference": t_diff,
            "s_difference": s_diff,
        })
    payload["passed"] = worst <= 1e-8
    _emit(args, payload)
    return 0 if worst <= 1e-8 else 1


def _cmd_block(args) -> int:
    idx = BlockIndex(args.p, args.kappa, args.n)
    pt = ModularPoint(args.tau)
    quad = _quad_from_args(args)
    result = u_block(idx, args.lam, pt, quad)
    payload = {
        "config": _config_echo(args, ("p", "kappa", "n", "lam", "tau")),
        "value": _c2l(result.value),
        "error_estimate": result.error_estimate,
        "budget_used": result.budget_used,
    }
    _emit(args, payload)
    return 0


def _verify_rows(report) -> list:
    rels = verify_mod.rel_errors(report.lhs, report.rhs)
    return [(report.name, "lambda", repr(lam), repr(lhs.real), repr(lhs.imag),
             repr(rhs.real), repr(rhs.imag), repr(rel), rel <= report.tolerance)
            for lam, lhs, rhs, rel in zip(report.inputs["lambda_grid"],
                                          report.lhs, report.rhs, rels)]


def _cmd_verify(args) -> int:
    idents = list(range(1, 11)) if args.identity == "all" \
        else [int(args.identity)]
    pt = ModularPoint(args.tau) if args.tau is not None else None
    reports = verify_mod.verify_identities(
        idents, args.p, lambda_grid=args.grid, pt=pt,
        quad=_quad_from_args(args), tol=args.tol)
    payload = {
        "config": _config_echo(args, ("identity", "p", "tau", "grid", "tol")),
        "reports": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit(args, payload, rows=[row for r in reports for row in _verify_rows(r)]
          if args.csv else None)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_suite(args) -> int:
    sections = {}
    for section, checks in verify_mod.battery(args.full).items():
        sections[section] = []
        for check in checks:
            passed, detail = check.run()
            sections[section].append(
                {"name": check.name, "passed": passed, "detail": detail})
    total = sum(len(v) for v in sections.values())
    failed = [c["name"] for v in sections.values() for c in v
              if not c["passed"]]
    payload = {
        "config": _config_echo(args, ("full",)),
        "sections": sections,
        "checks_run": total,
        "checks_failed": failed,
        "passed": not failed,
    }
    _emit(args, payload)
    return 0 if not failed else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellsel",
        description="verified numerics for theta blocks, their closed-form "
                    "evaluations, and the modular matrices acting on them")
    parser.add_argument("--output", default="-", metavar="PATH",
                        help="report destination (default: stdout)")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("eval", help="evaluate a special function")
    sub.add_argument("--function", required=True, choices=_EVAL_FUNCTIONS)
    sub.add_argument("--lambda", dest="lam", type=parse_complex,
                     default=0.0 + 0.0j, help="argument as 'a+bi' (default: 0)")
    sub.add_argument("--tau", type=parse_tau, required=True,
                     help="modular parameter 'a+bi', Im > 0")
    sub.add_argument("--kappa", type=int, default=None,
                     help="level, required for --function theta")
    sub.add_argument("--n", type=int, default=None,
                     help="index, required for --function theta")
    sub.add_argument("--d-lambda", type=int, default=0,
                     help="argument-derivative order (default: 0)")
    sub.add_argument("--d-tau", type=int, default=0,
                     help="modular-derivative order (default: 0)")
    sub.add_argument("--symmetrized", action="store_true",
                     help="add the reflected-argument theta before derivatives")
    sub.set_defaults(handler=_cmd_eval)

    sub = subs.add_parser("series",
                          help="prove an exact series identity or dump rows")
    sub.add_argument("--name", choices=sorted(NAMED_IDENTITIES), default=None,
                     help="registry identity to prove exactly")
    sub.add_argument("--expand", default=None,
                     help="builtin expansion to dump instead of proving "
                          "(theta1, theta_level, eta, phi1, phi2, phi3)")
    sub.add_argument("--order", type=int, default=20,
                     help="q-truncation order (default: 20)")
    sub.add_argument("--kappa", type=int, default=None,
                     help="level for --expand theta_level")
    sub.add_argument("--n", type=int, default=None,
                     help="index for --expand theta_level")
    sub.add_argument("--at-lambda-zero", action="store_true",
                     help="specialize theta_level at argument zero")
    sub.add_argument("--csv", action="store_true",
                     help="CSV rows instead of JSON (with --expand)")
    sub.set_defaults(handler=_cmd_series)

    sub = subs.add_parser("selberg",
                          help="beta-type closed form vs quadrature oracle")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--alpha", type=parse_complex, required=True)
    sub.add_argument("--beta", type=parse_complex, required=True)
    sub.add_argument("--gamma", type=parse_complex, required=True)
    sub.add_argument("--skip-oracle", action="store_true",
                     help="print the closed form only")
    _add_quadrature_options(sub)
    sub.set_defaults(handler=_cmd_selberg)

    sub = subs.add_parser("smatrix",
                          help="closed-form matrices and relation residuals")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--kappa", type=int, required=True)
    sub.set_defaults(handler=_cmd_matrices)

    sub = subs.add_parser("modular",
                          help="smatrix, and with --numeric against numeric matrices")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--kappa", type=int, required=True)
    sub.add_argument("--numeric", action="store_true",
                     help="also reconstruct both matrices from quadrature")
    _add_quadrature_options(sub)
    sub.set_defaults(handler=_cmd_matrices)

    sub = subs.add_parser("block", help="one quadrature block value")
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--kappa", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--lambda", dest="lam", type=parse_complex,
                     required=True)
    sub.add_argument("--tau", type=parse_tau, required=True)
    _add_quadrature_options(sub)
    sub.set_defaults(handler=_cmd_block)

    sub = subs.add_parser("verify",
                          help="check closed-form evaluations by quadrature")
    sub.add_argument("--identity", required=True,
                     choices=[str(i) for i in range(1, 11)] + ["all"])
    sub.add_argument("--p", type=int, default=1, choices=(1, 2),
                     help="fold count of the integral (default: 1)")
    sub.add_argument("--tau", type=parse_tau, default=None,
                     help="modular parameter (default: 0.9i)")
    sub.add_argument("--grid", type=_parse_grid, default=None,
                     help="comma-separated lambda values, each 'a+bi' "
                          "(default: the six-point library grid)")
    sub.add_argument("--tol", type=float, default=None,
                     help="relative tolerance (default: 1e-10)")
    sub.add_argument("--csv", action="store_true",
                     help="per-point CSV rows instead of JSON")
    _add_quadrature_options(sub)
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("suite", help="run the desk-scale battery")
    sub.add_argument("--full", action="store_true",
                     help="add the p = 1 closed forms at the secondary tau "
                          "and the p = 2 ones at the default tau")
    sub.set_defaults(handler=_cmd_suite)

    return parser


_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    """Run one ellsel command and return its exit code.  The parser is built
    on the first call and kept, so the handlers are bound when it is first
    built; each call parses into a fresh namespace."""
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except EllipticSelbergError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
