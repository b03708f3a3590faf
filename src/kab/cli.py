"""Command-line interface: reproducible, file-emitting commands for spectra,
WKB tables, eigenfunctions, transforms, evolution runs and boundary fits.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 1 when the
reader of stdout has closed it.  Errors are reported as JSON on stderr.  The
command line is the whole input: no environment variable is read.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import evolution, exact, operators, semiclassics
from .evolution import PROFILES
from .specfun import CONSTANTS

_SCHEMAS = {
    "spectrum": {
        "type": "object",
        "properties": {
            "params": {
                "type": "object",
                "properties": {"alpha": {"type": "number"}, "beta": {"type": "number"}},
                "required": ["alpha", "beta"],
            },
            "backend": {"type": "string", "enum": ["galerkin", "pseudospectral"]},
            "n": {"type": "integer"},
            "eigenvalues": {"type": "array", "items": {"type": "number"}},
            "truncation_estimate": {"type": "number", "description": "error of R(N/2, N)"},
            "n_trunc": {"type": "integer", "description": "largest size N solved"},
            "u_max": {"type": "number"},
            "m_points": {"type": "integer"},
        },
        "required": ["params", "backend", "n", "eigenvalues"],
    },
    "mehler-fock": {
        "type": "object",
        "properties": {
            "k": {"type": "array", "items": {"type": "number"}},
            "c": {"type": "array", "items": {"type": "number"}},
            "t_max": {
                "type": "number",
                "description": "cosh(s_max), the end of the t-range integrated",
            },
            "meta": {
                "type": "object",
                "properties": {
                    **dict.fromkeys(["tail_estimate", "r_quadrature_estimate", "s_max"],
                                    {"type": "number"}),
                    **dict.fromkeys(["s_nodes", "abel_nodes"], {"type": "integer"}),
                },
            },
        },
        "required": ["k", "c"],
    },
    "evolve": {
        "type": "object",
        "properties": {
            "tau": {"type": "number"},
            "xi": {"type": "array", "items": {"type": "number"}},
            "u": {"type": "array", "items": {"type": "number"}},
            "meta": {
                "type": "object",
                "properties": {
                    "backend": {"type": "string", "enum": ["matrix", "spectral"]},
                    "n_trunc": {"type": "integer"},
                    "truncation_estimate": {"type": "number"},
                    "s_max": {"type": "number"},
                    "n_fft": {"type": "integer"},
                    "abel_nodes": {"type": "integer"},
                },
            },
            "profile": {"type": "string", "enum": sorted(PROFILES)},
        },
        "required": ["tau", "xi", "u"],
    },
    "boundary-fit": {
        "type": "object",
        "properties": {
            "alpha": {"type": "number"},
            "beta": {"type": "number"},
            "n": {"type": "integer"},
            "d_beta_exact": {"type": "number"},
            "d_beta_fitted": {"type": "number"},
            "fit_window_u": {"type": "array", "items": {"type": "number"}},
        },
        "required": ["alpha", "beta", "d_beta_exact", "d_beta_fitted"],
    },
    "error": {
        "type": "object",
        "properties": {"error": {"type": "string"}, "kind": {"type": "string"}},
        "required": ["error", "kind"],
    },
}

def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{float(x):.10g}"


def _estimate(x) -> float:
    """An error estimate, which needs no more than 3 significant digits."""
    return float(f"{x:.3g}")


def _emit(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _csv(header_meta: dict, columns: list[str], rows) -> str:
    lines = [f"# {json.dumps(header_meta, sort_keys=True)}"]
    lines.append("# " + ",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _cmd_table1(args) -> None:
    ref = operators.pseudospectral_spectrum(2.0, 2.0, 10, args.u_max, args.m_points)
    wkb = semiclassics.wkb_eigenvalue
    rows = [
        (n, 0.5 * ref[n], 0.5 * wkb(n, 2.0, 2.0), operators.harmonic(n),
         0.5 * wkb(n, 1.0, 1.0))
        for n in range(10)
    ]
    meta = {"command": "table1", "u_max": args.u_max, "m_points": args.m_points}
    _emit(args.output, _csv(meta, ["n", "numeric_22", "wkb_22", "h_n", "wkb_11"], rows))


def _cmd_spectrum(args) -> None:
    params = operators.OperatorParams(args.alpha, args.beta)
    doc = {
        "params": {"alpha": params.alpha, "beta": params.beta},
        "backend": args.backend,
        "n": args.n,
    }
    if args.backend == "galerkin":
        vals, err = operators.galerkin_spectrum(
            params.alpha, params.beta, n_eigs=args.n, n_trunc=args.n_trunc
        )
        doc["truncation_estimate"] = _estimate(max(err))
        doc["n_trunc"] = args.n_trunc
    else:
        vals = operators.pseudospectral_spectrum(
            params.alpha, params.beta, args.n, args.u_max, args.m_points
        )
        doc.update(u_max=args.u_max, m_points=args.m_points)
    doc["eigenvalues"] = [float(f"{v:.10g}") for v in vals]
    if args.format == "json":
        _emit(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:
        meta = {k: v for k, v in doc.items() if k != "eigenvalues"}
        rows = [(i, v) for i, v in enumerate(vals)]
        _emit(args.output, _csv(meta, ["n", "kappa"], rows))


def _cmd_wkb_table(args) -> None:
    table = semiclassics.wkb_table(args.alpha, args.beta, args.n, args.bohr_sommerfeld)
    rows = [
        (
            r.n,
            0.5 * r.kappa_closed_form,
            None if r.kappa_bohr_sommerfeld is None else 0.5 * r.kappa_bohr_sommerfeld,
        )
        for r in table
    ]
    meta = {"command": "wkb-table", "alpha": args.alpha, "beta": args.beta}
    _emit(args.output, _csv(meta, ["n", "wkb_closed_form", "bohr_sommerfeld"], rows))


def _cmd_eigenfunction(args) -> None:
    if not (math.isfinite(args.u_window) and args.u_window > 0):
        raise ValueError(
            f"eigenfunction: --u-window={args.u_window} must be positive and finite"
        )
    nodes, kappas, vecs = operators.pseudospectral_eigensystem(
        args.alpha, args.beta, args.n + 1, args.u_max, args.m_points
    )
    du = nodes[1] - nodes[0]
    psi_num = vecs[:, args.n] / math.sqrt(du)  # unit L2 norm on the line
    keep = np.abs(nodes) <= args.u_window
    u = nodes[keep]
    psi_num = psi_num[keep]
    psi_sc = semiclassics.semiclassical_wavefunction(args.n, args.alpha, args.beta, u)
    if float(np.dot(psi_num, psi_sc)) < 0:
        psi_num = -psi_num
    meta = {
        "command": "eigenfunction",
        "alpha": args.alpha,
        "beta": args.beta,
        "n": args.n,
        "kappa": float(f"{kappas[args.n]:.10g}"),
        "u_max": args.u_max,
        "m_points": args.m_points,
    }
    rows = list(zip(u, np.tanh(u), psi_num, psi_sc))
    _emit(args.output, _csv(meta, ["u", "x", "psi_numeric", "psi_semiclassical"], rows))


def _cmd_mehler_fock(args) -> None:
    coeffs = exact.mehler_fock_forward(PROFILES[args.profile], k_max=args.k_max, dk=args.dk)
    keys = ("tail_estimate", "r_quadrature_estimate")
    estimates = {key: _estimate(coeffs.meta[key]) for key in keys}
    if args.format == "json":
        doc = coeffs.to_json_dict()
        doc["meta"] = {**coeffs.meta, **estimates}
        _emit(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:
        meta = {"command": "mehler-fock", "profile": args.profile, "t_max": coeffs.t_max}
        meta.update(estimates)
        _emit(args.output, _csv(meta, ["k", "c"], coeffs.to_csv_rows()))


def _cmd_evolve(args) -> None:
    grid = evolution.default_xi_grid(args.points)
    state = evolution.EvolutionState(0.0, grid, PROFILES[args.profile](grid))
    # every tau but the initial time goes to the backend, which rejects
    # negative and non-finite values
    if args.tau != 0.0:
        if args.backend == "matrix":
            state = evolution.evolve_matrix(state, args.tau, n_trunc=args.n_trunc)
        else:
            state = evolution.evolve_spectral(state, args.tau)
    result = {"backend": args.backend, **state.meta}
    if "truncation_estimate" in result:
        result["truncation_estimate"] = _estimate(result["truncation_estimate"])
    if args.format == "json":
        doc = {**state.to_json_dict(), "meta": result, "profile": args.profile}
        _emit(args.output, json.dumps(doc, sort_keys=True) + "\n")
    else:
        meta = {
            "command": "evolve",
            "profile": args.profile,
            "tau": args.tau,
            **result,
        }
        _emit(args.output, _csv(meta, ["xi", "u"], state.to_csv_rows()))


def _cmd_boundary_fit(args) -> None:
    nodes, kappas, vecs = operators.pseudospectral_eigensystem(
        args.alpha, args.beta, args.n + 1, args.u_max, args.m_points
    )
    kp = kappas[args.n] - 2.0 * CONSTANTS.euler_gamma
    keep = (nodes >= args.fit_lo) & (nodes <= args.fit_hi)
    u = nodes[keep]
    phi = vecs[keep, args.n] * np.cosh(u)
    d = semiclassics.fit_boundary_exponent(
        semiclassics.stable_log_one_minus_x(u), np.abs(phi), args.beta, kappa_prime=kp
    )
    exponents = semiclassics.boundary_exponents(args.alpha, args.beta)
    doc = {
        "alpha": args.alpha,
        "beta": args.beta,
        "n": args.n,
        "d_beta_exact": exponents.d_beta,
        "d_beta_fitted": float(f"{d:.10g}"),
        "fit_window_u": [args.fit_lo, args.fit_hi],
    }
    _emit(args.output, json.dumps(doc, sort_keys=True) + "\n")


def _add_common(p, *, resolution=True, fmt=True):
    p.add_argument("--output", "-o", default=None, help="output file (default stdout)")
    if fmt:
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    if resolution:
        p.add_argument(
            "--u-max",
            type=float,
            default=40.0,
            help="pseudospectral half-width in u (default %(default)s)",
        )
        p.add_argument(
            "--m-points",
            type=int,
            default=2048,
            help="pseudospectral grid size (power of two, 64 to 65536; "
            "default %(default)s)",
        )


class _Parser(argparse.ArgumentParser):
    """argparse with its errors raised as ValueError, so that main reports
    them as JSON like every other validation error; the subparsers are of
    this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="kab",
        description="Spectra, eigenfunctions, semiclassics and evolution for the "
        "singular integral operator family K_{alpha,beta} on [-1,1].",
    )
    ap.add_argument(
        "--schema",
        action="store_true",
        help="print the JSON schemas of all machine-readable outputs and exit",
    )
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("table1", help="reference spectrum table for (2,2) and (1,1)")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("spectrum", help="lowest eigenvalues (kappa scale)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=10, help="number of eigenvalues")
    p.add_argument(
        "--backend", choices=["galerkin", "pseudospectral"], default="pseudospectral"
    )
    p.add_argument(
        "--n-trunc",
        type=int,
        default=1024,
        help="largest Galerkin size N solved (a multiple of 8 to 4096; --n <= N/8)",
    )
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("wkb-table", help="closed-form WKB spectrum (kappa/2 scale)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=10, help="number of rows (1 to 4096)")
    p.add_argument(
        "--bohr-sommerfeld",
        action="store_true",
        help="add the unsimplified Bohr-Sommerfeld column (slower)",
    )
    _add_common(p, resolution=False, fmt=False)
    p.set_defaults(func=_cmd_wkb_table)

    p = sub.add_parser(
        "eigenfunction", help="numerical and semiclassical bound-state wavefunction"
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=0, help="state index")
    p.add_argument("--u-window", type=float, default=8.0, help="emit |u| <= this")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_eigenfunction)

    p = sub.add_parser("mehler-fock", help="forward transform of a named profile")
    p.add_argument("--profile", choices=sorted(PROFILES), default="xi-sq")
    p.add_argument("--k-max", type=float, default=40.0)
    p.add_argument("--dk", type=float, default=0.05, help="k spacing; divides --k-max")
    _add_common(p, resolution=False)
    p.set_defaults(func=_cmd_mehler_fock)

    p = sub.add_parser("evolve", help="evolve a named profile to time tau")
    p.add_argument("--tau", type=float, required=True, help="evolution time (log energy)")
    p.add_argument("--profile", choices=sorted(PROFILES), default="xi-sq")
    p.add_argument("--backend", choices=["matrix", "spectral"], default="matrix")
    p.add_argument("--points", type=int, default=96, help="xi-grid size (4 to 4096)")
    p.add_argument(
        "--n-trunc",
        type=int,
        default=960,
        help="matrix-backend truncation (runs N and 2N, N <= 4096); within 1e-3 "
        "of the spectral backend only when N is an even multiple of --points",
    )
    _add_common(p, resolution=False)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser(
        "boundary-fit", help="fit the |log(1-x)| exponent of a numerical eigenfunction"
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--n", type=int, default=0, help="state index")
    p.add_argument("--fit-lo", type=float, default=6.0, help="lower u of fit window")
    p.add_argument("--fit-hi", type=float, default=13.0, help="upper u of fit window")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_boundary_fit)

    return ap


def _report(exc: Exception, kind: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": str(exc), "kind": kind}) + "\n")
    return code


def _schema(args) -> None:
    _emit(None, json.dumps(_SCHEMAS, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except ValueError as exc:
        return _report(exc, "validation", 2)
    func = _schema if args.schema else getattr(args, "func", None)
    if func is None:
        return _report(ValueError("kab: a command is required"), "validation", 2)
    try:
        with warnings.catch_warnings(record=True) as caught:
            func(args)
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (kab table1 | head -c 0): no report, and
        # stdout goes to devnull so that the flush at shutdown cannot fail
        # again (the SIGPIPE recipe of Python's signal module documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        return _report(exc, "validation", 2)
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        return _report(exc, "numerical", 3)
    # an error report is the only line on stderr; a result keeps its warnings
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return 0


if __name__ == "__main__":
    sys.exit(main())
