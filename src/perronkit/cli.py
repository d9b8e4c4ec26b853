"""Batch command-line front end.

Each subcommand maps one-to-one onto a library entry point and emits a
structured report (JSON by default, flat TSV on request).  Exit codes:
0 success, 2 a determinate negative answer (not an M-matrix, diverging
kernel or decay, failed Hawkins-Simons check), 1 input or numerical errors.
Reports are byte-identical across reruns with the same inputs, flags, and
seed once timestamps are suppressed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .apps import (
    graph_kernel,
    katz_centrality,
    leontief_equilibrium,
    load_labeled_graph,
    product_graph,
    top_singular,
)
from .errors import DecayTooLarge, KernelDiverges, PerronKitError
from .perron import compute_perron, m_decide
from .scaling import mmatrix_scale, solve_m
from .sparse import load_matrix, load_vector, save_vector

_SIDECAR_LIMIT = 10_000


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="perronkit",
        description="Perron eigenpairs, M-matrix decisions and solves, and "
        "spectral applications for sparse nonnegative matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
        p.add_argument("--format", choices=("json", "tsv"), default="json")
        p.add_argument("--output", type=Path, default=None, help="report path (default stdout)")
        p.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")

    p = sub.add_parser("perron", help="certified Perron value and eigenvectors")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("mdecide", help="decide whether I - A is an M-matrix")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1e6, help="conditioning budget")
    common(p)

    p = sub.add_parser("scale", help="RCDD scaling of (1+eps) s I - A")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--k", type=float, default=1e6, help="conditioning bound K, used only when the bracket settles nothing"
    )
    common(p)

    p = sub.add_parser("solve", help="solve (s I - A) x = b")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--b", type=Path, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument(
        "--k", type=float, default=1e6, help="conditioning bound K, used only when the bracket settles nothing"
    )
    common(p)

    p = sub.add_parser("katz", help="Katz centrality (I - alpha A)^-1 b")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--b", type=Path, default=None, help="ground-truth vector (default all ones)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    common(p)

    p = sub.add_parser("leontief", help="Hawkins-Simons check and equilibrium output")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--d", type=Path, default=None, help="demand vector")
    p.add_argument("--eps", type=float, default=1e-8)
    common(p)

    p = sub.add_parser("svd", help="top singular triplet of a nonnegative matrix")
    p.add_argument("--matrix", type=Path, required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("kernel", help="random-walk graph kernel of two labeled graphs")
    p.add_argument("--g", type=Path, required=True)
    p.add_argument("--h", type=Path, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    common(p)

    return parser


def _vector_field(name, vec, args):
    """Inline short vectors; spill long ones to a sidecar file."""
    x = np.asarray(vec, dtype=np.float64)
    if x.size <= _SIDECAR_LIMIT:
        return x.tolist()
    if args.output is not None:
        sidecar = args.output.with_name(f"{args.output.stem}.{name}.txt")
    else:
        sidecar = Path(f"perronkit-{args.subcommand}-{name}.txt")
    save_vector(sidecar, x)
    return {"path": str(sidecar), "length": x.size}


def _certificate_fields(cert, args):
    """The fields of a Perron certificate, its two vectors included, from
    which its bounds can be recomputed offline."""
    return {
        "s": cert.s,
        "k_final": cert.k_final,
        "residual_left": cert.residual_left,
        "residual_right": cert.residual_right,
        "cw_lower": cert.cw_lower,
        "cw_upper": cert.cw_upper,
        "left": _vector_field("left", cert.left, args),
        "right": _vector_field("right", cert.right, args),
    }


def _run_perron(args):
    A = load_matrix(args.matrix)
    return 0, _certificate_fields(compute_perron(A, args.delta), args)


def _run_mdecide(args):
    outcome = m_decide(load_matrix(args.matrix), args.eps, args.gamma)
    payload = {"verdict": outcome.verdict.value, "eps": args.eps}
    if outcome.is_m_matrix:
        payload["certifies"] = f"(1+{args.eps!r}) I - A admits an RCDD scaling"
        payload["alpha"] = outcome.scaling.alpha
        payload["bracket_steps"] = outcome.report.info["bracket_steps"]
        payload["power_steps"] = outcome.report.info["power_steps"]
        payload["left"] = _vector_field("left", outcome.scaling.left, args)
        payload["right"] = _vector_field("right", outcome.scaling.right, args)
        return 0, payload
    payload["witness"] = outcome.witness
    if outcome.certificate is not None:
        payload["certificate"] = _certificate_fields(outcome.certificate, args)
    return 2, payload


def _run_scale(args):
    A = load_matrix(args.matrix)
    pair, report = mmatrix_scale(A, args.s, args.eps, args.k)
    return 0, {
        "s": args.s,
        "eps": args.eps,
        "alpha0": report.alpha0,
        "alpha_final": pair.alpha,
        "phases": len(report.phases),
        "phase_iterations": report.phase_iterations(),
        "bracket_steps": report.info["bracket_steps"],
        "power_steps": report.info["power_steps"],
        "left": _vector_field("left", pair.left, args),
        "right": _vector_field("right", pair.right, args),
    }


def _run_solve(args):
    A = load_matrix(args.matrix)
    b = load_vector(args.b)
    op = solve_m(A, args.s, args.eps, args.k)
    x = op.apply(b)
    return 0, {
        "s": args.s,
        "eps": args.eps,
        "residual": op.report.residuals[-1],
        "iterations": op.report.iterations,
        "x": _vector_field("x", x, args),
    }


def _run_katz(args):
    A = load_matrix(args.matrix)
    b = load_vector(args.b) if args.b is not None else np.ones(A.n_rows)
    v, report = katz_centrality(A, args.alpha, b, args.eps)
    return 0, {
        "alpha": args.alpha,
        "eps": args.eps,
        "residual": report.residuals[-1] if report.residuals else 0.0,
        "v": _vector_field("v", v, args),
    }


def _run_leontief(args):
    A = load_matrix(args.matrix)
    d = load_vector(args.d) if args.d is not None else None
    verdict, x = leontief_equilibrium(A, d, args.eps)
    payload = {"hawkins_simons": bool(verdict)}
    if x is not None:
        payload["x"] = _vector_field("x", x, args)
    return (0 if verdict else 2), payload


def _run_svd(args):
    A = load_matrix(args.matrix)
    triplet = top_singular(A, args.delta)
    return 0, {
        "sigma": triplet.sigma,
        "residuals": list(triplet.residuals),
        "left": _vector_field("left", triplet.left, args),
        "right": _vector_field("right", triplet.right, args),
    }


def _run_kernel(args):
    G = load_labeled_graph(args.g)
    H = load_labeled_graph(args.h)
    W = product_graph(G, H)
    n = W.matrix.n_rows
    p = np.full(n, 1.0 / n)
    q = np.full(n, 1.0 / n)
    value, report = graph_kernel(W, p, q, args.lam, args.eps)
    return 0, {
        "kappa": value,
        "lambda": args.lam,
        "eps": args.eps,
        "product_vertices": n,
        "product_nnz": W.matrix.nnz,
        "scalar_error_bound": report.info.get("scalar_error_bound", 0.0),
    }


_RUNNERS = {
    "perron": _run_perron,
    "mdecide": _run_mdecide,
    "scale": _run_scale,
    "solve": _run_solve,
    "katz": _run_katz,
    "leontief": _run_leontief,
    "svd": _run_svd,
    "kernel": _run_kernel,
}

# errors that are determinate negative answers, not failures
_NEGATIVE_ERRORS = (DecayTooLarge, KernelDiverges)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for key in sorted(report):
            value = report[key]
            if isinstance(value, list):
                value = ",".join(repr(v) for v in value)
            elif isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"{key}\t{value}")
        text = "\n".join(lines) + "\n"
    if args.output is not None:
        args.output.write_text(text, encoding="ascii")
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report = {
        "schema": 1,
        "subcommand": args.subcommand,
        "seed": args.seed,
        "version": __version__,
    }
    if not args.no_timestamp:
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    try:
        code, payload = _RUNNERS[args.subcommand](args)
    except _NEGATIVE_ERRORS as exc:
        report["verdict"] = "negative"
        report["reason"] = str(exc)
        if exc.certificate is not None:
            report["certificate"] = _certificate_fields(exc.certificate, args)
        _emit(report, args)
        return 2
    except (PerronKitError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    report.update(payload)
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
