"""Command-line front end.

Subcommands: spectrum, bound, verify-tables, conjecture. Plain output rounds
to 4 decimals; json carries full precision and a schema version. Exit codes:
0 success / all-pass, 1 usage error, 2 domain error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__
from .bounds import (
    bound_bipartite_distance,
    bound_bipartite_dsl,
    bound_cactus,
    bound_clique,
    bound_diameter,
    legacy_2012_counterexample,
)
from .errors import SpreadlabError
from .graph import Graph, builtin, generate, parse_edge_list, parse_graph6
from .search import check_conjecture
from .spectral import spread
from .tables import verify_tables

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

_METHODS = {
    "bipartite-distance": bound_bipartite_distance,
    "bipartite-dsl": bound_bipartite_dsl,
    "clique": bound_clique,
    "diameter": bound_diameter,
    "cactus": bound_cactus,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g6", metavar="STR", help="graph6 string")
    grp.add_argument("--edges", metavar="PATH", help="edge-list file")
    grp.add_argument("--builtin", metavar="NAME", help="built-in corpus graph (G1..G4, H1, H2, ...)")
    grp.add_argument("--family", metavar="SPEC", help="family descriptor, e.g. kite:5,3 or path:6")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["plain", "json", "csv"], default="plain")
    p.add_argument("--json", dest="format", action="store_const", const="json",
                   help="shortcut for --format json")
    p.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _load_graph(args) -> tuple[Graph, str]:
    if args.g6 is not None:
        return parse_graph6(args.g6), f"g6:{args.g6}"
    if args.edges is not None:
        with open(args.edges) as fh:
            return parse_edge_list(fh.read()), f"edges:{args.edges}"
    if args.builtin is not None:
        return builtin(args.builtin), f"builtin:{args.builtin}"
    return generate(args.family), f"family:{args.family}"


def _emit(args, plain: str, payload: dict, csv_rows: list[list] | None = None) -> None:
    if args.format == "json":
        text = json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = plain if plain.endswith("\n") else plain + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _f(x: float) -> str:
    return f"{x:.4f}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectrum(args) -> int:
    g, desc = _load_graph(args)
    report = spread(g, args.matrix)
    groups = report.spectrum.multiplicities()
    plain = [
        f"graph: {desc} (n={g.n}, m={g.edge_count()})",
        f"matrix: {args.matrix}",
        "spectrum: " + ", ".join(f"{_f(v)}^[{m}]" if m > 1 else _f(v) for v, m in groups),
        f"largest: {_f(report.rho_max)}  least: {_f(report.rho_min)}  spread: {_f(report.spread)}",
    ]
    payload = {
        "command": "spectrum",
        "input": desc,
        "n": g.n,
        "matrix": args.matrix,
        "eigenvalues": list(report.spectrum.values),
        "multiplicities": [{"value": v, "multiplicity": m} for v, m in groups],
        "largest": report.rho_max,
        "least": report.rho_min,
        "spread": report.spread,
    }
    rows = [["eigenvalue"]] + [[v] for v in report.spectrum.values]
    _emit(args, "\n".join(plain), payload, rows)
    return EXIT_OK


def _legacy_plain(g, cmp, v: int) -> str:
    def fmt(mat):
        return "[[" + ", ".join(str(x) for x in mat[0]) + "], [" + ", ".join(str(x) for x in mat[1]) + "]]"

    lines = [
        f"vertex: v{v + 1}",
        f"B1 (published formula): {fmt(cmp.b1)}",
        f"B2 (true quotient):     {fmt(cmp.b2.entries)}",
        f"equal: {str(cmp.equal).lower()}",
    ]
    if not cmp.equal:
        lines.append("the published quotient formula does not match the true quotient matrix")
    return "\n".join(lines)


def _cmd_bound(args) -> int:
    g, desc = _load_graph(args)
    if args.method == "legacy-2012":
        if args.vertex is not None:
            if not 1 <= args.vertex <= g.n:
                raise SpreadlabError(f"--vertex must be between 1 and n={g.n}, got {args.vertex}")
            v = args.vertex - 1
        else:
            # the first max-degree vertex; with no vertices, an index the
            # range check below refuses
            v = max(range(g.n), key=g.degree, default=0)
        cmp = legacy_2012_counterexample(g, v)
        payload = {
            "command": "bound",
            "input": desc,
            "method": "legacy-2012",
            "vertex": v + 1,
            "b1": [[str(x) for x in row] for row in cmp.b1],
            "b2": [[str(x) for x in row] for row in cmp.b2.entries],
            "equal": cmp.equal,
        }
        rows = [["matrix", "b11", "b12", "b21", "b22"],
                ["B1"] + [str(x) for r in cmp.b1 for x in r],
                ["B2"] + [str(x) for r in cmp.b2.entries for x in r]]
        _emit(args, _legacy_plain(g, cmp, v), payload, rows)
        return EXIT_OK

    report = _METHODS[args.method](g)
    plain = [
        f"graph: {desc} (n={g.n}, m={g.edge_count()})",
        f"method: {args.method}  {report.parameter_name}={report.parameter}",
    ]
    for w in report.witnesses:
        plain.append(
            f"  witness {w.label}: a={w.a} b={w.b} s/t={w.s_or_t} "
            f"lambda=({_f(w.lam1)}, {_f(w.lam2)}) bound={_f(w.bound_value)}"
        )
    if report.closed_form:
        plain.append("closed-form case (bound is exact)")
    if report.witnesses_truncated:
        plain.append("warning: witness enumeration truncated at cap; bound uses a subset")
    plain.append(
        f"bound: {_f(report.bound)}  true spread: {_f(report.true_spread)}  "
        f"gap: {_f(report.true_spread - report.bound)}"
    )
    plain.append(f"radius >= {_f(report.radius_lb)}  least eigenvalue <= {_f(report.min_ub)}")
    payload = {
        "command": "bound",
        "input": desc,
        "method": args.method,
        "parameter_name": report.parameter_name,
        "parameter": report.parameter,
        "bound": report.bound,
        "true_spread": report.true_spread,
        "radius_lb": report.radius_lb,
        "min_ub": report.min_ub,
        "closed_form": report.closed_form,
        "witnesses_truncated": report.witnesses_truncated,
        "witnesses": [
            {
                "label": w.label,
                "vertices": [v + 1 for v in w.vertices],
                "a": w.a,
                "b": w.b,
                "s_or_t": str(w.s_or_t),
                "lambda1": w.lam1,
                "lambda2": w.lam2,
                "bound": w.bound_value,
            }
            for w in report.witnesses
        ],
    }
    rows = [["witness", "a", "b", "lambda1", "lambda2", "bound"]] + [
        [w.label, w.a, w.b, w.lam1, w.lam2, w.bound_value] for w in report.witnesses
    ]
    _emit(args, "\n".join(plain), payload, rows)
    return EXIT_OK


def _cmd_verify_tables(args) -> int:
    results = verify_tables(only=args.only)
    if not results:
        print(f"no reference cells match --only {args.only}", file=sys.stderr)
        return EXIT_USAGE
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name:24s} expected {r.expected:<10.4f} computed {r.computed:<12.6f} tol {r.tol:g}"
        )
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - n_fail}/{len(results)} cells pass")
    payload = {
        "command": "verify-tables",
        "cells": [
            {"name": r.name, "expected": r.expected, "computed": r.computed,
             "tol": r.tol, "pass": r.passed}
            for r in results
        ],
        "passed": len(results) - n_fail,
        "failed": n_fail,
    }
    rows = [["cell", "expected", "computed", "tol", "pass"]] + [
        [r.name, r.expected, r.computed, r.tol, r.passed] for r in results
    ]
    _emit(args, "\n".join(lines), payload, rows)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _cmd_conjecture(args) -> int:
    report = check_conjecture(args.n, threads=args.threads, checkpoint=args.checkpoint)
    plain = [
        f"n={report.n}: {report.graphs_checked} connected bipartite classes "
        f"({report.candidates} labelled candidates, {report.chunks} chunks, "
        f"{report.elapsed_seconds:.1f}s)",
        f"reference S_Q(K_floor,ceil) = {_f(report.reference)}",
        f"minimizer: {report.minimizer_graph6} with S_Q = {_f(report.minimizer_spread)}",
        f"verdict: {report.verdict}",
    ]
    for g6, sq in report.counterexamples:
        plain.append(f"  counterexample: {g6} S_Q = {_f(sq)}")
    payload = {
        "command": "conjecture",
        "n": report.n,
        "graphs_checked": report.graphs_checked,
        "candidates": report.candidates,
        "chunks": report.chunks,
        "reference": report.reference,
        "minimizer": {"graph6": report.minimizer_graph6, "spread": report.minimizer_spread},
        "verdict": report.verdict,
        "counterexamples": [{"graph6": g6, "spread": sq} for g6, sq in report.counterexamples],
        "elapsed_seconds": report.elapsed_seconds,
    }
    rows = [["graph6", "spread"], [report.minimizer_graph6, report.minimizer_spread]]
    _emit(args, "\n".join(plain), payload, rows)
    return EXIT_OK if report.verdict == "holds" else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spreadlab",
                     description="Distance and DSL spectra, spreads and quotient-matrix bounds")
    parser.add_argument("--version", action="version", version=f"spreadlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("spectrum", help="full spectrum and spread of D(G) or Q(G)")
    _add_input_flags(p)
    p.add_argument("--matrix", choices=["distance", "dsl"], default="distance")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bound", help="evaluate a spread lower bound with witnesses")
    _add_input_flags(p)
    p.add_argument("--method", choices=list(_METHODS) + ["legacy-2012"], required=True)
    p.add_argument("--vertex", type=int, metavar="K",
                   help="1-indexed vertex for --method legacy-2012 (default: first max-degree vertex)")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_bound)

    p = sub.add_parser("verify-tables", help="recompute every reference table cell")
    p.add_argument("--only", metavar="NAME", help="restrict to one graph (e.g. G2)")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_verify_tables)

    p = sub.add_parser("conjecture", help="exhaustive minimum-spread check over bipartite classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="threads that run the search's chunks, at most one per core (default: 1)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="JSON-lines checkpoint file for resumable runs")
    _add_output_flags(p)
    p.set_defaults(fn=_cmd_conjecture)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpreadlabError as exc:
        print(f"spreadlab: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ValueError, OSError) as exc:
        print(f"spreadlab: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
