"""Self-checks for the benchmark itself (not part of the package's tests).

    python3 bench/selfcheck.py

Checks that a seed fixes the inputs, that the oracles reject deliberately
perturbed spreads, quotients and reports, and that every metric name and unit
run.py prints is the one BENCHMARK.json declares. Exits non-zero on failure.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

import networkx as nx

import inputs
import oracles
import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_inputs() -> None:
    for name, make in (("spectra", inputs.spectra_items), ("bounds", inputs.bounds_items)):
        first = [(i.g6, i.op, i.cap) for i in make(7)]
        again = [(i.g6, i.op, i.cap) for i in make(7)]
        other = [(i.g6, i.op, i.cap) for i in make(8)]
        expect(first == again, f"{name}: the same seed yields identical inputs")
        expect(first != other, f"{name}: another seed yields other inputs")
        expect(len(first) >= 100, f"{name}: a pass holds {len(first)} items")
    methods = {i.op for i in inputs.bounds_items(7)}
    expect(methods == set(inputs.BOUND_METHODS), "bounds: every bound method appears")
    expect(any(i.cap for i in inputs.bounds_items(7)), "bounds: some item passes an explicit cap")


def check_oracles(sl) -> None:
    item = inputs.spectra_items(3)[40]
    report = sl.spread(sl.parse_graph6(item.g6), item.op)
    ref = oracles.reference_spectrum(oracles.matrix_of(item.graph, item.op))
    expect(oracles.check_spread(report, ref) is None, "spectra: a true spread passes")
    bad = dataclasses.replace(report, spread=report.spread * (1 + 1e-6))
    expect(oracles.check_spread(bad, ref) is not None, "spectra: a perturbed spread fails")
    values = list(report.spectrum.values)
    values[len(values) // 2] += 1e-5
    bad = dataclasses.replace(report, spectrum=sl.Spectrum(tuple(values)))
    expect(oracles.check_spread(bad, ref) is not None, "spectra: a perturbed inner eigenvalue fails")

    for item in inputs.bounds_items(3):
        if item.op == "diameter" and item.grid and not item.cap:
            break
    oracle = oracles.BoundOracle(item)
    report = sl.bound_diameter(sl.parse_graph6(item.g6))
    expect(oracle.check(report) is None, "bounds: a true diameter bound passes")
    w = report.witnesses[-1]
    (b11, b12), row2 = w.quotient.entries
    quotient = dataclasses.replace(w.quotient, entries=((b11 + Fraction(1, 1000), b12), row2))
    bad = dataclasses.replace(report, witnesses=report.witnesses[:-1] + (dataclasses.replace(w, quotient=quotient),))
    expect(oracle.check(bad) is not None, "bounds: a perturbed quotient entry fails")
    bad = dataclasses.replace(report, witnesses=report.witnesses[:-1])
    expect(oracle.check(bad) is not None, "bounds: a missing diameter path fails")
    bad = dataclasses.replace(report, bound=report.true_spread + 1e-6)
    expect(oracle.check(bad) is not None, "bounds: a bound above the true spread fails")

    cells = sl.verify_tables()
    expect(oracles.check_tables(cells) is None, "tables: the seed's 32/39 cells pass")
    drifted = [dataclasses.replace(c, computed=c.computed + 1e-6) if c.name == "G2:S_Q" else c for c in cells]
    expect(oracles.check_tables(drifted) is not None, "tables: a drifted failing cell fails")

    def g6(g):
        return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()

    good = SimpleNamespace(verdict="holds", graphs_checked=730, candidates=49333, chunks=2,
                           minimizer_spread=oracles.kab_dsl_spread(4, 5),
                           minimizer_graph6=g6(nx.complete_bipartite_graph(4, 5)))
    lines = ["{}", "{}"]
    expect(oracles.check_conjecture(good, lines) is None, "conjecture: the K_{4,5} report passes")
    for change in ({"graphs_checked": 729}, {"minimizer_spread": good.minimizer_spread + 1e-9},
                   {"minimizer_graph6": g6(nx.path_graph(9))}, {"verdict": "counterexample"}):
        bad = SimpleNamespace(**{**vars(good), **change})
        expect(oracles.check_conjecture(bad, lines) is not None, f"conjecture: a report with {change} fails")


def check_metric_names() -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
    for key, printed in declared.items():
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == printed, f"{key}: run.py prints exactly the metrics BENCHMARK.json lists")
        bad = [n for n in printed if not NAME.fullmatch(n) or len(n) > 64]
        expect(not bad, f"{key}: every metric name matches [A-Za-z0-9_.-]+ {bad or ''}")
        bad = [u for u in printed.values() if not UNIT.fullmatch(u)]
        expect(not bad, f"{key}: every unit is valid {bad or ''}")
    expect({w["name"] for w in spec["workloads"]} == set(run.WORKLOADS), "workloads match run.py")


def main() -> int:
    sl = run.load_spreadlab()
    check_inputs()
    check_oracles(sl)
    check_metric_names()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
