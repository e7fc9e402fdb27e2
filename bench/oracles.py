"""Correctness oracles that share no code with spreadlab.

Distances come from networkx, spectra from numpy.linalg.eigvalsh and quotient
entries from integer block sums. Each check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx
import numpy as np

SPECTRUM_TOL = 1e-8  # on every eigenvalue; a spread may be off by twice that
BOUND_SLACK = 1e-9
ROOT_RTOL = 1e-9

# verify_tables() at the seed: 32 of 39 cells pass; these 7 published values
# are contradicted by recomputation and must keep these recomputed values
TABLE_CELLS = 39
TABLE_FAILING = {
    "G1:S_D": 17.658808717780026,
    "G1:S_Q_bound": 15.638494173033413,
    "G1:S_Q": 18.60902154162276,
    "G2:S_Q_bound": 17.861142409243183,
    "G2:S_Q": 23.279644936018435,
    "G1:S_Q_diameter_bound": 15.352198539622917,
    "G4:S_Q_cactus_bound": 14.323407415835103,
}
TABLE_DRIFT_TOL = 1e-8

CONJECTURE_N = 9
CONJECTURE_CLASSES = 730  # OEIS A005142, n = 9
CONJECTURE_CANDIDATES = 49333


def distance_matrix(g: nx.Graph) -> np.ndarray:
    n = g.number_of_nodes()
    d = np.zeros((n, n), dtype=np.int64)
    for s, lengths in nx.all_pairs_shortest_path_length(g):
        for t, length in lengths.items():
            d[s, t] = length
    return d


def matrix_of(g: nx.Graph, kind: str) -> np.ndarray:
    """Integer D(G) for kind "distance", Q(G) = Tr(G) + D(G) for "dsl"."""
    d = distance_matrix(g)
    return d if kind == "distance" else d + np.diag(d.sum(axis=1))


def reference_spectrum(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(m.astype(float))[::-1]


def check_spread(report, ref: np.ndarray) -> str | None:
    """report is a spreadlab SpreadReport; ref the descending eigvalsh spectrum."""
    got = np.array(report.spectrum.values)
    if got.shape != ref.shape:
        return f"spectrum has {got.size} values, expected {ref.size}"
    err = float(np.abs(got - ref).max())
    if err > SPECTRUM_TOL:
        return f"spectrum off by {err:.3e}"
    want = ref[0] - ref[-1]
    if abs(report.spread - want) > 2 * SPECTRUM_TOL or report.rho_max != got[0] or report.rho_min != got[-1]:
        return f"spread {report.spread!r} != {want!r}"
    return None


# ---------------------------------------------------------------------------
# bounds


def quotient_root(entries) -> float:
    """Spread of a 2x2 quotient from its exact entries: sqrt(tr^2 - 4 det)."""
    (b11, b12), (b21, b22) = entries
    tr = Fraction(b11) + Fraction(b22)
    det = Fraction(b11) * Fraction(b22) - Fraction(b12) * Fraction(b21)
    disc = tr * tr - 4 * det
    return math.sqrt(disc) if disc > 0 else 0.0


def block_quotient(m: np.ndarray, inside: list[int]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact 2x2 average-row-sum quotient of m around the vertex set inside."""
    mask = np.zeros(m.shape[0], dtype=bool)
    mask[inside] = True
    blocks = (np.flatnonzero(mask), np.flatnonzero(~mask))
    return tuple(
        tuple(Fraction(int(m[np.ix_(bi, bj)].sum()), len(bi)) for bj in blocks)
        for bi in blocks
    )


def grid_diameter_paths(rows: int, cols: int) -> int:
    """Geodesics between the two pairs of opposite corners of a grid."""
    return 2 * math.comb(rows + cols - 2, rows - 1)


class BoundOracle:
    """Reference data for one bounds item, computed once and reused to check
    the report of every pass."""

    def __init__(self, item):
        self.item = item
        g = item.graph
        self.matrix = matrix_of(g, "distance" if item.op == "bipartite_distance" else "dsl")
        self.spectrum = reference_spectrum(self.matrix)
        self.diameter = nx.diameter(g)
        self.omega = max(len(c) for c in nx.find_cliques(g))
        self.max_degree = max(d for _, d in g.degree())

    def _witness_set(self, w) -> tuple[list[int], str | None]:
        """The vertex set the witness partitions around, and a structural fault."""
        g, op, verts = self.item.graph, self.item.op, list(w.vertices)
        if op in ("bipartite_distance", "bipartite_dsl"):
            v = verts[0]
            if g.degree(v) != self.max_degree:
                return [], f"witness {v} is not a max-degree vertex"
            return sorted({v, *g[v]}), None
        if op == "clique":
            if len(verts) != self.omega or any(not g.has_edge(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]):
                return verts, f"witness {verts} is not a maximum clique"
        elif op == "diameter":
            if (len(verts) != self.diameter + 1 or self.matrix[verts[0], verts[-1]] != self.diameter
                    or any(not g.has_edge(a, b) for a, b in zip(verts, verts[1:]))):
                return verts, f"witness {verts} is not a diameter path"
        elif op == "cactus":
            if any(not g.has_edge(verts[i - 1], verts[i]) for i in range(len(verts))):
                return verts, f"witness {verts} is not a cycle"
        return verts, None

    def check(self, report) -> str | None:
        true_spread = float(self.spectrum[0] - self.spectrum[-1])
        if abs(report.true_spread - true_spread) > 2 * SPECTRUM_TOL:
            return f"true_spread {report.true_spread!r} != {true_spread!r}"
        if report.bound > report.true_spread + BOUND_SLACK:
            return f"bound {report.bound!r} exceeds true spread {report.true_spread!r}"
        if not report.witnesses:
            return "no witnesses"
        if report.bound != max(w.bound_value for w in report.witnesses):
            return "bound is not the maximum over witnesses"
        for w in report.witnesses:
            inside, fault = self._witness_set(w)
            if fault:
                return fault
            root = quotient_root(w.quotient.entries)
            if not math.isclose(w.bound_value, root, rel_tol=ROOT_RTOL, abs_tol=ROOT_RTOL):
                return f"witness {w.label}: bound_value {w.bound_value!r} != sqrt(tr^2-4det) {root!r}"
            if w.quotient.entries != block_quotient(self.matrix, inside):
                return f"witness {w.label}: quotient entries differ from block sums"
        item = self.item
        if item.cap is not None:
            if not report.witnesses_truncated or len(report.witnesses) != item.cap:
                return f"expected {item.cap} witnesses, truncated; got {len(report.witnesses)}"
        elif report.witnesses_truncated:
            return "witnesses truncated without a cap"
        elif item.op == "diameter" and item.grid is not None:
            want = grid_diameter_paths(*item.grid)
            if len(report.witnesses) != want:
                return f"{len(report.witnesses)} diameter paths on a {item.grid} grid, expected {want}"
        return None


def check_tables(results) -> str | None:
    """results: verify_tables() output. The 7 known-wrong published cells
    must fail with their seed values; every other cell must pass."""
    if len(results) != TABLE_CELLS:
        return f"{len(results)} table cells, expected {TABLE_CELLS}"
    for cell in results:
        if cell.name in TABLE_FAILING:
            if cell.passed or abs(cell.computed - TABLE_FAILING[cell.name]) > TABLE_DRIFT_TOL:
                return f"cell {cell.name} drifted to {cell.computed!r}"
        elif not cell.passed:
            return f"cell {cell.name} fails: {cell.computed!r} vs {cell.expected!r}"
    return None


# ---------------------------------------------------------------------------
# conjecture


def kab_dsl_spread(a: int, b: int) -> float:
    """DSL spread of K_{a,b}, 2 <= a <= b: (5n-8+sqrt(9n^2-32ab))/2 - (n+a-4)."""
    n = a + b
    return (5 * n - 8 + math.sqrt(9 * n * n - 32 * a * b)) / 2 - (n + a - 4)


def check_conjecture(report, checkpoint_lines: list[str]) -> str | None:
    n = CONJECTURE_N
    a = n // 2
    if report.verdict != "holds":
        return f"verdict {report.verdict!r}"
    if report.graphs_checked != CONJECTURE_CLASSES or report.candidates != CONJECTURE_CANDIDATES:
        return f"{report.graphs_checked} classes / {report.candidates} candidates"
    want = kab_dsl_spread(a, n - a)
    if not math.isclose(report.minimizer_spread, want, rel_tol=1e-12):
        return f"minimizer spread {report.minimizer_spread!r} != {want!r}"
    minimizer = nx.from_graph6_bytes(report.minimizer_graph6.encode("ascii"))
    if not nx.is_isomorphic(minimizer, nx.complete_bipartite_graph(a, n - a)):
        return f"minimizer {report.minimizer_graph6} is not K_{{{a},{n - a}}}"
    if len(checkpoint_lines) != report.chunks:
        return f"checkpoint holds {len(checkpoint_lines)} chunks, expected {report.chunks}"
    return None
