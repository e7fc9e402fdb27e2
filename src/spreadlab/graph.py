"""Graph representation, parsing, generation and metric quantities.

Vertices are labelled 0..n-1 internally; user-facing text uses 1-indexed
labels. Distances, transmissions and the Wiener index are kept in exact
integer arithmetic; the average distance degree is an exact Fraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotBipartiteError, NotConnectedError, ParseError, SpreadlabError

GRAPH6_HEADER = ">>graph6<<"


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction: edges are stored as a frozenset of sorted
    pairs and adjacency as a tuple of frozensets.
    """

    __slots__ = ("n", "edges", "adjacency")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            seen.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(seen)
        adj = [set() for _ in range(n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency = tuple(frozenset(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"


@dataclass(frozen=True)
class DistanceData:
    """All-pairs distances plus the derived metric quantities.

    dist is an n x n tuple-of-tuples of hop counts, trans[i] the transmission
    (row sum) of vertex i, wiener the Wiener index and diameter the largest
    entry.
    """

    dist: tuple[tuple[int, ...], ...]
    trans: tuple[int, ...]
    wiener: int
    diameter: int


# ---------------------------------------------------------------------------
# graph6


def _g6_read_n(data: bytes, pos: int) -> tuple[int, int]:
    if pos >= len(data):
        raise ParseError(f"truncated graph6 string at byte {pos}")
    b = data[pos]
    if not (63 <= b <= 126):
        raise ParseError(f"out-of-range graph6 byte {b} at offset {pos}")
    if b != 126:
        return b - 63, pos + 1
    # '~': 3-byte (18-bit) size, or '~~' + 6 bytes for the huge form
    if pos + 1 < len(data) and data[pos + 1] == 126:
        chunk, start = 6, pos + 2
    else:
        chunk, start = 3, pos + 1
    if start + chunk > len(data):
        raise ParseError(f"truncated graph6 size field at byte {pos}")
    n = 0
    for i in range(chunk):
        b = data[start + i]
        if not (63 <= b <= 126):
            raise ParseError(f"out-of-range graph6 byte {b} at offset {start + i}")
        n = (n << 6) | (b - 63)
    return n, start + chunk


def parse_graph6(text: str) -> Graph:
    """Decode a single graph6 line (optional ``>>graph6<<`` header)."""
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise ParseError("empty graph6 string")
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(f"non-ASCII character {line[exc.start]!r} at offset {exc.start}") from None
    n, pos = _g6_read_n(data, 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise ParseError(
            f"truncated graph6 bit stream at byte {len(data)}: need {nbytes} data bytes, got {len(data) - pos}"
        )
    if len(data) - pos > nbytes:
        raise ParseError(f"trailing bytes after graph6 bit stream at byte {pos + nbytes}")
    bits = []
    for i in range(nbytes):
        b = data[pos + i]
        if not (63 <= b <= 126):
            raise ParseError(f"out-of-range graph6 byte {b} at offset {pos + i}")
        val = b - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = []
    k = 0
    # upper triangle, column-major: (0,1), (0,2), (1,2), (0,3), ...
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def write_graph6(g: Graph, header: bool = False) -> str:
    """Encode a graph in graph6 format (bit-exact standard encoding)."""
    n = g.n
    if n <= 62:
        prefix = chr(n + 63)
    elif n <= 258047:
        prefix = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        prefix = "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if v in g.adjacency[u] else 0)
    while len(bits) % 6:
        bits.append(0)
    body = "".join(
        chr(63 + (bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3 | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]))
        for i in range(0, len(bits), 6)
    )
    return (GRAPH6_HEADER if header else "") + prefix + body


# ---------------------------------------------------------------------------
# edge-list text format


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" pairs (1st line optionally "n <count>").

    Labels are 0-indexed. Duplicate edges collapse; an explicit "n" line
    allows isolated vertices.
    """
    declared_n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if declared_n is not None or pairs:
                raise ParseError(f"line {lineno}: 'n' declaration must be the first non-empty line")
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if declared_n < 0:
                raise ParseError(f"line {lineno}: negative vertex count {declared_n}")
            continue
        if len(tokens) % 2:
            raise ParseError(f"line {lineno}: odd number of vertex labels")
        for u_tok, v_tok in zip(tokens[::2], tokens[1::2]):
            try:
                u, v = int(u_tok), int(v_tok)
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer label in {u_tok!r} {v_tok!r}") from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative vertex label in edge ({u}, {v})")
            if u == v:
                raise ParseError(f"line {lineno}: loop at vertex {u}")
            pairs.append((u, v))
    n = declared_n if declared_n is not None else (max((max(u, v) for u, v in pairs), default=-1) + 1)
    for u, v in pairs:
        if max(u, v) >= n:
            raise ParseError(f"edge ({u}, {v}) has a label >= declared n={n}")
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# generators


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete graph needs n >= 1, got {n}")
    return Graph(n, [(u, v) for v in range(n) for u in range(v)])


def path(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star(n: int) -> Graph:
    """Star K_{1,n-1} with the centre at vertex 0."""
    _require(n >= 1, f"star needs n >= 1, got {n}")
    return Graph(n, [(0, i) for i in range(1, n)])


def cycle(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts 0..a-1 and a..a+b-1."""
    _require(a >= 1 and b >= 1, f"complete bipartite needs a, b >= 1, got ({a}, {b})")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def kite(n: int, omega: int) -> Graph:
    """Clique on 0..omega-1 with a path appended at vertex 0."""
    _require(2 <= omega <= n, f"kite needs 2 <= omega <= n, got (n={n}, omega={omega})")
    edges = [(u, v) for v in range(omega) for u in range(v)]
    prev = 0
    for v in range(omega, n):
        edges.append((prev, v))
        prev = v
    return Graph(n, edges)


_FAMILIES = {
    "complete": (complete, 1),
    "path": (path, 1),
    "star": (star, 1),
    "cycle": (cycle, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "kite": (kite, 2),
}


def generate(descriptor: str) -> Graph:
    """Build a named family graph from a descriptor like "kite:5,3" or "path:6"."""
    name, sep, rest = descriptor.partition(":")
    name = name.strip().lower()
    if name not in _FAMILIES:
        raise ParseError(f"unknown family {name!r}; known: {', '.join(sorted(_FAMILIES))}")
    fn, arity = _FAMILIES[name]
    if not sep:
        raise ParseError(f"family descriptor {descriptor!r} is missing parameters")
    try:
        args = [int(tok) for tok in rest.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"non-integer parameter in family descriptor {descriptor!r}") from None
    if len(args) != arity:
        raise ParseError(f"family {name!r} takes {arity} parameter(s), got {len(args)}")
    return fn(*args)


# ---------------------------------------------------------------------------
# built-in corpus (1-indexed edge lists, stored 0-indexed)


def _from_one_indexed(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    return Graph(n, [(u - 1, v - 1) for u, v in edges])


_BUILTINS: dict[str, Graph] = {
    "G1": _from_one_indexed(7, [(7, 3), (3, 1), (3, 6), (1, 4), (1, 2), (6, 2), (2, 5)]),
    "G2": _from_one_indexed(9, [(3, 4), (4, 5), (4, 1), (2, 3), (2, 1), (6, 1), (6, 5), (1, 7), (1, 8), (1, 9)]),
    "G3": _from_one_indexed(6, [(1, 2), (2, 3), (3, 4), (4, 1), (3, 5), (3, 6), (5, 6)]),
    "G4": _from_one_indexed(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (3, 6), (3, 7), (6, 7)]),
    # 5-vertex bipartite graphs between K_{2,3} and S_5
    "H1": _from_one_indexed(5, [(1, 3), (2, 3), (1, 4), (2, 4), (1, 5)]),
    "H2": _from_one_indexed(5, [(1, 3), (2, 3), (1, 4), (1, 5)]),
    "P4": path(4),
    "P5": path(5),
    "S4": star(4),
    "S5": star(5),
    "K22": complete_bipartite(2, 2),
    "K23": complete_bipartite(2, 3),
}


def builtin(name: str) -> Graph:
    """Return a graph from the fixed built-in corpus."""
    key = name.strip()
    if key not in _BUILTINS:
        raise ParseError(f"unknown builtin {name!r}; known: {', '.join(sorted(_BUILTINS))}")
    return _BUILTINS[key]


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


# ---------------------------------------------------------------------------
# metric quantities


def _bfs_distances(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    q = deque([source])
    while q:
        x = q.popleft()
        for y in g.adjacency[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                q.append(y)
    return dist


def check_connected(g: Graph) -> None:
    """Raise NotConnectedError naming two unreachable vertices."""
    if g.n == 0:
        return
    dist = _bfs_distances(g, 0)
    for v, d in enumerate(dist):
        if d < 0:
            raise NotConnectedError(0, v)


def is_connected(g: Graph) -> bool:
    try:
        check_connected(g)
    except NotConnectedError:
        return False
    return True


def all_pairs_distances(g: Graph) -> DistanceData:
    """All-pairs hop counts by n BFS sweeps, plus transmissions, W and diameter."""
    rows = []
    for s in range(g.n):
        d = _bfs_distances(g, s)
        for v, dv in enumerate(d):
            if dv < 0:
                raise NotConnectedError(s, v)
        rows.append(tuple(d))
    trans = tuple(sum(r) for r in rows)
    return DistanceData(
        dist=tuple(rows),
        trans=trans,
        wiener=sum(trans) // 2,
        diameter=max((max(r) for r in rows), default=0),
    )


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Proper 2-colouring of a connected graph, vertex 0 in the first part.

    Raises NotBipartiteError carrying a closed odd walk when an odd cycle
    exists.
    """
    check_connected(g)
    color = [-1] * g.n
    parent = [-1] * g.n
    if g.n:
        color[0] = 0
        q = deque([0])
        while q:
            x = q.popleft()
            for y in g.adjacency[x]:
                if color[y] < 0:
                    color[y] = 1 - color[x]
                    parent[y] = x
                    q.append(y)
                elif color[y] == color[x]:
                    raise NotBipartiteError(_odd_walk(parent, x, y))
    part_a = frozenset(v for v in range(g.n) if color[v] == 0)
    part_b = frozenset(v for v in range(g.n) if color[v] == 1)
    return part_a, part_b


def _odd_walk(parent: list[int], x: int, y: int) -> list[int]:
    # closed walk: x -> root -> y plus the edge y-x; same BFS colour on x and
    # y makes its length odd
    up_x = [x]
    while parent[up_x[-1]] >= 0:
        up_x.append(parent[up_x[-1]])
    up_y = [y]
    while parent[up_y[-1]] >= 0:
        up_y.append(parent[up_y[-1]])
    # both chains end at the BFS root; drop the duplicate and close with the
    # violating edge y-x
    return up_x + up_y[::-1][1:] + [x]


def is_bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
    except NotBipartiteError:
        return False
    return True


def average_distance_degree(g: Graph, dd: DistanceData, v: int) -> Fraction:
    """Mean transmission over the neighbours of v, as an exact rational."""
    deg = g.degree(v)
    if deg == 0:
        raise SpreadlabError(f"vertex {v + 1} has no neighbours")
    return Fraction(sum(dd.trans[u] for u in g.adjacency[v]), deg)
