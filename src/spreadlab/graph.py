"""Graph representation, parsing, generation and metric quantities.

Vertices are labelled 0..n-1 internally; user-facing text uses 1-indexed
labels. Distances, transmissions and the Wiener index are kept in exact
integer arithmetic; the average distance degree is an exact Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NotBipartiteError, NotConnectedError, ParseError, SpreadlabError

GRAPH6_HEADER = ">>graph6<<"
# Largest vertex count a graph6 string, an edge list or a family descriptor
# may ask for. It is checked before any per-vertex allocation, and Graph
# refuses more; a dense D(G) of this order already takes 32 MB. It also keeps
# all_pairs_distances exact in float32: every entry of its products T.A and
# T*deg is an integer of at most (n-1)*Delta < MAX_VERTICES^2, and float32
# holds every integer below 2^24 exactly, so the limit must not pass 4096.
MAX_VERTICES = 2000


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    adj, the n x n adjacency matrix as a read-only bool array, is the only
    stored form; adjacency, the ascending neighbour tuple of each vertex, is
    derived from it on first use. edges may be any iterable of vertex pairs
    or an (m, 2) integer array; repeated and reversed pairs collapse.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if n > MAX_VERTICES:
            raise ValueError(f"{n} vertices exceeds the limit of {MAX_VERTICES}")
        uv = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        # the int64 cast below would truncate float labels without a word
        if uv.size and uv.dtype.kind not in "iu":
            raise ValueError(f"vertex labels must be machine integers, got {uv.dtype} labels")
        u, v = uv.reshape(len(uv), 2).astype(np.int64).T
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        if bad.any():
            x, y = int(u[bad.argmax()]), int(v[bad.argmax()])
            raise ValueError(f"loop at vertex {x}" if x == y else f"edge ({x}, {y}) out of range for n={n}")
        adj = np.zeros((n, n), dtype=bool)
        adj[u, v] = adj[v, u] = True
        adj.setflags(write=False)
        self.n = n
        self.adj = adj

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        ends = np.cumsum(self.adj.sum(axis=1)).tolist()
        flat = np.nonzero(self.adj)[1].tolist()
        return tuple(tuple(flat[s:e]) for s, e in zip([0] + ends, ends))

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.adj[v]))

    def max_degree(self) -> int:
        return int(self.adj.sum(axis=1).max(initial=0))

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.adj)) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.adj, other.adj)

    def __hash__(self):
        return hash((self.n, self.adj.tobytes()))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


@dataclass(frozen=True, eq=False)
class DistanceData:
    """All-pairs distances plus the derived metric quantities.

    dist is the n x n matrix of hop counts as a read-only int64 array. The
    Python-int quantities are computed on first use, as only the bounds read
    them: trans[i] is the transmission (row sum) of vertex i, wiener the
    Wiener index and diameter the largest entry.
    """

    dist: np.ndarray

    @cached_property
    def trans(self) -> tuple[int, ...]:
        return tuple(self.dist.sum(axis=1).tolist())

    @cached_property
    def wiener(self) -> int:
        return sum(self.trans) // 2

    @cached_property
    def diameter(self) -> int:
        return int(self.dist.max()) if len(self.dist) else 0


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
    # '~': 3-byte (18-bit) size, or '~~' + 6 bytes for the huge form, which
    # is read only so that the vertex limit can refuse it
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
    _check_order(n)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise ParseError(
            f"truncated graph6 bit stream at byte {len(data)}: need {nbytes} data bytes, got {len(data) - pos}"
        )
    if len(data) - pos > nbytes:
        raise ParseError(f"trailing bytes after graph6 bit stream at byte {pos + nbytes}")
    # the six data bits of each byte '?'..'~'; bytes below '?' wrap past 63
    body = np.frombuffer(data[pos:], dtype=np.uint8) - 63
    if (body > 63).any():
        i = pos + int(np.argmax(body > 63))
        raise ParseError(f"out-of-range graph6 byte {data[i]} at offset {i}")
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()[:nbits].astype(bool)
    # graph6 runs over the upper triangle column by column, (0,1), (0,2),
    # (1,2), (0,3), ..., which is the lower triangle row by row
    low = np.zeros((n, n), dtype=bool)
    low[np.tri(n, k=-1, dtype=bool)] = bits
    return Graph(n, np.array(np.nonzero(low)).T)


def write_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format (bit-exact standard encoding)."""
    return _graph6_stack(g.adj[None])[0]


def _graph6_stack(adj: np.ndarray) -> list[str]:
    """graph6 of each adjacency matrix in a (k, n, n) bool stack."""
    count, n = len(adj), adj.shape[-1]
    # the size field, '~' then 18 bits above 62, before every byte gets 63
    size = [n] if n <= 62 else [63] + [n >> s & 63 for s in (12, 6, 0)]
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    # the lower triangle row by row is graph6's bit order (see parse_graph6)
    bits = np.zeros((count, 6 * nbytes), dtype=bool)
    bits[:, :nbits] = adj[:, np.tri(n, k=-1, dtype=bool)]
    # packbits fills each row of six bits to a byte from the top
    text = np.empty((count, len(size) + nbytes), dtype=np.uint8)
    text[:, :len(size)] = size
    text[:, len(size):] = np.packbits(bits.reshape(count, nbytes, 6), axis=2)[..., 0] >> 2
    text += 63
    flat, width = text.tobytes().decode("ascii"), text.shape[1]
    return [flat[i:i + width] for i in range(0, len(flat), width)]


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
    _check_order(n)
    return Graph(n, pairs)


# ---------------------------------------------------------------------------
# generators


def _check_order(n: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(f"{n} vertices exceeds the limit of {MAX_VERTICES}")


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def complete(n: int) -> Graph:
    _require(n >= 1, f"complete graph needs n >= 1, got {n}")
    return Graph(n, np.column_stack(np.triu_indices(n, 1)))


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
    i, j = np.divmod(np.arange(a * b), b)
    return Graph(a + b, np.column_stack((i, a + j)))


def kite(n: int, omega: int) -> Graph:
    """Clique on 0..omega-1 with a path appended at vertex 0."""
    _require(2 <= omega <= n, f"kite needs 2 <= omega <= n, got (n={n}, omega={omega})")
    tail = np.arange(omega, n)
    clique = np.column_stack(np.triu_indices(omega, 1))
    return Graph(n, np.vstack((clique, np.column_stack((np.r_[0, tail][:-1], tail)))))


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
    # the first parameter is the vertex count, except for K_{a,b}
    _check_order(sum(args) if fn is complete_bipartite else args[0])
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


def _levels(g: Graph) -> list[int]:
    """Hop counts from vertex 0 of a graph with at least one vertex, by
    breadth-first search with one frontier list per level; raises
    NotConnectedError naming vertex 0 and the first vertex it cannot reach."""
    adj = g.adjacency
    level = [-1] * g.n
    level[0] = 0
    frontier = [0]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for x in frontier:
            for y in adj[x]:
                if level[y] < 0:
                    level[y] = depth
                    reached.append(y)
        frontier = reached
    if -1 in level:
        raise NotConnectedError(0, level.index(-1))
    return level


def check_connected(g: Graph) -> None:
    """Raise NotConnectedError naming two unreachable vertices."""
    if g.n:
        _levels(g)


def is_connected(g: Graph) -> bool:
    try:
        check_connected(g)
    except NotConnectedError:
        return False
    return True


def all_pairs_distances(g: Graph) -> DistanceData:
    """All-pairs hop counts by Seidel's squaring (R. Seidel, JCSS 51, 1995);
    see _distances."""
    dist = _distances(g.adj)
    dist.setflags(write=False)
    return DistanceData(dist=dist)


def _distances(adj: np.ndarray) -> np.ndarray:
    """Hop counts of each graph in a (..., n, n) bool stack of adjacency
    matrices, as an int64 array of the same shape, by Seidel's squaring.

    A_0 is the adjacency matrix with a loop at every vertex, so the square
    of A_i is nonzero exactly on the pairs at distance at most 2 in A_i;
    those pairs make A_{i+1}. After ceil(log2 diameter) squarings A_k is
    complete. The level below it (A_0 itself for a complete graph) has
    distances 2 - A_i off the diagonal, and each lower level is unwound from
    the one above: with T the distances in A_{i+1} and deg_i the column sums
    of A_i, the distances in A_i are 2T - [T.A_i < T*deg_i] (the loops add T
    to both sides of the comparison). A stack is squared until every member
    is complete; a complete graph is its own square, and the unwinding holds
    for it too, so members of smaller diameter need no masking. The chain is
    kept as bool arrays and multiplied in float32, exact below MAX_VERTICES.
    A squaring that joins no new pair anywhere in the stack has closed every
    component into a clique, so a member that is not complete is
    disconnected.
    """
    n = adj.shape[-1]
    eye = np.eye(n, dtype=bool)
    a = adj | eye
    levels = [a]
    pairs = int(np.count_nonzero(a))
    # two float32 buffers serve every product: f holds a level as 0/1 and p
    # the product. Fresh float32 matrices per level left freed blocks behind
    # and raised peak RSS by ~20 MB at n = 2000.
    f = np.empty(a.shape, dtype=np.float32)
    p = np.empty(a.shape, dtype=np.float32)
    while pairs < a.size:
        np.copyto(f, a)
        # f @ f, not f @ f.T: numpy hands the latter to syrk, which halves
        # the work at n = 2000 but is slower than gemm below n ~ 100 and,
        # with BLAS threads on, slowed the 2-worker conjecture search by ~7%
        np.matmul(f, f, out=p)
        a = p > 0
        joined = int(np.count_nonzero(a))
        if joined == pairs:
            member = a.reshape(-1, n, n)[np.argmin(a.reshape(-1, n * n).all(axis=1))]
            raise NotConnectedError(0, int(np.argmin(member[0])))
        levels.append(a)
        pairs = joined
    if len(levels) > 1:
        levels.pop()
    t = 2 - levels.pop().astype(np.float32)
    t -= eye
    while levels:
        np.copyto(f, levels.pop())
        np.matmul(t, f, out=p)
        np.multiply(t, f.sum(axis=-2, keepdims=True), out=f)  # f now holds T*deg
        t *= 2
        t -= p < f
    return t.astype(np.int64)


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]]:
    """Proper 2-colouring of a connected graph, vertex 0 in the first part:
    each vertex is coloured by the parity of its distance from vertex 0.

    Raises NotBipartiteError carrying a closed odd walk when an odd cycle
    exists.
    """
    if not g.n:
        return frozenset(), frozenset()
    level = np.array(_levels(g))
    # an edge joins equal or adjacent levels; one within a level closes an
    # odd cycle. Take the first such edge at the least level and walk each of
    # its ends down the levels to vertex 0: x -> 0 -> y plus the edge y-x is
    # a closed walk of 2 * level + 1 steps
    clash = np.argwhere(g.adj & (level[:, None] == level))
    if len(clash):
        x, y = clash[np.argmin(level[clash[:, 0]])].tolist()
        down = []
        for v in (x, y):
            walk = [v]
            while level[v]:
                v = next(u for u in g.adjacency[v] if level[u] == level[v] - 1)
                walk.append(v)
            down.append(walk)
        raise NotBipartiteError(down[0] + down[1][-2::-1] + [x])
    return frozenset(np.flatnonzero(level % 2 == 0).tolist()), frozenset(np.flatnonzero(level % 2).tolist())


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
