"""Exhaustive small-n verification of the extremal DSL-spread conjecture.

Connected bipartite graphs are enumerated one isomorphism class each: for a
part split a + b = n the biadjacency rows are the non-decreasing tuples of
nonzero b-bit masks, in lex order (a cheap exact reduction of labelled
duplicates). Each numpy block of tuples is reached by unranking its first
rank, so no chunk steps through the tuples before it. One vectorised pass
per block drops the disconnected tuples and brings the rest to a sorted
form by sorting the biadjacency columns once and then the rows once. Both
sorts permute rows or columns, so candidates with equal forms are in one
class. A second vectorised pass gives each of a chunk's distinct forms its
exact class key: the least, over the a! row orders, of the matrix with its
columns sorted and packed into one integer, and for a = b also of its
transpose. A connected bipartite graph has one bipartition, so equal keys
mean one class; the a! orders keep this to small a (a <= 5 for
n <= CONJECTURE_MAX_N). This key is the package's only isomorphism code.
Work is chunked by (a, range of _CHUNK row tuples), and a chunk returns
only its class keys, so chunks can run on a pool of threads that share no
state; the kernels are numpy calls, which release the GIL. The calling
thread reads the graphs of a chunk's new keys off the keys as one stack,
names them with one graph6 call, and solves those whose name is new as one
stack: one batched Seidel squaring for D(G) and one batched eigensolve of
Q(G), 730 classes for 49,333 candidates at n = 9. Each finished chunk is
appended to an optional checkpoint file at once, naming only the classes
no earlier record of the run holds.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import SpreadlabError
from .graph import Graph, _distances, _graph6_stack, complete_bipartite, write_graph6
from .linalg import _eigvalsh
from .spectral import kab_q_spectrum

CONJECTURE_MAX_N = 10
EQUALITY_TOL = 1e-6
# checkpoint records carry the labelling that named their classes; records
# named by another one are another run's, since their graph6 strings differ
_LABELLING = "sorted-columns"


# ---------------------------------------------------------------------------
# enumeration of connected bipartite graphs


def _spread_table(width: int, stride: int) -> np.ndarray:
    """Entry m: the width-bit mask m with each bit j moved to bit j * stride."""
    return np.array([sum(((m >> j) & 1) << j * stride for j in range(width)) for m in range(1 << width)],
                    dtype=np.int64)


def _row_block(a: int, b: int, start: int, end: int) -> np.ndarray:
    """Row tuples start..end of the lex-ordered non-decreasing tuples of a
    nonzero b-bit row masks, as an (end - start, a) int64 array.

    x_1 <= ... <= x_a maps to the a-subset {x_i + i - 2} of 0..N-1, with
    N = 2^b + a - 2, in the same order. The lex rank r of a subset is the
    colex rank C(N, a) - 1 - r of its reflection v -> N - 1 - v, and the
    combinatorial number system unranks colex: the largest member c of an
    i-subset of rank m is the largest c with C(c, i) <= m, and the rest is
    the (i - 1)-subset of rank m - C(c, i). One searchsorted per position
    unranks the whole block.
    """
    top = (1 << b) + a - 2
    comb = np.array([[math.comb(c, i) for c in range(top)] for i in range(a + 1)], dtype=np.int64)
    rank = math.comb(top, a) - 1 - np.arange(start, end, dtype=np.int64)
    rows = np.empty((end - start, a), dtype=np.int64)
    for p in range(a):
        c = np.searchsorted(comb[a - p], rank, side="right") - 1
        rank -= comb[a - p, c]
        # the member at place p is z = top - 1 - c, and x = z - p + 1
        rows[:, p] = top - p - c
    return rows


# row tuples per numpy pass; bounds the kernel's temporaries
_BLOCK = 4096
# row tuples per chunk: the unit of pool work and of checkpoint records
_CHUNK = 20000


def _chunk_forms(a: int, b: int, start: int, end: int) -> tuple[int, list[int]]:
    """(connected candidates, distinct sorted forms in order of first
    candidate) among row tuples start..end of _row_block(a, b, ...).

    A form is a candidate's biadjacency matrix after sorting its columns (as
    bitmasks over the rows) once and then its rows once, packed as one
    integer with row i at bit i * b. Both sorts permute rows or columns, so
    equal forms come only from one isomorphism class; a class may still have
    several forms, and _class_keys joins them. Transposing is a table lookup:
    OR-ing each row's _spread_table(b, a) entry, shifted by the row's index,
    gives one integer holding column j at bit j * a. For n <= CONJECTURE_MAX_N
    these a * b bits fit an int64.
    """
    to_cols, to_rows = _spread_table(b, a), _spread_table(a, b)
    col_mask, row_mask = (1 << a) - 1, (1 << b) - 1
    row_index, col_index = np.arange(a, dtype=np.int64), np.arange(b, dtype=np.int64)
    blocks = []
    for s in range(start, end, _BLOCK):
        rows = _row_block(a, b, s, min(s + _BLOCK, end))
        # connected iff the right vertices reachable from left vertex 0 are
        # all of them, since every row is nonzero; a - 1 rounds reach every
        # left vertex of its component
        reach = rows[:, 0]
        for _ in range(a - 1):
            reach = np.bitwise_or.reduce(np.where(rows & reach[:, None] != 0, rows, 0), axis=1)
        rows = rows[reach == row_mask]
        cols = np.bitwise_or.reduce(to_cols[rows] << row_index, axis=1)[:, None] >> col_index * a & col_mask
        t = np.bitwise_or.reduce(to_rows[np.sort(cols, axis=1)] << col_index, axis=1)
        rows = np.sort(t[:, None] >> row_index * b & row_mask, axis=1)
        blocks.append(np.bitwise_or.reduce(rows << row_index * b, axis=1))
    packed = np.concatenate(blocks)
    _, first = np.unique(packed, return_index=True)
    return len(packed), packed[np.sort(first)].tolist()


def _class_keys(a: int, b: int, forms: list[int]) -> list[int]:
    """Exact class key of each form (packed as in _chunk_forms): the least,
    over the a! orders of the rows, of the matrix with its columns (bitmasks
    over the rows) sorted and packed with column j at bit j * a, and, when
    a = b, the least of that and the same for the transpose.

    Two matrices get equal keys exactly when one is a row and column
    permutation of the other, or for a = b of the other's transpose. A
    connected bipartite graph has one bipartition, so equal keys mean
    one isomorphism class. Each block holds at most _BLOCK // a! forms, which
    keeps the (forms, orders, columns) temporaries at _BLOCK * b entries.
    """
    to_cols = _spread_table(b, a)
    col_mask, row_mask = (1 << a) - 1, (1 << b) - 1
    row_index = np.arange(a, dtype=np.int64)
    col_shift = np.arange(b, dtype=np.int64) * a
    # place[i, p]: 2 ** (the place of row i in the p-th row order)
    place = (1 << np.array(list(permutations(range(a))), dtype=np.int64)).T.copy()
    step = max(1, _BLOCK // place.shape[1])
    keys: list[int] = []
    for s in range(0, len(forms), step):
        rows = np.array(forms[s:s + step], dtype=np.int64)[:, None] >> row_index * b & row_mask
        # each row's bit j moved to bit j * a; the rows' fields are disjoint
        # once shifted to their places, so these integer products are ORs
        fields = [to_cols[rows]]
        if a == b:
            transposed = fields[0] @ (1 << row_index)
            fields.append(to_cols[transposed[:, None] >> col_shift & col_mask])
        best = None
        for f in fields:
            cols = np.sort((f @ place)[..., None] >> col_shift & col_mask, axis=2)
            least = (cols @ (1 << col_shift)).min(axis=1)
            best = least if best is None else np.minimum(best, least)
        keys += best.tolist()
    return keys


def _key_adjacency(a: int, b: int, keys: list[int]) -> np.ndarray:
    """The (len(keys), a + b, a + b) bool stack of adjacency matrices of the
    graphs whose biadjacency columns are packed in keys as in _class_keys:
    left vertex i is i, right vertex j is a + j."""
    bits = np.array(keys, dtype=np.int64).reshape(-1, 1, 1) >> np.arange(a * b).reshape(b, a) & 1
    adj = np.zeros((len(keys), a + b, a + b), dtype=bool)
    adj[:, a:, :a] = bits
    adj[:, :a, a:] = bits.transpose(0, 2, 1)
    return adj


def enumerate_connected_bipartite(n: int):
    """Yield one representative per isomorphism class of connected bipartite
    graphs on n vertices, in a deterministic order: the graph read off each
    class key (see _key_adjacency), in order of its first candidate."""
    if not (2 <= n <= CONJECTURE_MAX_N):
        raise ValueError(f"enumeration supports 2 <= n <= {CONJECTURE_MAX_N}, got {n}")
    for a in range(1, n // 2 + 1):
        for adj in _key_adjacency(a, n - a, _run_chunk((n, a, 0, _count_row_tuples(a, n - a)))[3]):
            yield Graph(n, np.argwhere(adj))


# ---------------------------------------------------------------------------
# monotonicity of the complete-bipartite spreads


def check_monotonicity(n: int) -> list[float]:
    """[S_Q(K_{1,n-1}), ..., S_Q(K_{floor,ceil})], strictly decreasing."""
    if n < 4:
        raise ValueError(f"monotonicity chain needs n >= 4, got {n}")
    values = [kab_q_spectrum(a, n - a).spread for a in range(1, n // 2 + 1)]
    for x, y in zip(values, values[1:]):
        if not x > y:
            raise SpreadlabError(f"spread chain is not strictly decreasing at n={n}: {values}")
    return values


# ---------------------------------------------------------------------------
# conjecture check


@dataclass(frozen=True)
class ConjectureReport:
    n: int
    graphs_checked: int
    candidates: int
    minimizer_graph6: str
    minimizer_spread: float
    reference: float
    verdict: str
    counterexamples: tuple[tuple[str, float], ...]
    elapsed_seconds: float
    chunks: int


def _count_row_tuples(a: int, b: int) -> int:
    # C(2^b - 1 + a - 1, a)
    return math.comb((1 << b) - 1 + a - 1, a)


def _run_chunk(args) -> tuple[int, int, int, list[int], int]:
    """The classes met in one (a, range) chunk, as class keys.

    Returns (a, start, end, class keys, candidates examined), the keys in
    order of their first candidate. It is a pure function of its chunk, so
    a pool thread holds no state; check_conjecture names and solves each
    class.
    """
    n, a, start, end = args
    candidates, forms = _chunk_forms(a, n - a, start, end)
    return a, start, end, list(dict.fromkeys(_class_keys(a, n - a, forms))), candidates


def _valid_record(classes, candidates) -> bool:
    """Whether classes maps graph6 strings to finite numbers and candidates
    is a count; JSON object keys are always strings, and bools are not
    numbers here."""
    return (isinstance(classes, dict)
            and all(type(sq) is int or type(sq) is float and math.isfinite(sq) for sq in classes.values())
            and type(candidates) is int and candidates >= 0)


def _read_checkpoint(path: str, n: int, wanted: set) -> dict:
    """{(a, start, end): (classes, candidates)} of the records in a checkpoint
    file that belong to this run's chunk list; records of another n, of
    another chunking or of another labelling (including records without a
    "labelling" field) are left alone, so those chunks are redone.

    A record is a JSON object with n, a, start and end, classes mapping
    graph6 to a finite S_Q, and a candidate count of at least 0. A final
    line that is no record is what a run killed mid-write leaves: it is cut
    off and its chunk redone. Such a line before it is an error. A final
    record without its newline gets one, so appends start a line.
    """
    done: dict[tuple[int, int, int], tuple[dict, int]] = {}
    if not os.path.exists(path):
        return done
    with open(path, "rb+") as fh:
        lines = fh.readlines()
        offset = 0
        for number, line in enumerate(lines, 1):
            if line.strip():
                try:
                    rec = json.loads(line)
                    key = (rec["a"], rec["start"], rec["end"])
                    ours = rec["n"] == n and key in wanted and rec.get("labelling") == _LABELLING
                    record = (rec["classes"], rec["candidates"])
                except (ValueError, KeyError, TypeError):
                    record = (None, None)
                if not _valid_record(*record):
                    if number < len(lines):
                        raise SpreadlabError(f"checkpoint {path}: line {number} is not a chunk record")
                    fh.truncate(offset)
                    return done
                if ours:
                    done[key] = record
            offset += len(line)
        if lines and not lines[-1].endswith(b"\n"):
            fh.write(b"\n")
    return done


def _dsl_spreads(adj: np.ndarray) -> np.ndarray:
    """S_Q of each connected graph in a (k, n, n) bool stack of adjacency
    matrices: Q = D + diag(row sums of D), solved as one stack."""
    d = _distances(adj)
    w = _eigvalsh(d + d.sum(axis=2)[:, :, None] * np.eye(adj.shape[-1], dtype=np.int64))
    return w[:, -1] - w[:, 0]


def _completed(chunks: list, threads: int):
    """Yield each chunk's _run_chunk result as soon as it is ready, from a
    pool of at most one thread per core."""
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        # imported only here, so concurrent.futures loads only with a pool
        from concurrent.futures import ThreadPoolExecutor, as_completed

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            for future in as_completed([pool.submit(_run_chunk, c) for c in chunks]):
                yield future.result()
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        for chunk in chunks:
            yield _run_chunk(chunk)


def check_conjecture(
    n: int,
    threads: int = 1,
    checkpoint: str | None = None,
) -> ConjectureReport:
    """Evaluate S_Q over every connected bipartite isomorphism class on n
    vertices and compare against S_Q(K_{floor(n/2), ceil(n/2)}).

    threads is the number of threads that run chunks, at most one per core.
    With a checkpoint file, each chunk's record is appended and synced as
    soon as the chunk completes, and the chunks it already holds are not
    run again. A record names only the classes that no earlier record of
    this run (same n, chunking and labelling) holds."""
    if not (2 <= n <= CONJECTURE_MAX_N):
        raise ValueError(f"conjecture check supports 2 <= n <= {CONJECTURE_MAX_N}, got {n}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    t0 = time.monotonic()

    chunks = [
        (n, a, start, min(start + _CHUNK, total))
        for a in range(1, n // 2 + 1)
        for total in (_count_row_tuples(a, n - a),)
        for start in range(0, total, _CHUNK)
    ]
    done = _read_checkpoint(checkpoint, n, {c[1:] for c in chunks}) if checkpoint is not None else {}
    pending = [c for c in chunks if c[1:] not in done]
    # this run's classes, graph6 -> S_Q: those its records on file name, then
    # each new one as the first chunk that meets it completes; a new record
    # names only classes that are not here yet
    classes: dict[str, float] = {}
    candidates_total = 0
    for named, candidates in done.values():
        classes.update(named)
        candidates_total += candidates
    # (a, class key) already named, so each key is encoded once
    seen: set[tuple[int, int]] = set()
    with open(checkpoint, "a") if checkpoint is not None else nullcontext() as ckpt_fh:
        for a, start, end, keys, candidates in _completed(pending, threads):
            candidates_total += candidates
            keys = [key for key in keys if (a, key) not in seen]
            seen.update((a, key) for key in keys)
            adj = _key_adjacency(a, n - a, keys)
            names = _graph6_stack(adj)
            fresh = [i for i, g6 in enumerate(names) if g6 not in classes]
            new = dict(zip([names[i] for i in fresh], _dsl_spreads(adj[fresh]).tolist()))
            classes.update(new)
            if ckpt_fh:
                ckpt_fh.write(json.dumps({
                    "n": n, "labelling": _LABELLING, "a": a, "start": start, "end": end,
                    "classes": new, "candidates": candidates,
                }) + "\n")
                ckpt_fh.flush()
                os.fsync(ckpt_fh.fileno())

    # K_{floor(n/2),ceil(n/2)}, left part first as read off its all-ones
    # key, is one of the classes, so its S_Q is already known
    reference_g6 = write_graph6(complete_bipartite(n // 2, n - n // 2))
    reference = classes[reference_g6]

    counterexamples = []
    for g6, sq in sorted(classes.items()):
        if sq < reference - EQUALITY_TOL:
            counterexamples.append((g6, sq))
        elif abs(sq - reference) <= EQUALITY_TOL and g6 != reference_g6:
            # a near-tie must be the extremal graph itself
            counterexamples.append((g6, sq))
    minimizer_g6, minimizer_sq = min(classes.items(), key=lambda kv: (kv[1], kv[0]))

    return ConjectureReport(
        n=n,
        graphs_checked=len(classes),
        candidates=candidates_total,
        minimizer_graph6=minimizer_g6,
        minimizer_spread=minimizer_sq,
        reference=reference,
        verdict="holds" if not counterexamples else "counterexample",
        counterexamples=tuple(counterexamples),
        elapsed_seconds=time.monotonic() - t0,
        chunks=len(chunks),
    )
