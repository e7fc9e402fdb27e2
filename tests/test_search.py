import concurrent.futures
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading

import networkx as nx
import numpy as np
import pytest

from spreadlab import Graph, check_conjecture, check_monotonicity, enumerate_connected_bipartite, write_graph6
import spreadlab
from spreadlab import search
from spreadlab.cli import main
from spreadlab.errors import SpreadlabError
from spreadlab.spectral import KIND_DSL, spread

from .conftest import edges_of, names_balanced_complete_bipartite


# ---------------------------------------------------------------------------
# oracle: count connected bipartite isomorphism classes by brute force


def oracle_bipartite_class_count(n: int) -> int:
    """Count connected bipartite graphs on n vertices up to isomorphism by
    brute force. Every labelled graph is an edge mask over the n(n-1)/2 vertex
    pairs. Connectivity and 2-colourability are decided on all masks at once
    with vertex-bitmask BFS frontiers from vertex 0, and each surviving graph is
    keyed by its minimum over all n! relabellings, one numpy pass per
    permutation. Only feasible for n <= 6."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {pair: i for i, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    # nbr[v]: the neighbours of v as a vertex bitmask, one per edge mask
    nbr = [sum(bits[:, index[min(u, v), max(u, v)]] << u for u in range(n) if u != v) for v in range(n)]

    def neighbours(vertex_sets):
        out = np.zeros_like(masks)
        for v in range(n):
            out |= np.where((vertex_sets >> v) & 1, nbr[v], 0)
        return out

    seen = frontier = np.ones_like(masks)
    sides = [frontier, np.zeros_like(masks)]  # vertices at even and odd BFS depth
    for depth in range(1, n):
        frontier = neighbours(frontier) & ~seen
        seen = seen | frontier
        sides[depth % 2] = sides[depth % 2] | frontier
    connected = seen == (1 << n) - 1
    # a connected graph is 2-colourable iff no edge joins two vertices of one depth parity
    clash = np.zeros(len(masks), dtype=bool)
    for side in sides:
        clash |= (neighbours(side) & side) != 0
    kept = bits[connected & ~clash]
    orbit_min = None
    for perm in itertools.permutations(range(n)):
        weights = np.array([1 << index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in pairs],
                           dtype=np.int64)
        relabelled = kept @ weights
        orbit_min = relabelled if orbit_min is None else np.minimum(orbit_min, relabelled)
    return len(np.unique(orbit_min))


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts_match_oracle():
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_connected_bipartite(n)) == oracle_bipartite_class_count(n)


def test_enumeration_counts_frozen():
    # connected bipartite isomorphism classes on 2..9 vertices (OEIS A005142)
    want = {2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182, 9: 730}
    for n, k in want.items():
        assert sum(1 for _ in enumerate_connected_bipartite(n)) == k


def networkx_graph(g: Graph) -> nx.Graph:
    h = nx.empty_graph(g.n)
    h.add_edges_from(edges_of(g))
    return h


def test_enumeration_deterministic_and_pairwise_non_isomorphic():
    first = list(enumerate_connected_bipartite(6))
    assert first == list(enumerate_connected_bipartite(6))
    graphs = [networkx_graph(g) for g in first]
    assert not any(nx.is_isomorphic(g, h) for g, h in itertools.combinations(graphs, 2))


def test_enumeration_range_check():
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(1))
    with pytest.raises(ValueError):
        list(enumerate_connected_bipartite(11))


# ---------------------------------------------------------------------------
# sorted forms: the numpy kernel against a scalar reference


def rows_connected(a: int, b: int, rows) -> bool:
    """Whether the bipartite graph with left row masks rows is connected:
    a BFS over left indices via shared right neighbours."""
    cover = 0
    for r in rows:
        cover |= r
    if cover != (1 << b) - 1:
        return False
    seen_left = 1
    seen_right = frontier_right = rows[0]
    while True:
        new_left = 0
        for i in range(a):
            if not (seen_left >> i) & 1 and rows[i] & frontier_right:
                new_left |= 1 << i
        if not new_left:
            break
        seen_left |= new_left
        new_right = 0
        for i in range(a):
            if (new_left >> i) & 1:
                new_right |= rows[i]
        frontier_right = new_right & ~seen_right
        seen_right |= new_right
    return seen_left == (1 << a) - 1 and seen_right == (1 << b) - 1


def columns(a: int, b: int, rows) -> list[int]:
    return [sum(((rows[i] >> j) & 1) << i for i in range(a)) for j in range(b)]


def sorted_form(a: int, b: int, rows) -> tuple[int, ...]:
    """Rows after sorting the columns (as bitmasks over the rows) once and
    then the rows once."""
    cols = sorted(columns(a, b, rows))
    return tuple(sorted(sum(((cols[j] >> i) & 1) << j for j in range(b)) for i in range(a)))


def packed(b: int, form) -> int:
    return sum(r << (i * b) for i, r in enumerate(form))


def graph_from_rows(a: int, b: int, rows) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b) if (rows[i] >> j) & 1])


def row_tuples(a: int, b: int):
    """Non-decreasing tuples of a nonzero b-bit row masks, in lex order: the
    candidates search._row_block unranks."""
    return itertools.combinations_with_replacement(range(1, 1 << b), a)


def connected_row_tuples(n: int):
    for a in range(1, n // 2 + 1):
        b = n - a
        for rows in row_tuples(a, b):
            if rows_connected(a, b, rows):
                yield a, b, rows


def reference_chunk_forms(a: int, b: int, start: int, end: int):
    """search._chunk_forms one candidate at a time."""
    candidates, forms = 0, []
    for rows in itertools.islice(row_tuples(a, b), start, end):
        if rows_connected(a, b, rows):
            candidates += 1
            form = packed(b, sorted_form(a, b, rows))
            if form not in forms:
                forms.append(form)
    return candidates, forms


def test_row_block_unranks_every_tuple():
    # in full, and in windows across the chunk and block edges that chunks
    # and their numpy blocks start and end at
    for n in range(2, 10):
        for a in range(1, n // 2 + 1):
            b = n - a
            want = [list(rows) for rows in row_tuples(a, b)]
            assert len(want) == search._count_row_tuples(a, b)
            assert search._row_block(a, b, 0, len(want)).tolist() == want, (a, b)
            for size in (7, 97, search._BLOCK, search._CHUNK):
                for edge in range(size, len(want), size):
                    lo, hi = edge - 3, min(edge + 3, len(want))
                    assert search._row_block(a, b, lo, hi).tolist() == want[lo:hi], (a, b, lo, hi)
            assert search._row_block(a, b, len(want) - 1, len(want)).tolist() == want[-1:]


def test_sorted_form_permutes_rows_and_columns():
    for n in range(2, 8):
        for a, b, rows in connected_row_tuples(n):
            form = sorted_form(a, b, rows)
            assert list(form) == sorted(form)
            # some column permutation of the input, with its rows sorted
            assert any(
                tuple(sorted(sum(((r >> p) & 1) << j for j, p in enumerate(perm)) for r in rows)) == form
                for perm in itertools.permutations(range(b))
            ), (a, b, rows, form)


def chunks(n: int, size: int):
    for a in range(1, n // 2 + 1):
        total = search._count_row_tuples(a, n - a)
        for start in range(0, total, size):
            yield n, a, start, min(start + size, total)


@pytest.mark.parametrize("size, block", [(search._CHUNK, search._BLOCK), (97, search._BLOCK), (search._CHUNK, 7)])
def test_chunk_forms_match_scalar_reference(size, block, monkeypatch):
    # block 7 splits every chunk into many numpy passes, so forms that recur
    # across passes must keep their first place
    monkeypatch.setattr(search, "_BLOCK", block)
    for n in range(2, 9):
        for _, a, start, end in chunks(n, size):
            assert search._chunk_forms(a, n - a, start, end) == reference_chunk_forms(a, n - a, start, end), \
                (n, a, start, end)


def reference_class_key(a: int, b: int, rows) -> int:
    """search._class_keys one form at a time: the least, over every row
    order, of the sorted biadjacency columns packed with column j at bit
    j * a, and for a = b the least of that and the same for the transpose."""
    variants = [rows, columns(a, b, rows)] if a == b else [rows]
    return min(
        sum(c << (j * a) for j, c in enumerate(sorted(columns(a, b, [m[i] for i in order]))))
        for m in variants
        for order in itertools.permutations(range(a))
    )


def unpacked(a: int, b: int, form: int) -> list[int]:
    return [form >> (i * b) & ((1 << b) - 1) for i in range(a)]


def key_graph(a: int, b: int, key: int) -> Graph:
    """Left vertex i is i, right vertex j is a + j, column j at bit j * a."""
    return Graph(a + b, [(i, a + j) for j in range(b) for i in range(a) if (key >> (j * a + i)) & 1])


def all_forms(n: int):
    for a in range(1, n // 2 + 1):
        yield a, n - a, search._chunk_forms(a, n - a, 0, search._count_row_tuples(a, n - a))[1]


@pytest.mark.parametrize("block", [search._BLOCK, 7])
def test_class_keys_match_scalar_reference(block, monkeypatch):
    # block 7 puts one form in each numpy pass once a >= 3
    monkeypatch.setattr(search, "_BLOCK", block)
    for n in range(2, 9):
        for a, b, forms in all_forms(n):
            assert search._class_keys(a, b, forms) == [reference_class_key(a, b, unpacked(a, b, f)) for f in forms], \
                (n, a)


def degree_profile(g: nx.Graph) -> tuple:
    """Each vertex's degree with its neighbours' sorted degrees, sorted: an
    isomorphism invariant."""
    return tuple(sorted((d, tuple(sorted(g.degree(u) for u in g[v]))) for v, d in g.degree))


def test_class_keys_are_exact_against_the_general_labeller():
    # equal class keys exactly when the graphs are isomorphic, by networkx's
    # VF2 test: each form's graph is isomorphic to the graph read off its
    # key, and graphs read off distinct keys are pairwise non-isomorphic.
    # Graphs with different degree profiles are not isomorphic, so only
    # graphs with equal ones are compared
    for n in range(2, 10):
        seen: dict[tuple, list[nx.Graph]] = {}
        for a, b, forms in all_forms(n):
            keys = search._class_keys(a, b, forms)
            for form, key in zip(forms, keys):
                assert nx.is_isomorphic(networkx_graph(graph_from_rows(a, b, unpacked(a, b, form))),
                                        networkx_graph(key_graph(a, b, key))), (n, a, form)
            for key in dict.fromkeys(keys):
                g = networkx_graph(key_graph(a, b, key))
                bucket = seen.setdefault(degree_profile(g), [])
                assert not any(nx.is_isomorphic(g, h) for h in bucket), (n, a, key)
                bucket.append(g)


def reference_run_chunk(args):
    """_run_chunk without sorted forms or numpy: every candidate keyed with
    reference_class_key, each key kept at its first candidate."""
    n, a, start, end = args
    b = n - a
    keys, candidates = [], 0
    for rows in itertools.islice(row_tuples(a, b), start, end):
        if rows_connected(a, b, rows):
            candidates += 1
            key = reference_class_key(a, b, rows)
            if key not in keys:
                keys.append(key)
    return a, start, end, keys, candidates


@pytest.mark.parametrize("size", [search._CHUNK, 97])
def test_run_chunk_matches_labelling_every_candidate(size):
    # the same keys in the same order, and the same candidate count
    for n in range(2, 9):
        for chunk in chunks(n, size):
            assert search._run_chunk(chunk) == reference_run_chunk(chunk), chunk


def test_conjecture_checkpoints_name_and_solve_each_class_on_its_key_graph(tmp_path, monkeypatch):
    # every class is written as the graph6 of the graph read off its
    # reference key and solved on that graph, S_Q bit for bit
    for n in range(2, 9):
        want = {}
        for a in range(1, n // 2 + 1):
            for key in reference_run_chunk((n, a, 0, search._count_row_tuples(a, n - a)))[3]:
                g = key_graph(a, n - a, key)
                want[write_graph6(g)] = spread(g, KIND_DSL).spread.hex()
        for size in (search._CHUNK, 97):
            ckpt = tmp_path / f"chk-{n}-{size}.jsonl"
            monkeypatch.setattr(search, "_CHUNK", size)
            check_conjecture(n, checkpoint=str(ckpt))
            named = [(g6, sq.hex()) for r in checkpoint_records(ckpt) for g6, sq in r["classes"].items()]
            assert len(named) == len(want) and dict(named) == want, (n, size)


@pytest.mark.parametrize("size", [search._CHUNK, 97])
def test_conjecture_labels_each_form_and_solves_each_class_once(size, monkeypatch):
    # at chunk size 97, forms and classes recur across chunks. Chunks run on
    # two threads, which list the forms they key (one list.extend call each,
    # atomic under the GIL); every class is solved in the calling thread, in
    # stacks
    keyed, solved, caller = [], [], threading.get_ident()
    class_keys, eigvalsh = search._class_keys, search._eigvalsh

    def counted_class_keys(a, b, forms):
        keyed.extend([(a, form) for form in forms])
        return class_keys(a, b, forms)

    def caller_eigvalsh(x):
        if threading.get_ident() != caller:
            raise RuntimeError("a pool thread solved a class")
        solved.append(len(x))
        return eigvalsh(x)

    monkeypatch.setattr(search, "_class_keys", counted_class_keys)
    monkeypatch.setattr(search, "_eigvalsh", caller_eigvalsh)
    monkeypatch.setattr(search, "_CHUNK", size)
    report = check_conjecture(8, threads=2)
    # each chunk keys its distinct forms once
    assert len(keyed) == sum(len(search._chunk_forms(a, 8 - a, start, end)[1])
                             for _, a, start, end in chunks(8, size))
    assert set(keyed) == {(a, f) for a, _, forms in all_forms(8) for f in forms}
    # one stack per chunk, and the K_{4,4} reference is read off its own
    # class, not solved again
    assert len(solved) == report.chunks
    assert sum(solved) == report.graphs_checked == 182


def test_stacked_spreads_equal_spread_bit_for_bit():
    # every class with n <= 8, solved as one stack per part size, against
    # spread() on the graph read off its key
    for n in range(2, 9):
        for a in range(1, n // 2 + 1):
            keys = search._run_chunk((n, a, 0, search._count_row_tuples(a, n - a)))[3]
            stacked = search._dsl_spreads(search._key_adjacency(a, n - a, keys)).tolist()
            want = [spread(key_graph(a, n - a, key), KIND_DSL).spread for key in keys]
            assert [x.hex() for x in stacked] == [x.hex() for x in want], (n, a)


# ---------------------------------------------------------------------------
# monotonicity of complete-bipartite spreads


def test_monotonicity_chain():
    for n in range(4, 41):
        values = check_monotonicity(n)
        assert len(values) == n // 2
        assert all(x > y for x, y in zip(values, values[1:]))
    with pytest.raises(ValueError):
        check_monotonicity(3)


# ---------------------------------------------------------------------------
# conjecture check


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_conjecture_holds_small(n):
    report = check_conjecture(n)
    assert report.verdict == "holds"
    assert not report.counterexamples
    assert names_balanced_complete_bipartite(report.minimizer_graph6)


def test_conjecture_range_check():
    with pytest.raises(ValueError):
        check_conjecture(1)


def test_conjecture_n9_serial_and_parallel_agree():
    serial = check_conjecture(9, threads=1)
    parallel = check_conjecture(9, threads=2)
    assert report_fields(parallel) == report_fields(serial)
    assert (serial.graphs_checked, serial.candidates, serial.verdict) == (730, 49333, "holds")
    assert names_balanced_complete_bipartite(serial.minimizer_graph6)


def test_conjecture_checkpoint_resume(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    ckpt = tmp_path / "chk.jsonl"
    # run with a tiny chunk size so several chunks are written
    full = check_conjecture(6, checkpoint=str(ckpt))
    lines = [json.loads(l) for l in ckpt.read_text().splitlines()]
    assert len(lines) == full.chunks
    # drop the tail of the checkpoint and resume: the report must be identical
    kept = lines[: len(lines) // 2]
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in kept))
    resumed = check_conjecture(6, checkpoint=str(ckpt))
    assert resumed.graphs_checked == full.graphs_checked
    assert resumed.minimizer_graph6 == full.minimizer_graph6
    assert resumed.minimizer_spread == full.minimizer_spread
    assert resumed.verdict == full.verdict


def report_fields(report) -> dict:
    fields = dataclasses.asdict(report)
    del fields["elapsed_seconds"]
    return fields


def test_conjecture_checkpoints_each_chunk_as_it_completes(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    fresh = check_conjecture(6)
    ckpt = tmp_path / "chk.jsonl"
    run_chunk, calls = search._run_chunk, []

    def killed_after_four(args):
        if len(calls) == 4:
            raise RuntimeError("killed")
        calls.append(args)
        return run_chunk(args)

    monkeypatch.setattr(search, "_run_chunk", killed_after_four)
    with pytest.raises(RuntimeError, match="killed"):
        check_conjecture(6, checkpoint=str(ckpt))
    records = [json.loads(line) for line in ckpt.read_text().splitlines()]
    assert [(r["a"], r["start"], r["end"]) for r in records] == [c[1:] for c in calls]
    monkeypatch.setattr(search, "_run_chunk", run_chunk)
    resumed = check_conjecture(6, checkpoint=str(ckpt))
    assert report_fields(resumed) == report_fields(fresh)
    assert len(ckpt.read_text().splitlines()) == fresh.chunks


def test_conjecture_resume_with_other_chunk_size_does_not_double_count(tmp_path, monkeypatch):
    ckpt = tmp_path / "chk.jsonl"
    monkeypatch.setattr(search, "_CHUNK", 50)
    first = check_conjecture(7, checkpoint=str(ckpt))
    monkeypatch.setattr(search, "_CHUNK", 70)
    second = check_conjecture(7, checkpoint=str(ckpt))
    assert first.candidates == second.candidates == 439
    assert report_fields(second) == report_fields(first) | {"chunks": second.chunks}
    # a third run with either chunking finds all of its chunks on file
    lines = ckpt.read_text()
    monkeypatch.setattr(search, "_CHUNK", 50)
    check_conjecture(7, checkpoint=str(ckpt))
    assert ckpt.read_text() == lines


def checkpoint_records(path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_conjecture_checkpoint_names_each_class_once(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 97)
    fresh = check_conjecture(8)
    ckpt = tmp_path / "chk.jsonl"
    full = check_conjecture(8, checkpoint=str(ckpt))
    records = checkpoint_records(ckpt)
    named = [g6 for r in records for g6 in r["classes"]]
    assert len(named) == len(set(named)) == 182
    # drop the tail and resume on two workers: the redone records name only
    # the classes the kept ones lack
    kept = records[: len(records) // 3]
    ckpt.write_text("".join(json.dumps(r) + "\n" for r in kept))
    resumed = check_conjecture(8, threads=2, checkpoint=str(ckpt))
    assert report_fields(resumed) == report_fields(full) == report_fields(fresh)
    records = checkpoint_records(ckpt)
    assert sorted((r["a"], r["start"], r["end"]) for r in records) == [c[1:] for c in chunks(8, 97)]
    named = [g6 for r in records for g6 in r["classes"]]
    assert len(named) == len(set(named)) == resumed.graphs_checked == 182
    assert all(r["labelling"] == search._LABELLING for r in records)


def old_run_chunk(args):
    """A chunk as recorded in another labelling, as by versions before
    records carried one: each class named by the graph6 of its first
    candidate and solved on that graph."""
    n, a, start, end = args
    b = n - a
    classes, seen, candidates = {}, set(), 0
    for rows in itertools.islice(row_tuples(a, b), start, end):
        if rows_connected(a, b, rows):
            candidates += 1
            key = reference_class_key(a, b, rows)
            if key not in seen:
                seen.add(key)
                g = graph_from_rows(a, b, rows)
                classes[write_graph6(g)] = spread(g, KIND_DSL).spread
    return a, start, end, classes, candidates


def test_conjecture_redoes_records_of_another_labelling(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 50)
    fresh = check_conjecture(7)
    old = [old_run_chunk(c) for c in chunks(7, 50)]
    ckpt = tmp_path / "chk.jsonl"
    ckpt.write_text("".join(
        json.dumps({"n": 7, "a": a, "start": start, "end": end, "classes": classes, "candidates": candidates}) + "\n"
        for a, start, end, classes, candidates in old[: len(old) // 2]
    ) + json.dumps({"n": 7, "labelling": "another", "a": old[-1][0], "start": old[-1][1], "end": old[-1][2],
                    "classes": old[-1][3], "candidates": old[-1][4]}) + "\n")
    before = ckpt.read_text()
    resumed = check_conjecture(7, checkpoint=str(ckpt))
    # merged with the old names, the classes and candidates would count twice
    assert report_fields(resumed) == report_fields(fresh)
    assert resumed.graphs_checked == 44 and resumed.candidates == 439
    # the other records are left as they were, and every chunk is redone
    text = ckpt.read_text()
    assert text.startswith(before)
    redone = [json.loads(line) for line in text[len(before):].splitlines()]
    assert sorted((r["a"], r["start"], r["end"]) for r in redone) == [c[1:] for c in chunks(7, 50)]


def test_conjecture_resume_after_torn_last_line(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    ckpt = tmp_path / "chk.jsonl"
    fresh = check_conjecture(6, checkpoint=str(ckpt))
    text = ckpt.read_text()
    # a kill mid-write leaves part of the last record and no newline
    ckpt.write_text(text[: len(text) - 40])
    resumed = check_conjecture(6, checkpoint=str(ckpt))
    assert report_fields(resumed) == report_fields(fresh)
    lines = ckpt.read_text().splitlines()
    assert len(lines) == fresh.chunks
    assert sorted(lines) == sorted(text.splitlines())
    # a complete last record without its newline is kept, and the next
    # record starts on a line of its own
    ckpt.write_text("\n".join(lines[:-1]))
    resumed = check_conjecture(6, checkpoint=str(ckpt))
    assert report_fields(resumed) == report_fields(fresh)
    assert sorted(ckpt.read_text().splitlines()) == sorted(lines)


def test_conjecture_rejects_unparsable_checkpoint_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    ckpt = tmp_path / "chk.jsonl"
    check_conjecture(5, checkpoint=str(ckpt))
    lines = ckpt.read_text().splitlines()
    lines[1] = lines[1][:20]
    ckpt.write_text("\n".join(lines) + "\n")
    with pytest.raises(SpreadlabError, match="line 2"):
        check_conjecture(5, checkpoint=str(ckpt))
    assert main(["conjecture", "--n", "5", "--checkpoint", str(ckpt)]) == 2
    assert "line 2" in capsys.readouterr().err


# a record with every field, one of them of a wrong type
WRONG_TYPED = [("classes", []), ("candidates", "7"), ("classes", {"A_": True}), ("classes", {"A_": float("nan")}),
               ("candidates", -1), ("candidates", True), ("candidates", 7.0)]


def write_records(path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize("field, value", WRONG_TYPED)
def test_conjecture_wrong_typed_checkpoint_record(tmp_path, field, value, monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    fresh = check_conjecture(5)
    ckpt = tmp_path / "chk.jsonl"
    check_conjecture(5, checkpoint=str(ckpt))
    records = checkpoint_records(ckpt)
    # before the last line it is an error naming the line
    write_records(ckpt, [records[0] | {field: value}] + records[1:])
    with pytest.raises(SpreadlabError, match="line 1 "):
        check_conjecture(5, checkpoint=str(ckpt))
    # as the last line it is cut off and its chunk redone
    write_records(ckpt, records[:-1] + [records[-1] | {field: value}])
    assert report_fields(check_conjecture(5, checkpoint=str(ckpt))) == report_fields(fresh)
    assert checkpoint_records(ckpt) == records


def test_conjecture_parallel_matches_serial(tmp_path, monkeypatch):
    serial = check_conjecture(6, threads=1)
    ckpt = tmp_path / "chk.jsonl"
    monkeypatch.setattr(search, "_CHUNK", 5)
    parallel = check_conjecture(6, threads=2, checkpoint=str(ckpt))
    assert len(ckpt.read_text().splitlines()) == parallel.chunks
    assert serial.graphs_checked == parallel.graphs_checked
    assert serial.minimizer_graph6 == parallel.minimizer_graph6
    assert serial.verdict == parallel.verdict


class InThreadPool:
    """Stands in for ThreadPoolExecutor: records max_workers and runs each
    submitted call at once, in the calling thread."""

    requested: list[int] = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_capped_at_core_count(monkeypatch):
    monkeypatch.setattr(search, "_CHUNK", 3)
    serial = check_conjecture(6, threads=1)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InThreadPool)
    monkeypatch.setattr(InThreadPool, "requested", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    pooled = check_conjecture(6, threads=10_000)
    assert InThreadPool.requested == [3] and pooled.chunks > 3
    assert report_fields(pooled) == report_fields(serial)
    # one core, or a count os cannot tell: no pool at all
    for cores in (1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert report_fields(check_conjecture(6, threads=10_000)) == report_fields(serial)
    assert InThreadPool.requested == [3]


def test_threads_beyond_the_core_count_match_serial(tmp_path, monkeypatch):
    # eight threads over tiny chunks, switching as often as the interpreter
    # allows: chunks share no state, so a lost or doubled class would show
    # in the report or as a class named twice in the checkpoint
    monkeypatch.setattr(search, "_CHUNK", 5)
    serial = check_conjecture(7, threads=1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = check_conjecture(7, threads=8, checkpoint=str(tmp_path / "chk.jsonl"))
    finally:
        sys.setswitchinterval(interval)
    assert report_fields(pooled) == report_fields(serial)
    named = [g6 for r in checkpoint_records(tmp_path / "chk.jsonl") for g6 in r["classes"]]
    assert len(named) == len(set(named)) == serial.graphs_checked == 44


def test_import_leaves_multiprocessing_unloaded():
    code = "import sys, spreadlab; print([m in sys.modules for m in ('multiprocessing', 'concurrent.futures')])"
    src = os.path.dirname(os.path.dirname(spreadlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[False, False]"


def test_conjecture_refuses_empty_checkpoint_path():
    with pytest.raises(FileNotFoundError):
        check_conjecture(4, checkpoint="")


def test_conjecture_rejects_threads_below_one():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            check_conjecture(4, threads=threads)
