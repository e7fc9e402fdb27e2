import contextlib
import csv
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spreadlab import Graph, builtin, search, spread, verify_tables
from spreadlab.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, SCHEMA_VERSION, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_plain(capsys):
    code, out, _ = run(capsys, "spectrum", "--builtin", "G1", "--matrix", "dsl")
    assert code == EXIT_OK
    assert "spread: 18.6090" in out


def test_spectrum_k4_distance(capsys):
    code, out, _ = run(capsys, "spectrum", "--g6", "C~", "--matrix", "distance")
    assert code == EXIT_OK
    assert "3.0000" in out and "-1.0000^[3]" in out


def test_spectrum_json_schema_and_precision(capsys):
    code, out, _ = run(capsys, "spectrum", "--builtin", "G1", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["command"] == "spectrum" and doc["n"] == 7
    want = spread(builtin("G1"), "distance")
    assert doc["spread"] == want.spread  # full precision, not rounded
    assert len(doc["eigenvalues"]) == 7


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "star:4", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["eigenvalue"] and len(rows) == 5


def test_spectrum_edges_file(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "spectrum", "--edges", str(f))
    assert code == EXIT_OK
    want = spread(builtin("P4"), "distance").spread
    assert f"{want:.4f}" in out


def test_oversized_graph_exits_domain_without_building(tmp_path, capsys, monkeypatch):
    def refuse(self, n, edges):
        raise AssertionError(f"Graph({n}, ...) was built")

    monkeypatch.setattr(Graph, "__init__", refuse)
    f = tmp_path / "g.txt"
    f.write_text("0 1000000000\n")
    for argv in (["--edges", str(f)], ["--family", "complete:100000"], ["--g6", "~?^P"]):
        code, out, err = run(capsys, "spectrum", *argv)
        assert code == EXIT_DOMAIN and out == "" and "exceeds the limit" in err


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "r.json"
    code, out, _ = run(capsys, "spectrum", "--builtin", "K22", "--json", "--out", str(dest))
    assert code == EXIT_OK and out == ""
    assert json.loads(dest.read_text())["command"] == "spectrum"


# ---------------------------------------------------------------------------
# bound


def test_bound_plain_shows_witnesses(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "G1", "--method", "bipartite-distance")
    assert code == EXIT_OK
    assert "bound: 15.5965" in out
    assert "witness v1" in out and "a=" in out and "gap:" in out


def test_bound_clique_on_a_large_complete_graph(capsys):
    # K_n takes its closed form: omega = n leaves V\S empty
    code, out, err = run(capsys, "bound", "--method", "clique", "--family", "complete:1000")
    assert code == EXIT_OK and "Traceback" not in err
    assert "clique_number=1000" in out and "closed-form case" in out and "bound: 1000.0000" in out


@pytest.mark.parametrize("family, omega", [("kite:1200,1100", 1100), ("kite:2000,1999", 1999)])
def test_bound_clique_with_a_large_clique_number(capsys, family, omega):
    # the clique search holds one stack entry per clique vertex and does not
    # recurse, so omega near the vertex limit ends in a report
    code, out, err = run(capsys, "bound", "--method", "clique", "--family", family, "--format", "json")
    assert code == EXIT_OK and "Traceback" not in err
    payload = json.loads(out)
    assert payload["parameter"] == omega and len(payload["witnesses"]) == 1


def test_bound_json_payload(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "G3", "--method", "cactus", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "cactus" and doc["parameter"] == 4
    assert doc["witnesses"][0]["vertices"] == [1, 2, 3, 4]


def test_bound_legacy(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "G1", "--method", "legacy-2012", "--vertex", "1")
    assert code == EXIT_OK
    assert "9/2" in out and "25/4" in out and "equal: false" in out


def test_bound_legacy_default_vertex(capsys):
    code, out, _ = run(capsys, "bound", "--builtin", "G1", "--method", "legacy-2012")
    assert code == EXIT_OK
    assert "vertex: v1" in out  # first maximum-degree vertex


def test_bound_legacy_default_vertex_on_empty_graph(capsys, tmp_path):
    # with no vertices there is no default vertex: this used to raise
    # StopIteration out of main()
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "bound", "--edges", str(empty), "--method", "legacy-2012")
    assert code == EXIT_DOMAIN and out == "" and "out of range" in err


def test_bound_legacy_vertex_out_of_range(capsys):
    # G1 has 7 vertices: K = 0 used to wrap to v7, K = 99 to raise IndexError
    for k in ("0", "8", "99"):
        code, out, err = run(capsys, "bound", "--builtin", "G1", "--method", "legacy-2012", "--vertex", k)
        assert code == EXIT_DOMAIN and out == "" and "--vertex" in err


@pytest.mark.parametrize("method", ["bipartite-distance", "bipartite-dsl", "clique", "diameter", "cactus"])
def test_bound_vertex_needs_legacy_method(capsys, method):
    # --vertex picks the legacy formula's vertex; every other method used to
    # drop it without a word and exit 0
    code, out, err = run(capsys, "bound", "--builtin", "G1", "--method", method, "--vertex", "3")
    assert code == EXIT_USAGE and out == "" and "--vertex" in err


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "bound", "--builtin", "G1")
    assert code == EXIT_USAGE and "--method" in err
    code, _, _ = run(capsys, "nosuch")
    assert code == EXIT_USAGE


def test_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "bound", "--builtin", "G3", "--method", "bipartite-distance")
    assert code == EXIT_DOMAIN and "not bipartite" in err
    code, _, err = run(capsys, "spectrum", "--g6", "A_A_")
    assert code == EXIT_DOMAIN and "graph6" in err
    code, _, err = run(capsys, "bound", "--family", "complete:4", "--method", "cactus")
    assert code == EXIT_DOMAIN and "cactus" in err
    code, _, err = run(capsys, "spectrum", "--edges", "/nonexistent/file")
    assert code == EXIT_DOMAIN


def test_empty_graph_exits_domain_naming_it(capsys):
    # '?' is the graph on no vertices; it used to fail as "expected a square
    # matrix, got shape (0,)"
    runs = [("spectrum", "--matrix", m) for m in ("distance", "dsl")]
    runs += [("bound", "--method", m) for m in ("bipartite-distance", "bipartite-dsl", "clique", "diameter", "cactus")]
    for argv in runs:
        code, out, err = run(capsys, *argv, "--g6", "?")
        assert code == EXIT_DOMAIN and out == "", argv
        assert "the empty graph (0 vertices)" in err and "Traceback" not in err, argv


# the published reference table: every cell's name, value and tolerance, in
# reporting order, whether it reproduces or not
PUBLISHED_CELLS = [
    ("G1:S_D_bound", 15.596, 5e-4),
    ("G1:S_D", 17.682, 5e-4),
    ("G2:S_D_bound", 19.0059, 5e-4),
    ("G2:S_D", 20.9674, 5e-4),
    ("G1:S_Q_bound", 15.64, 5e-4),
    ("G1:S_Q", 18.61, 5e-4),
    ("G2:S_Q_bound", 17.852, 5e-4),
    ("G2:S_Q", 21.187, 5e-4),
    ("K22:q", 8.0, 1e-8),
    ("K22:q_min", 2.0, 1e-8),
    ("K22:S_Q", 6.0, 1e-8),
    ("P4:q", 10.6056, 5e-4),
    ("P4:q_min", 2.0, 5e-4),
    ("P4:S_Q", 8.6056, 5e-4),
    ("S4:q", 9.4641, 5e-4),
    ("S4:q_min", 2.5359, 5e-4),
    ("S4:S_Q", 6.9282, 5e-4),
    ("K23:q", 11.3723, 5e-4),
    ("K23:q_min", 3.0, 5e-4),
    ("K23:S_Q", 8.3723, 5e-4),
    ("H1:q", 13.3441, 5e-4),
    ("H1:q_min", 3.3113, 5e-4),
    ("H1:S_Q", 10.0328, 5e-4),
    ("H2:q", 15.3119, 5e-4),
    ("H2:q_min", 3.6075, 5e-4),
    ("H2:S_Q", 11.7044, 5e-4),
    ("P5:q", 17.1152, 5e-4),
    ("P5:q_min", 3.4385, 5e-4),
    ("P5:S_Q", 13.6767, 5e-4),
    ("S5:q", 13.4244, 5e-4),
    ("S5:q_min", 3.5756, 5e-4),
    ("S5:S_Q", 9.8488, 5e-4),
    ("Ki53:S_Q_clique_bound", 10.6158, 5e-4),
    ("Ki53:S_Q", 11.3395, 5e-4),
    ("G1:S_Q_diameter_bound", 12.1198, 5e-4),
    ("G3:S_Q_cactus_bound", 11.5, 0.05),
    ("G3:S_Q", 12.8, 0.05),
    ("G4:S_Q_cactus_bound", 13.4, 0.05),
    ("G4:S_Q", 16.3, 0.05),
]


def test_verify_tables_holds_the_published_table():
    assert [(r.name, r.expected, r.tol) for r in verify_tables()] == PUBLISHED_CELLS


def test_verify_tables_reports_failures_exit_3(capsys):
    code, out, _ = run(capsys, "verify-tables")
    assert code == EXIT_VERIFY  # a few published cells do not reproduce
    assert "FAIL" in out and "pass" in out


def test_verify_tables_passing_subset(capsys):
    code, out, _ = run(capsys, "verify-tables", "--only", "K23")
    assert code == EXIT_OK
    assert "3/3 cells pass" in out


def test_verify_tables_unknown_filter(capsys):
    code, _, err = run(capsys, "verify-tables", "--only", "G99")
    assert code == EXIT_USAGE


def test_verify_tables_json(capsys):
    code, out, _ = run(capsys, "verify-tables", "--only", "K22", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["failed"] == 0 and len(doc["cells"]) == 3


# ---------------------------------------------------------------------------
# conjecture


def test_conjecture_cli(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "5")
    assert code == EXIT_OK
    assert "verdict: holds" in out


def test_conjecture_cli_json(capsys):
    code, out, _ = run(capsys, "conjecture", "--n", "4", "--json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "holds" and doc["n"] == 4


def test_conjecture_cli_range_error(capsys):
    code, _, err = run(capsys, "conjecture", "--n", "99")
    assert code == EXIT_DOMAIN


def test_conjecture_cli_refuses_empty_checkpoint_path(capsys):
    # an empty path (say, an unset shell variable) names no file; it must
    # not run without a checkpoint, which a killed run could not resume
    code, _, err = run(capsys, "conjecture", "--n", "4", "--checkpoint", "")
    assert code == EXIT_DOMAIN and "No such file" in err and "Traceback" not in err


def test_conjecture_cli_rejects_threads_below_one(capsys):
    for threads in ("0", "-3"):
        code, _, err = run(capsys, "conjecture", "--n", "4", "--threads", threads)
        assert code == EXIT_DOMAIN and "threads" in err


@pytest.mark.parametrize("field, value", [("classes", []), ("candidates", "7")])
def test_conjecture_cli_wrong_typed_checkpoint_record(tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.setattr(search, "_CHUNK", 3)
    ckpt = tmp_path / "chk.jsonl"
    argv = ["conjecture", "--n", "5", "--checkpoint", str(ckpt)]
    assert run(capsys, *argv)[0] == EXIT_OK
    lines = ckpt.read_text().splitlines()
    lines[0] = json.dumps(json.loads(lines[0]) | {field: value})
    ckpt.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN and "line 1 " in err and "Traceback" not in err


def test_version(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "spreadlab" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a documented exit code, never a traceback

FAMILY_NAMES = ["complete", "path", "star", "cycle", "complete_bipartite", "kite", " Kite ", "wheel"]
COMMANDS = [["spectrum"], ["spectrum", "--matrix", "dsl", "--json"]] + [
    ["bound", "--method", m] for m in ("bipartite-distance", "bipartite-dsl", "clique", "diameter", "cactus")
] + [["bound", "--method", "legacy-2012"], ["bound", "--method", "legacy-2012", "--vertex", "2"]]

# parameters stay small so each example runs in milliseconds; oversized
# orders are covered by test_oversized_graph_exits_domain_without_building
family_descriptors = st.one_of(
    st.text(max_size=20),
    st.builds(
        lambda name, sep, params: name + sep + ",".join(params),
        st.sampled_from(FAMILY_NAMES),
        st.sampled_from([":", "", "::", ": "]),
        st.lists(st.one_of(st.integers(-3, 30).map(str), st.text(max_size=3)), max_size=3),
    ),
)
edge_lists = st.one_of(
    st.text(max_size=40),
    st.lists(st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["n", "#", "\n", "x", "1.5"])),
             max_size=30).map(" ".join),
)
graph6_texts = st.one_of(
    st.text(max_size=20),
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=12),
    st.sampled_from([">>graph6<<", "~", "~~", "~?", "~~~~~~~~"]).flatmap(
        lambda head: st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=8).map(
            lambda tail: head + tail)),
)


def run_fuzzed(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_VERIFY), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS), graph6_texts)
def test_fuzz_graph6_input(command, text):
    run_fuzzed(command + [f"--g6={text}"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMMANDS), family_descriptors)
def test_fuzz_family_input(command, descriptor):
    run_fuzzed(command + [f"--family={descriptor}"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), text=edge_lists)
def test_fuzz_edge_list_input(tmp_path, command, text):
    edges = tmp_path / "edges.txt"
    edges.write_text(text, encoding="utf-8")
    run_fuzzed(command + ["--edges", str(edges)])
