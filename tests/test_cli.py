import csv
import io
import json

from spreadlab import builtin, spread
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


def test_bound_legacy_vertex_out_of_range(capsys):
    # G1 has 7 vertices: K = 0 used to wrap to v7, K = 99 to raise IndexError
    for k in ("0", "8", "99"):
        code, out, err = run(capsys, "bound", "--builtin", "G1", "--method", "legacy-2012", "--vertex", k)
        assert code == EXIT_DOMAIN and out == "" and "--vertex" in err


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


def test_conjecture_cli_rejects_chunk_size_zero(capsys):
    code, _, err = run(capsys, "conjecture", "--n", "4", "--chunk-size", "0")
    assert code == EXIT_DOMAIN and "chunk size" in err


def test_version(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "spreadlab" in capsys.readouterr().out
