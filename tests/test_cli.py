import json

import pytest

from mcplab.cli import main
from mcplab.graphs import parse_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    rc = main([
        "gen", "--n", "8", "--alpha", "0.5,0.5", "--p", "0.8",
        "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestGen:
    def test_writes_parseable_graph(self, graph_file):
        g = parse_graph(graph_file.read_text())
        assert g.n == 8 and g.q == 2

    def test_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "--n", "6", "--alpha", "0.5,0.5", "--omega", "2*llog", "--seed", "5"]
        assert main(args + ["--out", str(p1)]) == 0
        assert main(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_out_prints_graph(self, graph_file, capsys):
        capsys.readouterr()
        rc = main(["gen", "--n", "8", "--alpha", "0.5,0.5", "--p", "0.8", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.encode() == graph_file.read_bytes()

    def test_bad_alpha_is_usage_error(self, tmp_path):
        rc = main(["gen", "--n", "4", "--alpha", "0.5,0.6", "--p", "0.5",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2

    def test_out_of_range_omega_is_usage_error(self, tmp_path):
        rc = main(["gen", "--n", "4", "--alpha", "1.0", "--omega", "1000",
                   "--out", str(tmp_path / "x.txt")])
        assert rc == 2


class TestMatch:
    def test_perfect_matching_found(self, graph_file, capsys):
        rc = main(["match", str(graph_file), "--color", "1"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("size 8")

    def test_missing_color_class_fails(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n0 1 2\n1 0 2\n")
        rc = main(["match", str(path), "--color", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and "deficient A-set: [1]\n" in err

    def test_deficient_set_printed(self, tmp_path, capsys):
        # A sparse n = 8 graph whose color-1 witness has six A-vertices.
        path = tmp_path / "g.txt"
        assert main([
            "gen", "--n", "8", "--alpha", "0.5,0.5", "--p", "0.3",
            "--seed", "1", "--out", str(path),
        ]) == 0
        rc = main(["match", str(path), "--color", "1"])
        err = capsys.readouterr().err
        assert rc == 1 and err.endswith("deficient A-set: [0, 2, 3, 4, 5, 6]\n")

    def test_any_color_matching(self, graph_file, capsys):
        rc = main(["match", str(graph_file)])
        assert rc == 0
        assert capsys.readouterr().out.startswith("size 8")

    def test_missing_file_io_error(self):
        assert main(["match", "/nonexistent/graph.txt", "--color", "1"]) == 3


class TestWalk:
    def test_success(self, graph_file, capsys):
        rc = main(["walk", str(graph_file), "--target", "4,4", "--seed", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out.splitlines()[0])
        assert report["steps_succeeded"] == 4

    def test_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n1 1 1\n0 1 2\n1 0 2\n")
        rc = main(["walk", str(path), "--target", "1,1"])
        err = capsys.readouterr().err
        assert rc == 1 and "step_exhausted" in err

    def test_matching_written(self, graph_file, tmp_path):
        out_path = tmp_path / "m.txt"
        rc = main(["walk", str(graph_file), "--target", "5,3",
                   "--seed", "2", "--out", str(out_path)])
        assert rc == 0
        pairs = [line.split() for line in out_path.read_text().splitlines()]
        assert len(pairs) == 8


@pytest.fixture
def oversized_file(tmp_path):
    """A 21-vertex graph: past the exact oracle's and the witness searches' limits."""
    path = tmp_path / "big.txt"
    path.write_text("21 1\n0 0 1\n")
    return path


class TestMcp:
    def test_lexicographic_lines(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n1 1 1\n0 1 2\n1 0 2\n")
        rc = main(["mcp", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines() == ["0,2", "2,0"]

    def test_oversized_is_usage_error(self, oversized_file, capsys):
        rc = main(["mcp", str(oversized_file)])
        assert rc == 2
        assert "n=21 exceeds limit 20" in capsys.readouterr().err


class TestAudit:
    def test_isolated_json(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n0 1 2\n1 0 2\n")
        rc = main(["audit", str(path), "--isolated"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["isolated"]["1"] == {"a": [1], "b": [1]}

    def test_witness_searches(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n1 1 1\n0 1 2\n1 0 2\n")
        rc = main([
            "audit", str(path), "--color", "1",
            "--empty-cut", "1", "1", "--dense-cut", "2", "2", "2",
        ])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["empty_cut"] == {"s": [0], "t": [1]}
        assert out["dense_cut"] == {"s": [0, 1], "t": [0, 1]}

    def test_high_degree_json(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n1 1 1\n0 1 2\n1 0 2\n")
        assert main(["audit", str(path), "--color", "1", "--high-degree", "2", "2", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "high_degree": {"x": [0, 1], "y": [0, 1]}
        }
        # one B-vertex holds one color-1 edge from each A-vertex, never two
        assert main(["audit", str(path), "--color", "1", "--high-degree", "2", "1", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"high_degree": None}

    def test_greedy_empty_cut_json(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n1 1 1\n0 1 2\n1 0 2\n")
        rc = main(["audit", str(path), "--color", "1", "--empty-cut", "1", "1", "--greedy"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "empty_cut": {"s": [1], "t": [0]},
            "empty_cut_mode": "greedy-incomplete",
        }

    def test_oversized_exhaustive_is_usage_error(self, oversized_file, capsys):
        assert main(["audit", str(oversized_file), "--empty-cut", "2", "2"]) == 2
        assert "exceeds exhaustive search limit 14" in capsys.readouterr().err
        # the greedy peel has no size limit
        assert main(["audit", str(oversized_file), "--empty-cut", "2", "2", "--greedy"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["empty_cut_mode"] == "greedy-incomplete"
        assert out["empty_cut"] == {"s": list(range(1, 21)), "t": list(range(21))}

    def test_negative_size_finds_nothing(self, graph_file, capsys):
        # A negative size gets None, as in the sibling searches, not a traceback.
        rc = main(["audit", str(graph_file), "--color", "1", "--low-degree", "2", "-1", "1", "3"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {"low_degree": None}

    def test_no_selection_usage_error(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("2 2\n0 0 1\n")
        assert main(["audit", str(path)]) == 2


class TestSweep:
    def test_csv_written_and_deterministic(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "n = 20\nalpha = 0.5,0.5\nomega_grid = -llog, 3*llog\n"
            "trials = 2\nbase_seed = 11\nprofile_suite = corners\n"
            "checks = per_color_pm,walk,isolated\n"
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == "omega,p,trial,seed,check,target_profile,success,steps,retries,ms"

    def test_flag_overrides(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--n", "16", "--alpha", "0.5,0.5", "--omega-grid", "4",
            "--trials", "1", "--seed", "5", "--checks", "per_color_pm",
            "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()

    def test_stdout_equals_out_file(self, tmp_path, capsys):
        argv = [
            "sweep", "--n", "16", "--alpha", "0.5,0.5", "--omega-grid", "0,4",
            "--trials", "2", "--seed", "5", "--checks", "per_color_pm,walk,isolated",
        ]
        out = tmp_path / "s.csv"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_dash_out_prints_and_writes_no_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--n", "20", "--alpha", "0.5,0.5", "--trials", "1"]
        assert main(argv + ["--out", "f.csv"]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / "f.csv").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_validation_error_exit_2(self, tmp_path):
        rc = main([
            "sweep", "--n", "16", "--alpha", "0.9,0.2", "--omega-grid", "4",
            "--trials", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "s.jsonl"
        rc = main([
            "sweep", "--n", "16", "--alpha", "0.5,0.5", "--omega-grid", "4",
            "--trials", "1", "--seed", "5", "--checks", "per_color_pm,walk",
            "--format", "jsonl", "--out", str(out),
        ])
        assert rc == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("check" in r for r in rows)

    def test_explicit_suite(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main([
            "sweep", "--n", "16", "--alpha", "0.5,0.5", "--omega-grid", "4",
            "--trials", "2", "--seed", "5", "--suite", "explicit:10,6;8,8",
            "--checks", "walk", "--out", str(out),
        ])
        assert rc == 0
        rows = [line.split(",")[5:8] for line in out.read_text().splitlines()[1:]]
        # Every trial walks both corners, then the explicit profiles in order,
        # each reached in n - max steps.
        want = [["16;0", "1", "0"], ["0;16", "1", "0"], ["10;6", "1", "6"], ["8;8", "1", "8"]]
        assert rows == want * 2

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["sweep", "--format", "xml"])
        assert info.value.code == 2


MALFORMED = {
    "gen-alpha": ["gen", "--n", "4", "--alpha", "0.5,x", "--p", "0.5"],
    "gen-no-p-or-omega": ["gen", "--n", "4", "--alpha", "0.5,0.5"],
    "gen-omega": ["gen", "--n", "4", "--alpha", "0.5,0.5", "--omega", "abc"],
    "gen-llog-n1": ["gen", "--n", "1", "--alpha", "1", "--omega", "llog"],
    "walk-target": ["walk", "{graph}", "--target", "5,x"],
    "walk-negative-target": ["walk", "{graph}", "--target", "9,-1"],
    "match-colors": ["match", "{graph}", "--colors", "1,x"],
    "audit-empty-cut": ["audit", "{graph}", "--empty-cut", "2", "x"],
    "sweep-omega-grid": ["sweep", "--n", "10", "--alpha", "0.5,0.5", "--omega-grid=abc"],
    "sweep-suite-random": ["sweep", "--n", "10", "--alpha", "0.5,0.5", "--suite", "random:x"],
    "sweep-suite-explicit": ["sweep", "--n", "10", "--alpha", "0.5,0.5", "--suite", "explicit:1,a"],
    "sweep-config-workers": ["sweep", "--config", "{config}"],
    "sweep-mcp-exact-q5": [
        "sweep", "--n", "10", "--alpha", "0.2,0.2,0.2,0.2,0.2",
        "--checks", "mcp_exact", "--trials", "1",
    ],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_token_is_usage_error(argv, graph_file, tmp_path):
    config = tmp_path / "cfg.txt"
    config.write_text("n = 10\nalpha = 0.5,0.5\nworkers = two\n")
    argv = [a.format(graph=graph_file, config=config) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the token itself
        rc = exc.code
    assert rc == 2
