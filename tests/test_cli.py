import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import multifuse
from multifuse import cli, pipeline
from multifuse.cli import main
from multifuse.errors import DegenerateSpectrum, MultifuseError
from multifuse.pipeline import load_similarity_csv, write_similarity_csv

DATA = Path(__file__).parent / "data" / "synthetic"


def inputs(k=3):
    return sorted(str(p) for p in DATA.glob("*.csv"))[:k]


def matrix_csv(tmp_path, name, s, labels=None):
    labels = labels or tuple(f"n{i}" for i in range(np.shape(s)[0]))
    path = tmp_path / name
    write_similarity_csv(path, labels, s)
    return str(path)


def block_matrix():
    s = np.full((6, 6), 0.1)
    s[:3, :3] = 0.9
    s[3:, 3:] = 0.9
    np.fill_diagonal(s, 1.0)
    return s


def command_args(command, tmp_path, paths):
    """``run`` (through a config file) or ``fuse --method snf`` over ``paths``."""
    if command == "fuse":
        return ["fuse", "--method", "snf", "--inputs", *paths, "--out", str(tmp_path / "out")]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"inputs": paths, "output_dir": str(tmp_path / "out")}))
    return ["run", "--config", str(cfg_path)]


class TestFuse:
    def test_snf(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fuse", "--method", "snf", "--inputs", *inputs(), "--out", str(out)])
        assert code == 0
        assert (out / "monoplex_snf.csv").is_file()
        layer = load_similarity_csv(out / "monoplex_snf.csv")
        assert layer.n == 16
        report = json.loads((out / "fuse_report.json").read_text())
        assert report["method"] == "snf" and report["converged"] is True
        assert "converged" in capsys.readouterr().out

    def test_sma_with_weights_choice(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["fuse", "--method", "sma-w", "--inputs", *inputs(), "--weights", "uniform", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "fuse_report.json").read_text())
        assert np.allclose(report["weights"], 1.0 / 3.0)

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "fuse", "--method", "sma-r", "--inputs", *inputs(),
                "--max-iter", "1", "--tol", "1e-14", "--strict", "--out", str(out),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("strict, status", [(True, 3), (False, 0)], ids=["strict", "lenient"])
    def test_capped_solver_exit_code(self, tmp_path, capsys, strict, status):
        out = tmp_path / "out"
        args = ["fuse", "--method", "sma-w", "--inputs", *inputs(), "--max-iter", "1", "--out", str(out)]
        assert main(args + ["--strict"] * strict) == status
        captured = capsys.readouterr()
        assert "sma-wasserstein: NOT converged after 1 iterations (residual " in captured.out
        assert (out / "monoplex_sma-wasserstein.csv").is_file()
        expected = "error: did not converge within the iteration cap: sma-wasserstein\n"
        assert captured.err == (expected if strict else "")

    def test_out_of_range_barycenter_setting_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fuse", "--method", "snf", "--inputs", *inputs(), "--tol", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: [config: sma] tol must be positive\n"
        assert not out.exists()

    def test_non_ascii_ids_under_ascii_locale(self, tmp_path):
        a = tmp_path / "a.csv"
        a.write_bytes("entity,s1,s2\nspü1,1.0,0.5\nx,0.2,0.9\ny,0.7,0.1\n".encode())
        b = tmp_path / "b.csv"
        b.write_bytes("entity,s1\nspü1,1.0\nx,0.5\ny,0.2\n".encode())
        out = tmp_path / "out"
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(multifuse.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "multifuse.cli", "fuse", "--method", "sma-f",
             "--inputs", str(a), str(b), "--out", str(out)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "spü1".encode() in (out / "monoplex_sma-frobenius.csv").read_bytes()

    def test_missing_input_exit_code(self, tmp_path):
        code = main(
            ["fuse", "--method", "snf", "--inputs", "nope.csv", "also_nope.csv", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["fuse", "--method", "sma-f", "--inputs", *inputs(2), "--out", str(blocker / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_auto_sigma_is_the_default(self, tmp_path):
        base = ["fuse", "--method", "sma-f", "--inputs", *inputs(2)]
        assert main([*base, "--sigma", "auto", "--out", str(tmp_path / "auto")]) == 0
        assert main([*base, "--out", str(tmp_path / "default")]) == 0
        for name in ("monoplex_sma-frobenius.csv", "fuse_report.json"):
            assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()

    def test_non_numeric_sigma_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["fuse", "--method", "sma-f", "--inputs", *inputs(2), "--sigma", "abc", "--out", str(out)])
        assert info.value.code == 2
        assert "argument --sigma: sigma must be a number or 'auto'" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_sigma_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fuse", "--method", "sma-f", "--inputs", *inputs(2), "--sigma", "inf", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sigma must be finite, got inf\n"
        assert not out.exists()

    def test_singular_layer_exit_code(self, tmp_path):
        # duplicate site profiles make the RBF layer singular; with no jitter
        # the Riemannian solver must refuse
        a = tmp_path / "a.csv"
        a.write_text("entity,s1,s2\nx,1.0,1.0\ny,1.0,1.0\nz,0.2,0.1\n")
        b = tmp_path / "b.csv"
        b.write_text("entity,s1\nx,1.0\ny,0.5\nz,0.2\n")
        code = main(
            [
                "fuse", "--method", "sma-r", "--inputs", str(a), str(b),
                "--jitter", "0", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 3


    @pytest.mark.parametrize(
        "content",
        [b"entity,s1\nx,abc\n", "entity,s1\nsp\xfc1,1.0\n".encode("latin-1")],
        ids=["non-numeric", "undecodable"],
    )
    def test_load_error_line_matches_run(self, tmp_path, capsys, content):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        lines = []
        for command in ("fuse", "run"):
            assert main(command_args(command, tmp_path, [str(bad), inputs(1)[0]])) == 2
            lines.append(capsys.readouterr().err)
        assert lines[0] == lines[1]
        assert lines[0].startswith(f"error: [stage load] {bad}")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{path}: file is empty"),
            ("entity\nx\n", "{path}:1: header needs an entity column and at least one site"),
            ("entity,s1\n,1.0\n", "{path}:2: missing entity id"),
        ],
        ids=["empty", "one-cell-header", "empty-id"],
    )
    def test_rejected_abundance_csv_message(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(command_args("fuse", tmp_path, [str(bad), inputs(1)[0]])) == 2
        assert capsys.readouterr().err == f"error: [stage load] {message.format(path=bad)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "fuse"])
    def test_unclosed_quote_in_large_csv_exit_code(self, tmp_path, capsys, command):
        # the quote opened on line 3 makes the rest of the file one field,
        # longer than the csv module's field size limit
        header = "entity," + ",".join(f"s{j:02d}" for j in range(12))
        rows = [f"e{i:04d}" + ",0.25,0.5,0.125,1.0" * 3 for i in range(3000)]
        rows[1] = '"' + rows[1]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, *rows]) + "\n")
        assert bad.stat().st_size > 128 * 1024
        assert main(command_args(command, tmp_path, [str(bad), inputs(1)[0]])) == 2
        expected = f"error: [stage load] {bad}:3: field larger than field limit (131072)\n"
        assert capsys.readouterr().err == expected
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, method, extra_args, extra_cfg",
        [
            ("snf", "snf", [], {}),
            ("sma-w", "sma-wasserstein", [], {}),
            ("sma-f", "sma-frobenius", ["--weights", "rv-pc"], {"weights_mode": "rv-leading-eigenvector"}),
        ],
    )
    def test_fuse_matches_run(self, tmp_path, flag, method, extra_args, extra_cfg):
        fused = tmp_path / "fuse"
        assert main(["fuse", "--method", flag, "--inputs", *inputs(), *extra_args, "--out", str(fused)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg = {"inputs": inputs(), "output_dir": str(tmp_path / "run"), "methods": [method], **extra_cfg}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        name = f"monoplex_{method}.csv"
        assert (fused / name).read_bytes() == (tmp_path / "run" / name).read_bytes()
        fuse_report = json.loads((fused / "fuse_report.json").read_text(encoding="utf-8"))
        run_report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
        outcome = ("converged", "iterations", "residual", "weights")
        assert [fuse_report[k] for k in outcome] == [run_report["fusion"][method][k] for k in outcome]


class TestDcor:
    def test_prints_value(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        s = rng.uniform(0, 1, (5, 5))
        s = (s + s.T) / 2
        np.fill_diagonal(s, 1.0)
        p = matrix_csv(tmp_path, "m.csv", s)
        assert main(["dcor", p, p]) == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a\nmatrix\n")
        good = matrix_csv(tmp_path, "m.csv", np.eye(2))
        assert main(["dcor", str(bad), good]) == 2


class TestCluster:
    def test_block_matrix(self, tmp_path, capsys):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        assert main(["cluster", p, "--seed", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "label,community"
        comms = dict(line.split(",") for line in out[1:7])
        assert len({comms[f"n{i}"] for i in range(3)}) == 1
        assert comms["n0"] != comms["n3"]
        assert out[-1].startswith("# modularity ")

    def test_non_finite_resolution_exit_code(self, tmp_path, capsys):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        assert main(["cluster", p, "--resolution", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: resolution must be positive and finite")

    @pytest.mark.parametrize(
        "text, message",
        [
            (",a,b\n", "{path}: expected a header and at least one row"),
            (",a,b\nb,0.5,1\na,1,0.5\n", "{path}:2: row label 'b' does not match header order"),
            (',a\n"a,1\n' + "x" * 140_000 + "\n", "{path}:2: field larger than field limit (131072)"),
        ],
        ids=["header-only", "row-order", "unclosed-quote"],
    )
    def test_rejected_matrix_csv_message(self, tmp_path, capsys, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text)
        assert main(["cluster", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message.format(path=p)}\n"

    def test_invalid_graph_exit_code(self, tmp_path):
        p = matrix_csv(tmp_path, "m.csv", np.eye(3))
        assert main(["cluster", p]) == 2

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        assert main(["cluster", p, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed must be nonnegative")

    def test_labels_are_csv_quoted(self, tmp_path, capsys):
        labels = ("a,b", 'a"b', "c", "d\ne", "f", "g")
        p = matrix_csv(tmp_path, "m.csv", block_matrix(), labels)
        assert main(["cluster", p, "--seed", "1"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines(keepends=True)))
        assert rows[0] == ["label", "community"]
        assert [r[0] for r in rows[1:7]] == list(labels)
        assert len({r[1] for r in rows[1:4]}) == 1
        assert rows[-1][0].startswith("# modularity ")

    def test_non_ascii_labels_under_ascii_locale(self, tmp_path):
        p = matrix_csv(tmp_path, "m.csv", block_matrix(), ("spü1", "b", "c", "d", "e", "f"))
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(multifuse.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "multifuse.cli", "cluster", p], env=env, capture_output=True
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode("utf-8").splitlines()
        assert lines[0] == "label,community"
        assert lines[1].startswith("spü1,")
        assert lines[-1].startswith("# modularity ")


class TestExport:
    def test_edge_list(self, tmp_path):
        p = matrix_csv(tmp_path, "m.csv", np.array([[1.0, 0.4], [0.4, 1.0]]), ("a", "b"))
        out = tmp_path / "edges.csv"
        assert main(["export", p, "--format", "edge-list", "--out", str(out)]) == 0
        assert out.read_text() == "source,target,weight\na,b,0.40000000000000002\n"

    def test_edges_above_threshold_in_row_major_order(self, tmp_path):
        s = np.array(
            [
                [1.0, 0.5, 0.75, 0.0],
                [0.5, 1.0, 0.25, 0.625],
                [0.75, 0.25, 1.0, 0.5],
                [0.0, 0.625, 0.5, 1.0],
            ]
        )
        p = matrix_csv(tmp_path, "m.csv", s, ("a", "b", "c", "d"))
        edges = tmp_path / "edges.csv"
        graphml = tmp_path / "g.graphml"
        args = ["--threshold", "0.5"]
        assert main(["export", p, "--format", "edge-list", "--out", str(edges), *args]) == 0
        assert main(["export", p, "--format", "graphml", "--out", str(graphml), *args]) == 0
        # weights equal to the threshold are dropped
        assert edges.read_text() == "source,target,weight\na,c,0.75\nb,d,0.625\n"
        ns = {"g": "http://graphml.graphdrawing.org/xmlns"}
        found = [
            (e.get("source"), e.get("target"), e.find("g:data", ns).text)
            for e in ET.parse(graphml).getroot().iter(f"{{{ns['g']}}}edge")
        ]
        assert found == [("a", "c", "0.75"), ("b", "d", "0.625")]

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        out = tmp_path / "g.graphml"
        assert main(["export", p, "--format", "graphml", "--out", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be nonnegative")
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_exit_code(self, tmp_path, capsys, threshold):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        out = tmp_path / "edges.csv"
        args = ["export", p, "--format", "edge-list", "--out", str(out), "--threshold", threshold]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: threshold must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["export", "cluster"])
    def test_repeated_label_exit_code(self, tmp_path, capsys, command):
        p = matrix_csv(tmp_path, "m.csv", block_matrix(), ("a", "a", "b", "c", "d", "e"))
        out = tmp_path / "g.graphml"
        args = {"export": ["--format", "graphml", "--out", str(out)], "cluster": []}[command]
        assert main([command, p, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: duplicate node label 'a'\n"
        assert not out.exists()

    def test_graphml_includes_louvain_communities(self, tmp_path):
        p = matrix_csv(tmp_path, "m.csv", block_matrix())
        out = tmp_path / "g.graphml"
        assert main(["export", p, "--format", "graphml", "--out", str(out)]) == 0
        assert 'attr.name="community"' in out.read_text()

    def test_csv_matrix_roundtrip(self, tmp_path):
        s = block_matrix()
        p = matrix_csv(tmp_path, "m.csv", s)
        out = tmp_path / "copy.csv"
        assert main(["export", p, "--format", "csv-matrix", "--out", str(out)]) == 0
        assert np.array_equal(load_similarity_csv(out).S, s)


class TestRun:
    def test_full_run(self, tmp_path, capsys):
        cfg = {
            "inputs": inputs(),
            "output_dir": str(tmp_path / "out"),
            "seed": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "report.json").is_file()
        assert "artifacts written" in capsys.readouterr().out

    @pytest.mark.parametrize("strict, status", [(True, 3), (False, 0)], ids=["strict", "lenient"])
    def test_capped_solver_exit_code(self, tmp_path, capsys, strict, status):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"inputs": inputs(), "output_dir": str(tmp_path / "out"), "sma": {"max_iter": 1}}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)] + ["--strict"] * strict) == status
        captured = capsys.readouterr()
        assert "snf: converged after " in captured.out
        for name in ("sma-riemannian", "sma-wasserstein"):
            assert f"{name}: NOT converged after 1 iterations (residual " in captured.out
        assert (tmp_path / "out" / "report.json").is_file()
        expected = "error: did not converge within the iteration cap: sma-riemannian, sma-wasserstein\n"
        assert captured.err == (expected if strict else "")

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{broken")
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
        cfg_path.write_bytes('{"seed": "ü"}'.encode("latin-1"))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inputs": inputs(), "output_dir": "out", "max_iters": 5}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "max_iters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            {"seed": "3"},
            {"seed": 1.5},
            {"seed": True},
            {"resolution": "1"},
            {"sigma": True},
            {"export_threshold": "0.1"},
            {"snf": {"epsilon": "1e-6"}},
            {"snf": {"k": 2.5}},
            {"snf": {"k": True}},
            {"sma": {"max_iter": "5"}},
            {"sma": {"tol": None}},
            {"inputs": 5},
            {"inputs": [1, 2]},
            {"output_dir": 5},
            {"sma": {"tol": 0}},
            {"sma": {"max_iter": 0}},
            {"sma": {"jitter": -1}},
            {"resolution": 1e400},
            {"sigma": 1e400},
            {"export_threshold": float("inf")},
            {"export_threshold": float("nan")},
            {"snf": {"epsilon": float("inf")}},
            {"sma": {"tol": float("inf")}},
            {"sma": {"jitter": float("nan")}},
            {"seed": -1},
        ],
        ids=lambda e: json.dumps(e),
    )
    def test_mistyped_config_value_exit_code(self, tmp_path, capsys, entry):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"inputs": inputs(2), "output_dir": str(tmp_path / "out"), "methods": ["snf"], **entry}
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"sigma": 0}, "sigma must be positive"),
            ({"resolution": -1.0}, "resolution must be positive"),
            ({"methods": ["snf", "magic"]}, "unknown method 'magic'"),
            ({"methods": ["snf", "snf"]}, "each method may be requested once"),
            ({"methods": []}, "at least one method required"),
            ({"sigma": "abc"}, "{path}: sigma must be a number or 'auto'"),
            (None, "{path}: expected a JSON object"),
        ],
        ids=["sigma", "resolution", "unknown-method", "repeated-method", "no-method",
             "sigma-text", "not-an-object"],
    )
    def test_rejected_config_message(self, tmp_path, capsys, entry, message):
        cfg_path = tmp_path / "cfg.json"
        cfg = {"inputs": inputs(2), "output_dir": str(tmp_path / "out"), "methods": ["snf"]}
        cfg_path.write_text(json.dumps([cfg] if entry is None else {**cfg, **entry}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=cfg_path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "fuse"])
    def test_stage_note_on_error_line(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("entity,s1\nx,oops\n")
        assert main(command_args(command, tmp_path, [str(bad), inputs(1)[0]])) == 2
        assert capsys.readouterr().err.startswith("error: [stage load] ")

    @pytest.mark.parametrize("command", ["run", "fuse"])
    def test_repeated_layer_name_exit_code(self, tmp_path, capsys, command):
        paths = []
        for sub, src in zip("ab", inputs(2)):
            (tmp_path / sub).mkdir()
            paths.append(str(tmp_path / sub / "L.csv"))
            Path(paths[-1]).write_bytes(Path(src).read_bytes())
        assert main(command_args(command, tmp_path, paths)) == 2
        assert capsys.readouterr().err == "error: [stage similarity] duplicate layer name 'L'\n"
        assert not (tmp_path / "out").exists()

    def test_weight_table_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def degenerate(rv):
            raise DegenerateSpectrum("leading RV eigenvalue is not simple")

        monkeypatch.setattr(pipeline, "weights_frobenius", degenerate)
        assert main(command_args("run", tmp_path, inputs())) == 3
        assert capsys.readouterr().err.startswith("error: [stage weights] leading RV eigenvalue")

    def test_undecodable_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes("entity,s1\nspü1,1.0\n".encode("latin-1"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inputs": [str(bad), inputs(1)[0]], "output_dir": "out"}))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: [stage load] ")


class TestExitStatus:
    class Unlisted(MultifuseError):
        pass

    class UnlistedNumeric(MultifuseError):
        exit_code = 3

    @pytest.mark.parametrize("error, status", [(Unlisted, 2), (UnlistedNumeric, 3)])
    def test_error_class_carries_exit_status(self, monkeypatch, capsys, error, status):
        def fail(args):
            raise error("boom")

        monkeypatch.setitem(cli.COMMANDS, "dcor", fail)
        assert main(["dcor", "a.csv", "b.csv"]) == status
        assert capsys.readouterr().err == "error: boom\n"
