import json
import re
import subprocess
import sys

import pytest

from akws.cli import main


def read_bytes_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestGen:
    def test_writes_tasks_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run_cli("gen", "--classes", 10, "--per-class", 40, "--dim", 8, "--seed", 1, "--out", out)
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["tasks"]) == 6  # 5 base classes + 5 single-class steps
        assert manifest["mfcc"] == {"dim": 40, "hop": 160}
        classes = [c for t in manifest["tasks"] for c in t["classes"]]
        assert sorted(classes) == list(range(10))
        for entry in manifest["tasks"]:
            assert (out / entry["train"]).exists()
            assert (out / entry["test"]).exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("gen", "--classes", 6, "--per-class", 20, "--seed", 3, "--out", out) == 0
        assert read_bytes_tree(a) == read_bytes_tree(b)

    def test_single_class_exits_2(self, tmp_path, capsys):
        assert run_cli("gen", "--classes", 1, "--out", tmp_path / "x") == 2
        assert "error" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        code = run_cli("gen", "--classes", 4, "--per-class", 5, "--out", blocker / "sub")
        assert code == 1


# README's full config document.
README_CONFIG = {
    "data": {"kind": "synth", "classes": 10, "per_class": 100,
             "test_per_class": 25, "dim": 16, "separation": 6.0,
             "noise_sigma": 1.0, "seed": 1},
    "split": {"base_count": 5, "step_count": 5, "classes_per_step": 1, "seed": 0},
    "gamma": 0.1, "expansion": 128, "activation": "relu", "seed": 42,
    "extractor": {"enabled": True, "hidden": 32, "epochs": 20, "lr": 0.05},
}
# The config echo of results.json, re-serialized with sorted keys; the
# split seed is the run seed unless the document sets one.
ECHO = (
    '{"activation": "relu", "data": {"classes": 10, "dim": 16, "kind": "synth", '
    '"noise_sigma": 1.0, "per_class": 100, "seed": 1, "separation": 6.0, "test_per_class": 25}, '
    '"expansion": 128, "extractor": {"enabled": true, "epochs": 20, "hidden": 32, "lr": 0.05}, '
    '"gamma": 0.1, "seed": 42, "split": {"base_count": 5, "classes_per_step": 1, "seed": SPLIT_SEED, '
    '"step_count": 5}}'
)


class TestRun:
    @pytest.mark.parametrize("doc, split_seed", [(None, "42"), (README_CONFIG, "0")], ids=["default", "readme"])
    def test_config_echo_is_pinned(self, tmp_path, doc, split_seed):
        args = ["run", "--out", tmp_path / "o"]
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            args += ["--config", tmp_path / "cfg.json"]
        assert run_cli(*args) == 0
        echo = json.loads((tmp_path / "o" / "results.json").read_text())["config"]
        assert json.dumps(echo, sort_keys=True) == ECHO.replace("SPLIT_SEED", split_seed)

    def test_default_run_produces_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = run_cli("run", "--out", out, "--expansion", 48)
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"ACC=\S+ BWT=\S+ TT=\S+", line)
        doc = json.loads((out / "results.json").read_text())
        assert 0.0 <= doc["acc"] <= 1.0
        assert (out / "grid.csv").exists()
        assert (out / "snapshot.bin").exists()

    def test_flags_echo_into_config_block(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("run", "--out", out, "--expansion", 96, "--gamma", 0.25) == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["config"]["expansion"] == 96
        assert doc["config"]["gamma"] == 0.25

    def test_reruns_identical_modulo_timing(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("run", "--out", out, "--expansion", 48, "--seed", 11) == 0
        docs = []
        for out in (a, b):
            doc = json.loads((out / "results.json").read_text())
            for key in ("tt", "tt_mean", "stage_times"):
                doc.pop(key)
            docs.append(doc)
        assert docs[0] == docs[1]
        assert (a / "snapshot.bin").read_bytes() == (b / "snapshot.bin").read_bytes()

    def test_manifest_config(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gen", "--classes", 6, "--per-class", 30, "--dim", 6, "--seed", 2, "--out", data) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "data": {"kind": "manifest", "path": str(data / "manifest.json")},
                    "expansion": 48,
                    "extractor": {"hidden": 16, "epochs": 5},
                }
            )
        )
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        doc = json.loads((out / "results.json").read_text())
        assert len(doc["A"]) == 4

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"exapnsion": 64}')
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "exapnsion" in capsys.readouterr().err

    def test_bad_field_reports_path(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"extractor": {"lr": -1.0}}')
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "extractor.lr" in capsys.readouterr().err

    def test_non_integer_manifest_id_is_a_reported_error(self, tmp_path):
        data = tmp_path / "data"
        assert run_cli("gen", "--classes", 4, "--per-class", 5, "--out", data) == 0
        doc = json.loads((data / "manifest.json").read_text())
        results = {}
        for case in ("missing_key", "string_id"):
            bad = json.loads(json.dumps(doc))
            if case == "missing_key":
                del bad["tasks"][1]["test"]
            else:
                bad["tasks"][1]["id"] = "x"
            manifest = data / f"{case}.json"
            manifest.write_text(json.dumps(bad))
            cfg = tmp_path / f"{case}.cfg.json"
            cfg.write_text(json.dumps({"data": {"kind": "manifest", "path": str(manifest)}}))
            results[case] = subprocess.run(
                [sys.executable, "-m", "akws.cli", "run", "--config", str(cfg), "--out", str(tmp_path / case)],
                capture_output=True,
                text=True,
            )
        got = results["string_id"]
        assert "Traceback" not in got.stderr
        assert got.stderr.startswith("error: task 1 ")
        assert got.returncode == results["missing_key"].returncode != 0

    def test_kernel_not_positive_definite_is_one_error_line(self, tmp_path):
        # a first fit whose carried A is -I makes the first update's kernel indefinite
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "import akws.harness as h\n"
            "from akws.cli import main\n"
            "fit = h.recalibrate\n"
            "def broken(*args):\n"
            "    clf = fit(*args)\n"
            "    return replace(clf, afam=replace(clf.afam, matrix=-np.eye(clf.expansion_size)))\n"
            "h.recalibrate = broken\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        got = subprocess.run(
            [sys.executable, "-c", script, "run", "--expansion", "48", "--out", str(tmp_path / "o")],
            capture_output=True,
            text=True,
        )
        assert got.returncode == 1
        assert "Traceback" not in got.stderr
        lines = got.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "not positive definite" in lines[0]

    @pytest.mark.parametrize("command", ["run", "oracle-check"])
    def test_empty_first_test_set_exits_2(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        assert run_cli("gen", "--classes", 4, "--per-class", 5, "--dim", 3, "--out", data) == 0
        doc = json.loads((data / "manifest.json").read_text())
        test0 = data / doc["tasks"][0]["test"]
        test0.write_text(test0.read_text().split("\n")[0] + "\n")  # header only
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"kind": "manifest", "path": str(data / "manifest.json")}}))
        capsys.readouterr()
        extra = ("--out", tmp_path / "o") if command == "run" else ()
        assert run_cli(command, "--config", cfg, *extra) == 2
        assert capsys.readouterr().err == "error: step 0: tasks 0..0 have no test rows\n"

    def test_missing_manifest_exits_1(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"data": {"kind": "manifest", "path": "nowhere.json"}}')
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 1


@pytest.mark.parametrize("command", ["run", "oracle-check"])
class TestMalformedInputExits2:
    def _config(self, tmp_path, manifest):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"kind": "manifest", "path": str(manifest)}}))
        return cfg

    def _args(self, command, tmp_path, cfg):
        extra = ("--out", tmp_path / "o") if command == "run" else ()
        return (command, "--config", cfg, *extra)

    def test_malformed_manifest(self, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"tasks": [')
        cfg = self._config(tmp_path, manifest)
        assert run_cli(*self._args(command, tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith("error: manifest is not valid JSON")

    def _run_with_bad_cell(self, tmp_path, capsys, command, cell):
        """Run on generated data whose task-1 CSV has ``cell`` at line 3, column 2."""
        data = tmp_path / "data"
        assert run_cli("gen", "--classes", 4, "--per-class", 5, "--dim", 3, "--out", data) == 0
        doc = json.loads((data / "manifest.json").read_text())
        train = data / doc["tasks"][1]["train"]
        lines = train.read_text().split("\n")
        cells = lines[2].split(",")
        cells[1] = cell(cells[1])
        lines[2] = ",".join(cells)
        train.write_text("\n".join(lines))
        capsys.readouterr()
        cfg = self._config(tmp_path, data / "manifest.json")
        return run_cli(*self._args(command, tmp_path, cfg)), capsys.readouterr().err

    def test_malformed_feature_csv(self, tmp_path, capsys, command):
        code, err = self._run_with_bad_cell(tmp_path, capsys, command, lambda v: "x" + v)
        assert code == 2
        assert err == "error: line 3: unparseable feature value\n"

    def test_non_finite_feature_csv(self, tmp_path, capsys, command):
        code, err = self._run_with_bad_cell(tmp_path, capsys, command, lambda v: "-inf")
        assert code == 2
        assert err == "error: line 3: non-finite feature value\n"

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"seed": -1}, "seed: must be >= 0"),
            ({"data": {"seed": -5}}, "data.seed: must be >= 0"),
            (
                {"split": {"base_count": 5, "step_count": 5, "classes_per_step": 1, "seed": -3}},
                "split.seed: must be >= 0",
            ),
            ({"data": {"dim": 0}}, "data.dim: must be >= 1"),
            (
                {"split": {"base_count": 3, "step_count": 5, "classes_per_step": 1}},
                "3 + 5 x 1 != 10 classes",
            ),
            ({"expansion": 32}, "expansion: must exceed the width of the features it expands (32)"),
            (
                {"expansion": 16, "extractor": {"enabled": False}},
                "expansion: must exceed the width of the features it expands (16)",
            ),
        ],
        ids=["seed", "data-seed", "split-seed", "data-dim", "split-arithmetic", "hidden", "raw-dim"],
    )
    def test_malformed_config(self, tmp_path, capsys, command, doc, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(*self._args(command, tmp_path, cfg)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


class TestOracleCheck:
    def test_passes_on_clean_pipeline(self, capsys):
        assert run_cli("oracle-check", "--expansion", 48, "--seed", 5) == 0
        out = capsys.readouterr().out
        assert "ORACLE PASS" in out
        assert out.count("prefix") == 6

    def test_noise_injection_fails(self, capsys):
        assert run_cli("oracle-check", "--expansion", 48, "--inject-noise", 1e-3) == 1
        out = capsys.readouterr().out
        assert "ORACLE FAIL" in out
        assert "worst_prefix=" in out

    def test_single_task_config_passes(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "data": {"kind": "synth", "classes": 4, "per_class": 30},
                    "split": {"base_count": 4, "step_count": 0, "classes_per_step": 0, "seed": 0},
                    "expansion": 48,
                }
            )
        )
        assert run_cli("oracle-check", "--config", cfg) == 0
        assert "ORACLE PASS" in capsys.readouterr().out


class TestMetricsCmd:
    def test_round_trip_matches_run(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("run", "--out", out, "--expansion", 48) == 0
        run_line = capsys.readouterr().out.strip()
        assert run_cli("metrics", out / "grid.csv") == 0
        metrics_line = capsys.readouterr().out.strip()
        run_vals = dict(tok.split("=") for tok in run_line.split())
        m_vals = dict(tok.split("=") for tok in metrics_line.split())
        assert abs(float(run_vals["ACC"]) - float(m_vals["ACC"])) <= 1e-12
        assert abs(float(run_vals["BWT"]) - float(m_vals["BWT"])) <= 1e-12

    def test_hand_grid_fixture(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("step,task_0,task_1,task_2\n0,1.0,,\n1,0.8,0.8,\n2,0.6,0.6,0.6\n")
        assert run_cli("metrics", grid) == 0
        line = capsys.readouterr().out.strip()
        vals = dict(tok.split("=") for tok in line.split())
        assert float(vals["ACC"]) == pytest.approx(0.8, abs=1e-15)
        assert float(vals["BWT"]) == pytest.approx(-0.1, abs=1e-15)

    def test_empty_file_exits_2(self, tmp_path):
        grid = tmp_path / "grid.csv"
        grid.write_text("")
        assert run_cli("metrics", grid) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert run_cli("metrics", tmp_path / "missing.csv") == 2

    def test_empty_first_test_set_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        grid.write_text("# test_sizes,0,5\nstep,task_0,task_1\n0,0.0,\n1,0.0,1.0\n")
        assert run_cli("metrics", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: step 0: tasks 0..0 have no test rows\n"

    @pytest.mark.parametrize(
        "text, error",
        [
            ("step,task_0\n0,abc\n", "line 2: non-numeric cell for task 0"),
            ("step,task_0\n0,nan\n", "line 2: non-finite cell for task 0"),
            ("step,task_0\n0,5.0\n", "line 2: accuracy outside [0, 1] for task 0"),
            ("# test_sizes,-3\nstep,task_0\n0,1.0\n", "line 1: negative test size"),
        ],
    )
    def test_malformed_cell_exits_2(self, tmp_path, capsys, text, error):
        grid = tmp_path / "grid.csv"
        grid.write_text(text)
        assert run_cli("metrics", grid) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {error}" in captured.err


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "akws.cli", "gen", "--classes", "4", "--per-class", "5", "--out", str(tmp_path / "d")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip().endswith("manifest.json")
