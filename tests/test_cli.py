import json
import re
import subprocess
import sys

import numpy as np
import pytest

from akws import build_expansion, expand, harness, predict, read_grid_csv, read_snapshot
from akws.cli import main
from akws.errors import DataError, MetricUndefinedError

from oracles import inject_faulty_updates


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
        assert list(manifest) == ["tasks"]  # no made-up front-end block for synthetic data
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

    @pytest.mark.parametrize("count", [0, -2])
    def test_test_per_class_below_one_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "d"
        assert run_cli("gen", "--classes", 4, "--per-class", 10, "--test-per-class", count, "--out", out) == 2
        assert capsys.readouterr().err == "error: test_per_class: must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, error",
        [
            # a data flag fails as SynthSpec checks it, naming the config key
            (("--seed", -1), "seed: must be >= 0"),
            (("--separation", "nan"), "separation: must be finite, got nan"),
            (("--noise", "inf"), "noise_sigma: must be finite, got inf"),
            # a split that cannot cover --classes fails as check_split checks it, naming the config key
            (("--per-step", 0), "classes_per_step: must be >= 1 when step_count > 0"),
            (("--base", 12), "base_count 12 + step_count 0 x classes_per_step 1 = 12, but there are 4 classes"),
            (("--base", 0), "base_count: must be >= 1"),
            (("--base", 0, "--per-step", 3), "base_count: must be >= 1"),
            (
                ("--per-step", 3),
                "--per-step 3 must divide the 2 classes --classes 4 leaves after --base 2 (the default, half of --classes)",
            ),
            (
                ("--base", 1, "--steps", 2),
                "base_count 1 + step_count 2 x classes_per_step 1 = 3, but there are 4 classes",
            ),
            (("--steps", -1), "step_count: must be >= 0"),
        ],
        ids=[
            "negative-seed", "nan-separation", "inf-noise", "zero-per-step", "base-above-classes", "zero-base",
            "zero-base-indivisible", "indivisible", "steps-short", "negative-steps",
        ],
    )
    def test_bad_synth_flag_exits_2(self, tmp_path, capsys, flags, error):
        out = tmp_path / "d"
        assert run_cli("gen", "--classes", 4, "--per-class", 10, *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

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

    def test_gen_writes_the_tasks_run_builds(self, tmp_path):
        data = tmp_path / "data"
        gen = ("gen", "--classes", 6, "--per-class", 30, "--test-per-class", 8, "--dim", 5,
               "--separation", 1.5, "--noise", 1.0, "--seed", 7, "--base", 2, "--steps", 2, "--per-step", 2)
        assert run_cli(*gen, "--out", data) == 0
        common = {"expansion": 64, "seed": 3, "extractor": {"hidden": 8, "epochs": 3}}
        docs = {
            "manifest": {"data": {"kind": "manifest", "path": str(data / "manifest.json")}},
            "synth": {
                "data": {"kind": "synth", "classes": 6, "per_class": 30, "test_per_class": 8, "dim": 5,
                         "separation": 1.5, "noise_sigma": 1.0, "seed": 7},
                "split": {"base_count": 2, "step_count": 2, "classes_per_step": 2, "seed": 7},
            },
        }
        outputs = {}
        for name, doc in docs.items():
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**doc, **common}))
            assert run_cli("run", "--config", cfg, "--out", tmp_path / name) == 0
            outputs[name] = [(tmp_path / name / f).read_bytes() for f in ("grid.csv", "snapshot.bin")]
        assert outputs["manifest"] == outputs["synth"]
        acc = json.loads((tmp_path / "synth" / "results.json").read_text())["acc"]
        assert acc < 1.0  # a task is misclassified somewhere, so the grids carry information

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
        # a first fit whose carried A is -I, packed, makes the first update's kernel indefinite
        script = (
            "import sys\n"
            "from dataclasses import replace\n"
            "import numpy as np\n"
            "import akws.harness as h\n"
            "from akws import lapack\n"
            "from akws.cli import main\n"
            "fit = h.recalibrate\n"
            "def broken(*args):\n"
            "    clf = fit(*args)\n"
            "    return replace(clf, afam=lapack.trttf(np.asfortranarray(-np.eye(clf.expansion_size))))\n"
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
        assert lines[0].startswith("error: task 1, fit: ")
        assert "not positive definite" in lines[0]

    @pytest.mark.parametrize(
        "stage, name, task, error, code",
        [
            ("pretrain", "pretrain_extractor", 0, DataError, 1),
            ("extract", "extract", 3, DataError, 1),
            ("expand", "expand", 3, DataError, 1),
            ("fit", "recalibrate", 0, DataError, 1),
            ("fit", "update", 3, DataError, 1),
            ("evaluate", "predict", 3, MetricUndefinedError, 2),
        ],
    )
    def test_failure_in_the_task_loop_names_its_task_and_stage(
        self, tmp_path, capsys, monkeypatch, stage, name, task, error, code
    ):
        # at E=48 every step but the last is held, so no test row is extracted,
        # expanded or scored before the last fit: any other call made once `task`
        # fits have returned, and before the next returns, is in task `task`. A
        # predict is in task `task` when its classifier has seen `task` + 1 tasks
        fits = 0

        def counted(fit):
            def fitted(*args):
                nonlocal fits
                clf = fit(*args)
                fits += 1
                return clf

            return fitted

        for fit in ("recalibrate", "update"):
            monkeypatch.setattr(harness, fit, counted(getattr(harness, fit)))
        real = getattr(harness, name)

        def failing(*args, **kwargs):
            if (args[0].tasks_seen == task + 1) if name == "predict" else (fits == task):
                raise error("forced")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, failing)
        assert run_cli("run", "--expansion", 48, "--out", tmp_path / "o") == code
        assert capsys.readouterr().err == f"error: task {task}, {stage}: forced\n"

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


# Manifest contents a run cannot use. Each edits generated data (4 classes,
# dim 3, 2 test rows per class, tasks of 2, 1 and 1 classes) and returns the
# expected error.
def _empty_train(data, doc):
    path = data / doc["tasks"][1]["train"]
    path.write_text(path.read_text().split("\n")[0] + "\n")  # header only
    return f"task 1 train file {path}: no training rows"


def _foreign_label(kind, task, other):
    def mutate(data, doc):
        path = data / doc["tasks"][task][kind]
        lines = path.read_text().split("\n")
        label = doc["tasks"][other]["classes"][0]
        lines[2] = ",".join([str(label), *lines[2].split(",")[1:]])
        path.write_text("\n".join(lines))
        return f"line 3: task {task} {kind} file {path}: label {label} is not among the task's classes"

    return mutate


def _class_in_two_tasks(data, doc):
    cid = doc["tasks"][1]["classes"][0]
    doc["tasks"][2]["classes"].append(cid)
    return f"manifest {data / 'manifest.json'}: task 2 declares class {cid}, as task 1 does"


def _narrow_file(data, doc):
    path = data / doc["tasks"][1]["test"]
    lines = path.read_text().split("\n")
    path.write_text("\n".join(ln.rsplit(",", 1)[0] for ln in lines))
    return f"line 1: task 1 test file {path}: 2 features, but the first train file has 3"


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

    @pytest.mark.parametrize("cid", [2**32, -1])
    def test_class_id_outside_u32(self, tmp_path, capsys, command, cid):
        # snapshots store class ids as u32; the run stops before any fit or output
        data = tmp_path / "data"
        assert run_cli("gen", "--classes", 4, "--per-class", 5, "--dim", 3, "--out", data) == 0
        doc = json.loads((data / "manifest.json").read_text())
        doc["tasks"][1]["classes"][0] = cid
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli(*self._args(command, tmp_path, self._config(tmp_path, manifest))) == 2
        assert capsys.readouterr().err == (
            f"error: task 1 class id {cid} does not fit in 32 unsigned bits\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "mutate",
        [
            _empty_train,
            _foreign_label("train", 1, 0),
            _foreign_label("test", 2, 1),
            _class_in_two_tasks,
            _narrow_file,
        ],
        ids=["empty-train", "train-label", "test-label", "class-in-two-tasks", "width"],
    )
    def test_unusable_manifest_contents(self, tmp_path, capsys, monkeypatch, command, mutate):
        # rejected while the tasks load: no extractor is trained and nothing is fit
        import akws.harness

        def unreached(*args, **kwargs):
            raise AssertionError("pretraining reached")

        data = tmp_path / "data"
        gen = ("gen", "--classes", 4, "--per-class", 5, "--test-per-class", 2, "--dim", 3, "--out", data)
        assert run_cli(*gen) == 0
        doc = json.loads((data / "manifest.json").read_text())
        error = mutate(data, doc)
        (data / "manifest.json").write_text(json.dumps(doc))
        monkeypatch.setattr(akws.harness, "pretrain_extractor", unreached)
        capsys.readouterr()
        assert run_cli(*self._args(command, tmp_path, self._config(tmp_path, data / "manifest.json"))) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "o").exists()

    def _run_with_bad_cell(self, tmp_path, capsys, command, cell):
        """Run on generated data whose task-1 train CSV has ``cell`` at line 3, column 2.

        Returns the exit code, stderr and the edited file's path.
        """
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
        return run_cli(*self._args(command, tmp_path, cfg)), capsys.readouterr().err, train

    def test_malformed_feature_csv(self, tmp_path, capsys, command):
        code, err, path = self._run_with_bad_cell(tmp_path, capsys, command, lambda v: "x" + v)
        assert code == 2
        assert err == f"error: line 3: feature file {path}: unparseable feature value\n"

    def test_non_finite_feature_csv(self, tmp_path, capsys, command):
        code, err, path = self._run_with_bad_cell(tmp_path, capsys, command, lambda v: "-inf")
        assert code == 2
        assert err == f"error: line 3: feature file {path}: non-finite feature value\n"

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
                "split: base_count 3 + step_count 5 x classes_per_step 1 = 8, but there are 10 classes",
            ),
            (
                {"split": {"base_count": 0, "step_count": 6, "classes_per_step": 1, "seed": 0}},
                "split.base_count: must be >= 1",
            ),
            (
                {"split": {"base_count": 10, "step_count": -1, "classes_per_step": 1}},
                "split.step_count: must be >= 0",
            ),
            (
                {"split": {"base_count": 5, "step_count": 5, "classes_per_step": 0}},
                "split.classes_per_step: must be >= 1 when step_count > 0",
            ),
            ({"expansion": 32}, "expansion: must exceed the width of the features it expands (32)"),
            (
                {"expansion": 16, "extractor": {"enabled": False}},
                "expansion: must exceed the width of the features it expands (16)",
            ),
        ],
        ids=[
            "seed", "data-seed", "split-seed", "data-dim", "split-arithmetic", "split-base",
            "split-steps", "split-per-step", "hidden", "raw-dim",
        ],
    )
    def test_malformed_config(self, tmp_path, capsys, command, doc, error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli(*self._args(command, tmp_path, cfg)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("command", ["run", "oracle-check"])
@pytest.mark.parametrize(
    "flags, text, error",
    [
        (("--gamma", "nan"), None, "gamma: must be finite, got nan"),
        (("--gamma", "inf"), None, "gamma: must be finite, got inf"),
        ((), '{"gamma": NaN}', "gamma: must be finite, got nan"),
        ((), '{"extractor": {"lr": NaN}}', "extractor.lr: must be finite, got nan"),
        ((), '{"data": {"noise_sigma": NaN}}', "data.noise_sigma: must be finite, got nan"),
        ((), '{"data": {"separation": Infinity}}', "data.separation: must be finite, got inf"),
    ],
    ids=["gamma-flag-nan", "gamma-flag-inf", "gamma-nan", "extractor-lr-nan", "noise-nan", "separation-inf"],
)
def test_non_finite_value_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, flags, text, error):
    import akws.cli

    def unreached(*args, **kwargs):
        raise AssertionError("task data built")

    monkeypatch.setattr(akws.cli, "gen_synth_split", unreached)
    args = [command, *flags]
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        args += ["--config", tmp_path / "cfg.json"]
    if command == "run":
        args += ["--out", tmp_path / "o"]
    assert run_cli(*args) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [(), ("--expansion", 2048)], ids=["gram-route", "kernel-route"])
def test_gamma_without_a_finite_inverse_exits_2_before_any_work(tmp_path, capsys, monkeypatch, flags):
    import akws.cli

    def unreached(*args, **kwargs):
        raise AssertionError("task data built")

    monkeypatch.setattr(akws.cli, "gen_synth_split", unreached)
    assert run_cli("run", "--gamma", "1e-320", *flags, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == "error: gamma: ridge parameter 1e-320 has no finite inverse\n"
    assert not (tmp_path / "o").exists()


def test_snapshot_seed_rebuilds_the_run_expansion(tmp_path, monkeypatch):
    # a seed beyond 64 bits is stored modulo 2**64, and that stored seed draws the run's matrix
    import akws.cli

    run_experiment = akws.cli.run_experiment
    runs = []

    def recorded(tasks, config):
        runs.append((tasks, run_experiment(tasks, config)))
        return runs[-1][1]

    monkeypatch.setattr(akws.cli, "run_experiment", recorded)
    out = tmp_path / "o"
    assert run_cli("run", "--seed", 2**64 + 5, "--expansion", 48, "--out", out) == 0
    (tasks, result), = runs
    clf, meta = read_snapshot(out / "snapshot.bin")
    assert meta.seed == 5
    rebuilt = build_expansion(meta.dim, clf.expansion_size, meta.seed, meta.activation)
    assert rebuilt.matrix.tobytes() == result.expansion.matrix.tobytes()
    last = read_grid_csv(out / "grid.csv").grid[-1]
    for t, task in enumerate(tasks):
        hidden = np.maximum(task.test.features @ meta.w1 + meta.b1, 0.0)
        pred = predict(clf, expand(hidden, rebuilt))
        assert np.mean(pred == task.test.labels) == last[t]


class TestOracleCheck:
    def test_passes_on_clean_pipeline(self, capsys):
        assert run_cli("oracle-check", "--expansion", 48, "--seed", 5) == 0
        out = capsys.readouterr().out
        assert "ORACLE PASS" in out
        assert out.count("prefix") == 6

    def test_noise_injection_fails(self, capsys, monkeypatch):
        inject_faulty_updates(monkeypatch)
        assert run_cli("oracle-check", "--expansion", 48) == 1
        out = capsys.readouterr().out
        assert "ORACLE FAIL" in out
        assert "worst_prefix=" in out
        assert float(re.search(r"max_deviation=(\S+)", out).group(1)) > 1e-9

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

    def test_joint_side_failure_names_its_task(self, capsys, monkeypatch):
        # the oracle solves for the weights only once per task, so the 4th such solve is task 3's
        solve = harness.NormalEquations.solve
        calls = 0

        def failing(self, inverse=True):
            nonlocal calls
            calls += not inverse
            if calls == 4:
                raise DataError("forced joint failure")
            return solve(self, inverse)

        monkeypatch.setattr(harness.NormalEquations, "solve", failing)
        assert run_cli("oracle-check", "--expansion", 48) == 1
        captured = capsys.readouterr()
        assert captured.out.count("prefix") == 0  # the report is printed after the loop
        assert captured.err == "error: task 3, oracle: forced joint failure\n"


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

    @pytest.mark.parametrize("steps", [3, 0], ids=["incremental", "base-only"])
    def test_prints_the_run_results(self, tmp_path, capsys, steps):
        # one ACC/BWT rule: metrics recomputes results.json's numbers from the grid alone
        split = {"base_count": 6 - steps, "step_count": steps, "classes_per_step": 1 if steps else 0, "seed": 0}
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"data": {"kind": "synth", "classes": 6, "per_class": 30}, "split": split}))
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out, "--expansion", 48) == 0
        capsys.readouterr()
        assert run_cli("metrics", out / "grid.csv") == 0
        doc = json.loads((out / "results.json").read_text())
        assert doc["bwt_undefined"] is (steps == 0)
        flag = " BWT_UNDEFINED=1" if steps == 0 else ""
        assert capsys.readouterr().out == f"ACC={doc['acc']!r} BWT={doc['bwt']!r}{flag}\n"

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


@pytest.mark.parametrize("target", ["feature file", "manifest", "config", "grid file"])
def test_non_utf8_input_exits_2_naming_its_file(tmp_path, capsys, target):
    data = tmp_path / "data"
    assert run_cli("gen", "--classes", 4, "--per-class", 5, "--dim", 3, "--out", data) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"data": {"kind": "manifest", "path": str(data / "manifest.json")}}))
    grid = tmp_path / "grid.csv"
    grid.write_text("# test_sizes,1\nstep,task_0\n0,1.0\n")
    files = {"feature file": data / "task_1_train.csv", "manifest": data / "manifest.json"}
    bad = {**files, "config": cfg, "grid file": grid}[target]
    raw = bad.read_bytes()
    bad.write_bytes(raw[:5] + b"\xff" + raw[5:])
    capsys.readouterr()
    argv = ("metrics", grid) if bad == grid else ("run", "--config", cfg, "--out", tmp_path / "o")
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == f"error: {target} {bad}: not UTF-8 text (invalid start byte at byte 5)\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "oracle-check"])
@pytest.mark.parametrize("expansion", [10**8, 2**70])
def test_oversized_expansion_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, expansion):
    import akws.cli

    def unreached(*args, **kwargs):
        raise AssertionError("task data built")

    monkeypatch.setattr(akws.cli, "gen_synth_split", unreached)
    extra = ("--out", tmp_path / "o") if command == "run" else ()
    assert run_cli(command, "--expansion", expansion, *extra) == 2
    need = f"its {expansion} x {expansion} state needs {4 * expansion * (expansion + 1)} bytes, more than physical memory"
    assert capsys.readouterr().err == f"error: expansion: {need}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_expanded_test_rows_are_not_counted_against_physical_memory(tmp_path, capsys, monkeypatch, command):
    # the default config: E=128, and 10 classes of 100 train and 25 test
    # rows at d=16. Physical memory holds the state and the train and test
    # features, but not the state and the 250 test rows expanded to E; the
    # run never holds the latter, as it expands test rows a block at a time
    import akws.cli

    state, features = 8 * (128 * 129 // 2), 8 * 10 * (100 + 25) * 16
    memory = max(state, features)
    assert state + 8 * 250 * 128 > memory
    monkeypatch.setattr(akws.cli, "_physical_memory", lambda: memory)
    extra = ("--out", tmp_path / "o") if command == "run" else ()
    assert run_cli(command, *extra) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "oracle-check", "gen"])
@pytest.mark.parametrize("per_class", [10**12, 10**30])
def test_oversized_synth_data_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, command, per_class):
    import akws.cli

    def unreached(*args, **kwargs):
        raise AssertionError("synthetic data drawn")

    monkeypatch.setattr(akws.cli, "gen_synth_split", unreached)
    out = tmp_path / "o"
    extra = ("--out", out) if command != "oracle-check" else ()
    if command == "gen":  # gen's default test_per_class is per_class // 5
        argv, rows = ("--per-class", per_class), 10 * (per_class + per_class // 5)
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"data": {"per_class": per_class}}))
        argv, rows = ("--config", config), 10 * (per_class + 25)
    assert run_cli(command, *argv, *extra) == 2
    need = f"its train and test features need {8 * rows * 16} bytes, more than physical memory"
    assert capsys.readouterr().err == f"error: data: {need}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "message, error",
    [("Unable to allocate 23.8 GiB", "error: Unable to allocate 23.8 GiB"), ("", "error: out of memory")],
    ids=["numpy", "bare"],
)
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, message, error):
    import akws.cli

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(akws.cli, "run_experiment", exhausted)
    assert run_cli("run", "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == f"{error}\n"
    assert not (tmp_path / "o").exists()
