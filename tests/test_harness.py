import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from akws import (
    AccuracyMatrix,
    HarnessConfig,
    LabelMatrix,
    SynthSpec,
    acc_bwt,
    acc_metric,
    build_tasks,
    bwt_metric,
    expand,
    gen_synth_split,
    oracle_check,
    read_grid_csv,
    relative_frobenius,
    run_experiment,
    split_tasks,
    tasks_from_manifest,
    write_grid_csv,
)
from akws.errors import (
    ConfigError,
    DataError,
    MetricUndefinedError,
    ParseError,
)
from akws.harness import TaskData, _Pipeline, results_dict

from oracles import inject_faulty_updates, ridge_augmented_lstsq, time_trend


def make_accuracy(a_values):
    a = np.asarray(a_values, dtype=np.float64)
    n = a.size
    grid = np.full((n, n), np.nan)
    for t in range(n):
        grid[t, : t + 1] = a[t]
    return AccuracyMatrix(a_vector=a, grid=grid, test_sizes=np.ones(n, dtype=np.int64))


def synth_tasks(seed=0, n_classes=10, base=5, steps=5, per_step=1, separation=6.0):
    spec = SynthSpec(n_classes, 60, 12, separation, 1.0, seed=seed)
    train, test = gen_synth_split(spec, 20)
    split = split_tasks(range(n_classes), base, steps, per_step, seed=seed)
    return build_tasks(train, test, split)


def big_base_tasks():
    """A 3-class base of 750 training rows, then two one-class steps of 250."""
    train, test = gen_synth_split(SynthSpec(5, 250, 12, 6.0, 1.0, seed=2), 20)
    return build_tasks(train, test, split_tasks(range(5), 3, 2, 1, seed=2))


FAST = HarnessConfig(
    gamma=0.1,
    expansion_size=48,
    activation="relu",
    seed=3,
    extractor_hidden=24,
    extractor_epochs=8,
    extractor_lr=0.05,
)


class TestSplitTasks:
    def test_fifteen_plus_five_by_three(self):
        base, *steps = split_tasks(range(30), 15, 5, 3, seed=1)
        assert len(base) == 15
        assert len(steps) == 5
        assert all(len(s) == 3 for s in steps)
        everything = set(base)
        for s in steps:
            everything |= set(s)
        assert everything == set(range(30))

    def test_fifty_plus_fifty_by_one(self):
        base, *steps = split_tasks(range(100), 50, 50, 1, seed=2)
        assert len(base) == 50
        assert len(steps) == 50
        assert all(len(s) == 1 for s in steps)

    def test_arithmetic_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="= 9, but there are 10 classes") as exc:
            split_tasks(range(10), 5, 2, 2, seed=0)
        assert exc.value.field is None

    def test_negative_seed_names_it(self):
        with pytest.raises(ConfigError, match="^seed: must be >= 0$") as exc:
            split_tasks(range(10), 5, 5, 1, seed=-1)
        assert exc.value.field == "seed"

    def test_seed_changes_assignment(self):
        a = split_tasks(range(12), 6, 3, 2, seed=1)
        b = split_tasks(range(12), 6, 3, 2, seed=2)
        assert a[0] != b[0]
        assert a == split_tasks(range(12), 6, 3, 2, seed=1)


class TestMetrics:
    def test_acc_fixture(self):
        assert acc_metric(make_accuracy([1.0, 0.8, 0.6])) == pytest.approx(0.8, abs=1e-15)

    def test_acc_single_entry(self):
        assert acc_metric(make_accuracy([0.37])) == pytest.approx(0.37, abs=1e-15)

    def test_acc_empty_undefined(self):
        with pytest.raises(MetricUndefinedError):
            acc_metric(make_accuracy([]))

    def test_acc_matches_one_line_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0, 1, rng.integers(1, 20))
            assert acc_metric(make_accuracy(a)) == pytest.approx(sum(a) / len(a), abs=1e-15)

    def test_bwt_fixture(self):
        assert bwt_metric(make_accuracy([1.0, 0.8, 0.6])) == pytest.approx(-0.1, abs=1e-15)

    def test_bwt_constant_is_zero(self):
        assert bwt_metric(make_accuracy([0.7, 0.7, 0.7, 0.7])) == 0.0

    def test_bwt_increasing_is_positive(self):
        assert bwt_metric(make_accuracy([0.1, 0.2, 0.3])) > 0.0

    def test_bwt_single_task_undefined(self):
        with pytest.raises(MetricUndefinedError):
            bwt_metric(make_accuracy([1.0]))


class TestRunExperiment:
    def test_base_only_run_flags_bwt(self):
        tasks = synth_tasks(base=10, steps=0)
        result = run_experiment(tasks, FAST)
        acc, bwt, bwt_undefined = acc_bwt(result.accuracy)
        assert bwt_undefined
        assert bwt == 0.0
        assert acc == pytest.approx(result.accuracy.a_vector[0])
        assert result.fit_times[1:] == []

    def test_final_accuracy_matches_joint_oracle(self):
        tasks = synth_tasks()
        report = oracle_check(tasks, FAST)
        rec = report.recursive_accuracy.a_vector
        joint = report.joint_accuracy.a_vector
        assert np.max(np.abs(rec - joint)) <= 1e-9
        assert report.max_deviation <= 1e-9
        assert report.min_agreement == 1.0

    def test_reversed_steps_keep_final_accuracy(self):
        tasks = synth_tasks()
        reversed_tasks = [tasks[0]] + [
            TaskData(task_id=i + 1, classes=t.classes, train=t.train, test=t.test)
            for i, t in enumerate(reversed(tasks[1:]))
        ]
        a = run_experiment(tasks, FAST).accuracy.a_vector[-1]
        b = run_experiment(reversed_tasks, FAST).accuracy.a_vector[-1]
        assert a == pytest.approx(b, abs=1e-12)

    def test_grid_row_matches_concatenated_evaluation(self):
        tasks = synth_tasks()
        result = run_experiment(tasks, FAST)
        grid = result.accuracy.grid
        sizes = result.accuracy.test_sizes
        for t in range(len(tasks)):
            direct = np.sum(grid[t, : t + 1] * sizes[: t + 1]) / np.sum(sizes[: t + 1])
            assert result.accuracy.a_vector[t] == pytest.approx(direct, abs=1e-12)
        assert np.all(np.isnan(grid[np.triu_indices(len(tasks), k=1)]))

    def test_grid_cells_match_per_task_prediction(self, monkeypatch):
        # with the default evaluation block (one block per grid row here) and
        # with blocks of 7 rows, so that each grid row spans many blocks (the
        # held weights then take 7E numbers, so steps are scored in pairs and
        # alone): every step's predictions are one predict over the prefix's
        # rows expanded whole, and the grid and the oracle's agreement follow
        import akws.harness
        from akws import extract, predict

        tasks = synth_tasks(separation=2.0)
        hollow = tasks[2]
        tasks[2] = TaskData(2, hollow.classes, hollow.train, hollow.test.restrict([]))
        last = len(tasks) - 1
        for block_bytes in (akws.harness._EVAL_BLOCK_BYTES, 2 * 7 * 8 * FAST.expansion_size):
            monkeypatch.setattr(akws.harness, "_EVAL_BLOCK_BYTES", block_bytes)
            pipe = _Pipeline(tasks, FAST)
            steps = []

            def whole(t, clf, pred):
                x = np.vstack([task.test.features for task in tasks[: t + 1]])
                assert np.array_equal(pred, predict(clf, expand(extract(pipe.extractor, x), pipe.expansion)))
                steps.append(t)

            result = pipe.run(whole)
            assert steps == list(range(len(tasks)))
            grid = result.accuracy.grid
            for j, task in enumerate(tasks):
                if task.test.n == 0:
                    assert np.all(grid[j:, j] == 0.0)
                    continue
                x = expand(extract(result.extractor, task.test.features), result.expansion)
                hits = predict(result.classifier, x) == task.test.labels
                assert grid[last, j] == float(np.mean(hits))
            report = oracle_check(tasks, FAST)
            assert report.min_agreement == 1.0
            assert np.array_equal(report.recursive_accuracy.grid, grid, equal_nan=True)
            assert np.all(report.recursive_accuracy.grid[2:, 2] == 0.0)

    @pytest.mark.parametrize("block_bytes", [None, 2 * 7 * 8 * FAST.expansion_size], ids=["default", "7-row"])
    def test_holding_steps_back_changes_nothing(self, monkeypatch, block_bytes):
        # the held weights emptied, sized to the base task's 5E numbers, and
        # sized to every step: the passes differ, and the grid and what each
        # on_task call sees do not. With blocks of 7 rows a shared block also
        # reaches into rows that the earlier steps of its pass do not score
        import akws.harness

        if block_bytes is not None:
            monkeypatch.setattr(akws.harness, "_EVAL_BLOCK_BYTES", block_bytes)
        tasks = synth_tasks(separation=2.0)
        hollow = tasks[3]
        tasks[3] = TaskData(3, hollow.classes, hollow.train, hollow.test.restrict([]))
        e, n = FAST.expansion_size, len(tasks)
        expected_passes = {
            0: [[t] for t in range(n)],
            5 * e: [[0, 1], *([t] for t in range(2, n))],
            10**6: [list(range(n))],
        }
        grids, seen = [], []
        for held, passes in expected_passes.items():
            pipe = _Pipeline(tasks, FAST)
            pipe._held = np.empty(held)
            scored = []
            score = pipe.score

            def counted(steps, grid):
                scored.append([t for t, _ in steps])
                return score(steps, grid)

            monkeypatch.setattr(pipe, "score", counted)
            calls = []
            result = pipe.run(lambda t, clf, pred: calls.append((t, clf.weights.tobytes(), clf.class_ids, pred.tobytes())))
            assert scored == passes
            assert [t for t, *_ in calls] == list(range(n))
            grids.append(result.accuracy.grid.tobytes())
            seen.append(calls)
        assert grids[1:] == grids[:1] * 2
        assert seen[1:] == seen[:1] * 2

    def test_a_failure_scoring_a_held_step_names_that_step(self, monkeypatch):
        # every step is held until the last; predict fails for step 3's
        # weights, and expand for the block of 7 rows that holds task 2's
        # first test row, which begins among task 1's rows
        import akws.harness
        from akws import predict

        monkeypatch.setattr(akws.harness, "_EVAL_BLOCK_BYTES", 2 * 7 * 8 * FAST.expansion_size)
        tasks = synth_tasks()

        def held_all():
            pipe = _Pipeline(tasks, FAST)
            pipe._held = np.empty(10**6)
            return pipe

        def failing_predict(clf, x):
            if clf.tasks_seen == 4:
                raise MetricUndefinedError("forced")
            return predict(clf, x)

        monkeypatch.setattr(akws.harness, "predict", failing_predict)
        with pytest.raises(MetricUndefinedError, match="^task 3, evaluate: forced$"):
            held_all().run()
        monkeypatch.setattr(akws.harness, "predict", predict)

        pipe = held_all()
        row = int(pipe.test_offsets[2])
        start = row // 7 * 7
        assert pipe.test_offsets[1] <= start < row
        starts = iter(range(0, len(pipe.test_labels), 7))  # the first row of each block of test rows

        def failing_expand(x, m, out=None):
            if out is not None and next(starts) == start:
                raise DataError("forced")
            return expand(x, m, out=out)

        monkeypatch.setattr(akws.harness, "expand", failing_expand)
        with pytest.raises(DataError, match="^task 1, expand: forced$"):
            pipe.run()

    def test_memory_accounting(self):
        tasks = synth_tasks()
        result = run_experiment(tasks, FAST)
        e = FAST.expansion_size
        assert result.classifier.state_elements() == e * (e + 1) // 2 + e * 10 + 10

    def test_empty_training_task_rejected(self):
        tasks = synth_tasks()
        hollow = TaskData(
            task_id=1,
            classes=tasks[1].classes,
            train=tasks[1].train.restrict([]),
            test=tasks[1].test,
        )
        with pytest.raises(DataError, match="task 1 has an empty training set"):
            run_experiment([tasks[0], hollow], FAST)

    @pytest.mark.parametrize("entry", [run_experiment, oracle_check])
    def test_empty_first_test_set_fails_before_the_first_fit(self, entry, monkeypatch):
        import akws.harness

        def no_fit(*args):
            raise AssertionError("fit reached")

        monkeypatch.setattr(akws.harness, "recalibrate", no_fit)
        tasks = synth_tasks()
        tasks[0] = TaskData(0, tasks[0].classes, tasks[0].train, tasks[0].test.restrict([]))
        with pytest.raises(MetricUndefinedError, match="step 0: tasks 0..0 have no test rows"):
            entry(tasks, FAST)

    def test_accuracies_within_unit_interval(self):
        tasks = synth_tasks(separation=2.0)
        result = run_experiment(tasks, FAST)
        assert np.all(result.accuracy.a_vector >= 0.0)
        assert np.all(result.accuracy.a_vector <= 1.0)

    def test_without_extractor_uses_raw_features(self):
        tasks = synth_tasks()
        cfg = HarnessConfig(
            gamma=0.1, expansion_size=48, activation="relu", seed=3, use_extractor=False
        )
        result = run_experiment(tasks, cfg)
        assert result.extractor is None
        assert result.expansion.dim == tasks[0].train.dim
        assert acc_metric(result.accuracy) > 0.9

    @pytest.mark.parametrize("use_extractor", [True, False])
    def test_oracle_runs_the_production_loop(self, use_extractor, monkeypatch):
        tasks = synth_tasks()
        cfg = replace(FAST, use_extractor=use_extractor)
        grid = run_experiment(tasks, cfg).accuracy.grid
        assert np.array_equal(oracle_check(tasks, cfg).recursive_accuracy.grid, grid, equal_nan=True)
        # a fault in the update the loop runs shows up in the oracle's comparison
        inject_faulty_updates(monkeypatch)
        assert oracle_check(tasks, cfg).max_deviation > 1e-9

    @pytest.mark.parametrize("entry", [run_experiment, oracle_check])
    def test_fits_go_through_the_harness_names(self, entry, monkeypatch):
        # perfbench times set-up up to the first call of these two names
        import akws.harness

        calls = []

        def counted(name, fit):
            def call(*args):
                calls.append(name)
                return fit(*args)

            return call

        for name in ("recalibrate", "update"):
            monkeypatch.setattr(akws.harness, name, counted(name, getattr(akws.harness, name)))
        tasks = synth_tasks()
        entry(tasks, FAST)
        assert calls == ["recalibrate"] + ["update"] * (len(tasks) - 1)

    @pytest.mark.parametrize(
        "rows, e, by_update",
        [(100, 2048, True), (3200, 4096, False), (4400, 512, False), (500, 128, False), (40, 120, False)],
        ids=["stream", "bigbase", "features", "default", "3n=E"],
    )
    def test_first_fit_route_rule(self, rows, e, by_update):
        import akws.harness

        assert akws.harness._first_fit_by_update(rows, e) is by_update

    @pytest.mark.parametrize("entry", [run_experiment, oracle_check])
    def test_small_base_is_fit_by_update_from_the_prior(self, entry, monkeypatch):
        # a base of 2 x 12 rows at E=96, no extractor: 3n < E takes the kernel route
        import akws.harness

        calls = []

        def counted(name, fit):
            def call(*args):
                calls.append(name)
                return fit(*args)

            return call

        for name in ("recalibrate", "update"):
            monkeypatch.setattr(akws.harness, name, counted(name, getattr(akws.harness, name)))
        train, test = gen_synth_split(SynthSpec(8, 12, 12, 6.0, 1.0, seed=4), 10)
        tasks = build_tasks(train, test, split_tasks(range(8), 2, 3, 2, seed=4))
        cfg = HarnessConfig(gamma=0.1, expansion_size=96, activation="relu", seed=3, use_extractor=False)
        result = entry(tasks, cfg)
        assert calls == ["update"] * len(tasks)
        if entry is oracle_check:
            assert result.max_deviation <= 1e-9
            assert result.min_agreement == 1.0
        else:
            assert result.classifier.tasks_seen == len(tasks)

    def test_first_fit_expands_one_block_of_rows_at_a_time(self, monkeypatch):
        # a base of 3 x 250 training rows spans three blocks; every test set
        # and later task has fewer rows than one block
        import akws.harness

        rows = []

        def counted(x, *args, **kwargs):
            rows.append(len(x))
            return expand(x, *args, **kwargs)

        monkeypatch.setattr(akws.harness, "expand", counted)
        run_experiment(big_base_tasks(), FAST)
        assert rows[:3] == [256, 256, 238]
        assert max(rows) <= akws.harness._FIT_BLOCK

    def test_oracle_prefix_zero_is_the_first_fit_itself(self):
        # the oracle adds the base task in the blocks the first fit read
        report = oracle_check(big_base_tasks(), FAST)
        assert report.weight_deviation[0] == 0.0
        assert report.max_deviation <= 1e-9

    def test_fault_injection_breaks_oracle(self, monkeypatch):
        tasks = synth_tasks()
        inject_faulty_updates(monkeypatch)
        report = oracle_check(tasks, FAST)
        assert report.max_deviation > 1e-9

    def test_oracle_memory_does_not_grow_with_the_rows_seen(self):
        # 80 one-class steps of 400 rows at E=64, no extractor: the expanded
        # rows (17 MB) dwarf the joint system (E^2 + E*C numbers), so an
        # oracle that kept its batches would peak at several times the run
        spec = SynthSpec(81, 400, 8, 6.0, 1.0, seed=0)
        train, test = gen_synth_split(spec, 5)
        tasks = build_tasks(train, test, split_tasks(range(81), 1, 80, 1, seed=0))
        cfg = HarnessConfig(gamma=0.1, expansion_size=64, activation="relu", seed=3, use_extractor=False)
        peaks = []
        for entry in (run_experiment, oracle_check):
            tracemalloc.start()
            try:
                entry(tasks, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        run_peak, oracle_peak = peaks
        assert oracle_peak <= 1.2 * run_peak, f"oracle {oracle_peak / 1e6:.2f} MB, run {run_peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("entry", [run_experiment, oracle_check])
    def test_peak_memory_grows_with_the_test_rows_by_their_extracted_width(self, entry):
        # 5 classes at E=512 over d=16 raw features, with 220 and then 2200
        # test rows per class: both counts exceed one evaluation block (512
        # rows), and holding the 9900 extra rows expanded would add 8E = 4096
        # bytes each (40 MB), where held as extracted they add 8d = 128
        e, d = 512, 16
        cfg = HarnessConfig(gamma=0.1, expansion_size=e, activation="relu", seed=3, use_extractor=False)
        peaks = []
        for test_per_class in (220, 2200):
            train, test = gen_synth_split(SynthSpec(5, 20, d, 6.0, 1.0, seed=0), test_per_class)
            tasks = build_tasks(train, test, split_tasks(range(5), 2, 3, 1, seed=0))
            tracemalloc.start()
            try:
                entry(tasks, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra = 5 * (2200 - 220)
        growth = peaks[1] - peaks[0]
        assert growth <= extra * 8 * (d + 8), f"{growth / extra:.0f} bytes per extra test row"

    def test_absolute_memorization_over_twenty_seeds(self):
        # at every prefix the incremental classifier must predict exactly
        # like the jointly solved one on all test data seen so far
        for seed in range(20):
            spec = SynthSpec(6, 25, 8, 3.0, 1.2, seed=seed)
            train, test = gen_synth_split(spec, 10)
            tasks = build_tasks(train, test, split_tasks(range(6), 3, 3, 1, seed=seed))
            cfg = HarnessConfig(
                gamma=0.1, expansion_size=32, activation="relu", seed=seed,
                use_extractor=(seed % 4 == 0),
                extractor_hidden=12, extractor_epochs=3, extractor_lr=0.05,
            )
            report = oracle_check(tasks, cfg)
            assert report.min_agreement == 1.0
            assert report.max_deviation <= 1e-9

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_small_gamma_identity_run_stays_near_the_ridge_solution(self, seed):
        # README's config with the identity activation at gamma 1e-6: S has
        # rank 32 at E=128, so cond(G) is as large as gamma makes it. Each
        # prefix's weights against a QR ridge reference over its rows; the worst
        # prefix read 2.6e-4 to 3.1e-4 on these data and split seeds, at 1 and 2
        # BLAS threads, and 2.9e-3 to 4.5e-3 on the expansion stream drawn
        # before numpy's PCG64
        gamma = 1e-6
        train, test = gen_synth_split(SynthSpec(seed=seed), 25)
        tasks = build_tasks(train, test, split_tasks(range(10), 5, 5, 1, seed=seed))
        pipe = _Pipeline(tasks, HarnessConfig(gamma=gamma, activation="identity", seed=42))
        fits = []
        pipe.run(lambda t, clf, pred: fits.append((clf.weights.copy(), clf.class_ids)))
        rows = []
        for t, (weights, class_ids) in enumerate(fits):
            rows.append(pipe.train_batch(t)[0])
            labels = np.concatenate([task.train.labels for task in tasks[: t + 1]])
            y = LabelMatrix.from_labels(labels, class_ids=class_ids).onehot
            ref = ridge_augmented_lstsq(np.vstack(rows), y, gamma)
            assert relative_frobenius(weights, ref) <= 1e-3, f"prefix {t}"


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        tasks = synth_tasks()
        result = run_experiment(tasks, FAST)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, result.accuracy)
        back = read_grid_csv(path)
        assert np.array_equal(back.test_sizes, result.accuracy.test_sizes)
        tri = np.tril_indices(len(tasks))
        assert np.array_equal(back.grid[tri], result.accuracy.grid[tri])
        assert np.allclose(back.a_vector, result.accuracy.a_vector, atol=1e-15)

    def test_hand_written_grid(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "step,task_0,task_1,task_2\n0,1.0,,\n1,0.8,0.8,\n2,0.6,0.6,0.6\n"
        )
        acc = read_grid_csv(path)
        assert acc_metric(acc) == pytest.approx(0.8, abs=1e-15)
        assert bwt_metric(acc) == pytest.approx(-0.1, abs=1e-15)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_grid_csv(path)

    def test_empty_first_test_set_is_undefined(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# test_sizes,0,5\nstep,task_0,task_1\n0,0.0,\n1,0.0,1.0\n")
        with pytest.raises(MetricUndefinedError, match="step 0: tasks 0..0 have no test rows"):
            read_grid_csv(path)

    def test_empty_later_test_set_is_defined(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("# test_sizes,4,0\nstep,task_0,task_1\n0,0.5,\n1,0.75,0.0\n")
        assert read_grid_csv(path).a_vector.tolist() == [0.5, 0.75]

    def test_value_above_diagonal_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("step,task_0,task_1\n0,1.0,0.5\n1,1.0,1.0\n")
        with pytest.raises(ParseError):
            read_grid_csv(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("step,task_0,task_1\n0,1.0,\n1,abc,1.0\n", 3, "non-numeric cell for task 0"),
            ("step,task_0,task_1\n0,nan,\n1,1.0,1.0\n", 2, "non-finite cell for task 0"),
            ("step,task_0,task_1\n0,1.0,\n1,1.0,inf\n", 3, "non-finite cell for task 1"),
            ("step,task_0,task_1\n0,1.0,\n1,-0.5,1.0\n", 3, r"accuracy outside \[0, 1\] for task 0"),
            ("# test_sizes,4,-1\nstep,task_0,task_1\n0,1.0,\n1,1.0,1.0\n", 1, "negative test size"),
            # numbered by physical line: the comment and blank lines count
            ("# test_sizes,1,1\nstep,task_0,task_1\n0,1.0,\n1,abc,1.0\n", 4, "non-numeric cell for task 0"),
            ("# test_sizes,1,1\nstep,task_0,task_1\n0\n1,1.0,1.0\n", 3, "expected 3 columns"),
            ("step,task_0,task_1\n\n0,1.0,\n1,1.0,inf\n", 4, "non-finite cell for task 1"),
            ("# test_sizes,1\nstp,task_0\n0,1.0\n", 2, "expected 'step,task_0,...' header"),
            ("\nstp,task_0\n0,1.0\n", 2, "expected 'step,task_0,...' header"),
            ("# test_sizes,1\n", 2, "expected 'step,task_0,...' header"),
            ("\n# test_sizes,1\nstep,task_0,task_1\n0,1.0,\n1,1.0,1.0\n", 2, "test_sizes length"),
        ],
    )
    def test_bad_cell_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message) as exc:
            read_grid_csv(path)
        assert exc.value.line == line


def write_task_files(root, tasks):
    """Write each task's train and test CSV and a manifest under ``root``; returns the manifest's path."""
    from akws import save_features, write_manifest

    entries = []
    for t in tasks:
        save_features(t.train, root / f"t{t.task_id}_train.csv")
        save_features(t.test, root / f"t{t.task_id}_test.csv")
        entries.append(
            {
                "id": t.task_id,
                "classes": list(t.classes),
                "train": f"t{t.task_id}_train.csv",
                "test": f"t{t.task_id}_test.csv",
            }
        )
    write_manifest(root / "manifest.json", entries)
    return root / "manifest.json"


class TestManifestTasks:
    def test_round_trip_through_files(self, tmp_path):
        tasks = synth_tasks(n_classes=4, base=2, steps=2)
        loaded = tasks_from_manifest(write_task_files(tmp_path, tasks))
        for orig, back in zip(tasks, loaded):
            assert np.array_equal(orig.train.features, back.train.features)
            assert np.array_equal(orig.test.labels, back.test.labels)
            assert orig.classes == back.classes

    def _watch_train_rows(self, tmp_path, monkeypatch, tasks):
        """Manifest tasks of ``tasks``, and per train file (in task order) a weak
        reference to each features array read from it."""
        from akws import harness

        manifest = write_task_files(tmp_path, tasks)
        reads = {str(tmp_path / f"t{t.task_id}_train.csv"): [] for t in tasks}
        real_load = harness.load_features

        def load(path):
            ds = real_load(path)
            if path in reads:
                reads[path].append(weakref.ref(ds.features))
            return ds

        monkeypatch.setattr(harness, "load_features", load)
        return tasks_from_manifest(manifest), list(reads.values())

    def test_a_run_reads_each_train_file_at_its_step_and_holds_no_rows_past_it(self, tmp_path, monkeypatch):
        # the method keeps no old data: a manifest run reads task t's rows when
        # it reaches task t and holds none of them once task t's step is done
        from akws import harness

        tasks = synth_tasks()
        held = run_experiment(tasks, FAST)
        manifest_tasks, reads = self._watch_train_rows(tmp_path, monkeypatch, tasks)
        alive = []  # per fit, whether each train file's rows were read and are held

        def watched(real):
            def fit(*args, **kwargs):
                alive.append([[ref() is not None for ref in refs] for refs in reads])
                return real(*args, **kwargs)

            return fit

        monkeypatch.setattr(harness, "recalibrate", watched(harness.recalibrate))
        monkeypatch.setattr(harness, "update", watched(harness.update))
        result = run_experiment(manifest_tasks, FAST)
        n = len(tasks)
        assert alive == [[[False]] * t + [[True]] + [[]] * (n - 1 - t) for t in range(n)]
        assert [[ref() is None for ref in refs] for refs in reads] == [[True]] * n
        assert result.accuracy.grid.tobytes() == held.accuracy.grid.tobytes()
        assert result.classifier.weights.tobytes() == held.classifier.weights.tobytes()
        assert result.classifier.afam.tobytes() == held.classifier.afam.tobytes()

    def test_the_oracle_reads_each_train_file_once_and_drops_it(self, tmp_path, monkeypatch):
        # the joint side reads a task's rows in the oracle's callback, after which they go
        tasks = synth_tasks()
        held = oracle_check(tasks, FAST)
        manifest_tasks, reads = self._watch_train_rows(tmp_path, monkeypatch, tasks)
        report = oracle_check(manifest_tasks, FAST)
        assert [[ref() is None for ref in refs] for refs in reads] == [[True]] * len(tasks)
        assert report.weight_deviation == held.weight_deviation
        assert report.argmax_agreement == held.argmax_agreement
        assert report.joint_accuracy.grid.tobytes() == held.joint_accuracy.grid.tobytes()


class TestResultsDict:
    def test_schema_keys(self):
        tasks = synth_tasks()
        result = run_experiment(tasks, FAST)
        doc = results_dict(result, {"expansion": 48})
        assert set(doc) == {
            "config",
            "acc",
            "bwt",
            "bwt_undefined",
            "tt",
            "tt_mean",
            "stage_times",
            "extra_memory_elements",
            "A",
            "task_classes",
        }
        assert doc["config"] == {"expansion": 48}
        assert len(doc["tt"]) == 5
        assert doc["tt_mean"] == pytest.approx(np.mean(doc["tt"]))
        assert len(doc["A"]) == 6


class TestTimeTrend:
    def test_flat_series_not_significant(self):
        # fixed seed chosen to sit away from the expected 1% false-positive tail
        rng = np.random.default_rng(1)
        times = 1e-3 + 1e-6 * rng.standard_normal(50)
        slope, t_stat, p = time_trend(times)
        assert not (slope > 0 and p < 0.01)

    def test_strong_growth_detected(self):
        times = np.linspace(1e-3, 2e-3, 50)
        slope, t_stat, p = time_trend(times)
        assert slope > 0 and p < 0.01

    def test_needs_three_points(self):
        with pytest.raises(MetricUndefinedError):
            time_trend([1.0, 2.0])

    @pytest.mark.parametrize("seed,n,drift", [(1, 50, 0.0), (2, 3, 1e-6), (3, 20, 2e-7), (4, 200, -5e-8)])
    def test_p_value_matches_student_t_tail(self, seed, n, drift):
        from scipy import stats

        rng = np.random.default_rng(seed)
        times = 1e-3 + drift * np.arange(n) + 1e-6 * rng.standard_normal(n)
        _, t_stat, p = time_trend(times)
        assert p == pytest.approx(2.0 * stats.t.sf(abs(t_stat), df=n - 2), rel=1e-12, abs=0.0)
