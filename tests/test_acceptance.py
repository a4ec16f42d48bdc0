"""Acceptance suite: one test per release criterion, each printing a
pass line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Criteria in brief:
 1. chained updates equal the joint solution across a randomized sweep
 2. recursive autocorrelation updates equal the direct form
 3. first-task fit matches a brute-force normal-equations oracle
 4. metric formulas match fixtures and independent recomputation
 5. per-task adaptation time shows no significant positive trend
 6. serialized state element accounting is exact
 7. incremental backward transfer equals the joint oracle's
 8. final accuracy is non-decreasing in the expansion size
 9. extractor gradients match central finite differences
10. identical configs reproduce results bit-for-bit (timing aside)
"""

import json
import time

import numpy as np

from akws import (
    HarnessConfig,
    LabelMatrix,
    SynthSpec,
    build_tasks,
    bwt_metric,
    gen_synth_split,
    joint_solve,
    oracle_check,
    predict,
    recalibrate,
    rectifier_scramble,
    relative_frobenius,
    run_experiment,
    split_tasks,
    update,
)
from akws.cli import main as cli_main
from akws.extractor import batch_loss, loss_and_grads
from akws.snapshot import read_snapshot

from oracles import ridge_normal_equations, time_trend

SWEEP_EXPANSIONS = (16, 64, 128)
SWEEP_GAMMAS = (1e-3, 0.1, 1.0, 10.0)
SWEEP_REPS = 9  # 3 x 4 x 9 = 108 configurations


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def sweep_instances():
    """Deterministic randomized sweep shared by criteria 1 and 2."""
    rng = np.random.default_rng(20240001)
    for e in SWEEP_EXPANSIONS:
        for gamma in SWEEP_GAMMAS:
            for _ in range(SWEEP_REPS):
                n_tasks = int(rng.integers(2, 7))
                batches = []
                next_id = 0
                for _ in range(n_tasks):
                    k = int(rng.integers(1, 6))
                    n = int(rng.integers(k, 50))
                    s = rng.standard_normal((n, e))
                    labs = next_id + rng.integers(0, k, n)
                    batches.append(
                        (s, LabelMatrix.from_labels(labs, class_ids=range(next_id, next_id + k)))
                    )
                    next_id += k
                test_x = rng.standard_normal((25, e))
                yield e, gamma, batches, test_x


def chain(batches, gamma):
    clf = recalibrate(batches[0][0], batches[0][1], gamma)
    for s, y in batches[1:]:
        clf = update(clf, s, y)
    return clf


def test_criterion_01_recursion_equals_joint():
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for e, gamma, batches, test_x in sweep_instances():
        recursive = chain(batches, gamma)
        joint = joint_solve(batches, gamma)
        dev = relative_frobenius(recursive.weights, joint.weights)
        worst = max(worst, dev)
        assert dev < 1e-9
        assert np.array_equal(predict(recursive, test_x), predict(joint, test_x))
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 60.0
    _report(1, f"{checked} configs, worst weight deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_afam_recursion_matches_direct_form():
    worst = 0.0
    for e, gamma, batches, _ in sweep_instances():
        recursive = chain(batches, gamma)
        direct = joint_solve(batches, gamma).afam
        dev = relative_frobenius(recursive.afam.matrix, direct.matrix)
        worst = max(worst, dev)
        assert dev < 1e-10
    _report(2, f"worst autocorrelation deviation {worst:.2e}")


def test_criterion_03_first_fit_matches_normal_equations():
    rng = np.random.default_rng(30)
    worst = 0.0
    for _ in range(20):
        e = int(rng.integers(3, 20))
        n = int(rng.integers(e, 60))
        k = int(rng.integers(2, 6))
        gamma = float(rng.choice([1e-3, 0.1, 1.0, 10.0]))
        s = rng.standard_normal((n, e))
        y = LabelMatrix.from_labels(rng.integers(0, k, n), class_ids=range(k))
        got = recalibrate(s, y, gamma).weights
        expected = ridge_normal_equations(s, y.onehot, gamma)
        dev = relative_frobenius(got, expected)
        worst = max(worst, dev)
        assert dev < 1e-10
    _report(3, f"20 instances, worst deviation {worst:.2e}")


def test_criterion_04_metric_formulas():
    from test_harness import make_accuracy
    from akws import acc_metric

    fixture = make_accuracy([1.0, 0.8, 0.6])
    # bit-for-bit equal to the hand computation carried out in doubles,
    # and within one rounding step of the decimal targets 0.8 / -0.1
    assert acc_metric(fixture) == (1.0 + 0.8 + 0.6) / 3
    assert abs(acc_metric(fixture) - 0.8) < 1e-15
    assert bwt_metric(fixture) == ((0.6 - 0.8) + (0.6 - 0.6)) / 2
    assert abs(bwt_metric(fixture) - (-0.1)) < 1e-15

    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.uniform(0, 1, int(rng.integers(2, 30)))
        am = make_accuracy(a)
        acc_oracle = sum(a) / len(a)
        bwt_oracle = sum(a[-1] - x for x in a[1:]) / (len(a) - 1)
        assert abs(acc_metric(am) - acc_oracle) <= 1e-12
        assert abs(bwt_metric(am) - bwt_oracle) <= 1e-12
    _report(4, "fixtures exact; 50 random grids within 1e-12 of recomputation")


def test_criterion_05_constant_time_adaptation():
    start = time.perf_counter()
    n_classes = 52  # 2 base + 50 single-class tasks, equal 40-row batches
    spec = SynthSpec(
        n_classes=n_classes,
        samples_per_class=40,
        raw_dim=12,
        cluster_separation=4.0,
        noise_sigma=1.0,
        seed=5,
    )
    train, test = gen_synth_split(spec, 5)
    split = split_tasks(range(n_classes), 2, 50, 1, seed=5)
    tasks = build_tasks(train, test, split)
    cfg = HarnessConfig(
        gamma=0.1,
        expansion_size=128,
        activation="relu",
        seed=5,
        extractor_hidden=16,
        extractor_epochs=3,
        extractor_lr=0.05,
    )
    result = run_experiment(tasks, cfg)
    elapsed = time.perf_counter() - start
    tt = result.metrics.tt_per_task
    assert len(tt) == 50
    slope, t_stat, p = time_trend(tt)
    assert not (slope > 0 and p < 0.01), (
        f"per-task time trends upward: slope={slope:.3e}s/task t={t_stat:.2f} p={p:.4f}"
    )
    assert elapsed < 120.0
    _report(5, f"slope={slope:.2e}s/task t={t_stat:+.2f} p={p:.3f}, run {elapsed:.1f}s")


def test_criterion_06_memory_accounting(tmp_path):
    spec = SynthSpec(10, 40, 12, 6.0, 1.0, seed=6)
    train, test = gen_synth_split(spec, 10)
    tasks = build_tasks(train, test, split_tasks(range(10), 5, 5, 1, seed=6))
    cfg = HarnessConfig(
        gamma=0.1, expansion_size=128, activation="relu", seed=6,
        extractor_hidden=16, extractor_epochs=3, extractor_lr=0.05,
    )
    result = run_experiment(tasks, cfg)
    n_classes = result.classifier.n_classes
    registry_entries = len(result.classifier.class_registry)
    assert result.metrics.extra_memory_elements == 16384 + 128 * n_classes + registry_entries

    # the serialized snapshot must carry exactly that state
    from akws.snapshot import save_snapshot

    path = tmp_path / "snap.bin"
    save_snapshot(path, result.classifier, result.snapshot_meta)
    back, _ = read_snapshot(path)
    assert back.weights.size + back.afam.matrix.size == 16384 + 128 * n_classes
    assert len(back.class_registry) == registry_entries
    _report(6, f"E=128, C={n_classes}: {result.metrics.extra_memory_elements} elements")


def test_criterion_07_zero_forgetting_vs_joint_checkpoints():
    worst = 0.0
    for seed in range(3):
        spec = SynthSpec(10, 60, 12, 6.0, 1.0, seed=seed)
        train, test = gen_synth_split(spec, 20)
        tasks = build_tasks(train, test, split_tasks(range(10), 5, 5, 1, seed=seed))
        cfg = HarnessConfig(
            gamma=0.1, expansion_size=64, activation="relu", seed=seed,
            extractor_hidden=24, extractor_epochs=8, extractor_lr=0.05,
        )
        report = oracle_check(tasks, cfg)
        gap = abs(bwt_metric(report.recursive_accuracy) - bwt_metric(report.joint_accuracy))
        worst = max(worst, gap)
        assert gap <= 1e-12
    _report(7, f"largest backward-transfer gap vs joint oracle {worst:.2e}")


def test_criterion_08_accuracy_non_decreasing_in_expansion_size():
    # Clusters pushed through a frozen random rectifier map; heavy ridge
    # keeps every expansion size in the well-regularized regime so the
    # capacity effect dominates.
    def one_run(e, seed):
        spec = SynthSpec(
            n_classes=10, samples_per_class=200, raw_dim=16,
            cluster_separation=4.0, noise_sigma=1.0, seed=seed,
        )
        train, test = gen_synth_split(spec, 40)
        train = rectifier_scramble(train, 10, seed=9999)
        test = rectifier_scramble(test, 10, seed=9999)
        tasks = build_tasks(train, test, split_tasks(range(10), 5, 5, 1, seed=seed))
        cfg = HarnessConfig(
            gamma=1000.0, expansion_size=e, activation="relu", seed=seed, use_extractor=False
        )
        return run_experiment(tasks, cfg).metrics.acc

    sizes = (64, 128, 256, 512)
    stats = []
    for e in sizes:
        accs = [one_run(e, seed) for seed in range(10)]
        stats.append((float(np.mean(accs)), float(np.std(accs, ddof=1) / np.sqrt(len(accs)))))
    summary = " ".join(f"E={e}:{m:.4f}±{s:.4f}" for e, (m, s) in zip(sizes, stats))
    for (prev_mean, prev_se), (mean, _) in zip(stats, stats[1:]):
        assert mean >= prev_mean - prev_se, summary
    _report(8, summary)


def test_criterion_09_extractor_gradients():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((5, 4))
    y = np.zeros((5, 3))
    y[np.arange(5), rng.integers(0, 3, 5)] = 1.0
    params = (
        rng.standard_normal((4, 6)) * 0.5,
        rng.standard_normal(6) * 0.5,
        rng.standard_normal((6, 3)) * 0.5,
        rng.standard_normal(3) * 0.5,
    )
    assert np.min(np.abs(x @ params[0] + params[1])) > 1e-3  # clear of relu kink
    _, grads = loss_and_grads(params, x, y)
    h = 1e-5
    worst = 0.0
    for p, g in zip(params, grads):
        flat, gflat = p.ravel(), g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = batch_loss(params, x, y)
            flat[j] = orig - h
            down = batch_loss(params, x, y)
            flat[j] = orig
            fd = (up - down) / (2 * h)
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4
    _report(9, f"all parameters within {worst:.2e} of central differences")


def test_criterion_10_run_determinism(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli_main(["run", "--out", str(out), "--expansion", "64", "--seed", "33"])
        assert code == 0
    docs = []
    for out in outs:
        doc = json.loads((out / "results.json").read_text())
        for key in ("tt", "tt_mean", "stage_times"):
            doc.pop(key)
        docs.append(doc)
    assert docs[0] == docs[1]
    snap_a = (outs[0] / "snapshot.bin").read_bytes()
    snap_b = (outs[1] / "snapshot.bin").read_bytes()
    assert snap_a == snap_b
    _report(10, "results JSON identical modulo timing; snapshots bit-identical")
