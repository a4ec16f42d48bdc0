#!/usr/bin/env python3
"""Ablation: final accuracy vs expansion size and regularization strength.

Runs the incremental pipeline on a fixed nonlinear benchmark (Gaussian
clusters pushed through a frozen random rectifier map) for every
combination of expansion size and ridge strength, averaged over seeds.
A row with expansion size 0 is the no-expansion baseline: the ridge
classifier fit directly on the observed features.

Usage:
    python scripts/expansion_sweep.py [--seeds 10] [--csv sweep.csv]
"""

import argparse
import csv
import sys

import numpy as np

from akws import (
    AccuracyMatrix,
    HarnessConfig,
    LabelMatrix,
    SynthSpec,
    acc_metric,
    build_tasks,
    gen_synth_split,
    predict,
    recalibrate,
    rectifier_scramble,
    run_experiment,
    split_tasks,
    update,
)

EXPANSIONS = (0, 64, 128, 256, 512)
GAMMAS = (1000.0, 1e-6)  # strong ridge vs effectively none
OBS_DIM = 10
MAP_SEED = 9999


def benchmark_tasks(seed: int):
    spec = SynthSpec(
        n_classes=10,
        samples_per_class=200,
        raw_dim=16,
        cluster_separation=4.0,
        noise_sigma=1.0,
        seed=seed,
    )
    train, test = gen_synth_split(spec, 40)
    train = rectifier_scramble(train, OBS_DIM, seed=MAP_SEED)
    test = rectifier_scramble(test, OBS_DIM, seed=MAP_SEED)
    split = split_tasks(range(10), 5, 5, 1, seed=seed)
    return build_tasks(train, test, split)


def run_no_expansion(tasks, gamma: float) -> float:
    """Incremental ridge on raw observed features (no expansion layer)."""
    grid = np.full((len(tasks), len(tasks)), np.nan)
    sizes = np.array([t.test.n for t in tasks])
    clf = None
    for t, task in enumerate(tasks):
        labels = LabelMatrix.from_labels(task.train.labels, class_ids=task.classes)
        if clf is None:
            clf = recalibrate(task.train.features, labels, gamma)
        else:
            clf = update(clf, task.train.features, labels)
        for j in range(t + 1):
            pred = predict(clf, tasks[j].test.features)
            grid[t, j] = float(np.mean(pred == tasks[j].test.labels))
    return acc_metric(AccuracyMatrix.from_grid(grid, sizes))


def run_cell(expansion: int, gamma: float, seed: int) -> float:
    tasks = benchmark_tasks(seed)
    if expansion == 0:
        return run_no_expansion(tasks, gamma)
    cfg = HarnessConfig(
        gamma=gamma, expansion_size=expansion, activation="relu", seed=seed, use_extractor=False
    )
    return run_experiment(tasks, cfg).metrics.acc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--csv", default=None, help="optional output CSV path")
    args = parser.parse_args(argv)

    rows = []
    print(f"{'expansion':>9}  {'gamma':>8}  {'mean ACC':>8}  {'std err':>8}")
    for gamma in GAMMAS:
        for expansion in EXPANSIONS:
            accs = [run_cell(expansion, gamma, seed) for seed in range(args.seeds)]
            mean = float(np.mean(accs))
            # one seed has no spread to estimate: report nan, without numpy's warning
            se = float(np.std(accs, ddof=1) / np.sqrt(len(accs))) if len(accs) > 1 else float("nan")
            rows.append({"expansion": expansion, "gamma": gamma, "mean_acc": mean, "stderr": se})
            print(f"{expansion:>9}  {gamma:>8g}  {mean:8.4f}  {se:8.4f}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["expansion", "gamma", "mean_acc", "stderr"])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
