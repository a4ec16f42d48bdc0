"""End-to-end class-incremental runs and their evaluation metrics.

A run has three stages: (1) pretrain the extractor on the base task for
multiple epochs, then freeze it; (2) expand the base task's features and
fit the classifier in closed form, single pass; (3) for each incremental
task, one single-pass recursive update. After every task the classifier
is evaluated on the test sets of all tasks seen so far, filling one row
of a lower-triangular accuracy grid.

``a_vector[t]`` is the sample-weighted accuracy over the union of test
sets 0..t; the average-accuracy metric is the mean of that vector and
backward transfer compares the final entry against each intermediate one.
Per-task training wall time covers stage-3 work only (feature extraction,
expansion, update), never evaluation or I/O.

``run_experiment`` and ``oracle_check`` run the same task loop
(``_Pipeline.run``). The oracle only watches it, one callback per fitted
task, so the loop it checks against the joint solution is the one
``akws run`` executes.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .classifier import (
    AnalyticClassifier,
    LabelMatrix,
    joint_solve,
    predict,
    recalibrate,
    update,
)
from .config import HarnessConfig
from .data import LabeledDataset, load_features, load_manifest
from .errors import DataError, InvalidSplitError, MetricUndefinedError, ParseError
from .expansion import ExpansionMap, build_expansion, expand
from .extractor import ExtractorModel, extract, pretrain_extractor
from .snapshot import SnapshotMeta


@dataclass(frozen=True)
class TaskSplit:
    """Disjoint class sets: one base task plus incremental steps."""

    base_classes: tuple[int, ...]
    steps: tuple[tuple[int, ...], ...]
    seed: int

    def all_task_classes(self) -> list[tuple[int, ...]]:
        return [self.base_classes, *self.steps]


def split_tasks(all_classes, base_count: int, step_count: int, classes_per_step: int, seed: int) -> TaskSplit:
    """Shuffle the class set by seed and carve it into base + equal steps."""
    classes = sorted(int(c) for c in all_classes)
    if base_count < 1 or step_count < 0 or (step_count > 0 and classes_per_step < 1):
        raise InvalidSplitError("base must be nonempty and steps positive-sized")
    if base_count + step_count * classes_per_step != len(classes):
        raise InvalidSplitError(
            f"{base_count} + {step_count} x {classes_per_step} != {len(classes)} classes"
        )
    order = np.random.default_rng(seed).permutation(len(classes))
    shuffled = [classes[i] for i in order]
    base = tuple(shuffled[:base_count])
    steps = tuple(
        tuple(shuffled[base_count + k * classes_per_step : base_count + (k + 1) * classes_per_step])
        for k in range(step_count)
    )
    return TaskSplit(base_classes=base, steps=steps, seed=seed)


@dataclass(frozen=True)
class TaskData:
    task_id: int
    classes: tuple[int, ...]
    train: LabeledDataset
    test: LabeledDataset


def build_tasks(train: LabeledDataset, test: LabeledDataset, split: TaskSplit) -> list[TaskData]:
    """Slice one train/test pair into per-task datasets by class."""
    tasks = []
    for t, cls in enumerate(split.all_task_classes()):
        tasks.append(
            TaskData(
                task_id=t,
                classes=tuple(cls),
                train=train.restrict(cls),
                test=test.restrict(cls),
            )
        )
    return tasks


def tasks_from_manifest(path) -> list[TaskData]:
    """Load per-task train/test feature files listed in a manifest."""
    tasks = []
    for entry in load_manifest(path):
        tasks.append(
            TaskData(
                task_id=entry["id"],
                classes=tuple(entry["classes"]),
                train=load_features(entry["train"]),
                test=load_features(entry["test"]),
            )
        )
    return tasks


@dataclass
class AccuracyMatrix:
    """Per-task evaluation record of one run.

    ``grid[t, j]`` is the accuracy on task j's test set after training
    task t (NaN above the diagonal); ``a_vector[t]`` averages row t over
    tasks 0..t weighted by test-set size.
    """

    a_vector: np.ndarray
    grid: np.ndarray
    test_sizes: np.ndarray

    @classmethod
    def from_grid(cls, grid: np.ndarray, sizes: np.ndarray) -> "AccuracyMatrix":
        """The record of a filled grid, with ``a_vector`` computed from it."""
        w = sizes.astype(np.float64)
        a = np.empty(grid.shape[0])
        for t in range(a.size):
            if not np.any(w[: t + 1]):
                raise MetricUndefinedError(f"step {t}: tasks 0..{t} have no test rows")
            a[t] = np.sum(grid[t, : t + 1] * w[: t + 1]) / np.sum(w[: t + 1])
        return cls(a_vector=a, grid=grid, test_sizes=sizes)


@dataclass
class MetricsReport:
    acc: float
    bwt: float
    bwt_undefined: bool
    tt_per_task: list[float]
    extra_memory_elements: int
    stage_times: dict[str, float] = field(default_factory=dict)


@dataclass
class ExperimentResult:
    metrics: MetricsReport
    accuracy: AccuracyMatrix
    classifier: AnalyticClassifier
    expansion: ExpansionMap
    snapshot_meta: SnapshotMeta
    extractor: ExtractorModel | None
    task_classes: list[list[int]]


def acc_metric(a: AccuracyMatrix) -> float:
    """Mean of the per-task accuracy vector."""
    if a.a_vector.size == 0:
        raise MetricUndefinedError("no completed tasks")
    return float(np.mean(a.a_vector))


def bwt_metric(a: AccuracyMatrix) -> float:
    """Backward transfer: mean of (final accuracy - accuracy at task t).

    Negative values mean later tasks degraded earlier performance; the
    final task's own term contributes zero.
    """
    v = a.a_vector
    if v.size < 2:
        raise MetricUndefinedError("backward transfer needs at least one incremental task")
    t_final = v.size - 1
    return float(np.mean(v[t_final] - v[1:]))


class _Pipeline:
    """The one task loop, with the extraction, expansion and evaluation it runs."""

    def __init__(self, tasks: list[TaskData], config: HarnessConfig):
        if not tasks:
            raise DataError("experiment needs at least one task")
        for task in tasks:
            if task.train.n == 0:
                raise DataError(f"task {task.task_id} has an empty training set")
        if tasks[0].test.n == 0:
            # checked before any fit: step 0's accuracy would be 0/0
            raise MetricUndefinedError("step 0: tasks 0..0 have no test rows")
        self.tasks = tasks
        self.config = config
        self.extractor: ExtractorModel | None = None
        self.pretrain_time = 0.0
        t0 = time.perf_counter()
        if config.use_extractor:
            self.extractor, _ = pretrain_extractor(
                tasks[0].train,
                hidden=config.extractor_hidden,
                epochs=config.extractor_epochs,
                lr=config.extractor_lr,
                seed=config.seed,
            )
            self.pretrain_time = time.perf_counter() - t0
            feature_dim = self.extractor.hidden_width
        else:
            feature_dim = tasks[0].train.dim
        self.expansion = build_expansion(
            feature_dim, config.expansion_size, config.seed, config.activation
        )
        # Every task's expanded test rows live in one buffer, in task order,
        # so evaluating tasks 0..t is one product over a prefix of it.
        self.test_sizes = np.array([task.test.n for task in tasks], dtype=np.int64)
        self.test_offsets = np.concatenate([[0], np.cumsum(self.test_sizes)])
        self.test_labels = np.concatenate([task.test.labels for task in tasks])
        self._test_x = np.empty((int(self.test_offsets[-1]), config.expansion_size))
        self._test_filled = 0

    def features(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.extractor is not None:
            x = extract(self.extractor, x)
        return expand(x, self.expansion, out=out)

    def train_batch(self, t: int) -> tuple[np.ndarray, LabelMatrix]:
        task = self.tasks[t]
        s = self.features(task.train.features)
        y = LabelMatrix.from_labels(task.train.labels, class_ids=task.classes)
        return s, y

    def test_features(self, upto: int) -> np.ndarray:
        """Expanded test rows of tasks 0..upto, expanding each task once."""
        off = self.test_offsets
        for t in range(self._test_filled, upto + 1):
            self.features(self.tasks[t].test.features, out=self._test_x[off[t] : off[t + 1]])
        self._test_filled = max(self._test_filled, upto + 1)
        return self._test_x[: off[upto + 1]]

    def grid_row(self, clf: AnalyticClassifier, upto: int, grid: np.ndarray) -> np.ndarray:
        """Fill row ``upto`` of the grid; returns the predictions on tasks 0..upto.

        A task with no test rows scores 0.0.
        """
        pred = predict(clf, self.test_features(upto))
        hits = np.concatenate([[0], np.cumsum(pred == self.test_labels[: pred.size])])
        off = self.test_offsets[: upto + 2]
        sizes = np.diff(off)
        correct = hits[off[1:]] - hits[off[:-1]]
        grid[upto, : upto + 1] = np.where(sizes > 0, correct / np.maximum(sizes, 1), 0.0)
        return pred

    def run(self, on_task=None) -> tuple[AnalyticClassifier, np.ndarray, list[float]]:
        """Fit task 0 in closed form, absorb each later task by one update.

        Returns the final classifier, the accuracy grid and each fit's wall
        time (extraction, expansion and the fit; never evaluation). After
        step t's grid row, ``on_task(t, clf, batch, pred)`` sees the fitted
        classifier, the task's expanded training batch and the predictions
        on tasks 0..t. Without it the batch is released as part of the fit,
        before evaluation, since no later step needs it.
        """
        n = len(self.tasks)
        grid = np.full((n, n), np.nan)
        fit_times = []
        clf = None
        for t in range(n):
            t0 = time.perf_counter()
            batch = self.train_batch(t)
            clf = recalibrate(*batch, self.config.gamma) if t == 0 else update(clf, *batch)
            if on_task is None:
                batch = None
            fit_times.append(time.perf_counter() - t0)
            pred = self.grid_row(clf, t, grid)
            if on_task is not None:
                on_task(t, clf, batch, pred)
        return clf, grid, fit_times


def run_experiment(tasks: list[TaskData], config: HarnessConfig) -> ExperimentResult:
    """Execute the three-stage pipeline over a task sequence.

    Single pass per task throughout: the base task is fit once in closed
    form and every incremental task is absorbed by one recursive update.
    """
    pipe = _Pipeline(tasks, config)
    clf, grid, fit_times = pipe.run()
    accuracy = AccuracyMatrix.from_grid(grid, pipe.test_sizes)
    bwt_undefined = len(tasks) < 2
    metrics = MetricsReport(
        acc=acc_metric(accuracy),
        bwt=0.0 if bwt_undefined else bwt_metric(accuracy),
        bwt_undefined=bwt_undefined,
        tt_per_task=fit_times[1:],
        extra_memory_elements=clf.state_elements(),
        stage_times={"pretrain": pipe.pretrain_time, "recalibrate": fit_times[0]},
    )
    meta = SnapshotMeta(
        dim=pipe.expansion.dim, seed=config.seed, activation=config.activation
    )
    return ExperimentResult(
        metrics=metrics,
        accuracy=accuracy,
        classifier=clf,
        expansion=pipe.expansion,
        snapshot_meta=meta,
        extractor=pipe.extractor,
        task_classes=[list(t.classes) for t in tasks],
    )


@dataclass
class OracleReport:
    """Recursive-vs-joint comparison at every prefix of a task sequence."""

    weight_deviation: list[float]
    argmax_agreement: list[float]
    recursive_accuracy: AccuracyMatrix
    joint_accuracy: AccuracyMatrix

    @property
    def max_deviation(self) -> float:
        return max(self.weight_deviation)

    @property
    def min_agreement(self) -> float:
        return min(self.argmax_agreement)

    def worst_prefix(self) -> int:
        return int(np.argmax(self.weight_deviation))


def relative_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance scaled by the larger operand norm (0 if both zero)."""
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def oracle_check(tasks: list[TaskData], config: HarnessConfig, inject_noise: float = 0.0) -> OracleReport:
    """Run the production task loop against the joint solution per prefix.

    Unlike a production run this retains every expanded batch, since the
    joint oracle needs them. ``inject_noise`` perturbs the recursive
    weights compared at each prefix (fault injection for testing the
    checker); the chain that later updates build on is left alone.
    """
    pipe = _Pipeline(tasks, config)
    n_tasks = len(tasks)
    grid_joint = np.full((n_tasks, n_tasks), np.nan)
    noise_rng = np.random.default_rng(config.seed ^ 0x5EED)
    batches = []
    deviations = []
    agreements = []

    def compare(t, clf, batch, pred_rec):
        batches.append(batch)
        weights = clf.weights
        if inject_noise:
            scale = inject_noise * max(1.0, float(np.max(np.abs(weights))))
            weights = weights + scale * noise_rng.standard_normal(weights.shape)
        joint = joint_solve(batches, config.gamma)
        deviations.append(relative_frobenius(weights, joint.weights))
        pred_joint = pipe.grid_row(joint, t, grid_joint)
        agreements.append(float(np.mean(pred_rec == pred_joint)) if pred_rec.size else 1.0)

    _, grid_rec, _ = pipe.run(compare)
    return OracleReport(
        weight_deviation=deviations,
        argmax_agreement=agreements,
        recursive_accuracy=AccuracyMatrix.from_grid(grid_rec, pipe.test_sizes),
        joint_accuracy=AccuracyMatrix.from_grid(grid_joint, pipe.test_sizes),
    )


def write_grid_csv(path, accuracy: AccuracyMatrix) -> None:
    """Heatmap-ready CSV: rows are training steps, columns task ids.

    Cells above the diagonal stay empty. The leading comment line records
    test-set sizes so the per-step accuracy vector can be recomputed with
    correct sample weighting.
    """
    grid = accuracy.grid
    n = grid.shape[0]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# test_sizes," + ",".join(str(int(s)) for s in accuracy.test_sizes) + "\n")
        fh.write("step," + ",".join(f"task_{j}" for j in range(n)) + "\n")
        for t in range(n):
            cells = [repr(float(grid[t, j])) if j <= t else "" for j in range(n)]
            fh.write(f"{t}," + ",".join(cells) + "\n")


def read_grid_csv(path) -> AccuracyMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln != ""]
    if not lines:
        raise ParseError("empty grid file", line=1)
    sizes = None
    if lines[0].startswith("# test_sizes,"):
        try:
            sizes = np.array([int(v) for v in lines[0].split(",")[1:]], dtype=np.int64)
        except ValueError:
            raise ParseError("bad test_sizes comment", line=1) from None
        if np.any(sizes < 0):
            raise ParseError("negative test size", line=1)
        lines = lines[1:]
    if not lines or not lines[0].startswith("step,"):
        raise ParseError("expected 'step,task_0,...' header", line=1)
    n = len(lines[0].split(",")) - 1
    if n < 1 or len(lines) - 1 != n:
        raise ParseError(f"grid must be {n} x {n} with one row per step")
    grid = np.full((n, n), np.nan)
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != n + 1:
            raise ParseError(f"expected {n + 1} columns", line=t + 2)
        for j in range(n):
            cell = cells[j + 1]
            if j <= t:
                if cell == "":
                    raise ParseError(f"missing cell for task {j}", line=t + 2)
                try:
                    grid[t, j] = float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric cell for task {j}", line=t + 2) from None
                if not np.isfinite(grid[t, j]):
                    raise ParseError(f"non-finite cell for task {j}", line=t + 2)
                if not 0.0 <= grid[t, j] <= 1.0:
                    raise ParseError(f"accuracy outside [0, 1] for task {j}", line=t + 2)
            elif cell != "":
                raise ParseError("unexpected value above the diagonal", line=t + 2)
    if sizes is None:
        sizes = np.ones(n, dtype=np.int64)
    elif sizes.shape[0] != n:
        raise ParseError("test_sizes length does not match the grid", line=1)
    return AccuracyMatrix.from_grid(grid, sizes)


def results_dict(result: ExperimentResult, config_echo: dict) -> dict:
    """Results document for the run's JSON artifact."""
    m = result.metrics
    return {
        "config": config_echo,
        "acc": m.acc,
        "bwt": m.bwt,
        "bwt_undefined": m.bwt_undefined,
        "tt": list(m.tt_per_task),
        "tt_mean": float(np.mean(m.tt_per_task)) if m.tt_per_task else 0.0,
        "stage_times": dict(m.stage_times),
        "extra_memory_elements": m.extra_memory_elements,
        "A": [float(v) for v in result.accuracy.a_vector],
        "task_classes": result.task_classes,
    }
