"""End-to-end class-incremental runs and their evaluation metrics.

A run has three stages: (1) pretrain the extractor on the base task for
multiple epochs, then freeze it; (2) expand the base task's features and
fit the classifier in closed form, single pass, one block of rows at a
time; (3) for each incremental task, one single-pass recursive update.
After every task the classifier is evaluated on the test sets of all
tasks seen so far, filling one row of a lower-triangular accuracy grid.
The run keeps the test rows as the extractor gives them (m_test x d), not
expanded (m_test x E), and evaluates several steps in one pass. After a
fit it copies the step's weights into a buffer of held weights while they
fit there; a step whose weights do not fit, and the last, scores itself
and every held step. The pass expands the test rows of the latest step's
prefix one block at a time, each block once, into a second buffer, and
each step's ``predict`` scores the rows of the block in its own prefix.
The two buffers split ``_EVAL_BLOCK_BYTES`` and are allocated once per run.

``a_vector[t]`` is the sample-weighted accuracy over the union of test
sets 0..t; the average-accuracy metric is the mean of that vector and
backward transfer compares the final entry against each intermediate one.
Per-task training wall time covers stage-3 work only (feature extraction,
expansion, update), never evaluation or I/O.

A run from a manifest keeps no old data: it reads a later task's train
file when it reaches that task, and drops the task's training rows once
its fit (and the oracle's callback, if any) is done (``TrainFile``).

``run_experiment`` and ``oracle_check`` run the same task loop
(``_Pipeline.run``). The oracle only watches it, one callback per fitted
task, so the loop it checks against the joint solution is the one
``akws run`` executes.
"""

import time
from dataclasses import dataclass

import numpy as np

from .classifier import (
    _EVAL_BLOCK_BYTES,
    AnalyticClassifier,
    LabelMatrix,
    NormalEquations,
    predict,
    prior,
    recalibrate,
    update,
)
from .config import HarnessConfig
from .data import LabeledDataset, load_features, load_manifest, read_text
from .errors import AkwsError, DataError, MetricUndefinedError, ParseError
from .expansion import ExpansionMap, build_expansion, expand
from .extractor import ExtractorModel, extract, pretrain_extractor

# Rows of the base task expanded and added to the first fit at a time, so
# its expanded rows are never held whole: at E=4096 a block is 8 MB where
# a 3200-row base batch is 105 MB.
_FIT_BLOCK = 256


def _first_fit_by_update(rows: int, e: int) -> bool:
    """Whether a base task of ``rows`` rows at width ``e`` is fit by ``update`` from ``prior``.

    That route costs about 3nE^2 + 3n^2 E flops and the Gram route
    (``recalibrate``) about nE^2 + E^3; they cross at 3n = E.
    """
    return 3 * rows < e


class TrainFile:
    """A manifest task's train set, read from its file on first use.

    ``features``, ``labels``, ``n`` and ``dim`` are those of the
    ``LabeledDataset`` the file holds; the first use reads the file,
    through ``load_features``, with the checks ``tasks_from_manifest``
    makes of every file (``width`` is the first train file's, None for
    that file itself), and raises ``ParseError`` if it has no rows.
    ``drop`` releases the rows, and the next use reads the file again.
    The file is opened when this is made, so one that cannot be opened
    fails before any fit.
    """

    def __init__(self, path, task_id: int, classes: tuple[int, ...], width: int | None):
        with open(path, "rb"):
            pass
        self.path, self.task_id, self.classes, self.width = path, task_id, classes, width
        self._rows = None

    def rows(self) -> LabeledDataset:
        """The file's rows, read now if they are not held."""
        if self._rows is None:
            where = f"task {self.task_id} train file {self.path}"
            ds = _checked(load_features(self.path), where, self.classes, self.width)
            if ds.n == 0:
                raise ParseError(f"{where}: no training rows")
            self._rows = ds
        return self._rows

    def drop(self) -> None:
        self._rows = None

    @property
    def features(self) -> np.ndarray:
        return self.rows().features

    @property
    def labels(self) -> np.ndarray:
        return self.rows().labels

    @property
    def n(self) -> int:
        return self.rows().n

    @property
    def dim(self) -> int:
        return self.rows().dim


@dataclass(frozen=True)
class TaskData:
    task_id: int
    classes: tuple[int, ...]
    train: LabeledDataset | TrainFile
    test: LabeledDataset


def build_tasks(train: LabeledDataset, test: LabeledDataset, task_classes) -> list[TaskData]:
    """Slice one train/test pair into per-task datasets, one per class tuple."""
    tasks = []
    for t, cls in enumerate(task_classes):
        tasks.append(
            TaskData(
                task_id=t,
                classes=tuple(cls),
                train=train.restrict(cls),
                test=test.restrict(cls),
            )
        )
    return tasks


def _checked(ds: LabeledDataset, where: str, classes: tuple[int, ...], width: int | None) -> LabeledDataset:
    """``ds``, if it is ``width`` features wide (any width if None) and its labels are among ``classes``."""
    if width is not None and ds.dim != width:
        raise ParseError(f"{where}: {ds.dim} features, but the first train file has {width}", line=1)
    outside = ~np.isin(ds.labels, classes)
    if outside.any():
        row = int(np.argmax(outside))
        raise ParseError(f"{where}: label {ds.labels[row]} is not among the task's classes", line=row + 2)
    return ds


def tasks_from_manifest(path) -> list[TaskData]:
    """Per-task train/test feature files listed in a manifest, each train set a ``TrainFile``.

    Before any fit, the manifest, every test file and task 0's train file
    are read and every later train file is opened. Contents a run cannot
    use raise ``ParseError``: a class declared by two tasks, a file whose
    width differs from the first train file's, a label outside its task's
    classes, or a train file without rows. A later task's train file is
    read, and so checked, when the run reaches that task, and its rows
    are dropped once the run is done with them (``_Pipeline.run``).
    """
    tasks = []
    owner: dict[int, int] = {}
    width = None
    for entry in load_manifest(path):
        tid, classes = entry["id"], tuple(entry["classes"])
        for cid in classes:
            if cid in owner:
                raise ParseError(
                    f"manifest {path}: task {tid} declares class {cid}, as task {owner[cid]} does"
                )
            owner[cid] = tid
        train = TrainFile(entry["train"], tid, classes, width)
        if width is None:
            width = train.dim  # reads task 0's train file
        test = _checked(load_features(entry["test"]), f"task {tid} test file {entry['test']}", classes, width)
        tasks.append(TaskData(task_id=tid, classes=classes, train=train, test=test))
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
class ExperimentResult:
    """The one record of a run: ``fit_times[t]`` is task t's fit wall time
    (extraction, expansion and the fit; never evaluation)."""

    accuracy: AccuracyMatrix
    classifier: AnalyticClassifier
    expansion: ExpansionMap
    extractor: ExtractorModel | None
    task_classes: list[list[int]]
    fit_times: list[float]
    pretrain_time: float


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


def acc_bwt(a: AccuracyMatrix) -> tuple[float, float, bool]:
    """ACC, BWT and whether BWT is undefined; below two steps BWT reads 0.0."""
    undefined = a.a_vector.size < 2
    return acc_metric(a), 0.0 if undefined else bwt_metric(a), undefined


class _Pipeline:
    """The one task loop, with the extraction, expansion and evaluation it runs.

    ``task`` and ``stage`` name the task and the step of the loop running
    now (``extract``, ``expand``, ``fit`` or ``evaluate``). An
    ``AkwsError`` raised there, in task t, in pretraining (task 0,
    ``pretrain``) or in the oracle's callback for task t (``oracle``) is
    raised again as itself, so its type and exit code stay, with the
    message ``task t, <stage>: <message>``.
    """

    def __init__(self, tasks: list[TaskData], config: HarnessConfig):
        if not tasks:
            raise DataError("experiment needs at least one task")
        for task in tasks:  # a TrainFile checks its own rows when read
            if isinstance(task.train, LabeledDataset) and task.train.n == 0:
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
            try:
                self.extractor, _ = pretrain_extractor(
                    tasks[0].train,
                    hidden=config.extractor_hidden,
                    epochs=config.extractor_epochs,
                    lr=config.extractor_lr,
                    seed=config.seed,
                )
            except AkwsError as exc:
                exc.args = (f"task 0, pretrain: {exc}",)
                raise
            self.pretrain_time = time.perf_counter() - t0
            feature_dim = self.extractor.hidden_width
        else:
            feature_dim = tasks[0].train.dim
        self.expansion = build_expansion(
            feature_dim, config.expansion_size, config.seed, config.activation
        )
        # Every task's test rows as the extractor gives them, in task order, in
        # one m_test x d buffer; score expands the prefix it scores into
        # _eval_s, one block of rows at a time. _held holds the weights of the
        # steps fitted and not yet scored. Each takes half of _EVAL_BLOCK_BYTES.
        self.test_sizes = np.array([task.test.n for task in tasks], dtype=np.int64)
        self.test_offsets = np.concatenate([[0], np.cumsum(self.test_sizes)])
        self.test_labels = np.concatenate([task.test.labels for task in tasks])
        m, e = int(self.test_offsets[-1]), config.expansion_size
        self._test_f = np.empty((m, feature_dim))
        self._test_filled = 0
        self._eval_s = np.empty((max(1, min(m, _EVAL_BLOCK_BYTES // (16 * e))), e))
        self._held = np.empty(_EVAL_BLOCK_BYTES // 16)

    def extracted(self, x: np.ndarray) -> np.ndarray:
        """``x`` through the frozen extractor, or ``x`` itself in a run without one."""
        if self.extractor is None:
            return x
        self.stage = "extract"
        return extract(self.extractor, x)

    def expanded(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        self.stage = "expand"
        return expand(x, self.expansion, out=out)

    def train_batch(self, t: int, rows: slice = slice(None)) -> tuple[np.ndarray, LabelMatrix]:
        """Task t's expanded training rows (all, or a slice of them) and their labels."""
        task = self.tasks[t]
        s = self.expanded(self.extracted(task.train.features[rows]))
        self.stage = "fit"
        y = LabelMatrix.from_labels(task.train.labels[rows], class_ids=task.classes)
        return s, y

    def release(self, t: int) -> None:
        """Drop task t's training rows if they are a ``TrainFile``'s, which can read them again."""
        if isinstance(self.tasks[t].train, TrainFile):
            self.tasks[t].train.drop()

    def train_blocks(self, t: int):
        """Task t's training batch, ``_FIT_BLOCK`` rows at a time, each block expanded when read."""
        for i in range(0, self.tasks[t].train.n, _FIT_BLOCK):
            yield self.train_batch(t, slice(i, i + _FIT_BLOCK))

    def test_rows(self, upto: int) -> np.ndarray:
        """Extracted, unexpanded test rows of tasks 0..upto, extracting each task once."""
        off = self.test_offsets
        for t in range(self._test_filled, upto + 1):
            self.task = t
            self._test_f[off[t] : off[t + 1]] = self.extracted(self.tasks[t].test.features)
        self._test_filled = max(self._test_filled, upto + 1)
        return self._test_f[: off[upto + 1]]

    def score(self, steps: list, grid: np.ndarray) -> list[np.ndarray]:
        """Fill grid row t for each ``(t, clf)`` of ``steps``, given in task order.

        Returns each step's predictions on tasks 0..t. The test rows of the
        last step's prefix are expanded one block of ``_eval_s``'s rows at a
        time, each block once for every step. Each step's ``predict`` then
        scores the rows of its own prefix in the block, the rows it would
        score alone, so its scores keep their bits (``predict``'s depend on
        the rows of each call). An expansion failure names the earliest
        step whose prefix the block reaches. A task with no test rows
        scores 0.0.
        """
        x = self.test_rows(steps[-1][0])
        ends = [int(self.test_offsets[t + 1]) for t, _ in steps]
        preds = [np.empty(end, dtype=np.int64) for end in ends]
        block = len(self._eval_s)
        first = 0  # the earliest step whose prefix reaches the block
        for i in range(0, len(x), block):
            while ends[first] <= i:
                first += 1
            self.task = steps[first][0]
            s = self.expanded(x[i : i + block], out=self._eval_s[: len(x) - i])
            self.stage = "evaluate"
            for (t, clf), end, pred in zip(steps[first:], ends[first:], preds[first:]):
                self.task = t
                pred[i : i + block] = predict(clf, s[: end - i])
        for (t, _), pred in zip(steps, preds):
            hits = np.concatenate([[0], np.cumsum(pred == self.test_labels[: pred.size])])
            off = self.test_offsets[: t + 2]
            sizes = np.diff(off)
            correct = hits[off[1:]] - hits[off[:-1]]
            grid[t, : t + 1] = np.where(sizes > 0, correct / np.maximum(sizes, 1), 0.0)
        return preds

    def run(self, on_task=None) -> ExperimentResult:
        """Fit task 0 in closed form, absorb each later task by one update.

        Returns the run's one record (``ExperimentResult``): the final
        classifier, the accuracy grid and each fit's wall time. Task 0 of
        n rows at width E takes one of two routes (``_first_fit_by_update``).
        When 3n < E it is one ``update`` of ``prior(E, gamma)`` by its
        whole batch (the kernel route). Otherwise it reaches ``recalibrate``
        as ``train_blocks(0)`` (the Gram route). Every later batch
        is released as part of its fit, before evaluation. A task whose
        train set is a ``TrainFile`` has its file read before its fit timer
        starts, and its rows dropped once the fit is done, or once
        ``on_task`` returns for it where there is one; its errors are the
        file's own, not named by task and stage.

        After a fit, outside its timer, the step's weights are copied into
        ``_held`` while they fit there and later tasks remain. Otherwise
        the held steps and this one are scored in one ``score`` pass, this
        one by the live classifier. ``on_task(t, clf, pred)`` is then called
        for each of them in task order, after step t's grid row is filled,
        with the predictions on tasks 0..t and a classifier whose weights
        are step t's; a held step's is weights-only. It is valid only during
        the call (later steps write over ``_held``, and each update advances
        the live classifier in place), so copy what must outlast it. Its
        failures are named as the oracle's.
        """
        n = len(self.tasks)
        e, gamma = self.config.expansion_size, self.config.gamma
        grid = np.full((n, n), np.nan)
        fit_times = []
        clf = None
        held, used = [], 0  # the held steps' (t, weights-only classifier), and _held's numbers they take
        for t in range(n):
            self.task = t
            if isinstance(self.tasks[t].train, TrainFile):
                self.tasks[t].train.rows()  # read before the fit timer starts: no fit time is I/O
            try:
                t0 = time.perf_counter()
                self.stage = "fit"
                if t == 0 and not _first_fit_by_update(self.tasks[0].train.n, e):
                    clf = recalibrate(self.train_blocks(0), gamma)
                else:
                    clf = update(clf if t else prior(e, gamma), *self.train_batch(t))
                fit_times.append(time.perf_counter() - t0)
                if on_task is None:
                    self.release(t)
                size = clf.weights.size
                if t < n - 1 and used + size <= self._held.size:
                    w = self._held[used : used + size].reshape(clf.weights.shape, order="F")
                    w[...] = clf.weights
                    held.append(
                        (t, AnalyticClassifier(w, None, gamma, class_ids=clf.class_ids, tasks_seen=clf.tasks_seen))
                    )
                    used += size
                    continue
                steps = [*held, (t, clf)]
                preds = self.score(steps, grid)
            except AkwsError as exc:
                exc.args = (f"task {self.task}, {self.stage}: {exc}",)
                raise
            held, used = [], 0
            if on_task is None:
                continue
            for (k, clf_k), pred in zip(steps, preds):
                try:
                    on_task(k, clf_k, pred)
                except AkwsError as exc:
                    exc.args = (f"task {k}, oracle: {exc}",)
                    raise
                self.release(k)
        return ExperimentResult(
            accuracy=AccuracyMatrix.from_grid(grid, self.test_sizes),
            classifier=clf,
            expansion=self.expansion,
            extractor=self.extractor,
            task_classes=[list(task.classes) for task in self.tasks],
            fit_times=fit_times,
            pretrain_time=self.pretrain_time,
        )


def run_experiment(tasks: list[TaskData], config: HarnessConfig) -> ExperimentResult:
    """Execute the three-stage pipeline over a task sequence.

    Single pass per task throughout: the base task is fit once in closed
    form and every incremental task is absorbed by one recursive update.
    """
    return _Pipeline(tasks, config).run()


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


def oracle_check(tasks: list[TaskData], config: HarnessConfig) -> OracleReport:
    """Run the production task loop against the joint solution per prefix.

    The joint side keeps no batch: once the loop has scored step t, the
    task's rows are expanded again in the blocks of ``train_blocks`` and
    added to the normal equations, which are then solved for the weights
    and scored by ``score`` alone. On the
    Gram route task 0's joint solution is the first fit's own computation,
    so its deviation is exactly 0. On the kernel route (3n < E, see
    ``_Pipeline.run``) the first fit is an ``update``, and prefix 0
    compares two computations like every later prefix.
    """
    pipe = _Pipeline(tasks, config)
    n_tasks = len(tasks)
    grid_joint = np.full((n_tasks, n_tasks), np.nan)
    normal = NormalEquations(config.gamma)
    deviations = []
    agreements = []

    def compare(t, clf, pred_rec):
        normal.add(pipe.train_blocks(t))
        joint = normal.solve(inverse=False)
        deviations.append(relative_frobenius(clf.weights, joint.weights))
        (pred_joint,) = pipe.score([(t, joint)], grid_joint)
        agreements.append(float(np.mean(pred_rec == pred_joint)) if pred_rec.size else 1.0)

    recursive = pipe.run(compare)
    return OracleReport(
        weight_deviation=deviations,
        argmax_agreement=agreements,
        recursive_accuracy=recursive.accuracy,
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
    text = read_text(path, f"grid file {path}")
    # (physical line number, text) of each non-blank line, so errors name the line
    lines = [(i, ln) for i, ln in enumerate(text.split("\n"), start=1) if ln != ""]
    if not lines:
        raise ParseError("empty grid file", line=1)
    sizes = None
    sizes_line = 0
    if lines[0][1].startswith("# test_sizes,"):
        sizes_line, comment = lines.pop(0)
        try:
            sizes = np.array([int(v) for v in comment.split(",")[1:]], dtype=np.int64)
        except (ValueError, OverflowError):  # not an integer, or beyond int64
            raise ParseError("bad test_sizes comment", line=sizes_line) from None
        if np.any(sizes < 0):
            raise ParseError("negative test size", line=sizes_line)
    if not lines or not lines[0][1].startswith("step,"):
        raise ParseError("expected 'step,task_0,...' header", line=lines[0][0] if lines else sizes_line + 1)
    (_, header), *rows = lines
    n = len(header.split(",")) - 1
    if n < 1 or len(rows) != n:
        raise ParseError(f"grid must be {n} x {n} with one row per step")
    grid = np.full((n, n), np.nan)
    for t, (line, text) in enumerate(rows):
        cells = text.split(",")
        if len(cells) != n + 1:
            raise ParseError(f"expected {n + 1} columns", line=line)
        for j in range(n):
            cell = cells[j + 1]
            if j <= t:
                if cell == "":
                    raise ParseError(f"missing cell for task {j}", line=line)
                try:
                    grid[t, j] = float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric cell for task {j}", line=line) from None
                if not np.isfinite(grid[t, j]):
                    raise ParseError(f"non-finite cell for task {j}", line=line)
                if not 0.0 <= grid[t, j] <= 1.0:
                    raise ParseError(f"accuracy outside [0, 1] for task {j}", line=line)
            elif cell != "":
                raise ParseError("unexpected value above the diagonal", line=line)
    if sizes is None:
        sizes = np.ones(n, dtype=np.int64)
    elif sizes.shape[0] != n:
        raise ParseError("test_sizes length does not match the grid", line=sizes_line)
    return AccuracyMatrix.from_grid(grid, sizes)


def results_dict(result: ExperimentResult, config_echo: dict) -> dict:
    """The run's ``results.json`` document; ACC and BWT come from ``acc_bwt``, as in ``akws metrics``."""
    acc, bwt, bwt_undefined = acc_bwt(result.accuracy)
    tt = result.fit_times[1:]
    return {
        "config": config_echo,
        "acc": acc,
        "bwt": bwt,
        "bwt_undefined": bwt_undefined,
        "tt": tt,
        "tt_mean": float(np.mean(tt)) if tt else 0.0,
        # the first fit's time, whichever route it took
        "stage_times": {"pretrain": result.pretrain_time, "recalibrate": result.fit_times[0]},
        "extra_memory_elements": result.classifier.state_elements(),
        "A": [float(v) for v in result.accuracy.a_vector],
        "task_classes": result.task_classes,
    }
