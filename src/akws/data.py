"""Datasets: seeded synthetic cluster generation, the task split, and feature-file I/O.

Feature CSV format: header ``label,f0,f1,...,f{d-1}``; the label column
is a non-negative integer global class id, features are decimal floats;
UTF-8 with LF line endings. ``load_features`` parses a file with numpy's
C reader when every line passes the per-line rule's cheap checks, and
with the per-line parser otherwise; that parser alone raises, so every
``ParseError`` names the same line either way.

Task manifest JSON: ``{"tasks": [{"id", "classes", "train", "test"},
...]}``; other top-level keys (such as the ``mfcc`` block of older
manifests) are ignored. Task file paths are relative to the manifest's
directory.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .classifier import _whole
from .errors import ConfigError, DataError, ParseError

@dataclass(frozen=True)
class LabeledDataset:
    """Raw feature rows with global integer class labels; a label not an int64 integer raises ``DataError``."""

    features: np.ndarray  # n x d
    labels: np.ndarray  # n, int64

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        lab = _whole(self.labels, "label")
        if f.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        if lab.shape != (f.shape[0],):
            raise DataError(f"{f.shape[0]} feature rows but {lab.shape[0]} labels")
        object.__setattr__(self, "features", f)
        object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def restrict(self, class_ids) -> "LabeledDataset":
        """Rows whose label is in ``class_ids``, in original order."""
        keep = np.isin(self.labels, np.asarray(sorted(class_ids), dtype=np.int64))
        return LabeledDataset(self.features[keep], self.labels[keep])


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the Gaussian-cluster generator; one out of range raises ``ConfigError`` naming it."""

    classes: int = 10
    per_class: int = 100
    dim: int = 16
    separation: float = 6.0
    noise_sigma: float = 1.0
    seed: int = 1

    def __post_init__(self):
        for name in ("separation", "noise_sigma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"must be finite, got {value}", field=name)
        if self.classes < 2:
            raise ConfigError("need at least 2 classes", field="classes")
        if self.per_class < 1:
            raise ConfigError("must be >= 1", field="per_class")
        if self.dim < 1:
            raise ConfigError("must be >= 1", field="dim")
        if self.separation <= 0:
            raise ConfigError("must be > 0", field="separation")
        if self.noise_sigma < 0:
            raise ConfigError("must be >= 0", field="noise_sigma")
        if self.seed < 0:
            raise ConfigError("must be >= 0", field="seed")


def _anchors(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Class means: separation-scaled basis vectors, re-rotated per cycle.

    The first ``dim`` classes sit on the coordinate axes; when there
    are more classes than dimensions each further cycle reuses the axes
    through a fresh random rotation so all anchors keep the same norm.
    """
    d = spec.dim
    anchors = np.zeros((spec.classes, d))
    rotation = np.eye(d)
    for c in range(spec.classes):
        if c > 0 and c % d == 0:
            rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        anchors[c] = spec.separation * rotation[c % d]
    return anchors


def _draw(spec: SynthSpec, anchors: np.ndarray, per_class: int, rng: np.random.Generator) -> LabeledDataset:
    feats = np.empty((spec.classes * per_class, spec.dim))
    labels = np.empty(spec.classes * per_class, dtype=np.int64)
    for c in range(spec.classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = anchors[c] + spec.noise_sigma * rng.standard_normal((per_class, spec.dim))
        labels[block] = c
    return LabeledDataset(feats, labels)


def gen_synth_split(spec: SynthSpec, test_per_class: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic Gaussian clusters: train and test sets around the same class anchors.

    The test rows are further draws from the same stream, so the train set
    does not depend on ``test_per_class``.
    """
    if test_per_class < 1:
        raise DataError("test_per_class must be >= 1")
    rng = np.random.default_rng(spec.seed)
    anchors = _anchors(spec, rng)
    train = _draw(spec, anchors, spec.per_class, rng)
    test = _draw(spec, anchors, test_per_class, rng)
    return train, test


def check_split(n_classes: int, base_count: int, step_count: int, classes_per_step: int, seed: int) -> None:
    """``split_tasks``' check, on a class count; its ``ConfigError`` names the argument at fault, if one is."""
    if seed < 0:
        raise ConfigError("must be >= 0", field="seed")
    if base_count < 1:
        raise ConfigError("must be >= 1", field="base_count")
    if step_count < 0:
        raise ConfigError("must be >= 0", field="step_count")
    if step_count > 0 and classes_per_step < 1:
        raise ConfigError("must be >= 1 when step_count > 0", field="classes_per_step")
    covered = base_count + step_count * classes_per_step
    if covered != n_classes:
        raise ConfigError(
            f"base_count {base_count} + step_count {step_count} x classes_per_step {classes_per_step} "
            f"= {covered}, but there are {n_classes} classes"
        )


def split_tasks(all_classes, base_count: int, step_count: int, classes_per_step: int, seed: int) -> list[tuple]:
    """Shuffle the class set by seed and carve it into base + equal steps.

    Returns each task's classes, the base task first.
    """
    classes = sorted(int(c) for c in all_classes)
    check_split(len(classes), base_count, step_count, classes_per_step, seed)
    order = np.random.default_rng(seed).permutation(len(classes))
    shuffled = [classes[i] for i in order]
    steps = [
        tuple(shuffled[base_count + k * classes_per_step : base_count + (k + 1) * classes_per_step])
        for k in range(step_count)
    ]
    return [tuple(shuffled[:base_count]), *steps]


def rectifier_scramble(ds: LabeledDataset, obs_dim: int, seed: int) -> LabeledDataset:
    """Push features through a frozen random rectifier map.

    Used to build benchmarks whose class boundaries are nonlinear in the
    observed coordinates; the map depends only on ``seed`` and the input
    dimension, so train and test sets transform consistently.
    """
    rng = np.random.default_rng(seed)
    d = ds.dim
    projection = rng.standard_normal((d, obs_dim)) / np.sqrt(d)
    offset = 0.1 * rng.standard_normal(obs_dim)
    obs = np.maximum(ds.features @ projection + offset, 0.0)
    return LabeledDataset(obs, ds.labels)


def save_features(ds: LabeledDataset, path) -> None:
    """Write the feature CSV; floats use repr so round-trips are exact."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(ds.dim)) + "\n")
        for i in range(ds.n):
            row = ",".join(repr(v) for v in ds.features[i].tolist())
            fh.write(f"{ds.labels[i]},{row}\n")


def read_text(path, what: str, error=ParseError) -> str:
    """The text of a UTF-8 file; bytes that do not decode raise ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{what}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _feature_lines(where: str, text: str) -> tuple[list[str], int]:
    """A feature CSV's data lines and its feature count; a bad header raises ``ParseError``."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError(f"{where}: empty", line=1)
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ParseError(f"{where}: expected header 'label,f0,...'", line=1)
    return lines[1:], len(header) - 1


def _parse_lines(where: str, lines: list[str], dim: int) -> LabeledDataset:
    """The per-line parser: every refusal raises ``ParseError`` with the line it is on."""
    feats = np.empty((len(lines), dim))
    labels = np.empty(len(lines), dtype=np.int64)
    for idx, line in enumerate(lines, start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"{where}: expected {dim + 1} columns, got {len(cells)}", line=idx)
        try:
            lab = int(cells[0])
        except ValueError:
            raise ParseError(f"{where}: bad label {cells[0]!r}", line=idx) from None
        if not 0 <= lab < 2**32:
            raise ParseError(f"{where}: class id {lab} does not fit in 32 unsigned bits", line=idx)
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError(f"{where}: unparseable feature value", line=idx) from None
        labels[idx - 2] = lab
        feats[idx - 2] = row
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ParseError(f"{where}: non-finite feature value", line=int(np.argmax(bad)) + 2)
    return LabeledDataset(feats, labels)


def _parse_c(lines: list[str], dim: int) -> LabeledDataset | None:
    """``_parse_lines``' dataset through numpy's C reader, or None where that parser might differ or raise.

    Each line must have ``dim`` commas and a label that ``int()`` takes,
    as the per-line rule asks. The C reader parses the ASCII float grammar
    of ``float()`` and refuses what else ``float()`` takes (underscores,
    non-ASCII digits), so such a file, like any that fails a check here,
    goes to the per-line parser. The C reader also takes the ASCII
    separators 0x1c-0x1f as whitespace, which ``float()`` refuses;
    ``load_features`` sends a file holding one to the per-line parser.
    """
    labels = []
    try:
        for line in lines:
            if line.count(",") != dim:
                return None
            labels.append(int(line[: line.index(",")]))
        labels = np.array(labels, dtype=np.int64)
        feats = np.loadtxt(lines, delimiter=",", comments=None, usecols=range(1, dim + 1), ndmin=2)
    except (ValueError, OverflowError):  # OverflowError: a label beyond int64
        return None
    if feats.shape != (len(lines), dim) or not ((labels >= 0) & (labels < 2**32)).all():
        return None
    if not np.isfinite(feats).all():
        return None
    return LabeledDataset(feats, labels)


def load_features(path) -> LabeledDataset:
    """Read a feature CSV: numpy's C reader when it agrees with the per-line parser, that parser otherwise."""
    where = f"feature file {path}"
    text = read_text(path, where)
    c_reader = not any(c in text for c in "\x1c\x1d\x1e\x1f")  # see _parse_c
    lines, dim = _feature_lines(where, text)
    del text  # the parse needs only the lines; the text is as large again
    ds = _parse_c(lines, dim) if c_reader and lines else None
    return ds if ds is not None else _parse_lines(where, lines, dim)


def write_manifest(path, tasks: list[dict]) -> None:
    """Write a task manifest; ``tasks`` entries carry id/classes/train/test."""
    doc = {"tasks": tasks}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_manifest(path) -> list[dict]:
    """Read a manifest; returns task entries with paths resolved."""
    text = read_text(path, f"manifest {path}")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep or too long a number to read
        raise ParseError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise ParseError("manifest must be an object with a 'tasks' list")
    base = os.path.dirname(os.path.abspath(path))
    tasks = []
    for i, entry in enumerate(doc["tasks"]):
        if not isinstance(entry, dict):
            raise ParseError(f"task {i} must be an object")
        for key in ("id", "classes", "train", "test"):
            if key not in entry:
                raise ParseError(f"task {i} missing key {key!r}")
        if not (isinstance(entry["train"], str) and isinstance(entry["test"], str)):
            raise ParseError(f"task {i} train and test must be file paths")
        if not isinstance(entry["classes"], list):
            raise ParseError(f"task {i} classes must be a list")
        for value in [entry["id"], *entry["classes"]]:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ParseError(f"task {i} id and classes must be integers, got {value!r}")
        for cid in entry["classes"]:
            if not 0 <= cid < 2**32:
                raise ParseError(f"task {i} class id {cid} does not fit in 32 unsigned bits")
        tasks.append(
            {
                "id": entry["id"],
                "classes": list(entry["classes"]),
                "train": os.path.join(base, entry["train"]),
                "test": os.path.join(base, entry["test"]),
            }
        )
    return tasks
