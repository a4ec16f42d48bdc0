"""Datasets: seeded synthetic cluster generation and feature-file I/O.

Feature CSV format: header ``label,f0,f1,...,f{d-1}``; the label column
is a non-negative integer global class id, features are decimal floats;
UTF-8 with LF line endings.

Task manifest JSON: ``{"mfcc": {"dim": 40, "hop": 160}, "tasks": [{"id",
"classes", "train", "test"}, ...]}``; the mfcc block records upstream
front-end provenance and is informational only. Task file paths are
relative to the manifest's directory.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError

MANIFEST_MFCC_BLOCK = {"dim": 40, "hop": 160}


@dataclass(frozen=True)
class LabeledDataset:
    """Raw feature rows with global integer class labels."""

    features: np.ndarray  # n x d
    labels: np.ndarray  # n, int64

    def __post_init__(self):
        f = np.asarray(self.features, dtype=np.float64)
        lab = np.asarray(self.labels, dtype=np.int64)
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

    def classes(self) -> list[int]:
        return sorted(set(self.labels.tolist()))

    def restrict(self, class_ids) -> "LabeledDataset":
        """Rows whose label is in ``class_ids``, in original order."""
        keep = np.isin(self.labels, np.asarray(sorted(class_ids), dtype=np.int64))
        return LabeledDataset(self.features[keep], self.labels[keep])


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the Gaussian-cluster generator."""

    n_classes: int
    samples_per_class: int
    raw_dim: int
    cluster_separation: float
    noise_sigma: float
    seed: int

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.raw_dim < 1:
            raise ValueError("raw_dim must be >= 1")
        if self.cluster_separation <= 0:
            raise ValueError("cluster_separation must be > 0")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


def _anchors(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Class means: separation-scaled basis vectors, re-rotated per cycle.

    The first ``raw_dim`` classes sit on the coordinate axes; when there
    are more classes than dimensions each further cycle reuses the axes
    through a fresh random rotation so all anchors keep the same norm.
    """
    d = spec.raw_dim
    anchors = np.zeros((spec.n_classes, d))
    rotation = np.eye(d)
    for c in range(spec.n_classes):
        if c > 0 and c % d == 0:
            rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        anchors[c] = spec.cluster_separation * rotation[c % d]
    return anchors


def _draw(spec: SynthSpec, anchors: np.ndarray, per_class: int, rng: np.random.Generator) -> LabeledDataset:
    feats = np.empty((spec.n_classes * per_class, spec.raw_dim))
    labels = np.empty(spec.n_classes * per_class, dtype=np.int64)
    for c in range(spec.n_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        feats[block] = anchors[c] + spec.noise_sigma * rng.standard_normal((per_class, spec.raw_dim))
        labels[block] = c
    return LabeledDataset(feats, labels)


def gen_synth(spec: SynthSpec) -> LabeledDataset:
    """Deterministic Gaussian clusters, ``samples_per_class`` per class."""
    rng = np.random.default_rng(spec.seed)
    return _draw(spec, _anchors(spec, rng), spec.samples_per_class, rng)


def gen_synth_split(spec: SynthSpec, test_per_class: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Train and test sets drawn around the same class anchors.

    The train half is identical to ``gen_synth(spec)``; the test rows are
    further draws from the same stream.
    """
    if test_per_class < 1:
        raise ValueError("test_per_class must be >= 1")
    rng = np.random.default_rng(spec.seed)
    anchors = _anchors(spec, rng)
    train = _draw(spec, anchors, spec.samples_per_class, rng)
    test = _draw(spec, anchors, test_per_class, rng)
    return train, test


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


def load_features(path) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ParseError("empty feature file", line=1)
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise ParseError("expected header 'label,f0,...'", line=1)
    dim = len(header) - 1
    feats = np.empty((len(lines) - 1, dim))
    labels = np.empty(len(lines) - 1, dtype=np.int64)
    for idx, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"expected {dim + 1} columns, got {len(cells)}", line=idx)
        try:
            lab = int(cells[0])
        except ValueError:
            raise ParseError(f"bad label {cells[0]!r}", line=idx) from None
        if lab < 0:
            raise ParseError(f"negative class id {lab}", line=idx)
        try:
            row = [float(c) for c in cells[1:]]
        except ValueError:
            raise ParseError("unparseable feature value", line=idx) from None
        labels[idx - 2] = lab
        feats[idx - 2] = row
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ParseError("non-finite feature value", line=int(np.argmax(bad)) + 2)
    return LabeledDataset(feats, labels)


def write_manifest(path, tasks: list[dict]) -> None:
    """Write a task manifest; ``tasks`` entries carry id/classes/train/test."""
    doc = {"mfcc": dict(MANIFEST_MFCC_BLOCK), "tasks": tasks}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_manifest(path) -> list[dict]:
    """Read a manifest; returns task entries with paths resolved."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
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
        tasks.append(
            {
                "id": entry["id"],
                "classes": list(entry["classes"]),
                "train": os.path.join(base, entry["train"]),
                "test": os.path.join(base, entry["test"]),
            }
        )
    return tasks
