"""Run configuration: JSON schema, validation, defaults.

A config document has the shape

    {
      "data": {"kind": "synth", "classes": 10, "per_class": 100,
               "test_per_class": 25, "dim": 16, "separation": 6.0,
               "noise_sigma": 1.0, "seed": 1}
              or {"kind": "manifest", "path": "manifest.json"},
      "split": {"base_count": 5, "step_count": 5,
                "classes_per_step": 1, "seed": 0},
      "gamma": 0.1, "expansion": 128, "activation": "relu", "seed": 42,
      "extractor": {"enabled": true, "hidden": 32, "epochs": 20, "lr": 0.05}
    }

Each section is read off its dataclass: a field gives its key's type and
default, and a field without a default is required. Unknown keys and
non-finite numbers (JSON's ``NaN``, ``Infinity``) are rejected, naming the
field path; ``SynthSpec`` and ``check_split`` check synth data and the split,
naming their field again under ``data.`` or ``split.``. ``split`` applies to
synth data only (a manifest is already split) and defaults to half the
classes as base plus one class per step.
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

from .classifier import _ridge
from .data import SynthSpec, check_split, read_text
from .errors import ConfigError, DataError
from .expansion import ACTIVATIONS


@dataclass(frozen=True)
class SynthDataConfig(SynthSpec):
    """A ``SynthSpec`` and the test rows drawn per class."""

    test_per_class: int = 25

    def __post_init__(self):
        super().__post_init__()
        if self.test_per_class < 1:
            raise ConfigError("must be >= 1", field="test_per_class")


@dataclass(frozen=True)
class ManifestDataConfig:
    path: str


@dataclass(frozen=True)
class SplitConfig:
    base_count: int
    step_count: int
    classes_per_step: int
    seed: int = 0


@dataclass(frozen=True)
class HarnessConfig:
    """Hyperparameters of one experiment run."""

    gamma: float = 0.1
    expansion_size: int = 128
    activation: str = "relu"
    seed: int = 42
    use_extractor: bool = True
    extractor_hidden: int = 32
    extractor_epochs: int = 20
    extractor_lr: float = 0.05


# The JSON key of each HarnessConfig field: top-level keys, then the keys
# of the "extractor" object.
_TOP_KEYS = {"gamma": "gamma", "expansion": "expansion_size", "activation": "activation", "seed": "seed"}
_EXTRACTOR_KEYS = {
    "enabled": "use_extractor",
    "hidden": "extractor_hidden",
    "epochs": "extractor_epochs",
    "lr": "extractor_lr",
}


@dataclass(frozen=True)
class RunConfig:
    """A validated config document: where the tasks come from, and how to run them."""

    data: SynthDataConfig | ManifestDataConfig
    split: SplitConfig | None
    harness: HarnessConfig

    def to_dict(self) -> dict:
        h = self.harness
        doc = {key: getattr(h, name) for key, name in _TOP_KEYS.items()}
        doc["extractor"] = {key: getattr(h, name) for key, name in _EXTRACTOR_KEYS.items()}
        doc["data"] = asdict(self.data)
        doc["data"]["kind"] = "synth" if isinstance(self.data, SynthDataConfig) else "manifest"
        if self.split is not None:
            doc["split"] = asdict(self.split)
        return doc


def _typed(doc: dict, key: str, kind, path: str, default=MISSING):
    where = f"{path}.{key}" if path else key
    if key not in doc:
        if default is MISSING:
            raise ConfigError("missing required key", field=where)
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        try:
            val = float(val)
        except OverflowError:  # an integer beyond the float range
            val = math.inf if val > 0 else -math.inf
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(f"expected {kind.__name__}, got {type(val).__name__}", field=where)
    if kind is float and not math.isfinite(val):
        raise ConfigError(f"must be finite, got {val}", field=where)
    return val


def _read(doc, cls, path: str, keys: dict | None = None, also=()) -> dict:
    """Fields of ``cls`` read from the object ``doc``, typed and defaulted as ``cls`` declares them.

    ``keys`` maps JSON keys to field names (by default each field is its
    own key); keys in ``also`` are allowed and left to the caller. The
    field annotations are the types checked, so neither this module nor
    ``data`` may defer them (no ``from __future__ import annotations``).
    """
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path)
    declared = {f.name: f for f in fields(cls)}
    keys = keys or {name: name for name in declared}
    unknown = set(doc) - set(keys) - set(also)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}", field=path)
    return {
        name: _typed(doc, key, declared[name].type, path, declared[name].default) for key, name in keys.items()
    }


def _parse_data(doc, path="data"):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path)
    kind = _typed(doc, "kind", str, path, default="synth")
    if kind == "manifest":
        return ManifestDataConfig(**_read(doc, ManifestDataConfig, path, also=("kind",)))
    if kind != "synth":
        raise ConfigError(f"unknown data kind {kind!r}", field=f"{path}.kind")
    values = _read(doc, SynthDataConfig, path, also=("kind",))
    try:
        return SynthDataConfig(**values)
    except ConfigError as exc:
        raise ConfigError(exc.message, field=f"{path}.{exc.field}") from None


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    cfg = _read(doc, HarnessConfig, "", _TOP_KEYS, also=("data", "split", "extractor"))
    data = _parse_data(doc.get("data", {}))
    split = SplitConfig(**_read(doc["split"], SplitConfig, "split")) if "split" in doc else None
    if split is not None:
        if isinstance(data, ManifestDataConfig):
            raise ConfigError("not applicable to manifest data", field="split")
        try:
            check_split(data.classes, **asdict(split))
        except ConfigError as exc:
            raise ConfigError(exc.message, field="split" if exc.field is None else f"split.{exc.field}") from None
    try:
        _ridge(cfg["gamma"])
    except DataError as exc:
        raise ConfigError(str(exc), field="gamma") from None
    if cfg["expansion_size"] < 2:
        raise ConfigError("must be >= 2", field="expansion")
    if cfg["activation"] not in ACTIVATIONS:
        raise ConfigError(f"must be one of {ACTIVATIONS}", field="activation")
    if cfg["seed"] < 0:
        raise ConfigError("must be >= 0", field="seed")
    cfg.update(_read(doc.get("extractor", {}), HarnessConfig, "extractor", _EXTRACTOR_KEYS))
    if cfg["use_extractor"]:
        if cfg["extractor_hidden"] < 1:
            raise ConfigError("must be >= 1", field="extractor.hidden")
        if cfg["extractor_epochs"] < 1:
            raise ConfigError("must be >= 1", field="extractor.epochs")
        if cfg["extractor_lr"] <= 0:
            raise ConfigError("must be > 0", field="extractor.lr")
    if isinstance(data, SynthDataConfig) and split is None:
        base = data.classes // 2
        split = SplitConfig(
            base_count=base,
            step_count=data.classes - base,
            classes_per_step=1,
            seed=cfg["seed"],
        )
    return RunConfig(data=data, split=split, harness=HarnessConfig(**cfg))


def load_config(path) -> dict:
    text = read_text(path, f"config {path}", ConfigError)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too deep or too long a number to read
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc
