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

Unknown keys are rejected; every violation names the offending field
path. ``split`` applies to synth data only (a manifest is already split)
and defaults to half the classes as base plus one class per step.
"""

import json
from dataclasses import asdict, dataclass

from .errors import ConfigError

_ACTIVATIONS = ("identity", "relu")


@dataclass(frozen=True)
class SynthDataConfig:
    classes: int = 10
    per_class: int = 100
    test_per_class: int = 25
    dim: int = 16
    separation: float = 6.0
    noise_sigma: float = 1.0
    seed: int = 1


@dataclass(frozen=True)
class ManifestDataConfig:
    path: str = ""


@dataclass(frozen=True)
class SplitConfig:
    base_count: int
    step_count: int
    classes_per_step: int
    seed: int


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


_DEFAULTS = HarnessConfig()
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


def _require(doc: dict, allowed: set[str], path: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)}", field=path)


def _typed(doc: dict, key: str, kind, path: str, default=None, required=False):
    if key not in doc:
        if required:
            raise ConfigError("missing required key", field=f"{path}.{key}" if path else key)
        return default
    val = doc[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) and kind is not bool:
        raise ConfigError(
            f"expected {kind.__name__}, got {type(val).__name__}",
            field=f"{path}.{key}" if path else key,
        )
    return val


def _parse_data(doc, path="data"):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path)
    kind = _typed(doc, "kind", str, path, default="synth")
    if kind == "synth":
        _require(doc, {"kind", "classes", "per_class", "test_per_class", "dim", "separation", "noise_sigma", "seed"}, path)
        cfg = SynthDataConfig(
            classes=_typed(doc, "classes", int, path, default=10),
            per_class=_typed(doc, "per_class", int, path, default=100),
            test_per_class=_typed(doc, "test_per_class", int, path, default=25),
            dim=_typed(doc, "dim", int, path, default=16),
            separation=_typed(doc, "separation", float, path, default=6.0),
            noise_sigma=_typed(doc, "noise_sigma", float, path, default=1.0),
            seed=_typed(doc, "seed", int, path, default=1),
        )
        if cfg.classes < 2:
            raise ConfigError("need at least 2 classes", field=f"{path}.classes")
        if cfg.per_class < 1:
            raise ConfigError("must be >= 1", field=f"{path}.per_class")
        if cfg.test_per_class < 1:
            raise ConfigError("must be >= 1", field=f"{path}.test_per_class")
        if cfg.dim < 1:
            raise ConfigError("must be >= 1", field=f"{path}.dim")
        if cfg.separation <= 0:
            raise ConfigError("must be > 0", field=f"{path}.separation")
        if cfg.noise_sigma < 0:
            raise ConfigError("must be >= 0", field=f"{path}.noise_sigma")
        if cfg.seed < 0:
            raise ConfigError("must be >= 0", field=f"{path}.seed")
        return cfg
    if kind == "manifest":
        _require(doc, {"kind", "path"}, path)
        return ManifestDataConfig(path=_typed(doc, "path", str, path, required=True))
    raise ConfigError(f"unknown data kind {kind!r}", field=f"{path}.kind")


def _parse_split(doc, path="split"):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path)
    _require(doc, {"base_count", "step_count", "classes_per_step", "seed"}, path)
    cfg = SplitConfig(
        base_count=_typed(doc, "base_count", int, path, required=True),
        step_count=_typed(doc, "step_count", int, path, required=True),
        classes_per_step=_typed(doc, "classes_per_step", int, path, required=True),
        seed=_typed(doc, "seed", int, path, default=0),
    )
    if cfg.seed < 0:
        raise ConfigError("must be >= 0", field=f"{path}.seed")
    return cfg


def _harness_fields(doc: dict, keys: dict, path: str) -> dict:
    """HarnessConfig arguments read from ``doc``, typed and defaulted as the dataclass is."""
    out = {}
    for key, name in keys.items():
        default = getattr(_DEFAULTS, name)
        out[name] = _typed(doc, key, type(default), path, default=default)
    return out


def _parse_extractor(doc, path="extractor"):
    if not isinstance(doc, dict):
        raise ConfigError("expected an object", field=path)
    _require(doc, set(_EXTRACTOR_KEYS), path)
    cfg = _harness_fields(doc, _EXTRACTOR_KEYS, path)
    if cfg["use_extractor"]:
        if cfg["extractor_hidden"] < 1:
            raise ConfigError("must be >= 1", field=f"{path}.hidden")
        if cfg["extractor_epochs"] < 1:
            raise ConfigError("must be >= 1", field=f"{path}.epochs")
        if cfg["extractor_lr"] <= 0:
            raise ConfigError("must be > 0", field=f"{path}.lr")
    return cfg


def parse_config(doc: dict) -> RunConfig:
    """Validate a config document; unknown keys anywhere are rejected."""
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require(doc, {"data", "split", "extractor", *_TOP_KEYS}, "")
    data = _parse_data(doc.get("data", {}))
    split = _parse_split(doc["split"]) if "split" in doc else None
    if split is not None and isinstance(data, ManifestDataConfig):
        raise ConfigError("not applicable to manifest data", field="split")
    cfg = _harness_fields(doc, _TOP_KEYS, "")
    if cfg["gamma"] <= 0:
        raise ConfigError("must be > 0", field="gamma")
    if cfg["expansion_size"] < 2:
        raise ConfigError("must be >= 2", field="expansion")
    if cfg["activation"] not in _ACTIVATIONS:
        raise ConfigError(f"must be one of {_ACTIVATIONS}", field="activation")
    if cfg["seed"] < 0:
        raise ConfigError("must be >= 0", field="seed")
    cfg.update(_parse_extractor(doc.get("extractor", {})))
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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc
