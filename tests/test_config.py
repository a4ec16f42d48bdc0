"""Config parsing: every document parses to finite, typed values or raises ConfigError."""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akws import SynthSpec, split_tasks
from akws.cli import main
from akws.config import RunConfig, SplitConfig, SynthDataConfig, parse_config
from akws.errors import ConfigError

TOP_KEYS = ["data", "split", "extractor", "gamma", "expansion", "activation", "seed"]
DATA_KEYS = ["kind", "classes", "per_class", "test_per_class", "dim", "separation", "noise_sigma", "seed", "path"]
SPLIT_KEYS = ["base_count", "step_count", "classes_per_step", "seed"]
EXTRACTOR_KEYS = ["enabled", "hidden", "epochs", "lr"]

# JSON leaves, weighted towards values a field could hold: small and huge
# integers, floats with NaN and infinities, bools, and the schema's strings.
LEAVES = st.one_of(
    st.integers(-3, 40),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["synth", "manifest", "relu", "identity", "m.json", ""]),
)
JSON = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def section(keys, values):
    """Objects over ``keys`` plus one unknown key, each value drawn from ``values``."""
    return st.lists(st.tuples(st.sampled_from([*keys, "bogus"]), values), max_size=len(keys) + 1).map(dict)


DOCUMENTS = section(
    TOP_KEYS,
    st.one_of(
        LEAVES,
        section(DATA_KEYS, LEAVES),
        section(SPLIT_KEYS, LEAVES),
        section(EXTRACTOR_KEYS, LEAVES),
        JSON,
    ),
)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
def test_parse_config_returns_typed_finite_config_or_config_error(doc):
    try:
        cfg = parse_config(doc)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    for part in (cfg.data, cfg.split, cfg.harness):
        for f in fields(part):
            value = getattr(part, f.name)
            assert type(value) is f.type
            if f.type is float:
                assert math.isfinite(value)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"gamma": math.nan}, "gamma"),
        ({"gamma": math.inf}, "gamma"),
        ({"gamma": 10**400}, "gamma"),
        ({"data": {"separation": math.inf}}, "data.separation"),
        ({"data": {"noise_sigma": math.nan}}, "data.noise_sigma"),
        ({"extractor": {"lr": -math.inf}}, "extractor.lr"),
        ({"extractor": {"enabled": False, "lr": math.nan}}, "extractor.lr"),
    ],
)
def test_non_finite_float_names_its_field(doc, field):
    with pytest.raises(ConfigError, match="must be finite") as exc:
        parse_config(doc)
    assert exc.value.field == field


@pytest.mark.parametrize("gamma", [0.0, -1.0, 1e-320])
def test_gamma_follows_the_classifier_ridge_rule(gamma):
    # 1/1e-320 overflows: the classifier's state would start with an infinity
    with pytest.raises(ConfigError, match="^gamma: ridge parameter") as exc:
        parse_config({"gamma": gamma})
    assert exc.value.field == "gamma"


def test_small_gamma_with_a_finite_inverse_passes():
    assert parse_config({"gamma": 1e-300}).harness.gamma == 1e-300


def test_defaults_come_from_the_dataclasses():
    cfg = parse_config({"split": {"base_count": 5, "step_count": 5, "classes_per_step": 1}})
    assert cfg.data == SynthDataConfig()
    assert cfg.split == SplitConfig(5, 5, 1)
    assert cfg.split.seed == 0


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"data": {"kind": "manifest"}}, "data.path"),
        ({"split": {"base_count": 5, "step_count": 5}}, "split.classes_per_step"),
    ],
)
def test_field_without_default_is_required(doc, field):
    with pytest.raises(ConfigError, match="missing required key") as exc:
        parse_config(doc)
    assert exc.value.field == field


@pytest.mark.parametrize(
    "split, field",
    [
        ({"base_count": 0, "step_count": 6, "classes_per_step": 1, "seed": 0}, "split.base_count"),
        ({"base_count": 11, "step_count": -1, "classes_per_step": 1}, "split.step_count"),
        ({"base_count": 4, "step_count": 6, "classes_per_step": 0}, "split.classes_per_step"),
        ({"base_count": 3, "step_count": 2, "classes_per_step": 1}, "split"),
    ],
)
def test_split_that_cannot_cover_the_classes_names_its_field(split, field):
    # on the default 10 classes
    with pytest.raises(ConfigError) as exc:
        parse_config({"split": split})
    assert exc.value.field == field


def _outcome(call):
    """None if ``call()`` returns, else the ``ConfigError`` it raises."""
    try:
        call()
    except ConfigError as exc:
        return exc
    return None


COUNTS = st.integers(-2, 12)


@settings(max_examples=300, deadline=None)
@given(
    classes=st.integers(0, 12),
    base_count=COUNTS,
    step_count=COUNTS,
    classes_per_step=st.integers(-2, 5),
    seed=st.integers(-3, 2**32),
)
def test_split_rule_is_split_tasks_in_both_places(classes, base_count, step_count, classes_per_step, seed):
    split = {"base_count": base_count, "step_count": step_count, "classes_per_step": classes_per_step, "seed": seed}
    try:
        tasks = split_tasks(range(classes), **split)
        expected = None
    except ConfigError as exc:
        assert exc.field in (None, *split)
        expected = exc
    else:
        # a partition: every class once, the base first, then equal steps
        assert sorted(c for task in tasks for c in task) == list(range(classes))
        assert len(tasks[0]) == base_count
        assert [len(task) for task in tasks[1:]] == [classes_per_step] * step_count
    if classes < 2:
        return  # the config fails on data.classes first
    got = _outcome(lambda: parse_config({"data": {"classes": classes}, "split": split}))
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.field == ("split" if expected.field is None else f"split.{expected.field}")
        assert got.message == expected.message


@settings(max_examples=150, deadline=None)
@given(
    classes=st.integers(2, 8),
    base=st.integers(-1, 9),
    steps=st.integers(-1, 8),
    per_step=st.integers(-1, 4),
    seed=st.integers(-2, 3),
)
def test_gen_split_error_is_split_tasks_error(classes, base, steps, per_step, seed):
    expected = _outcome(lambda: split_tasks(range(classes), base, steps, per_step, seed))
    err = io.StringIO()
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        argv = ["gen", "--classes", classes, "--per-class", 1, "--dim", 1, "--base", base, "--steps", steps,
                "--per-step", per_step, "--seed", seed, "--out", os.path.join(tmp, "d")]
        code = main([str(a) for a in argv])
    if expected is None:
        assert code == 0
    else:
        assert code == 2
        assert err.getvalue() == f"error: {expected}\n"


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, -1.0, 1.0])


@settings(max_examples=300, deadline=None)
@given(
    classes=st.integers(-1, 4),
    per_class=st.integers(-1, 3),
    dim=st.integers(-1, 3),
    separation=FLOATS,
    noise_sigma=FLOATS,
    seed=st.integers(-2, 3),
    test_per_class=st.integers(-1, 3),
)
def test_synth_rule_is_synth_spec_in_both_places(test_per_class, **spec):
    expected = _outcome(lambda: SynthSpec(**spec))
    if expected is None and test_per_class < 1:
        expected = ConfigError("must be >= 1", field="test_per_class")
    assert expected is None or expected.field in (*spec, "test_per_class")
    got = _outcome(lambda: parse_config({"data": {**spec, "test_per_class": test_per_class}}))
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.field == f"data.{expected.field}"
        assert got.message == expected.message
