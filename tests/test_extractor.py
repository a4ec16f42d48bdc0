import numpy as np
import pytest

from akws import SynthSpec, extract, gen_synth_split, pretrain_extractor
from akws.data import LabeledDataset
from akws.errors import DataError, ShapeError
from akws.extractor import ExtractorModel, _softmax, loss_and_grads
from oracles import pretrain_per_step


def model_predict(model, x):
    hidden = np.maximum(x @ model.w1 + model.b1, 0.0)
    return np.argmax(hidden @ model.w2 + model.b2, axis=1)


def separable_data(seed=0, n_classes=3, per_class=60):
    spec = SynthSpec(n_classes, per_class, 8, 6.0, 1.0, seed=seed)
    return gen_synth_split(spec, 20)


def test_pretrain_reaches_high_holdout_accuracy():
    train, test = separable_data()
    model, history = pretrain_extractor(train, hidden=32, epochs=20, lr=0.05, seed=0)
    assert not model.w1.flags.writeable
    pred = model_predict(model, test.features)
    assert np.mean(pred == test.labels) >= 0.95
    assert history[-1] <= history[0]
    assert history[-1] < np.log(3)  # beats the uniform predictor


@pytest.mark.parametrize(
    "classes, per_class, dim, hidden, epochs",
    [
        (3, 25, 8, 16, 3),  # 75 rows: the last batch of each epoch holds 11
        (2, 40, 4, 6, 4),  # two classes, 80 rows
        (4, 9, 3, 1, 5),  # hidden width 1
        (22, 200, 40, 32, 2),  # the features workload's base task
        (16, 200, 16, 64, 2),  # the bigbase workload's base task
    ],
)
def test_pretraining_matches_per_step_reference_bit_for_bit(classes, per_class, dim, hidden, epochs):
    train, _ = gen_synth_split(SynthSpec(classes, per_class, dim, 6.0, 1.0, seed=classes), 1)
    train = LabeledDataset(train.features, 7 * train.labels + 3)  # class ids that are not column numbers
    model, history = pretrain_extractor(train, hidden=hidden, epochs=epochs, lr=0.05, seed=dim)
    reference, reference_history = pretrain_per_step(train.features, train.labels, hidden, epochs, 0.05, dim)
    for got, want in zip((model.w1, model.b1, model.w2, model.b2), reference):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.array(history).tobytes() == np.array(reference_history).tobytes()


def test_zero_learning_rate_rejected():
    train, _ = separable_data()
    with pytest.raises(DataError, match="learning rate must be > 0"):
        pretrain_extractor(train, hidden=8, epochs=1, lr=0.0, seed=0)


def test_single_class_rejected():
    ds = LabeledDataset(np.random.default_rng(0).standard_normal((10, 4)), np.zeros(10, dtype=np.int64))
    with pytest.raises(DataError, match="pretraining needs >= 2 classes"):
        pretrain_extractor(ds, hidden=8, epochs=1, lr=0.1, seed=0)


def test_epoch_count_validated():
    train, _ = separable_data()
    with pytest.raises(DataError, match="epochs must be >= 1"):
        pretrain_extractor(train, hidden=8, epochs=0, lr=0.1, seed=0)


def test_negative_seed_rejected():
    train, _ = separable_data()
    with pytest.raises(DataError, match="^seed must be >= 0, got -1$"):
        pretrain_extractor(train, hidden=8, epochs=1, lr=0.1, seed=-1)


def test_hidden_width_validated():
    train, _ = separable_data()
    with pytest.raises(ShapeError, match="hidden width must be >= 1"):
        pretrain_extractor(train, hidden=0, epochs=1, lr=0.1, seed=0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 4))
    cols = rng.integers(0, 3, 5)  # each row's label column
    w1 = rng.standard_normal((4, 6)) * 0.5
    b1 = rng.standard_normal(6) * 0.5
    w2 = rng.standard_normal((6, 3)) * 0.5
    b2 = rng.standard_normal(3) * 0.5
    params = (w1, b1, w2, b2)
    # keep pre-activations clear of the rectifier kink
    assert np.min(np.abs(x @ w1 + b1)) > 1e-3

    _, grads = loss_and_grads(params, x, cols)
    h = 1e-5
    for p_idx, p in enumerate(params):
        flat = p.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_and_grads(params, x, cols)[0]
            flat[j] = orig - h
            down = loss_and_grads(params, x, cols)[0]
            flat[j] = orig
            fd = (up - down) / (2 * h)
            an = grads[p_idx].ravel()[j]
            denom = max(abs(fd), abs(an), 1e-8)
            assert abs(fd - an) / denom < 1e-4


def test_extract_zero_input_zero_bias():
    model = ExtractorModel(
        w1=np.ones((2, 3)), b1=np.zeros(3), w2=np.ones((3, 2)), b2=np.zeros(2)
    )
    out = extract(model, np.zeros((4, 2)))
    assert np.all(out == 0.0)
    assert out.shape == (4, 3)


def test_extract_tiny_model_hand_value():
    model = ExtractorModel(
        w1=np.array([[2.0], [-1.0]]), b1=np.array([0.5]),
        w2=np.zeros((1, 2)), b2=np.zeros(2),
    )
    out = extract(model, np.array([[1.0, 3.0], [3.0, 1.0]]))
    # max(0, 1*2 - 3*1 + 0.5) = 0;  max(0, 3*2 - 1*1 + 0.5) = 5.5
    assert out.tolist() == [[0.0], [5.5]]


def test_extract_is_batch_invariant():
    train, _ = separable_data(seed=5)
    model, _ = pretrain_extractor(train, hidden=16, epochs=3, lr=0.05, seed=5)
    x = train.features
    whole = extract(model, x)
    parts = np.vstack([extract(model, x[:37]), extract(model, x[37:])])
    assert np.array_equal(whole, parts)


def test_extract_validates_width():
    model = ExtractorModel(
        w1=np.zeros((2, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2)
    )
    with pytest.raises(ShapeError):
        extract(model, np.zeros((1, 3)))


def test_model_bytes_unchanged_by_extraction():
    train, _ = separable_data(seed=6)
    model, _ = pretrain_extractor(train, hidden=8, epochs=2, lr=0.05, seed=6)
    before = tuple(arr.tobytes() for arr in (model.w1, model.b1, model.w2, model.b2))
    for _ in range(3):
        extract(model, train.features)
    after = tuple(arr.tobytes() for arr in (model.w1, model.b1, model.w2, model.b2))
    assert before == after
    assert not model.w1.flags.writeable


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(1).standard_normal((6, 4)) * 50
    p = _softmax(z)
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p > 0)
