"""Unit tests for the MLP core: init, forward/backward, SGD, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtraj.errors import FormatError, NumericError
from memtraj.numkit import (
    Mlp,
    RELU,
    TANH,
    load_mlp,
    mlp_backward_from_cache,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    save_mlp,
    sgd_loop,
    sgd_step,
    shuffled_batches,
)

from oracles import finite_diff_check, hidden_preactivations, mlp_backward


def test_glorot_bound_and_shapes():
    net = mlp_init(7, [2, 8, 2])
    assert net.layer_dims == [2, 8, 2]
    assert net.weights[0].shape == (8, 2)
    assert net.weights[1].shape == (2, 8)
    bound0 = np.sqrt(6.0 / (2 + 8))
    bound1 = np.sqrt(6.0 / (8 + 2))
    assert np.all(np.abs(net.weights[0]) <= bound0)
    assert np.all(np.abs(net.weights[1]) <= bound1)
    for b in net.biases:
        assert np.all(b == 0.0)


def test_init_seed_determinism():
    a = mlp_init(42, [3, 5, 4], hidden_activation=TANH)
    b = mlp_init(42, [3, 5, 4], hidden_activation=TANH)
    c = mlp_init(43, [3, 5, 4], hidden_activation=TANH)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert any(not np.array_equal(wa, wc) for wa, wc in zip(a.weights, c.weights))


def test_init_validation():
    with pytest.raises(ValueError):
        mlp_init(0, [4])
    with pytest.raises(ValueError):
        mlp_init(0, [4, 0, 2])
    with pytest.raises(ValueError):
        mlp_init(0, [4, 2], hidden_activation="sigmoid")


def test_forward_input_validation():
    net = mlp_init(0, [4, 2])
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros((3, 1, 5)))
    with pytest.raises(ValueError):
        mlp_forward(net, np.zeros((1, 1, 1, 4)))
    with pytest.raises(ValueError):
        mlp_forward_cached(net, np.zeros((1, 1, 4)))  # training takes row batches only
    assert mlp_forward(net, np.zeros((0, 4))).shape == (0, 2)
    assert mlp_forward(net, np.zeros((3, 0, 4))).shape == (3, 0, 2)
    assert mlp_forward(net, np.zeros((3, 1, 4))).shape == (3, 1, 2)


def test_vectors_are_rejected_with_the_batch_shape():
    net = mlp_init(0, [4, 2])
    for fn in (mlp_forward, mlp_forward_cached):
        with pytest.raises(ValueError, match=r"\(n, 4\) row batch, got shape \(4,\)"):
            fn(net, np.zeros(4))
    _, cache = mlp_forward_cached(net, np.zeros((1, 4)))
    with pytest.raises(ValueError, match=r"\(n, 2\) row batch, got shape \(2,\)"):
        mlp_backward_from_cache(net, cache, np.zeros(2))


def test_zero_row_batch_gives_zero_parameter_gradients():
    net = mlp_init(4, [3, 5, 2], hidden_activation=TANH)
    grads = mlp_backward(net, np.zeros((0, 3)), np.zeros((0, 2)))
    assert grads.d_input.shape == (0, 3)
    for w, dw, b, db in zip(net.weights, grads.d_weights, net.biases, grads.d_biases):
        assert dw.shape == w.shape and db.shape == b.shape
        assert not dw.any() and not db.any()


def test_backward_hand_case_single_affine():
    # One affine layer: out = 2x + 0.5 at x=3, upstream 1.
    net = Mlp(layer_dims=[1, 1], weights=[np.array([[2.0]])], biases=[np.array([0.5])])
    assert mlp_forward(net, np.array([[3.0]])) == pytest.approx(6.5)
    grads = mlp_backward(net, np.array([[3.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(grads.d_weights[0], [[3.0]])
    np.testing.assert_array_equal(grads.d_biases[0], [1.0])
    np.testing.assert_array_equal(grads.d_input, [[2.0]])


def test_backward_batch_is_sum_of_singles():
    net = mlp_init(5, [3, 4, 2], hidden_activation=TANH)
    rng = np.random.default_rng(8)
    xs = rng.normal(size=(6, 3))
    ups = rng.normal(size=(6, 2))
    batch = mlp_backward(net, xs, ups)
    singles = [mlp_backward(net, xs[i : i + 1], ups[i : i + 1]) for i in range(6)]
    for l in range(net.n_layers):
        np.testing.assert_allclose(
            batch.d_weights[l], sum(s.d_weights[l] for s in singles), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            batch.d_biases[l], sum(s.d_biases[l] for s in singles), rtol=1e-12, atol=1e-12
        )
    for i in range(6):
        np.testing.assert_allclose(batch.d_input[i], singles[i].d_input[0], rtol=1e-12, atol=1e-12)


def test_backward_upstream_validation():
    net = mlp_init(0, [3, 2])
    with pytest.raises(ValueError):
        mlp_backward(net, np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match="does not match"):
        # upstream rows must match the forward input's rows
        mlp_backward(net, np.zeros((4, 3)), np.zeros((3, 2)))


def test_finite_diff_tanh():
    rng = np.random.default_rng(101)
    for _ in range(5):
        dims = [int(rng.integers(2, 6)) for _ in range(rng.integers(2, 4))]
        net = mlp_init(int(rng.integers(1 << 30)), dims, hidden_activation=TANH)
        x = rng.normal(size=(1, dims[0]))
        assert finite_diff_check(net, x) < 1e-4


def test_finite_diff_relu_off_kinks():
    rng = np.random.default_rng(202)
    for _ in range(5):
        net = mlp_init(int(rng.integers(1 << 30)), [4, 8, 4], hidden_activation=RELU)
        # resample until every hidden pre-activation is clear of the kink
        for _ in range(100):
            x = rng.normal(size=(1, 4))
            if all(np.min(np.abs(z)) > 1e-3 for z in hidden_preactivations(net, x)):
                break
        else:
            pytest.fail("could not find an input away from the ReLU kinks")
        assert finite_diff_check(net, x) < 1e-4


def test_sgd_decreases_simple_loss():
    net = mlp_init(3, [2, 4, 1], hidden_activation=TANH)
    x = np.array([[0.7, -0.3]])
    target = 2.0

    def loss():
        return float((mlp_forward(net, x)[0, 0] - target) ** 2)

    before = loss()
    for _ in range(50):
        residual = mlp_forward(net, x)[0, 0] - target
        grads = mlp_backward(net, x, np.array([[2.0 * residual]]))
        sgd_step(net, grads, 0.05)
    assert loss() < 0.1 * before


def test_sgd_rejects_nonfinite_gradients():
    net = mlp_init(0, [2, 2])
    grads = mlp_backward(net, np.ones((1, 2)), np.ones((1, 2)))
    grads.d_weights[0][0, 0] = np.inf
    with pytest.raises(NumericError):
        sgd_step(net, grads, 0.1)
    grads = mlp_backward(net, np.ones((1, 2)), np.ones((1, 2)))
    grads.d_biases[0][1] = np.nan
    with pytest.raises(NumericError):
        sgd_step(net, grads, 0.1)


def test_sgd_loop_draws_a_fresh_permutation_each_epoch():
    net = Mlp(layer_dims=[2, 2], weights=[np.eye(2)], biases=[np.zeros(2)])
    seen = []

    def step(idx):
        seen.append(idx.tolist())
        grads = mlp_backward(net, np.ones((len(idx), 2)), np.zeros((len(idx), 2)))
        grads.d_biases[0] = np.ones(2)
        return 1.0, [(net, grads)]

    sgd_loop("test", 5, 2, 3, 0.1, np.random.default_rng(3), step)
    # three epochs of three batches, each epoch a fresh permutation from the same RNG
    rng = np.random.default_rng(3)
    assert seen == [idx.tolist() for _ in range(3) for idx in shuffled_batches(5, 2, rng)]
    np.testing.assert_allclose(net.biases[0], -9 * 0.1 * np.ones(2), rtol=1e-12)


def test_sgd_loop_raises_before_updating_on_nonfinite_loss():
    net = Mlp(layer_dims=[2, 2], weights=[np.eye(2)], biases=[np.zeros(2)])
    weights_seen = []

    def step(idx):
        weights_seen.append(net.weights[0].copy())
        grads = mlp_backward(net, np.ones((len(idx), 2)), np.ones((len(idx), 2)))
        return (np.nan if len(weights_seen) == 4 else 1.0), [(net, grads)]

    # three batches per epoch, so the fourth is the first batch of epoch 2
    with pytest.raises(NumericError, match="non-finite test loss at epoch 2"):
        sgd_loop("test", 6, 2, 4, 0.1, np.random.default_rng(0), step)
    assert len(weights_seen) == 4
    np.testing.assert_array_equal(net.weights[0], weights_seen[-1])


def test_sgd_rejects_mismatched_shapes():
    net = mlp_init(0, [2, 2])
    other = mlp_init(0, [2, 3])
    grads = mlp_backward(other, np.ones((1, 2)), np.ones((1, 3)))
    with pytest.raises(ValueError):
        sgd_step(net, grads, 0.1)


def test_save_load_roundtrip(tmp_path):
    net = mlp_init(9, [3, 7, 2], hidden_activation=TANH)
    path = tmp_path / "net.mtnn"
    save_mlp(net, path)
    loaded = load_mlp(path.read_bytes())
    assert loaded.layer_dims == net.layer_dims
    assert loaded.hidden_activation == TANH
    for wa, wb in zip(net.weights, loaded.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(net.biases, loaded.biases):
        np.testing.assert_array_equal(ba, bb)
    # saving the loaded net reproduces the bytes
    path2 = tmp_path / "net2.mtnn"
    save_mlp(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_rejects_corrupt_files(tmp_path):
    net = mlp_init(1, [2, 3])
    path = tmp_path / "net.mtnn"
    save_mlp(net, path)
    raw = path.read_bytes()

    with pytest.raises(FormatError, match="magic"):
        load_mlp(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_mlp(raw[:10])
    with pytest.raises(FormatError, match="truncated"):
        load_mlp(raw[:-8])
    with pytest.raises(FormatError, match="trailing"):
        load_mlp(raw + b"\x00" * 8)
    # unknown activation code
    mangled = bytearray(raw)
    mangled[12] = 99
    with pytest.raises(FormatError, match="activation"):
        load_mlp(bytes(mangled))


def test_shuffled_batches_partition():
    rng = np.random.default_rng(5)
    batches = list(shuffled_batches(10, 3, rng))
    assert [len(b) for b in batches] == [3, 3, 3, 1]
    seen = np.concatenate(batches)
    assert sorted(seen.tolist()) == list(range(10))
    # same seed, same order
    again = list(shuffled_batches(10, 3, np.random.default_rng(5)))
    np.testing.assert_array_equal(np.concatenate(batches), np.concatenate(again))


# The layer dims of every net the benchmark workloads train (embedders, fuse,
# both point embedders and decoders, the addresser projections), so their
# eleven layer shapes are all covered.
STACK_NETS = [[16, 64, 64], [128, 128, 64], [2, 64, 32], [96, 256, 18], [2, 64, 64], [128, 256, 40], [64, 64]]


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from(STACK_NETS),
    depth=st.integers(1, 4),
    rows=st.integers(0, 60),
    activation=st.sampled_from(["relu", TANH]),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_slices_equal_two_d_calls(dims, depth, rows, activation, seed):
    # a frozen forward of an (s, n, dim) stack gives slice i the bits of the
    # training forward of x[i] alone: one BLAS call per slice, the same routine
    # (matrix-vector for one row), bias and activation rounded the same
    rng = np.random.default_rng(seed)
    net = mlp_init(seed, dims, hidden_activation=activation)
    for b in net.biases:
        b[:] = rng.normal(size=b.shape)
    x = rng.normal(size=(depth, rows, dims[0]))
    stacked = mlp_forward(net, x)
    assert stacked.shape == (depth, rows, dims[-1])
    for i in range(depth):
        np.testing.assert_array_equal(stacked[i], mlp_forward_cached(net, x[i])[0])
    np.testing.assert_array_equal(mlp_forward(net, x[0]), stacked[0])
