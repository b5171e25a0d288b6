"""Unit tests for the social/intention encoders and the joint decoder."""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memtraj import features
from memtraj.datasets import Scene, scene_batch, synth_generate
from memtraj.features import (
    decode_targets,
    fit_encoder_decoder,
    init_encoder_decoder,
    social_backward_batch,
    social_encode,
    social_forward_batch,
    train_features,
)
from memtraj.membank import bank_init
from memtraj.numkit import TANH, mlp_forward, mlp_init

from conftest import quick_config, single_mode_spec
import oracles
from oracles import loop_max_pool, mean_rec_loss, normalize_scene, reference_batch, scene_set


def encode_one(nets, scene):
    """Past feature of one scene, encoded alone."""
    out, _ = social_forward_batch(nets, scene_batch(scene_set([scene])))
    return out[0]


def test_init_dims_and_determinism():
    nets = init_encoder_decoder(3, past_len=8, target_len=1, past_dim=96, intent_dim=48)
    assert nets.past_dim == 96
    assert nets.intent_dim == 48
    assert nets.ego_embed.in_dim == 16
    assert nets.decoder.in_dim == 96 + 48
    assert nets.decoder.out_dim == 2 * 8 + 2
    again = init_encoder_decoder(3, past_len=8, target_len=1, past_dim=96, intent_dim=48)
    np.testing.assert_array_equal(nets.social_fuse.weights[0], again.social_fuse.weights[0])
    # ego and neighbor embedders start from different child seeds
    assert not np.array_equal(nets.ego_embed.weights[0], nets.neighbor_embed.weights[0])


def test_social_encode_is_neighbor_permutation_invariant(small_scenes):
    nets = init_encoder_decoder(1, past_len=8, target_len=1)
    scene = small_scenes[0]
    assert scene.n_neighbors >= 2
    shuffled = Scene(
        ego_past=scene.ego_past,
        neighbor_pasts=scene.neighbor_pasts[::-1].copy(),
        ego_future=scene.ego_future,
        scene_id=scene.scene_id,
    )
    np.testing.assert_allclose(
        encode_one(nets, scene), encode_one(nets, shuffled), rtol=1e-12, atol=1e-14
    )


def test_social_encode_without_neighbors(small_scenes):
    nets = init_encoder_decoder(1, past_len=8, target_len=1)
    scene = small_scenes[0]
    alone = Scene(
        ego_past=scene.ego_past,
        neighbor_pasts=np.zeros((0, 8, 2)),
        ego_future=scene.ego_future,
        scene_id=scene.scene_id,
    )
    feat = encode_one(nets, alone)
    assert feat.shape == (nets.past_dim,)
    assert np.all(np.isfinite(feat))


def test_social_batch_matches_single_scene(small_scenes):
    nets = init_encoder_decoder(2, past_len=8, target_len=1)
    scenes = small_scenes[:5]
    batch_out, _ = social_forward_batch(nets, scene_batch(scenes))
    for i, scene in enumerate(scenes):
        np.testing.assert_allclose(encode_one(nets, scene), batch_out[i], rtol=1e-10, atol=1e-12)


MIX_NETS = init_encoder_decoder(2, past_len=8, target_len=1)


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(0, 3), min_size=2, max_size=6), seed=st.integers(0, 2**32 - 1))
@example(counts=[0, 0, 0], seed=0)
def test_mixed_neighbor_batches_encode_like_each_scene_alone(counts, seed):
    # Each scene is encoded alone as the two-row batch of itself: numpy sends a
    # one-row product down a different BLAS kernel, whose last bits differ,
    # while batches this small all take OpenBLAS's small-matrix kernel, which
    # gives every row of two or more the same bits. So the mixed batch needs
    # two or more neighbor rows, or none.
    assume(sum(counts) != 1)
    rng = np.random.default_rng(seed)
    scenes = [
        Scene(ego_past=rng.normal(size=(8, 2)), neighbor_pasts=rng.normal(size=(n, 8, 2)), ego_future=None, scene_id=f"m{i}")
        for i, n in enumerate(counts)
    ]
    whole = scene_set(scenes)
    batch = scene_batch(whole)
    out, cache = social_forward_batch(MIX_NETS, batch)
    assert cache.nb_cache.activations[0].shape == (sum(counts), 16)
    for i, n in enumerate(counts):
        alone, alone_cache = social_forward_batch(MIX_NETS, scene_batch(whole.take([i, i])))
        np.testing.assert_array_equal(out[i], alone[0])
        own_rows = np.where(cache.pool_rows[i] >= 0, cache.pool_rows[i] - batch.offsets[i], -1)
        np.testing.assert_array_equal(alone_cache.pool_rows[0], own_rows)
        assert (own_rows >= 0).all() if n else (own_rows == -1).all()


CHUNKED_NETS = init_encoder_decoder(4, past_len=8, target_len=1, past_dim=64)


@settings(max_examples=30, deadline=None)
@given(counts=st.lists(st.sampled_from([0, 0, 1, 2, 3]), min_size=1, max_size=100), seed=st.integers(0, 2**32 - 1))
@example(counts=[2] * 49, seed=0)  # a trailing range of one scene
@example(counts=[0] * 24 + [1] + [0] * 23 + [2] * 48, seed=1)  # a range with exactly one neighbor row
@example(counts=[0] * 60, seed=2)
def test_social_encode_matches_one_batch_bit_for_bit(counts, seed):
    # the set encoded in ranges of 24 scenes gives the bits of the set encoded
    # as one range: how the ranges fall changes no row
    rng = np.random.default_rng(seed)
    scenes = scene_set([
        Scene(ego_past=rng.normal(size=(8, 2)), neighbor_pasts=rng.normal(size=(n, 8, 2)), ego_future=None, scene_id=f"c{i}")
        for i, n in enumerate(counts)
    ])
    whole = social_encode(CHUNKED_NETS, scenes)  # 100 scenes or fewer are one range
    with mock.patch.object(features, "ENCODE_CHUNK", 24):
        chunked = social_encode(CHUNKED_NETS, scenes)
    assert_same_bits(chunked, whole)
    assert whole.shape == (len(counts), CHUNKED_NETS.past_dim)


def assert_same_bits(a, b):
    assert a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def integer_scenes(rng, counts):
    """Scenes on the integer grid, so nets with integer weights compute exactly and tie often."""
    return [
        Scene(
            ego_past=rng.integers(-2, 3, size=(8, 2)).astype(np.float64),
            neighbor_pasts=rng.integers(-2, 3, size=(n, 8, 2)).astype(np.float64),
            ego_future=None,
            scene_id=f"t{i}",
        )
        for i, n in enumerate(counts)
    ]


@settings(max_examples=60, deadline=None)
@given(counts=st.lists(st.integers(0, 4), min_size=1, max_size=40), seed=st.integers(0, 2**32 - 1))
@example(counts=[0, 0, 0], seed=0)
@example(counts=[4, 0, 1, 4, 2, 0], seed=1)
def test_grouped_max_pool_equals_the_per_scene_loop(counts, seed):
    # weights in {-1, 0, 1} on integer pasts: the neighbor embeddings are small
    # integers, with many ties and many ReLU zeros (hidden units off, so whole
    # columns tie at 0), where the first row holding the maximum must win
    rng = np.random.default_rng(seed)
    nets = init_encoder_decoder(seed % 1000, past_len=8, target_len=1, past_dim=16)
    for w, b in zip(nets.neighbor_embed.weights, nets.neighbor_embed.biases):
        w[:] = rng.integers(-1, 2, size=w.shape)
        b[:] = rng.integers(-1, 1, size=b.shape)
    scenes = scene_set(integer_scenes(rng, counts))
    batch = scene_batch(scenes)
    out, cache = social_forward_batch(nets, batch)
    pooled, pool_rows = loop_max_pool(cache.nb_cache.activations[-1], batch.offsets)
    np.testing.assert_array_equal(cache.pool_rows, pool_rows)
    assert_same_bits(cache.fuse_cache.activations[0][:, nets.ego_embed.out_dim :], pooled)
    # the frozen encode pools the same way, each scene as if alone
    alone = [oracles.encode_one(nets, reference_batch([scene], with_futures=False)) for scene in scenes]
    assert_same_bits(social_encode(nets, scenes), np.array(alone))


def some_order(n):
    """A permutation of ``range(n)``, or the indices of a non-empty slice of it."""
    sliced = st.slices(n).map(lambda part: list(range(n))[part]).filter(len)
    return st.one_of(st.permutations(range(n)), sliced)


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(0, 4), min_size=1, max_size=60),
    chunk=st.sampled_from([1, 3, 24, features.ENCODE_CHUNK]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(counts=[0, 0, 0], chunk=3, seed=0, data=None)
@example(counts=[1], chunk=1, seed=1, data=None)
@example(counts=[2] * 49, chunk=24, seed=2, data=None)  # a trailing range of one scene
@example(counts=[0] * 24 + [1] + [0] * 23 + [2] * 48, chunk=24, seed=3, data=None)  # a range with one neighbor row
def test_stacked_encode_rows_equal_each_scene_encoded_alone(counts, chunk, seed, data):
    # whatever the ranges and whatever else the set holds, a row of the frozen
    # encode, and so a bank entry's past feature, is its scene's feature alone
    rng = np.random.default_rng(seed)
    scenes = [
        Scene(ego_past=rng.normal(size=(8, 2)), neighbor_pasts=rng.normal(size=(n, 8, 2)), ego_future=rng.normal(size=(3, 2)), scene_id=f"s{i}")
        for i, n in enumerate(counts)
    ]
    order = list(range(len(scenes))) if data is None else data.draw(some_order(len(scenes)))
    chosen = scene_set(scenes).take(order)
    with mock.patch.object(features, "ENCODE_CHUNK", chunk):
        encoded = social_encode(MIX_NETS, chosen)
        stored = bank_init(MIX_NETS, chosen).past_feats
    # a batch translated once, as a prediction block shares it, encodes to the same bits
    assert_same_bits(social_encode(MIX_NETS, scene_batch(chosen)), encoded)
    for row, i in enumerate(order):
        alone = oracles.encode_one(MIX_NETS, reference_batch([scenes[i]], with_futures=False))
        assert_same_bits(encoded[row], alone)
        assert_same_bits(stored[row], alone)


def test_neighborless_training_step_leaves_neighbor_embed_unchanged():
    config = quick_config(epochs_features=1, batch_size=8)
    scenes = synth_generate(4, 8, n_neighbors=0)
    nets = init_encoder_decoder(6, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    before = nets.copy()
    fit_encoder_decoder(nets, scenes, "features", config)  # one epoch of one 8-scene step
    for f in fields(nets):
        after, start = getattr(nets, f.name), getattr(before, f.name)
        same = [np.array_equal(a, b) for a, b in zip(after.weights + after.biases, start.weights + start.biases)]
        assert all(same) if f.name == "neighbor_embed" else not same[0], f.name


def tiny_social_nets(seed):
    """Small tanh trio for gradient checking (embed width 3, feature width 4)."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(1 << 30, size=3)]

    class Trio:
        ego_embed = mlp_init(seeds[0], [6, 4, 3], hidden_activation=TANH)
        neighbor_embed = mlp_init(seeds[1], [6, 4, 3], hidden_activation=TANH)
        social_fuse = mlp_init(seeds[2], [6, 5, 4], hidden_activation=TANH)

    return Trio()


def test_social_backward_matches_finite_difference():
    rng = np.random.default_rng(77)
    nets = tiny_social_nets(9)
    scenes = []
    for i in range(3):
        scenes.append(
            Scene(
                ego_past=rng.normal(size=(3, 2)),
                neighbor_pasts=rng.normal(size=(i, 3, 2)),  # 0, 1, 2 neighbors
                ego_future=None,
                scene_id=f"g{i}",
            )
        )
    batch = scene_batch(scene_set(scenes))
    upstream = rng.normal(size=(3, 4))

    def scalar():
        out, _ = social_forward_batch(nets, batch)
        return float(np.sum(out * upstream))

    out, cache = social_forward_batch(nets, batch)
    ego_g, nb_g, fuse_g = social_backward_batch(nets, cache, upstream)
    assert nb_g is not None
    eps = 1e-6
    worst = 0.0
    for net, grads in ((nets.ego_embed, ego_g), (nets.neighbor_embed, nb_g), (nets.social_fuse, fuse_g)):
        for arr, grad in [
            (net.weights[0], grads.d_weights[0]),
            (net.weights[1], grads.d_weights[1]),
            (net.biases[0], grads.d_biases[0]),
            (net.biases[1], grads.d_biases[1]),
        ]:
            flat, gflat = arr.ravel(), grad.ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                f_plus = scalar()
                flat[j] = orig - eps
                f_minus = scalar()
                flat[j] = orig
                numeric = (f_plus - f_minus) / (2 * eps)
                worst = max(worst, abs(numeric - gflat[j]) / max(1e-8, abs(numeric) + abs(gflat[j])))
    assert worst < 1e-4


def test_intention_encode_validation():
    # the intention encoder is the point embedder: one destination in, one intention feature out
    nets = init_encoder_decoder(0, past_len=8, target_len=1)
    with pytest.raises(ValueError):
        mlp_forward(nets.point_embed, np.zeros(3))
    feat = mlp_forward(nets.point_embed, np.array([[1.0, -2.0]]))
    assert feat.shape == (1, nets.intent_dim)


def test_joint_decode_shapes():
    nets = init_encoder_decoder(0, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    # one past row shared by a scene's rows, or one per row; only the destination columns come out
    assert decode_targets(nets, np.zeros((2, 1, 32)), np.zeros((2, 3, 16))).shape == (2, 3, 2)
    assert decode_targets(nets, np.zeros((2, 3, 32)), np.zeros((2, 3, 16))).shape == (2, 3, 2)
    futures = init_encoder_decoder(0, past_len=8, target_len=12, past_dim=32, intent_dim=16)
    assert decode_targets(futures, np.zeros((1, 1, 32)), np.zeros((1, 4, 16))).shape == (1, 4, 24)


DECODER_NETS = {
    outputs: init_encoder_decoder(outputs, past_len=8, target_len=outputs // 2 - 8, past_dim=64, intent_dim=32)
    for outputs in (18, 40)
}


@settings(max_examples=40, deadline=None)
@given(
    outputs=st.sampled_from(sorted(DECODER_NETS)),
    n_scenes=st.sampled_from([1, 3, 32]),
    n_rows=st.integers(1, 24),
    shared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(outputs=18, n_scenes=32, n_rows=20, shared=True, seed=0)
@example(outputs=40, n_scenes=3, n_rows=1, shared=False, seed=1)
def test_decode_targets_equals_the_decoders_target_columns(outputs, n_scenes, n_rows, shared, seed):
    # random weights and biases, so hidden units sit on both sides of the ReLU
    rng = np.random.default_rng(seed)
    nets = DECODER_NETS[outputs].copy()
    for w, b in zip(nets.decoder.weights, nets.decoder.biases):
        w[:] = rng.normal(size=w.shape) / np.sqrt(w.shape[1])
        b[:] = rng.normal(size=b.shape)
    past = rng.normal(size=(n_scenes, 1 if shared else n_rows, nets.past_dim))
    points = rng.normal(size=(n_scenes, n_rows, nets.intent_dim))
    got = decode_targets(nets, past, points)
    assert got.shape == (n_scenes, n_rows, outputs - 2 * nets.past_len)
    # the whole decoder's target columns, up to the first layer's summation order
    joint = np.concatenate([np.broadcast_to(past, (*points.shape[:2], nets.past_dim)), points], axis=2)
    full = mlp_forward(nets.decoder, joint.reshape(-1, joint.shape[2]))[:, 2 * nets.past_len :].reshape(got.shape)
    assert np.all(np.abs(got - full) <= 1e-12 * (1 + np.abs(full)))
    # slice i is scene i decoded alone, bit for bit
    for i in range(n_scenes):
        assert_same_bits(got[i], decode_targets(nets, past[i : i + 1], points[i : i + 1])[0])
        assert_same_bits(got[i], oracles.decode_targets_one(nets, past[i], points[i]))


def test_mean_rec_loss_matches_scalar_path(small_scenes):
    nets = init_encoder_decoder(5, past_len=8, target_len=1)
    scenes = small_scenes[:6]
    total = 0.0
    for scene in scenes:
        normalized, _ = normalize_scene(scene)
        dest = normalized.ego_future[-1]
        k = encode_one(nets, scene)
        v = mlp_forward(nets.point_embed, dest[None])
        out = mlp_forward(nets.decoder, np.hstack([k[None, :], v]))[0]
        total += float(np.sum((out[:16] - normalized.ego_past.reshape(-1)) ** 2) + np.sum((out[16:] - dest) ** 2))
    np.testing.assert_allclose(mean_rec_loss(nets, scenes), total / 6, rtol=1e-9)


def test_train_features_descends_to_small_loss():
    config = quick_config(epochs_features=200, batch_size=16, seed=5)
    scenes = synth_generate(41, 48, mode_spec=single_mode_spec())
    init = init_encoder_decoder(config.seed_for("features"), past_len=8, target_len=1, past_dim=32, intent_dim=16)
    before = mean_rec_loss(init, scenes)
    nets = train_features(scenes, config)
    after = mean_rec_loss(nets, scenes)
    assert after < 0.1 * before


def test_train_features_zero_epochs_returns_init():
    config = quick_config(epochs_features=0)
    scenes = synth_generate(2, 8)
    nets = train_features(scenes, config)
    init = init_encoder_decoder(config.seed_for("features"), past_len=8, target_len=1, past_dim=32, intent_dim=16)
    for a, b in zip(nets.decoder.weights, init.decoder.weights):
        np.testing.assert_array_equal(a, b)


def test_train_features_is_deterministic():
    config = quick_config(epochs_features=4, seed=9)
    scenes = synth_generate(3, 12)
    a = train_features(scenes, config)
    b = train_features(scenes, config)
    np.testing.assert_array_equal(a.social_fuse.weights[0], b.social_fuse.weights[0])
    np.testing.assert_array_equal(a.decoder.weights[1], b.decoder.weights[1])


def test_train_features_requires_futures(small_scenes):
    scene = small_scenes[0]
    futureless = Scene(
        ego_past=scene.ego_past, neighbor_pasts=scene.neighbor_pasts, ego_future=None, scene_id="x"
    )
    with pytest.raises(ValueError, match="scene 'x' has no future; features training needs one"):
        train_features(scene_set([futureless]), quick_config())
    with pytest.raises(ValueError, match="empty scene set for features training"):
        train_features(small_scenes[:0], quick_config())
