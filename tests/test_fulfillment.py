"""Unit tests for destination-conditioned trajectory completion."""

from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import quick_config, single_mode_spec
from memtraj.datasets import Scene, scene_batch, synth_generate
from memtraj.features import init_encoder_decoder, social_forward_batch
from memtraj.fulfillment import DEST_EMBED_DIM, fulfill_many, train_fulfillment
from memtraj.numkit import mlp_forward
from oracles import reference_batch, scene_set


def one_scene_set(rng, past_len=8, future_len=12, n_neighbors=2):
    ego_past = rng.normal(size=(past_len, 2))
    neighbors = rng.normal(size=(n_neighbors, past_len, 2))
    future = rng.normal(size=(future_len, 2))
    return scene_set([Scene(ego_past=ego_past, neighbor_pasts=neighbors, ego_future=future, scene_id="t:0:0")])


def test_init_shapes_and_determinism():
    nets = init_encoder_decoder(5, past_len=8, target_len=12, past_dim=32)
    assert nets.point_embed.in_dim == 2
    assert nets.decoder.in_dim == 32 + 64
    assert nets.decoder.out_dim == 2 * (8 + 12)
    again = init_encoder_decoder(5, past_len=8, target_len=12, past_dim=32)
    for a, b in zip(nets.decoder.weights, again.decoder.weights):
        np.testing.assert_array_equal(a, b)
    other = init_encoder_decoder(6, past_len=8, target_len=12, past_dim=32)
    assert not np.array_equal(nets.decoder.weights[0], other.decoder.weights[0])


def test_fulfill_shapes():
    rng = np.random.default_rng(1)
    nets = init_encoder_decoder(2, past_len=8, target_len=12, past_dim=32)
    scenes = one_scene_set(rng)
    futures = fulfill_many(nets, scenes, np.array([[[1.0, 2.0]]]))
    assert futures.shape == (1, 1, 12, 2)
    assert fulfill_many(nets, scenes, np.zeros((1, 3, 2))).shape == (1, 3, 12, 2)
    with pytest.raises(ValueError):
        fulfill_many(nets, scenes, np.array([[1.0, 2.0]]))  # one scene's (k, 2) without the scene axis
    with pytest.raises(ValueError):
        fulfill_many(nets, scenes, np.zeros((2, 3, 2)))  # two scenes' destinations for one scene


def test_fulfill_many_matches_single():
    rng = np.random.default_rng(2)
    nets = init_encoder_decoder(3, past_len=8, target_len=12, past_dim=32)
    scenes = one_scene_set(rng)
    dests = rng.normal(size=(4, 2))
    many = fulfill_many(nets, scenes, dests[None])[0]
    assert len(many) == 4
    for i, future in enumerate(many):
        single = fulfill_many(nets, scenes, dests[None, i : i + 1])[0, 0]
        np.testing.assert_allclose(future, single, rtol=1e-12, atol=1e-14)


def test_snap_destination_pins_endpoint():
    rng = np.random.default_rng(3)
    nets = init_encoder_decoder(4, past_len=8, target_len=12, past_dim=32)
    scenes = one_scene_set(rng)
    dests = rng.normal(size=(3, 2))
    futures = fulfill_many(nets, scenes, dests[None], snap_destination=True)[0]
    for i, future in enumerate(futures):
        np.testing.assert_array_equal(future[-1], dests[i])


def mean_teacher_loss(nets, scenes):
    """Mean over scenes of the summed squared past and future error, conditioned on the true destination."""
    batch = reference_batch(scenes)
    feats, _ = social_forward_batch(nets, batch)
    out = mlp_forward(nets.decoder, np.hstack([feats, mlp_forward(nets.point_embed, batch.futures[:, -1])]))
    target = np.hstack([batch.ego_x, batch.futures.reshape(len(scenes), -1)])
    return float(np.sum((out - target) ** 2)) / len(scenes)


def test_training_reduces_loss():
    scenes = synth_generate(31, 48, mode_spec=single_mode_spec())
    config = quick_config(epochs_fulfillment=200, batch_size=16, seed=5)
    before = mean_teacher_loss(train_fulfillment(scenes, replace(config, epochs_fulfillment=0)), scenes)
    after = mean_teacher_loss(train_fulfillment(scenes, config), scenes)
    assert after < 0.1 * before


def test_true_destination_beats_offset_destination():
    scenes = synth_generate(33, 48, mode_spec=single_mode_spec())
    config = quick_config(epochs_fulfillment=200, batch_size=16, seed=7)
    trained = train_fulfillment(scenes, config)
    offset = np.array([5 * 0.02, 0.0])  # five jitter sigmas sideways
    fde_true = 0.0
    fde_off = 0.0
    batch = scene_batch(scenes, "this test")
    for i in range(len(scenes)):
        dest = batch.futures[i, -1]
        pred_true, pred_off = fulfill_many(trained, scenes[i : i + 1], np.stack([dest, dest + offset])[None])[0]
        fde_true += float(np.linalg.norm(pred_true[-1] - dest))
        fde_off += float(np.linalg.norm(pred_off[-1] - dest))
    assert fde_true < fde_off


def test_zero_epochs_returns_copy():
    # with no epochs the result is exactly the seeded initialization
    scenes = synth_generate(35, 8)
    config = quick_config(epochs_fulfillment=0)
    trained = train_fulfillment(scenes, config)
    init = init_encoder_decoder(
        config.seed_for("fulfillment"),
        past_len=config.past_len,
        target_len=config.future_len,
        past_dim=config.past_dim,
        intent_dim=DEST_EMBED_DIM,
    )
    for f in fields(init):
        a, b = getattr(trained, f.name), getattr(init, f.name)
        assert a.layer_dims == b.layer_dims, f.name
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            np.testing.assert_array_equal(x, y)


def test_training_deterministic():
    scenes = synth_generate(37, 16)
    config = quick_config(epochs_fulfillment=5)
    a = train_fulfillment(scenes, config)
    b = train_fulfillment(scenes, config)
    for wa, wb in zip(a.decoder.weights, b.decoder.weights):
        np.testing.assert_array_equal(wa, wb)


def test_training_validation():
    config = quick_config()
    with pytest.raises(ValueError, match="empty scene set for fulfillment training"):
        train_fulfillment(synth_generate(1, 1)[:0], config)
    rng = np.random.default_rng(5)
    no_future = Scene(
        ego_past=rng.normal(size=(8, 2)),
        neighbor_pasts=np.zeros((0, 8, 2)),
        ego_future=None,
        scene_id="t:0:0",
    )
    with pytest.raises(ValueError, match="scene 't:0:0' has no future; fulfillment training needs one"):
        train_fulfillment(scene_set([no_future]), config)
