"""Unit tests for displacement metrics and the evaluation harness."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import quick_config
from memtraj import inference
from memtraj import addresser, features
from memtraj.addresser import AddresserNets, fixed_cosine_nets, top_l
from memtraj.datasets import Scene, scene_batch, synth_generate
from memtraj.evalkit import MetricReport, constant_velocity, evaluate, min_ade, min_fde
from memtraj.features import init_encoder_decoder, social_encode
from memtraj.fulfillment import fulfill_many
from memtraj.errors import NumericError
from memtraj.inference import (
    PREDICT_BLOCK,
    ModelBundle,
    destination_error,
    predict_scene,
    predict_scenes,
    propose_block,
    scene_seed,
)
from memtraj.intention import decode_anchors
from memtraj.membank import bank_init
from memtraj.numkit import mlp_init

from oracles import decode_one, kmeans, normalize_scene, predict_one, scene_set, score_one


def test_min_ade_hand_cases():
    gt = np.array([[1.0, 1.0], [2.0, 2.0]])
    exact = np.stack([gt])
    assert min_ade(exact, gt) == pytest.approx(0.0, abs=1e-12)
    shifted = np.stack([gt + [3.0, 4.0]])  # every step off by 5
    assert min_ade(shifted, gt) == pytest.approx(5.0, abs=1e-12)
    # two steps with displacement norms 1 and 3 average to 2
    pred = np.array([[[1.0, 1.0], [2.0, 3.0]], [[9.0, 9.0], [9.0, 9.0]]])
    gt2 = np.array([[0.0, 1.0], [2.0, 0.0]])
    assert min_ade(pred, gt2) == pytest.approx(2.0, abs=1e-12)


def test_min_fde_hand_cases():
    gt = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert min_fde(np.stack([gt]), gt) == pytest.approx(0.0, abs=1e-12)
    # final-step errors 3 and 4; the best of the set wins
    a = gt.copy()
    a[-1] += [3.0, 0.0]
    b = gt.copy()
    b[-1] += [0.0, 4.0]
    assert min_fde(np.stack([a, b]), gt) == pytest.approx(3.0, abs=1e-12)
    assert min_fde(np.stack([b]), gt) == pytest.approx(4.0, abs=1e-12)


def test_min_metrics_monotone_in_k():
    rng = np.random.default_rng(1)
    gt = rng.normal(size=(12, 2))
    preds = rng.normal(size=(6, 12, 2))
    for k in range(1, 6):
        assert min_fde(preds[: k + 1], gt) <= min_fde(preds[:k], gt) + 1e-15
        assert min_ade(preds[: k + 1], gt) <= min_ade(preds[:k], gt) + 1e-15


def test_min_metrics_validation():
    gt = np.zeros((4, 2))
    with pytest.raises(ValueError):
        min_ade(np.zeros((0, 4, 2)), gt)
    with pytest.raises(ValueError):
        min_ade(np.zeros((4, 2)), gt)  # missing the set axis
    with pytest.raises(ValueError):
        min_fde(np.zeros((2, 3, 2)), gt)  # length mismatch


def test_constant_velocity_hand_case():
    past = np.array([[0.0, 0.0], [1.0, 0.0]])
    future = constant_velocity(past, 3)
    np.testing.assert_allclose(future, [[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]], atol=1e-12)
    with pytest.raises(ValueError):
        constant_velocity(past[:1], 3)
    with pytest.raises(ValueError):
        constant_velocity(past, 0)


def make_bundle(config, scenes):
    feature_nets = init_encoder_decoder(
        config.seed_for("features"), config.past_len, 1, config.past_dim, config.intent_dim
    )
    bank = bank_init(feature_nets, scenes)
    addresser = fixed_cosine_nets(config.past_dim)
    fulfill_nets = init_encoder_decoder(
        config.seed_for("fulfillment"), config.past_len, config.future_len, past_dim=config.past_dim
    )
    return ModelBundle(
        feature_nets=feature_nets, bank=bank, addresser_nets=addresser, fulfill_nets=fulfill_nets
    )


def test_propose_destinations_matches_predict_scene():
    config = quick_config()
    scenes = synth_generate(33, 10)
    bundle = make_bundle(config, scenes)
    scene = scenes[4]
    pred = predict_scene(bundle, scene, n_retrieve=6, n_predict=3, seed=11)
    alone = scenes[4:5]
    queries = social_encode(bundle.feature_nets, alone)
    (addresses,), (scores,), (iset,) = propose_block(
        bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, queries, 6, 3, [11]
    )
    np.testing.assert_array_equal(addresses, pred.addresses)
    np.testing.assert_array_equal(scores, pred.scores)
    np.testing.assert_array_equal(iset.destinations, pred.intention_set.destinations)
    # the world-frame outputs are the oracle's inversion of the ego-frame ones, bit for bit
    _, translation = normalize_scene(scene)
    np.testing.assert_array_equal(iset.destinations - translation, pred.destinations)
    futures = fulfill_many(bundle.fulfill_nets, alone, iset.destinations[None])[0]
    np.testing.assert_array_equal(futures - translation, pred.trajectories)
    # more proposals than retrieved anchors: kmeans refuses to cluster 3 points into 6
    with pytest.raises(ValueError, match=r"k must be in \[1, 3\] \(number of points\), got 6"):
        propose_block(bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, queries, 3, 6, [11])
    with pytest.raises(ValueError, match="bank size"):
        propose_block(
            bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, queries, len(bundle.bank) + 1, 3, [11]
        )


def test_degenerate_queries_are_one_warning_per_block(monkeypatch, caplog):
    config = quick_config()
    scenes = synth_generate(35, 10)
    bundle = make_bundle(config, scenes)
    queries = np.concatenate([social_encode(bundle.feature_nets, scenes[i : i + 1]) for i in range(10)])
    queries[[1, 2, 6]] = 0.0  # the fixed-cosine query projection of a zero feature is degenerate
    dests = scenes.ego_destinations("destination error")
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 4)
    with caplog.at_level("WARNING", logger="memtraj"):
        destination_error(bundle.feature_nets, bundle.addresser_nets, bundle.bank, queries, dests, 6, 3, master_seed=9)
    # blocks [0, 4), [4, 8), [8, 10): the last has no degenerate query and says nothing
    assert [r.getMessage() for r in caplog.records] == [
        "2 of 4 queries had a degenerate projection; they scored 0",
        "1 of 4 queries had a degenerate projection; they scored 0",
    ]
    caplog.clear()
    with caplog.at_level("WARNING", logger="memtraj"):
        (addresses,), _, _ = propose_block(
            bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, queries[1:2], 6, 3, [11]
        )
    assert [r.getMessage() for r in caplog.records] == ["1 of 1 queries had a degenerate projection; they scored 0"]
    np.testing.assert_array_equal(addresses, np.arange(6))  # every score 0: the lowest addresses


def test_destination_error_properties():
    config = quick_config()
    scenes = synth_generate(33, 10)
    bundle = make_bundle(config, scenes)
    holdout = scenes[:6]
    queries = np.concatenate([social_encode(bundle.feature_nets, holdout[i : i + 1]) for i in range(6)])
    dests = scene_batch(holdout, "destination error").futures[:, -1]
    err = destination_error(
        bundle.feature_nets, bundle.addresser_nets, bundle.bank, queries, dests, 6, 3, master_seed=3
    )
    assert np.isfinite(err) and err >= 0.0
    again = destination_error(
        bundle.feature_nets, bundle.addresser_nets, bundle.bank, queries, dests, 6, 3, master_seed=3
    )
    assert err == again
    # it really is the mean over per-scene nearest-proposal gaps of predict's own queries
    gaps = []
    for i, scene in enumerate(scenes[:6]):
        normalized, _ = normalize_scene(scene)
        queries = social_encode(bundle.feature_nets, scene_set([scene]))
        _, _, (iset,) = propose_block(
            bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, queries, 6, 3, [scene_seed(3, i)]
        )
        gaps.append(np.linalg.norm(iset.destinations - normalized.ego_future[-1], axis=1).min())
    assert err == pytest.approx(np.mean(gaps), rel=1e-12)
    with pytest.raises(ValueError, match="empty"):
        scene_batch(scenes[:0], "destination error")
    bare = Scene(
        ego_past=scenes[0].ego_past,
        neighbor_pasts=scenes[0].neighbor_pasts,
        ego_future=None,
        scene_id="bare",
    )
    with pytest.raises(ValueError, match="'bare' has no future; destination error needs one"):
        scene_batch(scene_set([bare]), "destination error")


def test_evaluate_report_and_csv(tmp_path):
    config = quick_config()
    scenes = synth_generate(21, 12)
    bundle = make_bundle(config, scenes)
    report = evaluate(bundle, scenes, n_predict=3, n_retrieve=8, seed=2, units="meters")
    assert isinstance(report, MetricReport)
    assert report.k == 3
    assert report.n_scenes == 12
    assert report.units == "meters"
    assert len(report.rows) == 12
    assert np.isfinite(report.min_ade_k)
    assert report.min_ade_k == pytest.approx(np.mean([r.min_ade for r in report.rows]), rel=1e-12)
    assert report.min_fde_k == pytest.approx(np.mean([r.min_fde for r in report.rows]), rel=1e-12)
    for row in report.rows:
        assert 0 <= row.best_k < 3

    lines = report.summary_lines()
    assert f"min_ade_k = {report.min_ade_k!r}" in lines
    assert f"min_fde_k = {report.min_fde_k!r}" in lines
    assert "k = 3" in lines
    assert "units = meters" in lines

    path = tmp_path / "rows.csv"
    report.to_csv(path)
    text = path.read_text(encoding="utf-8").strip().split("\n")
    assert text[0] == "scene_id,min_ade,min_fde,best_k_index"
    assert len(text) == 13
    first = text[1].split(",")
    assert first[0] == report.rows[0].scene_id
    assert float(first[1]) == report.rows[0].min_ade


def test_evaluate_deterministic():
    config = quick_config()
    scenes = synth_generate(23, 10)
    bundle = make_bundle(config, scenes)
    a = evaluate(bundle, scenes, n_predict=3, n_retrieve=8, seed=4)
    b = evaluate(bundle, scenes, n_predict=3, n_retrieve=8, seed=4)
    assert a.min_ade_k == b.min_ade_k
    assert a.min_fde_k == b.min_fde_k
    for ra, rb in zip(a.rows, b.rows):
        assert ra.min_ade == rb.min_ade
        assert ra.best_k == rb.best_k


def test_evaluate_validation():
    config = quick_config()
    scenes = synth_generate(27, 6)
    bundle = make_bundle(config, scenes)
    with pytest.raises(ValueError, match="empty scene set for evaluation"):
        evaluate(bundle, scenes[:0], n_predict=3, n_retrieve=8, seed=1)
    from memtraj.datasets import Scene

    no_future = Scene(
        ego_past=scenes[0].ego_past,
        neighbor_pasts=scenes[0].neighbor_pasts,
        ego_future=None,
        scene_id="t:0:0",
    )
    with pytest.raises(ValueError, match="scene 't:0:0' has no future; evaluation needs one"):
        evaluate(bundle, scene_set([no_future]), n_predict=3, n_retrieve=8, seed=1)


@pytest.mark.parametrize("block", [3, PREDICT_BLOCK])
def test_predict_scenes_in_blocks_equals_predict_scene(monkeypatch, block):
    config = quick_config()
    scenes = synth_generate(35, block + 10)  # not a multiple of the block
    bundle = make_bundle(config, scenes)
    monkeypatch.setattr(inference, "PREDICT_BLOCK", block)
    blocked = list(predict_scenes(bundle, scenes, n_retrieve=8, n_predict=3, seed=6))
    assert len(blocked) == len(scenes)
    for i, (scene, pred) in enumerate(zip(scenes, blocked)):
        alone = predict_scene(bundle, scene, n_retrieve=8, n_predict=3, seed=scene_seed(6, i))
        assert pred.scene_id == alone.scene_id == scene.scene_id
        for name in ("trajectories", "destinations", "addresses", "scores", "sample_ids"):
            np.testing.assert_array_equal(getattr(pred, name), getattr(alone, name))
        np.testing.assert_array_equal(pred.intention_set.destinations, alone.intention_set.destinations)
        np.testing.assert_array_equal(pred.intention_set.anchor_assignment, alone.intention_set.anchor_assignment)
        assert pred.intention_set.iter_costs == alone.intention_set.iter_costs


def _stacked_bundle():
    """A bundle whose every net, the addresser projections included, multiplies by dense random weights."""
    config = quick_config()
    bundle = make_bundle(config, synth_generate(45, 150, n_neighbors=3))
    seeds = np.random.default_rng(8).integers(0, 2**32, size=2)
    bundle.addresser_nets = AddresserNets(
        query_proj=mlp_init(int(seeds[0]), [config.past_dim, config.addr_dim]),
        key_proj=mlp_init(int(seeds[1]), [config.past_dim, config.addr_dim]),
    )
    bundle.keys = addresser.key_table(bundle.addresser_nets, bundle.bank)
    return bundle


STACKED_BUNDLE = _stacked_bundle()
STACKED_SCENES = synth_generate(47, 3 * PREDICT_BLOCK, n_neighbors=4)


@settings(max_examples=40, deadline=None)
@given(
    block=st.sampled_from([1, 3, PREDICT_BLOCK]),
    counts=st.lists(st.integers(0, 4), min_size=1, max_size=2 * PREDICT_BLOCK + 3),
    decode_mode=st.sampled_from(["query", "stored"]),
    snap_destination=st.booleans(),
    score_slice=st.sampled_from([64, addresser.SCORE_SLICE]),
    seed=st.integers(0, 2**32 - 1),
)
@example(block=PREDICT_BLOCK, counts=[0] * PREDICT_BLOCK, decode_mode="query", snap_destination=False, score_slice=64, seed=0)
@example(block=3, counts=[0, 4, 1, 0, 2, 3, 4], decode_mode="stored", snap_destination=True, score_slice=64, seed=1)
@example(  # two full blocks and a short one, every neighbor count in each
    block=PREDICT_BLOCK,
    counts=[i % 5 for i in range(2 * PREDICT_BLOCK + 3)],
    decode_mode="query",
    snap_destination=True,
    score_slice=addresser.SCORE_SLICE,
    seed=2,
)
def test_block_predictions_equal_the_per_scene_chain(block, counts, decode_mode, snap_destination, score_slice, seed):
    # every output of a block, scene by scene, has the bits of that scene run
    # through the chain alone as 2-D products: oracles.predict_one
    picked = STACKED_SCENES[: len(counts)]
    scenes = scene_set(
        Scene(s.ego_past, s.neighbor_pasts[:n], s.ego_future, s.scene_id) for s, n in zip(picked, counts)
    )
    with mock.patch.object(inference, "PREDICT_BLOCK", block), mock.patch.object(addresser, "SCORE_SLICE", score_slice):
        preds = list(predict_scenes(STACKED_BUNDLE, scenes, 8, 3, seed, decode_mode, snap_destination))
        alone = predict_scene(STACKED_BUNDLE, scenes[0], 8, 3, scene_seed(seed, 0), decode_mode, snap_destination)
    assert len(preds) == len(scenes)
    for i, (scene, pred) in enumerate(zip(scenes, preds)):
        expected = predict_one(STACKED_BUNDLE, scene, 8, 3, scene_seed(seed, i), decode_mode, snap_destination)
        assert pred.scene_id == scene.scene_id
        for name in ("destinations", "trajectories", "addresses", "scores", "sample_ids"):
            assert getattr(pred, name).tobytes() == np.ascontiguousarray(expected[name]).tobytes(), name
        np.testing.assert_array_equal(pred.intention_set.anchor_assignment, expected["iset"].anchor_assignment)
        assert pred.intention_set.iter_costs == expected["iset"].iter_costs
    assert alone.trajectories.tobytes() == preds[0].trajectories.tobytes()


def test_a_prediction_block_is_translated_once(monkeypatch):
    # the feature encode and the fulfillment encode read one translation of each block
    translated = []

    def counting(scenes, *args):
        translated.append(len(scenes))
        return scene_batch(scenes, *args)

    monkeypatch.setattr(inference, "scene_batch", counting)
    monkeypatch.setattr(features, "scene_batch", counting)
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 3)
    assert len(list(predict_scenes(STACKED_BUNDLE, STACKED_SCENES[:5], 8, 3, seed=1))) == 5
    assert translated == [3, 2]


def test_destination_error_equals_a_one_scene_reference_loop(monkeypatch):
    config = quick_config()
    scenes = synth_generate(37, 20)
    bundle = make_bundle(config, scenes)
    holdout = scenes[10:]
    queries = np.concatenate([social_encode(bundle.feature_nets, holdout[i : i + 1]) for i in range(10)])
    dests = holdout.ego_destinations("destination error")
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 4)
    err = destination_error(bundle.feature_nets, bundle.addresser_nets, bundle.bank, queries, dests, 6, 3, master_seed=9)
    gaps = []
    for i, (query, dest) in enumerate(zip(queries, dests)):
        addresses = top_l(score_one(bundle.addresser_nets, query, bundle.keys), 6)
        anchors = decode_one(query, addresses, bundle.bank, bundle.feature_nets, "query")
        iset = kmeans(anchors, 3, scene_seed(9, i))
        gaps.append(float(np.linalg.norm(iset.destinations - dest, axis=1).min()))
    assert err == float(np.mean(gaps))


def test_evaluate_rows_equal_per_scene_min_fde_across_blocks(monkeypatch):
    config = quick_config()
    scenes = synth_generate(39, 10)
    bundle = make_bundle(config, scenes)
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 4)
    report = evaluate(bundle, scenes, n_predict=3, n_retrieve=8, seed=5)
    assert [row.scene_id for row in report.rows] == scenes.scene_ids
    for i, (scene, row) in enumerate(zip(scenes, report.rows)):
        pred = predict_scene(bundle, scene, n_retrieve=8, n_predict=3, seed=scene_seed(5, i))
        assert row.min_fde == min_fde(pred.trajectories, scene.ego_future)
        assert row.min_ade == min_ade(pred.trajectories, scene.ego_future)


def test_non_finite_predictions_name_the_first_bad_scene(monkeypatch):
    config = quick_config()
    scenes = synth_generate(41, 10)
    bundle = make_bundle(config, scenes)
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 4)
    bad = scenes.scene_ids[6]
    calls = itertools.count()

    def fulfill_diverging(nets, block, dests, snap_destination=False):
        futures = fulfill_many(nets, block, dests, snap_destination)
        if next(calls) == 1:  # the block of scenes 4 to 7
            futures[2, 1, -1, 0] = np.inf  # scene 6
        return futures

    monkeypatch.setattr(inference, "fulfill_many", fulfill_diverging)
    preds = predict_scenes(bundle, scenes, n_retrieve=8, n_predict=3, seed=2)
    assert [next(preds).scene_id for _ in range(4)] == scenes.scene_ids[:4]  # the block before it is whole
    message = rf"non-finite trajectories for scene 6 \('{bad}'\)"
    with pytest.raises(NumericError, match=message):
        list(preds)
    calls = itertools.count()
    with pytest.raises(NumericError, match=message):
        evaluate(bundle, scenes, n_predict=3, n_retrieve=8, seed=2)


def test_non_finite_anchors_name_the_first_bad_scene(monkeypatch):
    config = quick_config()
    scenes = synth_generate(43, 10)
    bundle = make_bundle(config, scenes)
    monkeypatch.setattr(inference, "PREDICT_BLOCK", 4)
    calls = itertools.count()

    def decode_diverging(*args, **kwargs):
        anchors = decode_anchors(*args, **kwargs)
        if next(calls) == 1:  # the block of scenes 4 to 7
            anchors[1, 2, 1] = np.nan  # scene 5
        return anchors

    monkeypatch.setattr(inference, "decode_anchors", decode_diverging)
    queries = np.concatenate([social_encode(bundle.feature_nets, scenes[i : i + 1]) for i in range(10)])
    dests = scenes.ego_destinations("destination error")
    args = (bundle.feature_nets, bundle.addresser_nets, bundle.bank, queries, dests, 6, 3, 9)
    with pytest.raises(NumericError, match=rf"non-finite intention anchors for scene 5 \('{scenes.scene_ids[5]}'\)"):
        destination_error(*args, scenes.scene_ids)
    calls = itertools.count()
    with pytest.raises(NumericError, match=r"non-finite intention anchors for scene 5$"):
        destination_error(*args)
    calls = itertools.count()
    with pytest.raises(NumericError, match=rf"non-finite intention anchors for scene 5 \('{scenes.scene_ids[5]}'\)"):
        evaluate(bundle, scenes, n_predict=3, n_retrieve=6, seed=2)
