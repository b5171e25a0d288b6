"""Unit tests for displacement metrics and the evaluation harness."""

import numpy as np
import pytest

from conftest import quick_config
from memtraj.addresser import fixed_cosine_nets
from memtraj.datasets import Scene, scene_batch, synth_generate
from memtraj.evalkit import MetricReport, constant_velocity, evaluate, min_ade, min_fde
from memtraj.features import init_encoder_decoder, social_encode
from memtraj.fulfillment import fulfill_many
from memtraj.inference import ModelBundle, destination_error, predict_scene, propose_destinations, scene_seed
from memtraj.membank import bank_init

from oracles import normalize_scene, scene_set


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
    query = social_encode(bundle.feature_nets, alone)[0]
    addresses, scores, iset = propose_destinations(
        bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, query, 6, 3, 11
    )
    np.testing.assert_array_equal(addresses, pred.addresses)
    np.testing.assert_array_equal(scores, pred.scores)
    np.testing.assert_array_equal(iset.destinations, pred.intention_set.destinations)
    # the world-frame outputs are the oracle's inversion of the ego-frame ones, bit for bit
    _, translation = normalize_scene(scene)
    np.testing.assert_array_equal(iset.destinations - translation, pred.destinations)
    futures = fulfill_many(bundle.fulfill_nets, alone, iset.destinations)
    np.testing.assert_array_equal(futures - translation, pred.trajectories)
    # more proposals than retrieved anchors: kmeans refuses to cluster 3 points into 6
    with pytest.raises(ValueError, match=r"k must be in \[1, 3\] \(number of points\), got 6"):
        propose_destinations(bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, query, 3, 6, 11)
    with pytest.raises(ValueError, match="bank size"):
        propose_destinations(
            bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, query, len(bundle.bank) + 1, 3, 11
        )


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
        query = social_encode(bundle.feature_nets, scene_set([scene]))[0]
        _, _, iset = propose_destinations(
            bundle.feature_nets, bundle.addresser_nets, bundle.bank, bundle.keys, query, 6, 3, scene_seed(3, i)
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
