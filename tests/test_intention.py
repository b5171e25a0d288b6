"""Unit tests for anchor decoding and the seeded k-means clustering."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtraj.addresser import fixed_cosine_nets, key_table
from memtraj.datasets import scene_batch, synth_generate
from memtraj.features import init_encoder_decoder, social_encode
from memtraj.intention import (
    DECODE_QUERY,
    DECODE_STORED,
    decode_anchors,
    kmeans_batch,
)
from memtraj.inference import ScenePrediction, propose_block
from memtraj.membank import bank_init
from memtraj.pipeline import write_predictions

from conftest import kmeans_one
from oracles import kmeans, kmeans_cost


def exhaustive_best_cost(points, k):
    """Brute-force optimal k-means cost over every assignment of points."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        cost = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):
                cost += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, cost)
    return best


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(1)
    blob_a = rng.normal(size=(20, 2)) * 0.05 + [0.0, 0.0]
    blob_b = rng.normal(size=(20, 2)) * 0.05 + [10.0, 0.0]
    points = np.vstack([blob_a, blob_b])
    destinations, assignment = kmeans_one(points, 2, seed=3)
    assert destinations.shape == (2, 2)
    centers = destinations[np.argsort(destinations[:, 0])]
    np.testing.assert_allclose(centers[0], blob_a.mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(centers[1], blob_b.mean(axis=0), atol=1e-9)
    # one cluster per blob
    assert len(set(assignment[:20])) == 1
    assert len(set(assignment[20:])) == 1


def test_kmeans_k1_is_mean():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(9, 2))
    destinations, assignment = kmeans_one(points, 1, seed=0)
    np.testing.assert_allclose(destinations[0], points.mean(axis=0), atol=1e-12)
    np.testing.assert_array_equal(assignment, np.zeros(9, dtype=np.int64))


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    points = rng.normal(size=(5, 2))
    destinations, assignment = kmeans_one(points, 5, seed=1)
    assert kmeans_cost(points, destinations, assignment) < 1e-18
    assert sorted(assignment.tolist()) == [0, 1, 2, 3, 4]


def test_kmeans_costs_non_increasing():
    rng = np.random.default_rng(4)
    points = rng.uniform(size=(40, 2))
    reference = kmeans(points, 4, seed=9)
    costs = reference.costs
    assert len(costs) >= 1
    assert all(costs[i + 1] <= costs[i] + 1e-12 for i in range(len(costs) - 1))
    assert costs[-1] == pytest.approx(kmeans_cost(points, reference.destinations, reference.assignment), abs=1e-9)
    # and the package's k-means reaches the reference's result, bit for bit
    assert_same_clustering(*kmeans_one(points, 4, seed=9), reference)


@st.composite
def kmeans_cases(draw):
    """Points with frequent exact duplicates, a k in [1, n], a permutation and a seed."""
    n = draw(st.integers(1, 12))
    coord = st.one_of(st.sampled_from([0.0, 1.0, -1.5]), st.floats(-10.0, 10.0))
    points = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)), dtype=np.float64)
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    return points, draw(st.integers(1, n)), perm, draw(st.integers(0, 2**32 - 1))


def labelled(points, assignment):
    """(point, cluster) pairs in sorted order: the assignment up to the order of identical points."""
    return sorted(zip(map(tuple, points.tolist()), assignment.tolist()))


_ORDER_RNG = np.random.default_rng(5)


@settings(max_examples=200, deadline=None)
@given(case=kmeans_cases())
@example(case=(_ORDER_RNG.normal(size=(15, 2)), 3, _ORDER_RNG.permutation(15), 6))
def test_kmeans_order_invariance(case):
    points, k, perm, seed = case
    a_dest, a_assign = kmeans_one(points, k, seed=seed)
    b_dest, b_assign = kmeans_one(points[perm], k, seed=seed)
    for assignment in (a_assign, b_assign):
        assert np.bincount(assignment, minlength=k).min() >= 1
    np.testing.assert_array_equal(a_dest, b_dest)
    # copies of one point are interchangeable, so only their clusters' multiset is fixed
    assert labelled(points[perm], a_assign[perm]) == labelled(points[perm], b_assign)
    if len(np.unique(points, axis=0)) == len(points):
        np.testing.assert_array_equal(a_assign[perm], b_assign)


def test_kmeans_deterministic_by_seed():
    rng = np.random.default_rng(6)
    points = rng.normal(size=(12, 2))
    a_dest, a_assign = kmeans_one(points, 3, seed=8)
    b_dest, b_assign = kmeans_one(points, 3, seed=8)
    np.testing.assert_array_equal(a_dest, b_dest)
    np.testing.assert_array_equal(a_assign, b_assign)


@settings(max_examples=100, deadline=None)
@given(
    point=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
    n_k=st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    seed=st.integers(0, 2**32 - 1),
)
@example(point=(2.0, -1.0), n_k=(6, 3), seed=2)
def test_kmeans_identical_points_do_not_crash(point, n_k, seed):
    n, k = n_k
    points = np.tile(point, (n, 1))
    destinations, assignment = kmeans_one(points, k, seed=seed)
    assert destinations.shape == (k, 2)
    np.testing.assert_allclose(destinations, np.tile(point, (k, 1)), atol=0)
    assert np.bincount(assignment, minlength=k).min() >= 1


def test_kmeans_validation():
    points = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans_one(points, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans_one(points, 5, seed=0)
    with pytest.raises(ValueError):
        kmeans_one(np.zeros(4), 1, seed=0)


def assert_same_clustering(destinations, assignment, expected):
    """One scene's destinations and assignment equal the reference's, bit for bit and dtype for dtype."""
    assert destinations.dtype == expected.destinations.dtype == np.float64
    np.testing.assert_array_equal(destinations, expected.destinations)
    assert assignment.dtype == expected.assignment.dtype == np.int64
    np.testing.assert_array_equal(assignment, expected.assignment)


@st.composite
def kmeans_blocks(draw):
    """Scenes of n points (frequent exact duplicates), k in [1, n], a seed per scene, and the scenes permuted and cut into blocks."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    n_scenes = draw(st.integers(1, 6))
    coord = st.one_of(st.sampled_from([0.0, 1.0, -1.5]), st.floats(-10.0, 10.0))
    point_lists = st.lists(st.tuples(coord, coord), min_size=n, max_size=n)
    points = np.array([draw(point_lists) for _ in range(n_scenes)], dtype=np.float64).reshape(n_scenes, n, 2)
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n_scenes, max_size=n_scenes))
    perm = draw(st.permutations(range(n_scenes)))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, n_scenes - 1))))) if n_scenes > 1 else []
    return points, k, seeds, perm, cuts


# three copies of one point and a fourth point: after the two distinct points
# are centers the seeding total is 0, so the third center is a uniform draw
# that often repeats one, and the cluster of the repeat empties
_REPAIRED = np.tile([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], (4, 1, 1))


@settings(max_examples=300, deadline=None)
@given(case=kmeans_blocks())
@example(case=(_REPAIRED, 3, [0, 1, 2, 3], [2, 0, 3, 1], [1, 3]))
@example(case=(np.tile([[2.0, -1.0]], (2, 5, 1)), 3, [7, 8], [1, 0], [1]))  # every seeding total is 0
@example(case=(_ORDER_RNG.normal(size=(3, 7, 2)), 1, [4, 5, 6], [2, 1, 0], []))  # k = 1
@example(case=(_ORDER_RNG.normal(size=(3, 7, 2)), 7, [4, 5, 6], [0, 2, 1], [2]))  # k = n
def test_kmeans_batch_matches_the_reference_scene_by_scene(case):
    points, k, seeds, perm, cuts = case
    expected = [kmeans(scene, k, seed) for scene, seed in zip(points, seeds)]
    for destinations, assignment, want in zip(*kmeans_batch(points, k, seeds), expected, strict=True):
        assert_same_clustering(destinations, assignment, want)
    # the same scenes permuted and cut into other blocks cluster to the same bits
    bounds = [0, *cuts, len(perm)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = perm[lo:hi]
        got = kmeans_batch(points[block], k, [seeds[s] for s in block])
        for scene, destinations, assignment in zip(block, *got, strict=True):
            assert_same_clustering(destinations, assignment, expected[scene])


def test_kmeans_batch_repairs_empty_clusters_as_the_reference_does(monkeypatch):
    from memtraj import intention

    repaired = []
    original = intention._repair_empty
    monkeypatch.setattr(intention, "_repair_empty", lambda *args: repaired.append(1) or original(*args))
    seeds = list(range(16))
    points = np.tile(_REPAIRED[0], (16, 1, 1))
    for scene, (destinations, assignment) in enumerate(zip(*kmeans_batch(points, 3, seeds), strict=True)):
        assert_same_clustering(destinations, assignment, kmeans(points[scene], 3, seeds[scene]))
        assert np.bincount(assignment, minlength=3).min() >= 1
    assert repaired  # some of the 16 scenes emptied a cluster


def test_kmeans_batch_rejects_non_finite_points_and_overflow():
    with pytest.raises(ValueError, match="finite"):
        kmeans_batch(np.array([[[0.0, 0.0], [np.nan, 1.0]]]), 1, [0])
    with pytest.raises(ValueError, match="finite"):
        kmeans_batch(np.array([[[0.0, 0.0], [1.0, 1.0]], [[0.0, np.inf], [1.0, 1.0]]]), 2, [0, 1])
    # finite points whose squared distances overflow: an error, not a NaN probability or a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"overflow in k-means\+\+ seeding of scene 1"):
            kmeans_batch(np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]), 2, [0, 1])
    with pytest.raises(ValueError, match="one seed per scene"):
        kmeans_batch(np.zeros((2, 3, 2)), 1, [0])
    with pytest.raises(ValueError, match=r"shape \(scenes, n, 2\)"):
        kmeans_batch(np.zeros((2, 3, 3)), 1, [0, 1])
    destinations, assignment = kmeans_batch(np.zeros((0, 3, 2)), 2, [])
    assert (destinations.shape, destinations.dtype) == ((0, 2, 2), np.float64)
    assert (assignment.shape, assignment.dtype) == ((0, 3), np.int64)


def test_kmeans_matches_exhaustive_on_small_instances():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = int(rng.integers(4, 8))
        k = int(rng.integers(2, 4))
        points = rng.uniform(size=(n, 2))
        best = min(kmeans_cost(points, *kmeans_one(points, k, seed=s)) for s in range(10))
        optimal = exhaustive_best_cost(points, k)
        assert best <= optimal + 1e-9 * max(1.0, optimal)


def make_stack(n=10):
    scenes = synth_generate(9, n)
    nets = init_encoder_decoder(4, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    bank = bank_init(nets, scenes)
    return scenes, nets, bank


def test_decode_anchors_modes_and_shapes():
    scenes, nets, bank = make_stack()
    from memtraj.features import social_forward_batch

    query = social_forward_batch(nets, scene_batch(scenes[:1]))[0]
    addresses = [[3, 0, 7]]
    anchors_q = decode_anchors(query, addresses, bank, nets, decode_mode=DECODE_QUERY)[0]
    # row i is the anchor of addresses[i]
    for i, address in enumerate(addresses[0]):
        np.testing.assert_allclose(anchors_q[i], decode_anchors(query, [[address]], bank, nets)[0, 0], rtol=1e-12, atol=1e-14)
    assert anchors_q.shape == (3, 2)
    anchors_s = decode_anchors(query, addresses, bank, nets, decode_mode=DECODE_STORED)[0]
    # pairing with the stored past feature decodes a different anchor in general
    assert not np.allclose(anchors_q[0], anchors_s[0])


def test_decode_anchors_validation():
    scenes, nets, bank = make_stack(4)
    query = np.zeros((1, 32))
    with pytest.raises(ValueError, match="decode_mode"):
        decode_anchors(query, [[0]], bank, nets, decode_mode="both")
    with pytest.raises(ValueError, match="no addresses"):
        decode_anchors(query, np.zeros((1, 0)), bank, nets)
    with pytest.raises(ValueError, match="range"):
        decode_anchors(query, [[4]], bank, nets)
    with pytest.raises(ValueError, match=r"\(queries, L\)"):
        decode_anchors(query, [0], bank, nets)


def test_predict_intentions_shapes_and_determinism():
    scenes, nets, bank = make_stack(12)
    addresser = fixed_cosine_nets(32)
    keys = key_table(addresser, bank)
    queries = social_encode(nets, scenes[:1])
    # retrieve, decode and cluster: the destination half of a prediction
    _, _, a_dest, a_assign = propose_block(nets, addresser, bank, keys, queries, n_retrieve=8, n_predict=3, seeds=[5])
    _, _, b_dest, b_assign = propose_block(nets, addresser, bank, keys, queries, n_retrieve=8, n_predict=3, seeds=[5])
    assert a_dest.shape == (1, 3, 2)
    assert a_assign.shape == (1, 8)
    np.testing.assert_array_equal(a_dest, b_dest)
    np.testing.assert_array_equal(a_assign, b_assign)
    with pytest.raises(ValueError):
        propose_block(nets, addresser, bank, keys, queries, n_retrieve=2, n_predict=3, seeds=[5])


def test_save_intention_sets(tmp_path):
    rng = np.random.default_rng(8)
    destinations, assignment = kmeans_one(rng.normal(size=(6, 2)), 2, seed=1)
    pred = ScenePrediction(
        scene_id="scene-a",
        destinations=destinations,
        trajectories=np.zeros((2, 1, 2)),
        addresses=np.arange(6),
        scores=np.zeros(6),
        sample_ids=np.arange(6),
        anchor_assignment=assignment,
    )
    assert write_predictions(tmp_path, [pred]) == 1
    path = tmp_path / "destinations.csv"
    lines = path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "scene_id,cluster_index,x,y,member_count"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "scene-a"
    assert float(fields[2]) == destinations[0, 0]
    counts = [int(line.split(",")[4]) for line in lines[1:]]
    assert counts == np.bincount(assignment, minlength=2).tolist()
    assert sum(counts) == 6


def test_failed_prediction_stream_keeps_the_earlier_files(tmp_path):
    rng = np.random.default_rng(9)
    destinations, assignment = kmeans_one(rng.normal(size=(6, 2)), 2, seed=1)

    def prediction(scene_id):
        return ScenePrediction(
            scene_id=scene_id,
            destinations=destinations,
            trajectories=rng.normal(size=(2, 3, 2)),
            addresses=np.arange(6),
            scores=np.zeros(6),
            sample_ids=np.arange(6),
            anchor_assignment=assignment,
        )

    assert write_predictions(tmp_path, [prediction("a"), prediction("b")], trace=True) == 2
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert sorted(before) == ["destinations.csv", "predictions.csv", "trace.csv"]

    def failing_stream():
        yield prediction("c")
        raise RuntimeError("scene d failed")

    with pytest.raises(RuntimeError, match="scene d"):
        write_predictions(tmp_path, failing_stream(), trace=True)
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert after == before  # the old files byte for byte, and no temporary file left behind
