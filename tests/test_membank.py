"""Unit tests for the memory bank: build, filter, serialize."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memtraj import features
from memtraj.datasets import scene_batch, synth_generate
from memtraj.errors import FormatError, NumericError
from memtraj.features import init_encoder_decoder, social_forward_batch
from memtraj.membank import (
    BankMeta,
    MemoryBankPair,
    bank_filter,
    bank_init,
    bank_load,
    bank_save,
    filter_visit_order,
)

from oracles import is_redundant, normalize_scene

HEADER_SIZE = 88  # magic + version + 4 dims + 2 thresholds + seed + count + hash


def random_bank(rng, m, past_dim=6, intent_dim=4, spread=1.0):
    # one entry's four draws at a time, in the order the bank stores them
    rows = [
        (
            rng.normal(size=past_dim),
            rng.normal(size=intent_dim),
            rng.uniform(-spread, spread, size=2),
            rng.uniform(-spread, spread, size=2),
        )
        for _ in range(m)
    ]
    past, intent, starts, dests = (np.stack(column) for column in zip(*rows))
    meta = BankMeta(past_dim=past_dim, intent_dim=intent_dim, past_len=8, future_len=12)
    return MemoryBankPair(past, intent, starts, dests, np.arange(m, dtype=np.int64), meta)


def pair(bank, i):
    """The (start, destination) pair of one bank entry."""
    return bank.starts[i], bank.dests[i]


def test_bank_init_entries(small_scenes):
    nets = init_encoder_decoder(2, past_len=8, target_len=1)
    bank = bank_init(nets, small_scenes)
    assert len(bank) == len(small_scenes)
    assert bank.sample_ids.tolist() == list(range(len(small_scenes)))
    assert bank.meta.theta_past is None and bank.meta.filter_seed is None
    assert bank.meta.future_len == 12
    normalized, _ = normalize_scene(small_scenes[3])
    alone, _ = social_forward_batch(nets, scene_batch(small_scenes[3:4]))
    np.testing.assert_allclose(bank.past_feats[3], alone[0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(bank.starts[3], normalized.ego_past[0], atol=0)
    np.testing.assert_allclose(bank.dests[3], normalized.ego_future[-1], atol=0)
    assert bank.past_feats.shape == (len(small_scenes), nets.past_dim)


def test_bank_init_in_ranges_equals_the_unchunked_encode():
    nets = init_encoder_decoder(2, past_len=8, target_len=1, past_dim=64)
    scenes = synth_generate(7, 130)
    batch = scene_batch(scenes, "the test")
    with mock.patch.object(features, "ENCODE_CHUNK", 32):  # 32, 32, 32, 32 and 2 scenes
        bank = bank_init(nets, scenes)
    whole = bank_init(nets, scenes)  # 130 scenes are one range of the default size
    for name in ("past_feats", "intent_feats", "starts", "dests", "sample_ids"):
        np.testing.assert_array_equal(getattr(bank, name), getattr(whole, name))
    # every entry's past feature is its scene's query feature alone, bit for bit
    for i in range(len(scenes)):
        np.testing.assert_array_equal(bank.past_feats[i], social_forward_batch(nets, scene_batch(scenes[i : i + 1]))[0][0])
    np.testing.assert_array_equal(bank.starts, batch.ego_x[:, :2])
    np.testing.assert_array_equal(bank.dests, batch.futures[:, -1])


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bank_init_peak_memory_is_set_by_the_range_not_the_set():
    nets = init_encoder_decoder(1, past_len=8, target_len=1, past_dim=16, intent_dim=8)
    scenes = synth_generate(5, 1024, n_neighbors=6)
    with mock.patch.object(features, "ENCODE_CHUNK", 32):
        small = traced_peak(lambda: bank_init(nets, scenes[:128]))
        large = traced_peak(lambda: bank_init(nets, scenes))
    batch = scene_batch(scenes)
    activations = traced_peak(lambda: social_forward_batch(nets, batch))
    # 8x the scenes adds their inputs and outputs (about a tenth of the
    # whole-set activations here), not their activations: one batch of all
    # scenes adds about 0.97 of them.
    assert large - small < 0.25 * activations


def entry_at(start, dest):
    return np.asarray(start, dtype=np.float64), np.asarray(dest, dtype=np.float64)


def test_is_redundant_hand_case():
    a = entry_at((0.0, 0.0), (1.0, 1.0))
    b = entry_at((0.0, 0.5), (1.0, 1.5))
    assert is_redundant(a, b, theta_past=1.0, theta_int=1.0)
    # both distances are exactly 0.5: the boundary counts as redundant
    assert is_redundant(a, b, theta_past=0.5, theta_int=0.5)
    assert not is_redundant(a, b, theta_past=0.4, theta_int=1.0)
    assert not is_redundant(a, b, theta_past=1.0, theta_int=0.4)
    with pytest.raises(ValueError):
        is_redundant(a, b, theta_past=-0.1, theta_int=1.0)


def test_filter_matches_replay_oracle():
    rng = np.random.default_rng(13)
    for trial in range(20):
        m = int(rng.integers(2, 80))
        bank = random_bank(rng, m)
        theta_p = float(rng.uniform(0.0, 1.0))
        theta_i = float(rng.uniform(0.0, 1.0))
        seed = int(rng.integers(1 << 16))
        filtered = bank_filter(bank, theta_p, theta_i, seed)
        # replay the documented greedy pass entry by entry
        kept = []
        for i in filter_visit_order(m, seed):
            if not any(is_redundant(pair(bank, i), pair(bank, j), theta_p, theta_i) for j in kept):
                kept.append(int(i))
        assert filtered.sample_ids.tolist() == kept
        assert filtered.meta.theta_past == theta_p
        assert filtered.meta.filter_seed == seed
        assert filtered.meta.source_hash == bank.meta.source_hash


def replay_keep(starts, dests, theta_p, theta_i, seed):
    """Brute-force greedy pass: every visited entry is tested against every kept entry."""
    kept = []
    for i in filter_visit_order(len(starts), seed):
        if kept:
            d_start = np.linalg.norm(starts[kept] - starts[i], axis=1)
            d_dest = np.linalg.norm(dests[kept] - dests[i], axis=1)
            if np.any((d_start <= theta_p) & (d_dest <= theta_i)):
                continue
        kept.append(int(i))
    return kept


def bank_of(starts, dests):
    starts = np.asarray(starts, dtype=np.float64).reshape(-1, 2)
    dests = np.asarray(dests, dtype=np.float64).reshape(-1, 2)
    m = len(starts)
    meta = BankMeta(past_dim=1, intent_dim=1, past_len=8, future_len=12)
    return MemoryBankPair(np.zeros((m, 1)), np.zeros((m, 1)), starts, dests, np.arange(m, dtype=np.int64), meta)


def test_filter_and_oracle_agree_at_the_last_bit():
    # Each theta is the smaller of two roundings of the pair's distance: the 1-D
    # np.linalg.norm and the row-wise norm(axis=1). Where those differ, an oracle
    # that rounds unlike the filter calls the pair the other way.
    rng = np.random.default_rng(29)
    differing = 0
    for _ in range(3000):
        starts, dests = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
        thetas = []
        for rows in (starts, dests):
            gap = rows[0] - rows[1]
            one_d, row_wise = float(np.linalg.norm(gap)), float(np.linalg.norm(gap[None, :], axis=1)[0])
            differing += one_d != row_wise
            thetas.append(min(one_d, row_wise))
        kept = bank_filter(bank_of(starts, dests), thetas[0], thetas[1], seed=0)
        assert (len(kept) == 1) == is_redundant((starts[0], dests[0]), (starts[1], dests[1]), *thetas)
    assert differing > 0  # the draws reach the band where the two roundings differ


def test_filter_finds_redundant_entry_across_a_cell_edge():
    # starts exactly theta apart on either side of x = 1.0 (a cell edge at theta = 0.25),
    # and the same for a start at the origin against one just below it
    for theta, starts in ((0.25, [[0.875, 3.0], [1.125, 3.0]]), (0.25, [[0.0, 0.0], [0.0, -0.25]]), (0.02, [[-0.01, 0.5], [0.01, 0.5]])):
        bank = bank_of(starts, [[2.0, 2.0], [2.0, 2.0]])
        assert np.linalg.norm(bank.starts[0] - bank.starts[1]) <= theta
        assert len(bank_filter(bank, theta, theta, seed=0)) == 1
    # theta = 0 drops only exact repeats; starts whose squared difference underflows count as repeats
    bank = bank_of([[1.0, 2.0], [1.0, 2.0], [1.0, np.nextafter(2.0, 3.0)], [0.0, 0.0], [-0.0, 5e-324], [1e-170, 0.0]], np.zeros((6, 2)))
    kept = bank_filter(bank, 0.0, 0.0, seed=3).sample_ids.tolist()
    assert len(kept) == 3 and kept == replay_keep(bank.starts, bank.dests, 0.0, 0.0, 3)


def _coordinate_pool(theta):
    """Lattice points theta/2 apart around cell edges, their repeats, -0.0 and a few far or tiny values."""
    unit = theta / 2.0 if 0.0 < theta < np.inf else 0.125
    lattice = [k * unit for k in range(-8, 9)]
    return st.sampled_from(lattice + [-0.0, 5e-324, 1e-170, 3.0 * unit / 5.0, 4.0 * unit / 5.0, 1e6 + unit, 1e6 - unit, 2.0**60])


@st.composite
def filter_cases(draw):
    theta_p = draw(st.sampled_from([0.0, np.inf, 0.25, 0.02, 1.0]) | st.floats(0.0, 2.0))
    theta_i = draw(st.sampled_from([0.0, np.inf, 0.25, theta_p]) | st.floats(0.0, 2.0))
    coordinate = _coordinate_pool(theta_p) | st.floats(-3.0, 3.0)
    m = draw(st.integers(1, 40))
    starts = draw(st.lists(st.tuples(coordinate, coordinate), min_size=m, max_size=m))
    dests = draw(st.lists(st.tuples(_coordinate_pool(theta_i), _coordinate_pool(theta_i)), min_size=m, max_size=m))
    return bank_of(starts, dests), theta_p, theta_i, draw(st.integers(0, 2**16))


@settings(max_examples=300, deadline=None)
@given(case=filter_cases())
def test_grid_filter_matches_brute_force_replay(case):
    bank, theta_p, theta_i, seed = case
    kept = bank_filter(bank, theta_p, theta_i, seed).sample_ids.tolist()
    assert kept == replay_keep(bank.starts, bank.dests, theta_p, theta_i, seed)


@settings(max_examples=150, deadline=None)
@given(case=filter_cases())
def test_filter_keeps_a_non_redundant_maximal_set(case):
    bank, theta_p, theta_i, seed = case
    kept = bank_filter(bank, theta_p, theta_i, seed).sample_ids
    d_start = np.linalg.norm(bank.starts[:, None, :] - bank.starts[None, kept, :], axis=2)
    d_dest = np.linalg.norm(bank.dests[:, None, :] - bank.dests[None, kept, :], axis=2)
    redundant = (d_start <= theta_p) & (d_dest <= theta_i)  # (entry, kept entry)
    # no kept entry is redundant with another kept entry...
    sub = redundant[kept]
    np.fill_diagonal(sub, False)
    assert not sub.any()
    # ...and every dropped entry is redundant with one that was kept
    dropped = np.setdiff1d(np.arange(len(bank)), kept)
    assert redundant[dropped].any(axis=1).all()


def test_filter_matches_replay_on_crowded_cells():
    # tight clusters of starts put many kept entries in one cell, so the pass
    # takes its array tests on a block and on every kept entry, not only its loop
    rng = np.random.default_rng(21)
    centers = rng.uniform(-20.0, 20.0, size=(6, 2))
    for size, theta_p, theta_i in ((80, 0.25, 0.05), (150, 0.25, 0.3), (120, 2.0, 0.02), (60, np.inf, 0.1)):
        starts = np.repeat(centers, size, axis=0) + rng.normal(0.0, 0.05, size=(6 * size, 2))
        dests = rng.uniform(-2.0, 2.0, size=(6 * size, 2))
        kept = bank_filter(bank_of(starts, dests), theta_p, theta_i, seed=size).sample_ids.tolist()
        assert kept == replay_keep(starts, dests, theta_p, theta_i, size)


def test_filter_infinite_thetas_keep_one():
    bank = random_bank(np.random.default_rng(3), 25)
    filtered = bank_filter(bank, np.inf, np.inf, seed=4)
    assert len(filtered) == 1


def test_filter_zero_thetas_keep_distinct_drop_duplicates():
    rng = np.random.default_rng(5)
    bank = random_bank(rng, 30)
    assert len(bank_filter(bank, 0.0, 0.0, seed=1)) == 30
    dup = random_bank(rng, 4)
    dup.starts[:] = [1.0, 2.0]
    dup.dests[:] = [3.0, 4.0]
    assert len(bank_filter(dup, 0.0, 0.0, seed=1)) == 1


def test_filter_kept_counts_shrink_with_theta():
    bank = random_bank(np.random.default_rng(6), 120, spread=1.0)
    counts = [len(bank_filter(bank, t, t, seed=7)) for t in (0.0, 0.05, 0.1, 0.5, 1.0)]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 120 and counts[-1] < 120


def test_filter_deterministic():
    bank = random_bank(np.random.default_rng(8), 60)
    a = bank_filter(bank, 0.3, 0.3, seed=2)
    b = bank_filter(bank, 0.3, 0.3, seed=2)
    assert a.sample_ids.tolist() == b.sample_ids.tolist()


def test_save_load_roundtrip(tmp_path, small_scenes):
    nets = init_encoder_decoder(4, past_len=8, target_len=1)
    bank = bank_init(nets, small_scenes)
    path = tmp_path / "bank.mtbk"
    bank_save(bank, path)
    loaded = bank_load(path.read_bytes())
    assert len(loaded) == len(bank)
    assert loaded.meta == bank.meta
    np.testing.assert_array_equal(loaded.past_feats, bank.past_feats)
    np.testing.assert_array_equal(loaded.intent_feats, bank.intent_feats)
    np.testing.assert_array_equal(loaded.dests, bank.dests)
    assert loaded.sample_ids.tolist() == bank.sample_ids.tolist()

    filtered = bank_filter(bank, 0.05, 0.05, seed=11)
    bank_save(filtered, path)
    again = bank_load(path.read_bytes())
    assert again.meta.theta_past == 0.05
    assert again.meta.filter_seed == 11
    assert again.sample_ids.tolist() == filtered.sample_ids.tolist()

    # a second save of the loaded bank is byte-identical
    path2 = tmp_path / "bank2.mtbk"
    bank_save(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_holds_the_record_table_once(tmp_path):
    bank = random_bank(np.random.default_rng(3), 2000, past_dim=128, intent_dim=64)
    table = len(bank) * ((128 + 64 + 4) * 8 + 8)  # 3.1 MB of records
    path = tmp_path / "bank.mtbk"
    # the table is built once and written as it is; joining it to the header copied it twice more
    assert traced_peak(lambda: bank_save(bank, path)) < 1.5 * table
    assert path.stat().st_size == HEADER_SIZE + table


def test_file_size_arithmetic(tmp_path):
    past_dim, intent_dim, m = 128, 64, 9
    bank = random_bank(np.random.default_rng(1), m, past_dim=past_dim, intent_dim=intent_dim)
    path = tmp_path / "sized.mtbk"
    bank_save(bank, path)
    record = (past_dim + intent_dim + 4) * 8 + 8
    assert path.stat().st_size == HEADER_SIZE + m * record


def test_load_rejects_corrupt_banks(tmp_path):
    bank = random_bank(np.random.default_rng(2), 3)
    path = tmp_path / "bank.mtbk"
    bank_save(bank, path)
    raw = path.read_bytes()

    with pytest.raises(FormatError, match="magic"):
        bank_load(b"NOPE" + raw[4:])
    with pytest.raises(FormatError, match="short"):
        bank_load(raw[:40])
    with pytest.raises(FormatError, match="payload"):
        bank_load(raw[:-1])
    with pytest.raises(FormatError, match="payload"):
        bank_load(raw + b"\x00")


def test_filter_validation():
    bank = random_bank(np.random.default_rng(0), 5)
    with pytest.raises(ValueError):
        bank_filter(bank, -1.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        bank_filter(bank, 0.5, -1.0, seed=0)


def test_bank_init_refuses_a_past_feature_whose_norm_overflows():
    # finite weights scaled as a diverged features stage scales them: every
    # feature is finite, but the sum of its squares overflows
    nets = init_encoder_decoder(3, past_len=8, target_len=1, past_dim=16, intent_dim=8)
    scenes = synth_generate(2, 5)
    fuse = nets.social_fuse
    fuse.weights[-1] *= 1e200
    fuse.biases[-1] *= 1e200
    with np.errstate(over="ignore"):
        feats = features.social_encode(nets, scenes)
        assert np.isfinite(feats).all() and not np.isfinite(np.linalg.norm(feats, axis=1)).any()
        with pytest.raises(NumericError, match=r"gives a past feature whose norm overflows for scene 0 \('synth-000000.*lr_features$"):
            bank_init(nets, scenes)


def test_bank_init_requires_futures(small_scenes):
    nets = init_encoder_decoder(0, past_len=8, target_len=1)
    scenes = replace(synth_generate(1, 2), futures=None)
    with pytest.raises(ValueError, match="has no future; the memory bank needs one"):
        bank_init(nets, scenes)
    with pytest.raises(ValueError, match="empty scene set for the memory bank"):
        bank_init(nets, scenes[:0])
