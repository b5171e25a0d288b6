"""Unit tests for memory addressing: scoring, labels, top-L, training."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtraj import addresser
from memtraj.addresser import (
    AddresserNets,
    _cosine_backward,
    _cosine_forward,
    decoded_intentions,
    fit_addresser,
    fixed_cosine_nets,
    init_addresser_nets,
    key_table,
    pseudo_labels,
    score_all,
    top_l,
)
from memtraj.datasets import synth_generate
from memtraj.errors import NumericError
from memtraj.features import init_encoder_decoder, train_features
from memtraj.membank import BankMeta, MemoryBankPair, bank_init
from memtraj.numkit import mlp_init

from conftest import quick_config
from oracles import full_sort_top_l, reference_fit_addresser, score, score_one, train_addresser


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def make_bank(seed=1, n=12):
    scenes = synth_generate(seed, n)
    nets = init_encoder_decoder(seed, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    return bank_init(nets, scenes), nets, scenes


def test_fixed_cosine_matches_manual():
    rng = np.random.default_rng(3)
    nets = fixed_cosine_nets(6)
    q = rng.normal(size=6)
    k = rng.normal(size=6)
    assert score(nets, q, k) == pytest.approx(cosine(q, k), abs=1e-12)


def test_init_starts_at_raw_cosine():
    nets = init_addresser_nets(past_dim=24, addr_dim=24)
    fixed = fixed_cosine_nets(24)
    rng = np.random.default_rng(6)
    for _ in range(10):
        q = rng.normal(size=24)
        k = rng.normal(size=24)
        assert score(nets, q, k) == score(fixed, q, k)
    # zero-padding projections preserve the raw cosine exactly as well
    wide = init_addresser_nets(past_dim=24, addr_dim=40)
    assert wide.query_proj.weights[0].shape == (40, 24)
    q = rng.normal(size=24)
    k = rng.normal(size=24)
    assert score(wide, q, k) == pytest.approx(score(fixed, q, k), abs=1e-12)
    with pytest.raises(ValueError):
        init_addresser_nets(past_dim=0)


def test_score_all_matches_pairwise(small_scenes):
    bank, _, _ = make_bank()
    nets = init_addresser_nets(past_dim=32, addr_dim=16)
    rng = np.random.default_rng(4)
    q = rng.normal(size=32)
    keys = key_table(nets, bank)
    scores = score_all(nets, q[None], keys)[0]
    assert scores.shape == (len(bank),)
    for i in range(len(bank)):
        assert scores[i] == pytest.approx(score(nets, q, bank.past_feats[i]), abs=1e-10)
    # the table holds unit-length keys
    np.testing.assert_allclose(np.linalg.norm(keys, axis=1), 1.0, rtol=0, atol=1e-12)


def test_degenerate_projections_score_zero(caplog):
    bank, _, _ = make_bank()
    nets = fixed_cosine_nets(32)
    scores = score_all(nets, np.zeros((1, 32)), key_table(nets, bank))[0]
    np.testing.assert_array_equal(scores, np.zeros(len(bank)))
    assert not caplog.records  # a degenerate query is counted per block by its caller, not logged here
    bank.past_feats[2] = 0.0
    scores = score_all(nets, np.ones((1, 32)), key_table(nets, bank))[0]
    assert scores[2] == 0.0
    assert score(nets, np.zeros(32), np.ones(32)) == 0.0


def test_degenerate_key_is_a_zero_row_warned_once(caplog):
    bank, _, _ = make_bank()
    bank.past_feats[2] = 0.0
    nets = fixed_cosine_nets(32)
    with caplog.at_level("WARNING", logger="memtraj.addresser"):
        keys = key_table(nets, bank)
        rng = np.random.default_rng(9)
        scores = score_all(nets, rng.normal(size=(3, 32)), keys)
    warnings = [r for r in caplog.records if "degenerate key" in r.getMessage()]
    assert len(warnings) == 1
    np.testing.assert_array_equal(keys[2], np.zeros(32))
    norms = np.linalg.norm(np.delete(keys, 2, axis=0), axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)
    for s in scores:
        assert s[2] == 0.0 and not np.signbit(s[2])  # +0.0, as trace.csv writes it


@settings(max_examples=60, deadline=None)
@given(
    slice_rows=st.sampled_from([64, 256, addresser.SCORE_SLICE]),
    full_slices=st.integers(0, 2),
    extra=st.integers(-3, 70),
    n_queries=st.integers(1, 5),
    dims=st.sampled_from([(16, 16), (32, 64), (64, 64)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(slice_rows=addresser.SCORE_SLICE, full_slices=2, extra=1, n_queries=3, dims=(64, 64), seed=0)  # a last slice of one row
@example(slice_rows=64, full_slices=0, extra=1, n_queries=1, dims=(16, 16), seed=1)  # a one-entry bank
def test_slice_scoring_equals_one_product_per_query(slice_rows, full_slices, extra, n_queries, dims, seed):
    # every query's row of a block's scores has the bits of one matrix-vector
    # product of the whole table with that query alone, whatever the table size
    n_keys = max(1, full_slices * slice_rows + extra)
    rng = np.random.default_rng(seed)
    past_dim, addr_dim = dims
    nets = AddresserNets(query_proj=mlp_init(seed, [past_dim, addr_dim]), key_proj=mlp_init(seed + 1, [past_dim, addr_dim]))
    keys = rng.normal(size=(n_keys, addr_dim))
    keys /= np.linalg.norm(keys, axis=1)[:, None]
    queries = rng.normal(size=(n_queries, past_dim))
    queries[rng.random(n_queries) < 0.2] = 0.0  # degenerate queries score 0
    with mock.patch.object(addresser, "SCORE_SLICE", slice_rows):
        scores = score_all(nets, queries, keys)
    assert scores.shape == (n_queries, n_keys)
    for query, row in zip(queries, scores):
        expected = score_one(nets, query, keys)
        assert row.tobytes() == expected.tobytes()


def test_a_diverged_projection_raises_naming_lr_addresser():
    bank, _, _ = make_bank()
    nets = init_addresser_nets(past_dim=32, addr_dim=32)
    queries = bank.past_feats[:3].copy()
    keys = key_table(nets, bank)
    huge_keys, huge_queries = nets.copy(), nets.copy()
    huge_keys.key_proj.weights[0] *= 1e300  # finite weights whose projections overflow
    huge_queries.query_proj.weights[0] *= 1e300
    with np.errstate(over="ignore", invalid="ignore"):  # as the CLI runs every command
        with pytest.raises(NumericError, match=r"^stage 'addresser' gives a non-finite key projection norm for bank entry \d+; retrain it with a lower lr_addresser$"):
            key_table(huge_keys, bank)
        with pytest.raises(NumericError, match=r"^stage 'addresser' gives a non-finite projection norm for query 0; retrain it with a lower lr_addresser$"):
            score_all(huge_queries, queries, keys)
    # a query that is not finite itself is not the addresser's fault: it scores NaN, as alone
    queries[1] = np.nan
    scores = score_all(nets, queries, keys)
    assert np.isnan(scores[1]).all() and np.isfinite(np.delete(scores, 1, axis=0)).all()


def test_pseudo_label_hand_cases():
    labels = pseudo_labels(np.array([0.0, 1.0, 2.0, 5.0]), 2.0)
    assert labels.tolist() == [1.0, 0.5, 0.0, 0.0]
    with pytest.raises(ValueError):
        pseudo_labels(np.array([1.0]), 0.0)


def test_top_l_orders_and_breaks_ties_low_address():
    bank, _, _ = make_bank(n=8)
    # duplicate past features produce exactly tied scores
    bank.past_feats[5] = bank.past_feats[1]
    nets = fixed_cosine_nets(32)
    q = bank.past_feats[1]
    all_scores = score_all(nets, q[None], key_table(nets, bank))[0]
    addrs = top_l(all_scores, count=8)
    scores = all_scores[addrs]
    assert addrs[0] == 1 and addrs[1] == 5  # tie at score 1.0, lower address first
    assert scores[0] == scores[1] == pytest.approx(1.0, abs=1e-12)
    assert all(scores[i] >= scores[i + 1] for i in range(7))
    with pytest.raises(ValueError):
        top_l(all_scores, count=0)
    with pytest.raises(ValueError):
        top_l(all_scores, count=9)


# a few values, each often repeated: ties (with the count-th score too), -0.0 against 0.0, infinities and NaN
_POOLED = st.sampled_from([0.0, -0.0, np.nan, 1.0, -1.0, 0.5, np.inf, -np.inf])
_CONTINUOUS = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_POOLED, min_size=1, max_size=60), st.lists(_CONTINUOUS, min_size=1, max_size=60)))
@example([0.5] * 20)  # every score equal, as against a degenerate query's zero vector
@example([1.0] * 3 + [0.5] * 30 + [0.0] * 3)  # many entries tied with the L-th score for L = 4 .. 33
@example([0.0] * 7 + [-0.0] * 7)
@example([1.0, np.nan, np.nan, 0.5, np.nan])  # fewer finite scores than most counts
@example([np.nan] * 5)
def test_top_l_equals_the_stable_full_sort(values):
    scores = np.array(values, dtype=np.float64)
    for count in range(1, len(scores) + 1):
        got = top_l(scores, count)
        np.testing.assert_array_equal(got, full_sort_top_l(scores, count))


def test_cosine_backward_matches_finite_difference():
    rng = np.random.default_rng(11)
    u = rng.normal(size=(3, 5))
    w = rng.normal(size=(4, 5))
    labels = rng.uniform(size=(3, 4))

    def loss(u_, w_):
        state = _cosine_forward(u_, w_)
        return float(np.sum((state.scores - labels) ** 2))

    state = _cosine_forward(u, w)
    d_scores = 2.0 * (state.scores - labels)
    d_u, d_w = _cosine_backward(state, d_scores)
    eps = 1e-6
    worst = 0.0
    for arr, grad in ((u, d_u), (w, d_w)):
        flat, gflat = arr.ravel(), grad.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            f_plus = loss(u, w)
            flat[j] = orig - eps
            f_minus = loss(u, w)
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            worst = max(worst, abs(numeric - gflat[j]) / max(1e-8, abs(numeric) + abs(gflat[j])))
    assert worst < 1e-4


def test_cosine_backward_zeroes_degenerate_rows():
    u = np.vstack([np.zeros(4), np.ones(4)])
    w = np.vstack([np.ones(4), np.zeros(4)])
    state = _cosine_forward(u, w)
    assert state.scores[0, 0] == 0.0 and state.scores[1, 1] == 0.0
    d_u, d_w = _cosine_backward(state, np.ones((2, 2)))
    np.testing.assert_array_equal(d_u[0], np.zeros(4))
    np.testing.assert_array_equal(d_w[1], np.zeros(4))
    assert np.all(np.isfinite(d_u)) and np.all(np.isfinite(d_w))


def test_decoded_intentions_shape():
    bank, nets, _ = make_bank()
    decoded = decoded_intentions(nets, bank)
    assert decoded.shape == (len(bank), 2)


def test_train_addresser_reduces_label_loss():
    config = quick_config(epochs_features=60, epochs_addresser=40, lr_addresser=1e-3, seed=6)
    scenes = synth_generate(19, 24)
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(past_dim=32, addr_dim=32)
    trained = train_addresser(init, bank, feature_nets, scenes, config)

    decoded = decoded_intentions(feature_nets, bank)
    threshold = config.label_threshold_value()

    def total_loss(nets):
        keys = key_table(nets, bank)
        total = 0.0
        for past_feat, dest in zip(bank.past_feats, bank.dests):
            labels = pseudo_labels(np.linalg.norm(decoded - dest, axis=1), threshold)
            total += float(np.sum((score_all(nets, past_feat[None], keys)[0] - labels) ** 2))
        return total

    assert total_loss(trained) < total_loss(init)
    # the input nets were not touched
    fresh = init_addresser_nets(past_dim=32, addr_dim=32)
    np.testing.assert_array_equal(init.query_proj.weights[0], fresh.query_proj.weights[0])


def test_train_addresser_deterministic():
    config = quick_config(epochs_addresser=5, seed=2)
    scenes = synth_generate(23, 10)
    feature_nets = init_encoder_decoder(1, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    bank = bank_init(feature_nets, scenes)
    init = init_addresser_nets(past_dim=32, addr_dim=32)
    a = train_addresser(init, bank, feature_nets, scenes, config)
    b = train_addresser(init, bank, feature_nets, scenes, config)
    np.testing.assert_array_equal(a.query_proj.weights[0], b.query_proj.weights[0])
    np.testing.assert_array_equal(a.key_proj.weights[0], b.key_proj.weights[0])
    np.testing.assert_array_equal(a.key_proj.biases[0], b.key_proj.biases[0])


def test_train_addresser_validation():
    config = quick_config()
    scenes = synth_generate(1, 4)
    feature_nets = init_encoder_decoder(1, past_len=8, target_len=1, past_dim=32, intent_dim=16)
    bank = bank_init(feature_nets, scenes)
    nets = init_addresser_nets(past_dim=32)
    with pytest.raises(ValueError, match="empty"):
        train_addresser(nets, bank, feature_nets, scenes[:0], config)
    with pytest.raises(ValueError, match="has no future; addresser training needs one"):
        train_addresser(nets, bank, feature_nets, replace(scenes, futures=None), config)


def random_training_inputs(rng, m, n, past_dim):
    """A bank of ``m`` random entries and ``(queries, destinations, decoded intentions)`` for ``n`` queries."""
    meta = BankMeta(past_dim=past_dim, intent_dim=2, past_len=8, future_len=12)
    bank = MemoryBankPair(
        rng.normal(size=(m, past_dim)),
        rng.normal(size=(m, 2)),
        rng.uniform(-1.0, 1.0, (m, 2)),
        rng.uniform(-1.0, 1.0, (m, 2)),
        np.arange(m, dtype=np.int64),
        meta,
    )
    data = (rng.normal(size=(n, past_dim)), rng.uniform(-1.0, 1.0, (n, 2)), rng.uniform(-1.0, 1.0, (m, 2)))
    return bank, data


def net_bytes(nets):
    return [a.tobytes() for net in (nets.query_proj, nets.key_proj) for a in net.weights + net.biases]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(2, 30),
    n=st.integers(1, 25),
    batch_size=st.integers(1, 8),
    cap=st.integers(1, 40),
    epochs=st.integers(1, 3),
)
@example(seed=1, m=30, n=25, batch_size=8, cap=40, epochs=2)  # the whole bank every step
@example(seed=1, m=30, n=25, batch_size=8, cap=4, epochs=2)  # a sample plus each query's nearest entry
@example(seed=0, m=2, n=3, batch_size=1, cap=1, epochs=1)  # every step samples only the zeroed key row
def test_fit_addresser_equals_the_reference_step_bit_for_bit(seed, m, n, batch_size, cap, epochs):
    rng = np.random.default_rng(seed)
    bank, (queries, dests, decoded) = random_training_inputs(rng, m, n, past_dim=6)
    bank.past_feats[0] = 0.0  # a degenerate key row, while the key bias is still zero
    queries[0] = 0.0  # a degenerate query row
    decoded[-1] = decoded[0]  # two entries tie for some query's nearest
    config = quick_config(batch_size=batch_size, label_threshold=1.0)
    results = []
    live_steps = []  # per step: did a query that is not degenerate meet a key that is not?
    cosine_forward = addresser._cosine_forward

    def observed_cosine_forward(u, w):
        state = cosine_forward(u, w)
        live_steps.append(bool((~state.u_degenerate).any() and (~state.w_degenerate).any()))
        return state

    with mock.patch.object(addresser, "CANDIDATE_CAP", cap):
        for fit in (fit_addresser, reference_fit_addresser):
            nets = init_addresser_nets(past_dim=6, addr_dim=5)
            gen = np.random.default_rng(seed)
            with mock.patch.object(addresser, "_cosine_forward", observed_cosine_forward):
                fit(nets, bank, (queries, dests, decoded), config, epochs, 0.05, gen)
            results.append((net_bytes(nets), gen.random(4).tobytes()))
    assert results[0] == results[1]
    if n > 1 and m <= cap:  # every step scores the whole bank, so a query that is not degenerate meets a live key
        assert any(live_steps)
    # Degenerate rows get no gradient, so the nets move exactly when some step scores a live pair.
    # With m > cap, every step of a small run can sample only the zeroed key row and score none.
    moved = results[0][0] != net_bytes(init_addresser_nets(past_dim=6, addr_dim=5))
    assert moved == any(live_steps)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_large_bank_peak_memory_is_set_by_the_batch_not_the_queries():
    m = 4000
    rng = np.random.default_rng(2)
    config = quick_config(batch_size=8, label_threshold=1.0)

    def peak(fit, n):
        bank, data = random_training_inputs(rng, m, n, past_dim=4)
        nets = init_addresser_nets(past_dim=4, addr_dim=4)
        return traced_peak(lambda: fit(nets, bank, data, config, 1, 0.01, np.random.default_rng(0)))

    with mock.patch.object(addresser, "CANDIDATE_CAP", 16):
        peak(fit_addresser, 256)  # a first call also holds one-time allocations
        small = peak(fit_addresser, 256)
        large = peak(fit_addresser, 2048)
        reference = peak(reference_fit_addresser, 2048)
    # Each query's nearest of the 4000 entries is found 8 queries at a time:
    # 8x the queries adds a few bytes a query, not their 65 MB distance table,
    # and the peak stays within the per-step table of a step over the whole bank.
    assert large - small < 0.02 * 2048 * m * 8
    assert large <= reference
