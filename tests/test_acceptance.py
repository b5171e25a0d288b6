"""Acceptance suite: eight system-level criteria with one printed verdict each.

Every criterion times its own work, checks pinned tolerances, and prints a
single pass/fail line (visible despite pytest's capture) before asserting, so
a red run still states which criterion fell over and by how much. Criteria 5
and 8 share one full-scale synthetic build through a module fixture.
"""

import itertools
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import spearmanr

from memtraj.addresser import (
    decoded_intentions,
    fixed_cosine_nets,
    init_addresser_nets,
    key_table,
    pseudo_labels,
    score_all,
)
from memtraj.config import Config
from memtraj.datasets import (
    Scene,
    SceneSet,
    default_modes,
    synth_generate,
)
from memtraj.evalkit import constant_velocity, min_ade, min_fde
from memtraj.features import train_features
from memtraj.fulfillment import train_fulfillment
from memtraj.inference import ModelBundle, predict_scene, scene_seed
from memtraj.intention import kmeans_batch
from memtraj.membank import (
    BankMeta,
    MemoryBankPair,
    bank_filter,
    bank_init,
    filter_visit_order,
)
from memtraj.numkit import RELU, TANH, mlp_init
from memtraj.pipeline import (
    run_eval,
    run_predict,
    run_synth,
    stage_build_memory,
    stage_train_addresser,
    stage_train_features,
    stage_train_fulfillment,
    train_addresser_selected,
)

from oracles import (
    finite_diff_check,
    hidden_preactivations,
    is_redundant,
    kmeans_cost,
    scene_set,
    synth_meta,
    synth_mode_endpoints,
    train_addresser,
)

SYNTH_SIGMA = 0.02  # per-step jitter of the synthetic generator
FUTURE_LEN = 12
PAST_LEN = 8


def _report(capsys, number: int, name: str, passed: bool, detail: str) -> None:
    """Print one verdict line per criterion, then enforce it."""
    line = f"acceptance {number} ({name}): {'PASS' if passed else 'FAIL'} [{detail}]"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_1_gradient_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    worst = 0.0
    for _ in range(50):
        in_dim = int(rng.integers(1, 17))
        out_dim = int(rng.integers(1, 17))
        hidden = [int(rng.integers(1, 33)) for _ in range(int(rng.integers(0, 3)))]
        activation = RELU if rng.integers(2) else TANH
        net = mlp_init(int(rng.integers(1 << 30)), [in_dim, *hidden, out_dim], hidden_activation=activation)
        for _ in range(200):
            x = rng.normal(size=(1, in_dim))
            # central differences are only trustworthy away from ReLU kinks
            if all(np.min(np.abs(z)) > 1e-3 for z in hidden_preactivations(net, x)):
                break
        else:
            pytest.fail("could not sample an input away from the ReLU kinks")
        worst = max(worst, finite_diff_check(net, x, eps=1e-5))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        1,
        "mlp gradients",
        worst < 1e-4 and elapsed < 10.0,
        f"50 nets, worst rel err {worst:.3e} (< 1e-4), {elapsed:.1f} s (< 10)",
    )


def _random_bank(rng, m: int, spread: float) -> MemoryBankPair:
    # one entry's four draws at a time, in the order the bank stores them
    rows = [
        (
            rng.normal(size=4),
            rng.normal(size=3),
            rng.uniform(-spread, spread, size=2),
            rng.uniform(-spread, spread, size=2),
        )
        for _ in range(m)
    ]
    past, intent, starts, dests = (np.stack(column) for column in zip(*rows))
    meta = BankMeta(past_dim=4, intent_dim=3, past_len=PAST_LEN, future_len=FUTURE_LEN)
    return MemoryBankPair(past, intent, starts, dests, np.arange(m, dtype=np.int64), meta)


def test_criterion_2_filter_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(92)
    n_removed_checked = 0
    for _ in range(200):
        m = int(rng.integers(1, 501))
        bank = _random_bank(rng, m, spread=float(rng.choice([0.3, 1.0, 5.0])))
        thetas = []
        for _ in range(2):
            pick = int(rng.integers(3))
            thetas.append(0.0 if pick == 0 else float(rng.uniform(0.0, 0.2 if pick == 1 else 2.0)))
        theta_p, theta_i = thetas
        seed = int(rng.integers(1 << 30))
        kept = bank_filter(bank, theta_p, theta_i, seed)

        # exhaustive pairwise non-redundancy among the kept entries
        d_start = np.linalg.norm(kept.starts[:, None] - kept.starts[None], axis=2)
        d_dest = np.linalg.norm(kept.dests[:, None] - kept.dests[None], axis=2)
        redundant = (d_start <= theta_p) & (d_dest <= theta_i)
        np.fill_diagonal(redundant, False)
        assert not redundant.any(), "kept entries must be pairwise non-redundant"

        # every removed entry is redundant against some entry kept EARLIER in
        # the visit order, and the kept entries appear in visit order
        order = filter_visit_order(m, seed)
        kept_ids = kept.sample_ids.tolist()
        visit_rank = {int(idx): r for r, idx in enumerate(order)}
        kept_ranks = np.array([visit_rank[i] for i in kept_ids])
        assert list(kept_ranks) == sorted(kept_ranks), "kept entries must follow the visit order"
        kept_set = set(kept_ids)
        for idx in order:
            if int(idx) in kept_set:
                continue
            start, dest = bank.starts[idx], bank.dests[idx]
            ds = np.linalg.norm(kept.starts - start, axis=1)
            dd = np.linalg.norm(kept.dests - dest, axis=1)
            earlier = kept_ranks < visit_rank[int(idx)]
            culprits = np.flatnonzero((ds <= theta_p) & (dd <= theta_i) & earlier)
            assert culprits.size, f"removed entry {idx} has no earlier-kept redundancy witness"
            witness = int(culprits[0])
            assert is_redundant((start, dest), (kept.starts[witness], kept.dests[witness]), theta_p, theta_i)
            n_removed_checked += 1

    # an infinite threshold collapses any bank to exactly one entry
    for m in (1, 7, 50):
        collapsed = bank_filter(_random_bank(rng, m, spread=5.0), np.inf, np.inf, 7)
        assert len(collapsed) == 1, f"theta=inf kept {len(collapsed)} of {m}"
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        2,
        "bank filtering",
        elapsed < 30.0,
        f"200 banks, {n_removed_checked} removals witnessed, theta=inf keeps 1, {elapsed:.1f} s (< 30)",
    )


def _toy_scenes(n: int = 16, speed: float = 0.25) -> SceneSet:
    """Straight constant-speed walks in n evenly spread headings, no noise."""
    scenes = []
    t_past = np.arange(-(PAST_LEN - 1), 1, dtype=np.float64)
    t_future = np.arange(1, FUTURE_LEN + 1, dtype=np.float64)
    for i in range(n):
        angle = 2.0 * np.pi * i / n
        direction = np.array([np.cos(angle), np.sin(angle)])
        scenes.append(
            Scene(
                ego_past=t_past[:, None] * speed * direction,
                neighbor_pasts=np.zeros((0, PAST_LEN, 2)),
                ego_future=t_future[:, None] * speed * direction,
                scene_id=f"toy:{i}",
            )
        )
    return scene_set(scenes)


def test_criterion_3_addresser_oracle(capsys):
    t0 = time.perf_counter()
    scenes = _toy_scenes()
    # destinations sit on a radius-3 circle, so their largest separation is 6;
    # a threshold of 6.5 keeps every pseudo-label strictly positive
    config = Config(
        scale="meter",
        past_dim=32,
        intent_dim=16,
        addr_dim=32,
        batch_size=16,
        epochs_features=600,
        epochs_addresser=400,
        lr_addresser=1e-2,
        label_threshold=6.5,
        seed=3,
    )
    feature_nets = train_features(scenes, config)
    bank = bank_init(feature_nets, scenes)
    nets = train_addresser(
        init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim),
        bank,
        feature_nets,
        scenes,
        config,
    )
    decoded = decoded_intentions(feature_nets, bank)
    keys = key_table(nets, bank)
    hits = 0
    rhos = []
    for i, scene in enumerate(scenes):
        scores = score_all(nets, bank.past_feats[i : i + 1], keys)[0]
        dists = np.linalg.norm(scene.ego_future[-1] - decoded, axis=1)
        labels = pseudo_labels(dists, config.label_threshold_value())
        hits += int(np.argmax(scores) == np.argmin(dists))
        rho, _ = spearmanr(scores, labels)
        rhos.append(rho)
    match = hits / len(scenes)
    mean_rho = float(np.mean(rhos))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        3,
        "addresser oracle",
        match >= 0.90 and mean_rho >= 0.8 and elapsed < 120.0,
        f"argmax match {match:.2f} (>= 0.90), mean spearman {mean_rho:.3f} (>= 0.8), "
        f"400 epochs, {elapsed:.1f} s (< 120)",
    )


def _exhaustive_best_cost(points: np.ndarray, k: int) -> float:
    """Brute-force optimal k-means cost over every assignment of points."""
    best = np.inf
    for assign in itertools.product(range(k), repeat=points.shape[0]):
        assign = np.asarray(assign)
        cost = 0.0
        for c in range(k):
            members = points[assign == c]
            if len(members):
                cost += float(np.sum((members - members.mean(axis=0)) ** 2))
        best = min(best, cost)
    return best


def test_criterion_4_kmeans_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(94)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        points = rng.normal(size=(n, 2)) * float(rng.choice([0.1, 1.0, 10.0]))
        # the ten seeds cluster the same points as one block
        isets = kmeans_batch(np.broadcast_to(points, (10, n, 2)), k, [1000 + s for s in range(10)])
        best = min(kmeans_cost(points, iset) for iset in isets)
        optimal = _exhaustive_best_cost(points, k)
        worst_rel = max(worst_rel, abs(best - optimal) / max(1.0, optimal))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        4,
        "kmeans oracle",
        worst_rel <= 1e-9 and elapsed < 60.0,
        f"100 instances, worst |best-of-10 - optimum| rel {worst_rel:.3e} (<= 1e-9), {elapsed:.1f} s (< 60)",
    )


@pytest.fixture(scope="module")
def synth_stack():
    """All four stages trained once on the full-scale synthetic dataset."""
    t0 = time.perf_counter()
    config = Config(
        scale="meter",
        past_dim=64,
        intent_dim=32,
        addr_dim=64,
        epochs_features=80,
        epochs_fulfillment=80,
        batch_size=64,
        n_retrieve=60,
        n_predict=20,
        seed=17,
        synth_scenes=3000,
    )
    train = synth_generate(config.seed_for("synth"), config.synth_scenes)
    val = synth_generate(config.seed_for("synth-val"), 300)
    test = synth_generate(config.seed_for("synth-test"), 300)
    feature_nets = train_features(train, config)
    bank_raw = bank_init(feature_nets, train)
    bank = bank_filter(bank_raw, config.theta_past, config.theta_int, config.seed_for("bank-filter"))
    addresser, selection = train_addresser_selected(
        init_addresser_nets(past_dim=config.past_dim, addr_dim=config.addr_dim),
        bank,
        feature_nets,
        train,
        config,
    )
    fulfill_nets = train_fulfillment(train, config)
    return SimpleNamespace(
        config=config,
        train=train,
        val=val,
        test=test,
        feature_nets=feature_nets,
        bank_raw=bank_raw,
        bank=bank,
        addresser=addresser,
        selection=selection,
        fulfill_nets=fulfill_nets,
        build_seconds=time.perf_counter() - t0,
    )


def _assess(stack, addresser, scenes, bank=None, n_retrieve=None, n_predict=None):
    """Per-scene minFDE, worst uncovered-mode gap, and constant-velocity FDE."""
    config = stack.config
    bundle = ModelBundle(
        feature_nets=stack.feature_nets,
        bank=bank if bank is not None else stack.bank,
        addresser_nets=addresser,
        fulfill_nets=stack.fulfill_nets,
    )
    n_retrieve = n_retrieve if n_retrieve is not None else config.n_retrieve
    n_predict = n_predict if n_predict is not None else config.n_predict
    modes = default_modes()
    fde, worst_gap, cv_fde = [], [], []
    for i, scene in enumerate(scenes):
        pred = predict_scene(bundle, scene, n_retrieve, n_predict, seed=scene_seed(config.seed, i))
        fde.append(min_fde(pred.trajectories, scene.ego_future))
        endpoints = synth_mode_endpoints(synth_meta(scene.scene_id), modes, config.future_len)
        gaps = np.linalg.norm(endpoints[:, None, :] - pred.destinations[None, :, :], axis=2)
        worst_gap.append(float(gaps.min(axis=1).max()))
        cv_end = constant_velocity(scene.ego_past, config.future_len)[-1]
        cv_fde.append(float(np.linalg.norm(cv_end - scene.ego_future[-1])))
    return np.array(fde), np.array(worst_gap), np.array(cv_fde)


def test_criterion_5_synthetic_end_to_end(capsys, synth_stack):
    t0 = time.perf_counter()
    stack = synth_stack
    base_radius = 3.0 * SYNTH_SIGMA * np.sqrt(FUTURE_LEN)

    # slack is measured on the validation split, then frozen for the test split
    _, val_gap, _ = _assess(stack, stack.addresser, stack.val)
    slack = max(0.0, float(np.quantile(val_gap, 0.95)) - base_radius)
    radius = base_radius + slack

    learned_fde, test_gap, cv_fde = _assess(stack, stack.addresser, stack.test)
    fixed_fde, _, _ = _assess(stack, fixed_cosine_nets(stack.config.past_dim), stack.test)
    coverage = float((test_gap <= radius).mean())
    learned = float(learned_fde.mean())
    fixed = float(fixed_fde.mean())
    cv = float(cv_fde.mean())
    elapsed = stack.build_seconds + (time.perf_counter() - t0)

    ok_a = coverage >= 0.95
    ok_b = learned < cv
    ok_c = learned <= fixed
    _report(
        capsys,
        5,
        "synthetic end to end",
        ok_a and ok_b and ok_c and elapsed < 900.0,
        f"(a) coverage {coverage:.3f} (>= 0.95) at radius {radius:.4f}; "
        f"(b) minFDE_20 {learned:.4f} < cv {cv:.4f}; "
        f"(c) learned {learned:.4f} <= fixed-cosine {fixed:.4f} "
        f"(selection kept epoch {stack.selection['selected_epoch']}); {elapsed:.0f} s (< 900)",
    )


def test_criterion_6_metric_hand_cases(capsys):
    t0 = time.perf_counter()
    gt = np.array([[1.0, 1.0], [2.0, 2.0]])
    checks = []
    # exact prediction scores zero on both metrics
    checks.append(abs(min_ade(np.stack([gt]), gt)) <= 1e-12)
    checks.append(abs(min_fde(np.stack([gt]), gt)) <= 1e-12)
    # constant offset of norm 5 at every step gives ADE 5
    checks.append(abs(min_ade(np.stack([gt + [3.0, 4.0]]), gt) - 5.0) <= 1e-12)
    # step deviations of norms 1 and 3 average to ADE 2
    pred = np.array([[[1.0, 1.0], [2.0, 3.0]]])
    gt2 = np.array([[0.0, 1.0], [2.0, 0.0]])
    checks.append(abs(min_ade(pred, gt2) - 2.0) <= 1e-12)
    # endpoint misses of 3 and 4: the minimum over the set wins
    a = gt.copy()
    a[-1] += [3.0, 0.0]
    b = gt.copy()
    b[-1] += [0.0, 4.0]
    checks.append(abs(min_fde(np.stack([a, b]), gt) - 3.0) <= 1e-12)
    checks.append(abs(min_fde(np.stack([b]), gt) - 4.0) <= 1e-12)
    # constant-velocity extrapolation continues the last displacement
    cv = constant_velocity(np.array([[0.0, 0.0], [1.0, 0.0]]), 3)
    checks.append(bool(np.all(np.abs(cv - [[2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]) <= 1e-12)))
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        6,
        "metric hand cases",
        all(checks),
        f"{sum(checks)}/{len(checks)} cases within 1e-12, {elapsed:.2f} s",
    )


def test_criterion_7_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    out_dirs = []
    for run in ("first", "second"):
        out = tmp_path / run
        config = Config(
            scale="meter",
            past_dim=32,
            intent_dim=16,
            addr_dim=32,
            epochs_features=6,
            epochs_addresser=4,
            epochs_fulfillment=6,
            batch_size=8,
            n_retrieve=8,
            n_predict=4,
            seed=11,
            synth_scenes=24,
            out_dir=str(out),
            train_manifest=str(out / "synth" / "manifest.txt"),
            test_manifest=str(out / "synth" / "manifest.txt"),
        )
        run_synth(config)
        stage_train_features(config)
        stage_build_memory(config)
        stage_train_addresser(config)
        stage_train_fulfillment(config)
        run_predict(config)
        run_eval(config)
        out_dirs.append(out)

    first, second = out_dirs
    # every artifact except the timestamped run manifest must match byte for byte
    rel_paths = sorted(
        p.relative_to(first) for p in first.rglob("*") if p.is_file() and p.name != "run_manifest.json"
    )
    mismatched = []
    for rel in rel_paths:
        other = second / rel
        if not other.exists() or (first / rel).read_bytes() != other.read_bytes():
            mismatched.append(str(rel))
    names = {p.name for p in rel_paths}
    required = {"bank.mtbk", "predictions.csv", "destinations.csv", "eval_scenes.csv", "eval_summary.txt"}
    n_nets = sum(1 for p in rel_paths if p.suffix == ".mtnn")
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        7,
        "pipeline determinism",
        not mismatched and required <= names and n_nets >= 10,
        f"{len(rel_paths)} artifacts byte-identical across two runs "
        f"({n_nets} net files), mismatches: {mismatched or 'none'}, {elapsed:.1f} s",
    )


def test_criterion_8_threshold_trend(capsys, synth_stack):
    t0 = time.perf_counter()
    stack = synth_stack
    config = stack.config
    thetas = (0.0, 0.05, 0.1, 0.5, 1.0)
    kept_counts = []
    fde_means = []
    for theta in thetas:
        # one shared seed keeps the greedy visit order fixed across thresholds
        filtered = bank_filter(stack.bank_raw, theta, theta, config.seed_for("bank-filter"))
        kept_counts.append(len(filtered))
        n_retrieve = min(config.n_retrieve, len(filtered))
        n_predict = min(config.n_predict, n_retrieve)
        fde, _, _ = _assess(
            stack, stack.addresser, stack.test, bank=filtered, n_retrieve=n_retrieve, n_predict=n_predict
        )
        fde_means.append(float(fde.mean()))
    non_increasing = all(kept_counts[i] >= kept_counts[i + 1] for i in range(len(kept_counts) - 1))
    ratio = fde_means[-1] / min(fde_means)
    elapsed = time.perf_counter() - t0
    _report(
        capsys,
        8,
        "filter threshold trend",
        non_increasing and ratio >= 1.1,
        f"kept {kept_counts} non-increasing: {non_increasing}; "
        f"minFDE_20 {['%.4f' % f for f in fde_means]}, largest/best ratio {ratio:.2f} (>= 1.1), {elapsed:.1f} s",
    )
