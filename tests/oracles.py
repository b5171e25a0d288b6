"""Reference implementations that the tests hold the package's batch code to.

Each oracle computes one quantity directly, one row or one pair at a time,
so that it shares as little code as possible with the path under test.
"""

import hashlib
import math
from typing import NamedTuple

import numpy as np

from memtraj import addresser
from memtraj.addresser import DEGENERATE_NORM, _CosineBatch, addresser_training_data, fit_addresser
from memtraj.datasets import Scene, SceneBatch, SceneSet
from memtraj.features import social_forward_batch
from memtraj.intention import KMEANS_MAX_ITERS
from memtraj.numkit import RELU, GradBundle, mlp_backward_from_cache, mlp_forward, mlp_forward_cached, sgd_loop


def scene_set(scenes) -> SceneSet:
    """One or more Scene objects stacked into a set, one scene at a time; it has futures only when every scene has one."""
    scenes = list(scenes)
    past_shape = np.shape(scenes[0].ego_past)
    neighbors = [np.reshape(s.neighbor_pasts, (-1, *past_shape)) for s in scenes]
    return SceneSet(
        ego_pasts=np.stack([s.ego_past for s in scenes]).astype(np.float64),
        futures=None if any(s.ego_future is None for s in scenes) else np.stack([s.ego_future for s in scenes]).astype(np.float64),
        neighbor_pasts=np.concatenate(neighbors).astype(np.float64),
        offsets=np.cumsum([0] + [len(n) for n in neighbors]).astype(np.int64),
        scene_ids=[s.scene_id for s in scenes],
    )


def reference_fingerprint(scenes) -> bytes:
    """``dataset_fingerprint`` as one loop over Scene objects: per scene its id, past, neighbor and future bytes."""
    digest = hashlib.sha256()
    for scene in scenes:
        digest.update(scene.scene_id.encode("utf-8"))
        digest.update(np.ascontiguousarray(scene.ego_past, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(scene.neighbor_pasts, dtype="<f8").tobytes())
        if scene.ego_future is not None:
            digest.update(np.ascontiguousarray(scene.ego_future, dtype="<f8").tobytes())
    return digest.digest()


def normalize_scene(scene):
    """A copy of one scene translated so the ego's last observed point is the origin, plus that translation.

    Points map to the ego frame by adding the translation and back by
    subtracting it.
    """
    translation = -np.asarray(scene.ego_past[-1], dtype=np.float64)

    def apply(points):
        return np.asarray(points, dtype=np.float64) + translation

    normalized = Scene(
        ego_past=apply(scene.ego_past),
        neighbor_pasts=apply(scene.neighbor_pasts),
        ego_future=None if scene.ego_future is None else apply(scene.ego_future),
        scene_id=scene.scene_id,
    )
    return normalized, translation


def prepare_social_batch(normalized):
    """``(ego_x, nb_x, offsets)``: the social encoder's inputs, stacked from already normalized scenes."""
    ego_x = np.stack([s.ego_past.reshape(-1) for s in normalized])
    counts = [s.n_neighbors for s in normalized]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    if offsets[-1] > 0:
        nb_x = np.concatenate([s.neighbor_pasts.reshape(s.n_neighbors, -1) for s in normalized if s.n_neighbors])
    else:
        nb_x = np.zeros((0, ego_x.shape[1]))
    return ego_x, nb_x, offsets


def reference_batch(scenes, with_futures: bool = True) -> SceneBatch:
    """``scene_batch`` one scene at a time: :func:`normalize_scene` each, then :func:`prepare_social_batch`."""
    normalized = [normalize_scene(s)[0] for s in scenes]
    ego_x, nb_x, offsets = prepare_social_batch(normalized)
    return SceneBatch(
        ego_x=ego_x,
        nb_x=nb_x,
        offsets=offsets,
        futures=np.stack([n.ego_future for n in normalized]) if with_futures else None,
    )


def score(nets, query_feat, key_feat) -> float:
    """Cosine similarity of the projected query and one projected key; 0 if either projection is degenerate."""
    u = mlp_forward(nets.query_proj, np.asarray(query_feat, dtype=np.float64)[None])[0]
    w = mlp_forward(nets.key_proj, np.asarray(key_feat, dtype=np.float64)[None])[0]
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu < DEGENERATE_NORM or nw < DEGENERATE_NORM:
        return 0.0
    return float(u @ w / (nu * nw))


def full_sort_top_l(scores, count: int):
    """The ``count`` best addresses from one stable sort of the whole bank: ties low address first, NaN last."""
    return np.argsort(-scores, kind="stable")[:count]


def mean_rec_loss(nets, dataset) -> float:
    """Mean over raw scenes of the feature stage's summed squared past and destination errors."""
    batch = reference_batch(dataset)
    k, _ = social_forward_batch(nets, batch)
    dests = batch.futures[:, -1]
    out = mlp_forward(nets.decoder, np.hstack([k, mlp_forward(nets.point_embed, dests)]))
    n_past = batch.ego_x.shape[1]
    per_scene = np.sum((out[:, :n_past] - batch.ego_x) ** 2, axis=1) + np.sum((out[:, n_past:] - dests) ** 2, axis=1)
    return float(per_scene.mean())


class Clustering(NamedTuple):
    """One scene's reference k-means result, with the cost after each Lloyd pass."""

    destinations: np.ndarray  # (k, 2) cluster centroids
    assignment: np.ndarray  # (n,) cluster index per point
    costs: list[float]


def kmeans(points, k: int, seed: int) -> Clustering:
    """One scene's seeded k-means++ with Lloyd iterations and empty-cluster repair, one loop step at a time.

    The reference for ``kmeans_batch``: seeding draws with ``rng.choice``,
    squared distances are ``np.sum(... ** 2)`` and centroids sum with
    ``np.add.at``.

    Runs until the assignment reaches a fixpoint or ``KMEANS_MAX_ITERS`` passes.
    When a cluster empties, it steals the point currently farthest from its
    own centroid (donors must keep at least one member), so no cluster is
    ever empty in the result. Assignment ties go to the lowest cluster index.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] (number of points), got {k}")

    # Work on a lexicographically sorted copy so seeding (and therefore the
    # whole run) is invariant to the order the points came in.
    order = np.lexsort(tuple(pts[:, dim] for dim in range(pts.shape[1] - 1, -1, -1)))
    sorted_pts = pts[order]

    rng = np.random.default_rng(seed)
    center_idx = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)  # each point's squared distance to its nearest chosen center
    for _ in range(k - 1):
        d2 = np.minimum(d2, np.sum((sorted_pts - sorted_pts[center_idx[-1]]) ** 2, axis=1))
        total = float(d2.sum())
        if total <= 0.0:
            center_idx.append(int(rng.integers(n)))
        else:
            center_idx.append(int(rng.choice(n, p=d2 / total)))
    centers = sorted_pts[center_idx].copy()

    costs: list[float] = []
    prev_assign = None
    for _ in range(KMEANS_MAX_ITERS):
        d2 = np.sum((sorted_pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assign = d2.argmin(axis=1)
        sizes = np.bincount(assign, minlength=k)
        for empty in np.flatnonzero(sizes == 0):
            own_dist = d2[np.arange(n), assign]
            own_dist = np.where(sizes[assign] > 1, own_dist, -np.inf)
            steal = int(np.argmax(own_dist))
            sizes[assign[steal]] -= 1
            assign[steal] = empty
            sizes[empty] = 1
        centers = np.zeros_like(centers)
        np.add.at(centers, assign, sorted_pts)
        centers /= sizes[:, None]
        costs.append(float(np.sum((sorted_pts - centers[assign]) ** 2)))
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign

    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = assign
    return Clustering(destinations=centers, assignment=assignment, costs=costs)


def kmeans_cost(points, destinations, assignment) -> float:
    """Total squared distance of points to their assigned centroids."""
    pts = np.asarray(points, dtype=np.float64)
    return float(np.sum((pts - destinations[assignment]) ** 2))


def is_redundant(a, b, theta_past: float, theta_int: float) -> bool:
    """True when two ``(start, destination)`` pairs are within both thresholds.

    Each distance is ``sqrt(dx*dx + dy*dy)``, which rounds as the bank
    filter's ``np.linalg.norm(..., axis=1)`` does; the 1-D ``np.linalg.norm``
    can differ from both in the last bit.
    """
    if theta_past < 0 or theta_int < 0:
        raise ValueError(f"thresholds must be >= 0, got {theta_past}, {theta_int}")

    def dist(p, q):
        dx, dy = float(p[0]) - float(q[0]), float(p[1]) - float(q[1])
        return math.sqrt(dx * dx + dy * dy)

    return dist(a[0], b[0]) <= theta_past and dist(a[1], b[1]) <= theta_int


def mlp_backward(net, x, upstream) -> GradBundle:
    """Gradients of ``upstream . output`` w.r.t. all parameters and the input, from a fresh forward pass."""
    _, cache = mlp_forward_cached(net, x)
    return mlp_backward_from_cache(net, cache, upstream)


def hidden_preactivations(net, x) -> list:
    """Pre-activation values of the hidden layers (used to stay off ReLU kinks)."""
    _, cache = reference_forward_cached(net, x)
    return cache.preacts[:-1]


def finite_diff_check(net, x, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients of ``ones . output`` at a one-row batch ``x``.

    Every weight, bias, and input entry is perturbed by ``+-eps``; the
    relative error for one coordinate is
    ``|analytic - numeric| / max(1e-8, |analytic| + |numeric|)``.
    """
    x = np.array(x, dtype=np.float64)
    up = np.ones(net.out_dim)
    bundle = mlp_backward(net, x, up[None])
    pairs = [(p, g) for l in range(net.n_layers) for p, g in ((net.weights[l], bundle.d_weights[l]), (net.biases[l], bundle.d_biases[l]))]
    worst = 0.0
    for arr, grad in pairs + [(x, bundle.d_input)]:
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(mlp_forward(net, x)[0] @ up)
            flat[i] = orig - eps
            f_minus = float(mlp_forward(net, x)[0] @ up)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric)))
    return worst


def synth_meta(scene_id: str) -> dict:
    """Parse a synthetic scene_id back into its generator parameters."""
    fields = scene_id.split("|")
    if not fields or not fields[0].startswith("synth-"):
        raise ValueError(f"not a synthetic scene_id: {scene_id!r}")
    meta: dict = {"index": int(fields[0][len("synth-"):])}
    for field in fields[1:]:
        key, _, value = field.partition("=")
        if key == "m":
            meta["mode"] = int(value)
        elif key == "h":
            meta["heading"] = float(value)
        elif key == "x0":
            sx, _, sy = value.partition("/")
            meta["turn_point"] = np.array([float(sx), float(sy)])
        elif key == "v":
            meta["speed"] = float(value)
    return meta


def synth_mode_endpoints(meta: dict, mode_spec, future_len: int) -> np.ndarray:
    """Noise-free world endpoint of every mode for one synthetic scene (``meta`` from ``synth_meta``)."""
    endpoints = []
    for mode in mode_spec:
        angle = meta["heading"] + mode.turn
        direction = np.array([np.cos(angle), np.sin(angle)])
        endpoints.append(meta["turn_point"] + future_len * meta["speed"] * direction)
    return np.stack(endpoints)


def train_addresser(nets, bank, feature_nets, dataset, config):
    """A trained copy of ``nets``: one uninterrupted ``fit_addresser`` run over the stage's schedule.

    The reference for ``train_addresser_selected``, whose segments continue
    the same ``addresser-batches`` stream; the input nets are not mutated.
    """
    data = addresser_training_data(bank, feature_nets, dataset)
    nets = nets.copy()
    rng = np.random.default_rng(config.seed_for("addresser-batches"))
    fit_addresser(nets, bank, data, config, *config.sgd_schedule("addresser"), rng)
    return nets


def config_hash(config) -> str:
    """SHA-256 of every key of a config, runtime-only keys included (``stage_hash`` skips those)."""
    return hashlib.sha256(config.canonical_text().encode("utf-8")).hexdigest()


def reference_fit_addresser(nets, bank, data, config, epochs, learning_rate, rng, epochs_done=0) -> None:
    """``fit_addresser`` as a step that recomputes everything: the reference its leaner step must equal bit for bit.

    Each step builds the batch's distance table to the whole bank with
    ``np.linalg.norm`` over an ``(n, m, 2)`` difference, finds the nearest
    entries in it, and indexes the bank and the table by the candidates,
    ``arange(m)`` included; its dense label table is
    ``max(0, (threshold - dist) / threshold)`` and its residual the scores
    minus that table. Rows are normalized by ``np.linalg.norm`` into new
    arrays, the cosine backward copies its upstream and forms ``d * scores``
    twice, and the nets run through the pre-change
    :func:`reference_forward_cached` and :func:`reference_backward_from_cache`.
    """
    queries, dests, decoded = data
    threshold = config.label_threshold_value()
    m = len(bank)

    def normalize_rows(mat):
        norms = np.linalg.norm(mat, axis=1)
        degenerate = norms < DEGENERATE_NORM
        unit = mat / np.where(degenerate, 1.0, norms)[:, None]
        unit[degenerate] = 0.0
        return unit, norms, degenerate

    def cosine_forward(u, w):
        un, nu, u_bad = normalize_rows(u)
        wn, nw, w_bad = normalize_rows(w)
        return _CosineBatch(un @ wn.T, un, wn, nu, nw, u_bad, w_bad)

    def cosine_backward(state, d_scores):
        d = d_scores.copy()
        if state.u_degenerate.any():
            d[state.u_degenerate, :] = 0.0
        if state.w_degenerate.any():
            d[:, state.w_degenerate] = 0.0
        row_mix = np.sum(d * state.scores, axis=1, keepdims=True)
        col_mix = np.sum(d * state.scores, axis=0)[:, None]
        safe_u = np.where(state.u_degenerate, 1.0, state.u_norms)[:, None]
        safe_w = np.where(state.w_degenerate, 1.0, state.w_norms)[:, None]
        d_u = (d @ state.w_normed - row_mix * state.u_normed) / safe_u
        d_w = (d.T @ state.u_normed - col_mix * state.w_normed) / safe_w
        return d_u, d_w

    def step(idx):
        full_dists = np.linalg.norm(dests[idx][:, None, :] - decoded[None, :, :], axis=2)
        cap = addresser.CANDIDATE_CAP  # read at call time, so a test may patch it
        if m <= cap:
            cand = np.arange(m)
        else:
            sampled = rng.choice(m, size=cap, replace=False)
            cand = np.union1d(sampled, np.argmin(full_dists, axis=1))
        labels = np.maximum(0.0, (threshold - full_dists[:, cand]) / threshold)
        u, u_cache = reference_forward_cached(nets.query_proj, queries[idx])
        w, w_cache = reference_forward_cached(nets.key_proj, bank.past_feats[cand])
        state = cosine_forward(u, w)
        residual = state.scores - labels
        d_u, d_w = cosine_backward(state, (2.0 / len(idx)) * residual)
        updates = [
            (nets.query_proj, reference_backward_from_cache(nets.query_proj, u_cache, d_u)),
            (nets.key_proj, reference_backward_from_cache(nets.key_proj, w_cache, d_w)),
        ]
        return float(np.sum(residual**2)), updates

    sgd_loop("addresser", len(queries), config.batch_size, epochs, learning_rate, rng, step, epochs_done)


class ReferenceCache(NamedTuple):
    """Every layer of a reference forward pass, before and after its activation."""

    activations: list[np.ndarray]  # the input, then each layer's output
    preacts: list[np.ndarray]  # each layer before its activation


def reference_forward_cached(net, x):
    """``mlp_forward_cached`` before its bias and activation moved in place: ``a @ w.T + b`` per layer, kept twice."""
    a = np.asarray(x, dtype=np.float64)
    activations = [a]
    preacts = []
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        preacts.append(z)
        a = z if l == last else (np.maximum(z, 0.0) if net.hidden_activation == RELU else np.tanh(z))
        activations.append(a)
    return a, ReferenceCache(activations=activations, preacts=preacts)


def reference_backward_from_cache(net, cache, upstream, input_grad=True) -> GradBundle:
    """``mlp_backward_from_cache`` on a :class:`ReferenceCache`.

    Each derivative is taken from the pre-activation, and the ReLU mask is an ``astype(float64)`` copy.
    """
    delta = np.asarray(upstream, dtype=np.float64)
    d_weights = [None] * net.n_layers
    d_biases = [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        d_weights[l] = delta.T @ cache.activations[l]
        d_biases[l] = delta.sum(axis=0)
        if l == 0 and not input_grad:
            return GradBundle(d_weights=d_weights, d_biases=d_biases, d_input=None)
        delta = delta @ net.weights[l]
        if l > 0:
            z = cache.preacts[l - 1]
            if net.hidden_activation == RELU:
                grad = (z > 0.0).astype(np.float64)
            else:
                t = np.tanh(z)
                grad = 1.0 - t * t
            delta = delta * grad
    return GradBundle(d_weights=d_weights, d_biases=d_biases, d_input=delta)


# ---------------------------------------------------------------------------
# The per-scene prediction chain: the reference for the stacked block path
# ---------------------------------------------------------------------------


def forward_2d(net, x):
    """``net`` on one ``(n, in_dim)`` row batch, through the training forward: one 2-D product per layer."""
    return mlp_forward_cached(net, np.asarray(x, dtype=np.float64))[0]


def loop_max_pool(nb_out, offsets):
    """``(pooled, pool_rows)``: per scene and dim, the first of its neighbor rows holding the maximum; zeros and -1 for a scene without neighbors."""
    n_scenes, embed = len(offsets) - 1, nb_out.shape[1]
    pooled = np.zeros((n_scenes, embed))
    pool_rows = np.full((n_scenes, embed), -1, dtype=np.int64)
    cols = np.arange(embed)
    for b in range(n_scenes):
        lo, hi = offsets[b], offsets[b + 1]
        if hi > lo:
            block = nb_out[lo:hi]
            winners = block.argmax(axis=0)
            pooled[b] = block[winners, cols]
            pool_rows[b] = lo + winners
    return pooled, pool_rows


def encode_one(nets, batch):
    """The past feature of a one-scene batch: its ego, neighbor and fuse rows as 2-D products, pooled by the loop."""
    ego = forward_2d(nets.ego_embed, batch.ego_x)
    pooled, _ = loop_max_pool(forward_2d(nets.neighbor_embed, batch.nb_x), batch.offsets)
    return forward_2d(nets.social_fuse, np.hstack([ego, pooled]))[0]


def score_one(nets, query_feat, keys):
    """One query's cosine scores against a unit key table: 1-D norm, one matrix-vector product; 0 for a degenerate query."""
    u = forward_2d(nets.query_proj, np.asarray(query_feat, dtype=np.float64)[None])[0]
    u_norm = float(np.linalg.norm(u))
    if u_norm < DEGENERATE_NORM:
        return np.zeros(len(keys))
    return keys @ (u / u_norm)


def decode_targets_one(nets, past, points):
    """One scene's flat target columns from a two-layer ReLU decoder, as 2-D products.

    ``past`` is the scene half of the first layer, one row or one per row of
    ``points``; its product and the product of the ``(n, intent_dim)`` point
    rows are added, then the bias, then ReLU. The last layer multiplies only
    the weight rows of the target columns.
    """
    (w0, w1), (b0, b1) = nets.decoder.weights, nets.decoder.biases
    split, targets = nets.past_dim, slice(2 * nets.past_len, None)
    hidden = np.maximum(past @ w0[:, :split].T + points @ w0[:, split:].T + b0, 0.0)
    return hidden @ w1[targets].T + b1[targets]


def decode_one(query_feat, addresses, bank, feature_nets, decode_mode):
    """One query's (L, 2) anchors in address order: its query row once (or its L stored rows) and its L intention rows."""
    past = bank.past_feats[addresses] if decode_mode == "stored" else np.asarray(query_feat, dtype=np.float64)[None]
    return decode_targets_one(feature_nets, past, bank.intent_feats[addresses])


def fulfill_one(nets, batch, dests, snap_destination):
    """One scene's (K, future_len, 2) ego-frame futures for its K destinations: its feature row once, K destination rows."""
    feat = encode_one(nets, batch)
    futures = decode_targets_one(nets, feat[None], forward_2d(nets.point_embed, dests)).reshape(len(dests), -1, 2)
    if snap_destination:
        futures[:, -1] = dests
    return futures


def predict_one(bundle, scene, n_retrieve, n_predict, seed, decode_mode="query", snap_destination=False) -> dict:
    """One raw scene through the chain alone: encode, score, top-L, decode, k-means, fulfill.

    Returns the world-frame ``destinations`` and ``trajectories`` and the
    retrieved ``addresses``, their ``scores`` and ``sample_ids``, and the
    reference k-means's ``anchor_assignment``.
    """
    _, translation = normalize_scene(scene)
    batch = reference_batch([scene], with_futures=False)
    query = encode_one(bundle.feature_nets, batch)
    scores = score_one(bundle.addresser_nets, query, bundle.keys)
    addresses = full_sort_top_l(scores, n_retrieve)
    anchors = decode_one(query, addresses, bundle.bank, bundle.feature_nets, decode_mode)
    clustering = kmeans(anchors, n_predict, seed)
    futures = fulfill_one(bundle.fulfill_nets, batch, clustering.destinations, snap_destination)
    return {
        "destinations": clustering.destinations - translation,
        "trajectories": futures - translation,
        "addresses": addresses,
        "scores": scores[addresses],
        "sample_ids": bundle.bank.sample_ids[addresses],
        "anchor_assignment": clustering.assignment,
    }
