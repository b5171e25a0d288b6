"""From retrieved memories to K destination proposals.

The addresser's top entries are decoded into intention anchors: 2-D points
produced by the joint decoder from the query's own past feature paired with
each retrieved intention feature (or from the stored past feature, behind a
flag). Seeded k-means++ with Lloyd iterations then compresses the anchors
into K cluster centroids, which are the destination proposals handed to the
fulfillment stage.

One :func:`kmeans_batch` call clusters a block of scenes into ``(S, K, 2)``
destinations and an ``(S, L)`` anchor assignment. Each scene draws its
seeding from its own generator over a lexicographically sorted copy of its
anchors and leaves the Lloyd passes at its own fixpoint, so its result
depends neither on the order its anchors arrive in nor on its block.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .features import EncoderDecoder, decode_targets
from .membank import MemoryBankPair

DECODE_QUERY = "query"  # decode [query past feature ; stored intention feature]
DECODE_STORED = "stored"  # decode [stored past feature ; stored intention feature]
KMEANS_MAX_ITERS = 100  # Lloyd passes before k-means stops short of a fixpoint
_XY = np.arange(2)  # coordinate offsets within a (scene, cluster) pair of centroid bins


def decode_anchors(
    queries,
    addresses,
    bank: MemoryBankPair,
    feature_nets: EncoderDecoder,
    decode_mode: str = DECODE_QUERY,
) -> np.ndarray:
    """Decode one anchor per retrieved address for each query of a block: ``(S, L, 2)``.

    Query ``s`` has the past feature ``queries[s]`` and the retrieved
    ``addresses[s]``; its ``L`` anchors come out in address order. The
    decoder's first layer takes the query's half once, as slice ``s`` of an
    ``(S, 1, .)`` stack (in ``stored`` mode the ``L`` stored past features,
    an ``(S, L, .)`` stack), and the ``L`` intention features as slice ``s``
    of an ``(S, L, .)`` stack; its last layer computes only the 2
    destination columns (:func:`~memtraj.features.decode_targets`). So a
    query's anchors equal those of that query decoded alone, bit for bit.
    """
    if decode_mode not in (DECODE_QUERY, DECODE_STORED):
        raise ValueError(f"decode_mode must be '{DECODE_QUERY}' or '{DECODE_STORED}', got {decode_mode!r}")
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.ndim != 2:
        raise ValueError(f"addresses must be a (queries, L) array, got shape {addr.shape}")
    if not addr.size:
        raise ValueError("no addresses to decode")
    if addr.min() < 0 or addr.max() >= len(bank):
        raise ValueError(f"address out of range for bank of {len(bank)} entries")
    if decode_mode == DECODE_QUERY:
        past_feats = np.asarray(queries, dtype=np.float64)[:, None]
    else:
        past_feats = bank.past_feats[addr]
    return decode_targets(feature_nets, past_feats, bank.intent_feats[addr])


def kmeans_batch(points, k: int, seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Seeded k-means++ with Lloyd iterations and empty-cluster repair, for each scene of a block.

    ``points`` is (scenes, n, 2) and scene ``s`` is clustered with
    ``seeds[s]``: its result depends on its own points and seed only, not
    on the other scenes of the block. Returns the float64 ``(scenes, k, 2)``
    centroids and the int64 ``(scenes, n)`` cluster index of each point, in
    the order the points came in. Each scene runs until its assignment
    reaches a fixpoint or ``KMEANS_MAX_ITERS`` passes. When a cluster
    empties, it steals the point currently farthest from its own centroid
    (donors must keep at least one member), so no cluster is ever empty in
    the result. Assignment ties go to the lowest cluster index.

    ValueError for non-finite points, or when the squared distances of
    k-means++ seeding overflow. The largest temporaries are the
    (scenes, n, k) distance tables.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 3 or pts.shape[2] != 2:
        raise ValueError(f"points must have shape (scenes, n, 2), got {pts.shape}")
    n_scenes, n = pts.shape[:2]
    if len(seeds) != n_scenes:
        raise ValueError(f"need one seed per scene: {len(seeds)} seeds for {n_scenes} scenes")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] (number of points), got {k}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not n_scenes:
        return np.empty((0, k, 2)), np.empty((0, n), dtype=np.int64)

    # Each scene works on a lexicographically sorted copy of its points, so
    # seeding (and therefore the whole run) is invariant to their order.
    flat = pts.reshape(-1, 2)
    order = np.lexsort((flat[:, 1], flat[:, 0], np.repeat(np.arange(n_scenes), n)))
    flat = flat[order]
    srt = flat.reshape(n_scenes, n, 2)
    first_point = np.arange(0, n_scenes * n, n)  # flat index of each scene's first sorted point

    # k-means++ seeding, one step for every scene at once, each scene drawing
    # from its own generator exactly what ``rng.choice(n, p=d2 / total)``
    # would: one ``random()`` searched in the normalized cumulative sum.
    rngs = [np.random.default_rng(seed) for seed in seeds]
    chosen = np.empty((k, n_scenes), dtype=np.int64)
    chosen[0] = [rng.integers(n) for rng in rngs]
    d2 = np.full((n_scenes, n), np.inf)  # each point's squared distance to its nearest chosen center
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k):
            gaps = srt - flat.take(first_point + chosen[j - 1], axis=0)[:, None]
            gaps *= gaps
            np.minimum(d2, gaps[:, :, 0] + gaps[:, :, 1], out=d2)
            total = np.add.reduce(d2, axis=1)
            # later totals sum smaller terms, so the first one overflows if any does
            if j == 1 and np.isinf(total).any():
                raise ValueError(f"squared distances overflow in k-means++ seeding of scene {int(np.argmax(np.isinf(total)))}")
            cdf = d2 / total[:, None]
            cdf.cumsum(axis=1, out=cdf)
            cdf /= cdf[:, -1:]
            totals = total.tolist()
            if 0.0 in totals:
                # a scene whose points all sit on chosen centers draws a uniform
                # index instead; its NaN cdf is not read
                for s, rng in enumerate(rngs):
                    chosen[j, s] = np.count_nonzero(cdf[s] <= rng.random()) if totals[s] > 0 else rng.integers(n)
            else:
                u = np.array([rng.random() for rng in rngs])
                chosen[j] = np.add.reduce(cdf <= u[:, None], axis=1)

    # Lloyd passes over the scenes still moving; a scene leaves at its own fixpoint.
    centers = flat[(first_point + chosen).T]  # (scenes, k, 2)
    result_centers = np.empty((n_scenes, k, 2))
    assignment = np.empty((n_scenes, n), dtype=np.int64)
    live = np.arange(n_scenes)
    bin_base = live[:, None] * k  # scene s owns the flattened (scene, cluster) bins s*k .. s*k + k - 1
    px = srt[:, :, 0, None]
    py = srt[:, :, 1, None]
    prev_assign = None
    for it in range(KMEANS_MAX_ITERS):
        m = len(live)
        d2 = px - centers[:, None, :, 0]
        d2 *= d2
        dy = py - centers[:, None, :, 1]
        dy *= dy
        d2 += dy
        assign = d2.argmin(axis=2)
        bins = assign + bin_base[:m]
        sizes = np.bincount(bins.ravel(), minlength=m * k).reshape(m, k)
        if not sizes.all():
            for s in np.flatnonzero(~sizes.all(axis=1)):
                _repair_empty(d2[s], assign[s], sizes[s])
            bins = assign + bin_base[:m]
        # (scene, cluster, coordinate) bins, each summed in point order as np.add.at sums
        coord_bins = (2 * bins)[:, :, None] + _XY
        centers = np.bincount(coord_bins.ravel(), weights=srt.ravel(), minlength=2 * m * k).reshape(m, k, 2)
        centers /= sizes[:, :, None]
        if it == KMEANS_MAX_ITERS - 1:
            done = np.ones(m, dtype=bool)
        elif prev_assign is None:
            done = np.zeros(m, dtype=bool)
        else:
            done = np.logical_and.reduce(assign == prev_assign, axis=1)
        if done.any():
            finished = live[done]
            result_centers[finished] = centers[done]
            assignment[finished] = assign[done]
            keep = ~done
            if not keep.any():
                break
            live, srt, centers, assign = live[keep], srt[keep], centers[keep], assign[keep]
            px = srt[:, :, 0, None]
            py = srt[:, :, 1, None]
        prev_assign = assign

    unsorted = np.empty(n_scenes * n, dtype=np.int64)
    unsorted[order] = assignment.ravel()
    return result_centers, unsorted.reshape(n_scenes, n)


def _repair_empty(d2: np.ndarray, assign: np.ndarray, sizes: np.ndarray) -> None:
    """Give each empty cluster of one scene the point farthest from its own centroid, in place."""
    n = len(assign)
    for empty in np.flatnonzero(sizes == 0):
        own_dist = d2[np.arange(n), assign]
        own_dist = np.where(sizes[assign] > 1, own_dist, -np.inf)
        steal = int(np.argmax(own_dist))
        sizes[assign[steal]] -= 1
        assign[steal] = empty
        sizes[empty] = 1
