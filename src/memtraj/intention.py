"""From retrieved memories to K destination proposals.

The addresser's top entries are decoded into intention anchors: 2-D points
produced by the joint decoder from the query's own past feature paired with
each retrieved intention feature (or from the stored past feature, behind a
flag). Seeded k-means++ with Lloyd iterations then compresses the anchors
into K cluster centroids, which are the destination proposals handed to the
fulfillment stage.

k-means draws its seeding over a lexicographically sorted copy of the
anchors, so the result does not depend on the order the anchors arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .features import EncoderDecoder, decode_batch
from .membank import MemoryBankPair

DECODE_QUERY = "query"  # decode [query past feature ; stored intention feature]
DECODE_STORED = "stored"  # decode [stored past feature ; stored intention feature]
KMEANS_MAX_ITERS = 100  # Lloyd passes before k-means stops short of a fixpoint


@dataclass
class IntentionSet:
    """K destination proposals plus the anchor-to-cluster assignment."""

    destinations: np.ndarray  # (k, 2) cluster centroids
    anchor_assignment: np.ndarray  # (n_anchors,) cluster index per anchor
    iter_costs: list[float] = field(default_factory=list)  # Lloyd cost per iteration

    @property
    def k(self) -> int:
        return self.destinations.shape[0]


def decode_anchors(
    query_feat,
    addresses: Sequence[int],
    bank: MemoryBankPair,
    feature_nets: EncoderDecoder,
    decode_mode: str = DECODE_QUERY,
) -> np.ndarray:
    """Decode one anchor per retrieved address: an (L, 2) array in address order."""
    if decode_mode not in (DECODE_QUERY, DECODE_STORED):
        raise ValueError(f"decode_mode must be '{DECODE_QUERY}' or '{DECODE_STORED}', got {decode_mode!r}")
    if len(addresses) == 0:
        raise ValueError("no addresses to decode")
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.min() < 0 or addr.max() >= len(bank):
        raise ValueError(f"address out of range for bank of {len(bank)} entries")
    intent_feats = bank.intent_feats[addr]
    if decode_mode == DECODE_QUERY:
        q = np.asarray(query_feat, dtype=np.float64)
        past_feats = np.broadcast_to(q, (len(addr), q.shape[0]))
    else:
        past_feats = bank.past_feats[addr]
    _, dest_hat = decode_batch(feature_nets, past_feats, intent_feats)
    return dest_hat


def kmeans(points, k: int, seed: int) -> IntentionSet:
    """Seeded k-means++ with Lloyd iterations and empty-cluster repair.

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
    return IntentionSet(destinations=centers, anchor_assignment=assignment, iter_costs=costs)

