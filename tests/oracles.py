"""Reference implementations that the tests hold the package's batch code to.

Each oracle computes one quantity directly, one row or one pair at a time,
so that it shares as little code as possible with the path under test.
"""

import math

import numpy as np

from memtraj.addresser import DEGENERATE_NORM
from memtraj.features import decode_batch, normalize_with_futures, prepare_social_batch, social_forward_batch
from memtraj.numkit import mlp_forward


def score(nets, query_feat, key_feat) -> float:
    """Cosine similarity of the projected query and one projected key; 0 if either projection is degenerate."""
    u = mlp_forward(nets.query_proj, np.asarray(query_feat, dtype=np.float64))
    w = mlp_forward(nets.key_proj, np.asarray(key_feat, dtype=np.float64))
    nu = float(np.linalg.norm(u))
    nw = float(np.linalg.norm(w))
    if nu < DEGENERATE_NORM or nw < DEGENERATE_NORM:
        return 0.0
    return float(u @ w / (nu * nw))


def mean_rec_loss(nets, dataset, intent_weight: float = 1.0) -> float:
    """Mean over raw scenes of the feature stage's summed squared past and weighted destination error."""
    normalized = normalize_with_futures(dataset, "mean_rec_loss")
    k, _ = social_forward_batch(nets, prepare_social_batch(normalized))
    dests = np.stack([s.ego_future[-1] for s in normalized])
    past_hat, dest_hat = decode_batch(nets, k, mlp_forward(nets.point_embed, dests))
    past_x = np.stack([s.ego_past.reshape(-1) for s in normalized])
    per_scene = np.sum((past_hat - past_x) ** 2, axis=1) + intent_weight * np.sum((dest_hat - dests) ** 2, axis=1)
    return float(per_scene.mean())


def kmeans_cost(points, iset) -> float:
    """Total squared distance of points to their assigned centroids."""
    pts = np.asarray(points, dtype=np.float64)
    return float(np.sum((pts - iset.destinations[iset.anchor_assignment]) ** 2))


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
