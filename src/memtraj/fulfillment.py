"""Destination-conditioned trajectory fulfillment.

Given a normalized scene and one destination proposal, a second social
encoder (same shape as the feature stage's, trained independently) embeds
the observation, a small net embeds the destination, and a decoder maps the
concatenation to a full trajectory: a reconstruction of the past followed by
the future steps. Training conditions on the ground-truth destination
(teacher forcing); at prediction time the destinations come from the
intention stage. The decoded future is used as-is, with an optional flag to
snap its final point onto the conditioning destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import Scene, normalize_scene
from .features import EMBED_DIM, prepare_social_batch, social_backward_batch, social_forward_batch
from .numkit import (
    Mlp,
    mlp_backward_from_cache,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    sgd_loop,
)

DEST_EMBED_DIM = 64


@dataclass
class FulfillNets:
    """Social trio + destination embedder + trajectory decoder.

    full_dec maps (feat_dim + DEST_EMBED_DIM) to 2*past_len + 2*future_len;
    the first 2*past_len outputs are the past reconstruction, the rest the
    future trajectory.
    """

    ego_embed: Mlp
    neighbor_embed: Mlp
    social_fuse: Mlp
    dest_embed: Mlp
    full_dec: Mlp
    past_len: int
    future_len: int

    def copy(self) -> "FulfillNets":
        return FulfillNets(
            ego_embed=self.ego_embed.copy(),
            neighbor_embed=self.neighbor_embed.copy(),
            social_fuse=self.social_fuse.copy(),
            dest_embed=self.dest_embed.copy(),
            full_dec=self.full_dec.copy(),
            past_len=self.past_len,
            future_len=self.future_len,
        )


@dataclass
class FullPrediction:
    """One fulfilled trajectory."""

    future: np.ndarray  # (future_len, 2)
    past_recon: np.ndarray  # (past_len, 2)


def init_fulfill_nets(
    seed: int, past_len: int, future_len: int, feat_dim: int = 128
) -> FulfillNets:
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=5)]
    in_dim = 2 * past_len
    return FulfillNets(
        ego_embed=mlp_init(seeds[0], [in_dim, 64, EMBED_DIM]),
        neighbor_embed=mlp_init(seeds[1], [in_dim, 64, EMBED_DIM]),
        social_fuse=mlp_init(seeds[2], [2 * EMBED_DIM, 128, feat_dim]),
        dest_embed=mlp_init(seeds[3], [2, 64, DEST_EMBED_DIM]),
        full_dec=mlp_init(seeds[4], [feat_dim + DEST_EMBED_DIM, 256, 2 * (past_len + future_len)]),
        past_len=past_len,
        future_len=future_len,
    )


def fulfill_many(
    nets: FulfillNets, scene: Scene, destinations, snap_destination: bool = False
) -> list[FullPrediction]:
    """Fulfill one normalized scene against several destinations at once.

    The scene is encoded once; each destination row yields one prediction.
    """
    dests = np.asarray(destinations, dtype=np.float64)
    if dests.ndim != 2 or dests.shape[1] != 2:
        raise ValueError(f"destinations must have shape (k, 2), got {dests.shape}")
    feat, _ = social_forward_batch(nets, prepare_social_batch([scene]))
    dest_emb = mlp_forward(nets.dest_embed, dests)
    dec_in = np.hstack([np.broadcast_to(feat[0], (dests.shape[0], feat.shape[1])), dest_emb])
    out = mlp_forward(nets.full_dec, dec_in)
    n_past = 2 * nets.past_len
    preds = []
    for i in range(dests.shape[0]):
        future = out[i, n_past:].reshape(nets.future_len, 2).copy()
        if snap_destination:
            future[-1] = dests[i]
        preds.append(
            FullPrediction(future=future, past_recon=out[i, :n_past].reshape(nets.past_len, 2).copy())
        )
    return preds


def fulfill(nets: FulfillNets, scene: Scene, destination, snap_destination: bool = False) -> FullPrediction:
    """Fulfill one normalized scene conditioned on one destination."""
    dest = np.asarray(destination, dtype=np.float64)
    if dest.shape != (2,):
        raise ValueError(f"destination must have shape (2,), got {dest.shape}")
    return fulfill_many(nets, scene, dest[None, :], snap_destination=snap_destination)[0]


def traj_loss(pred: FullPrediction, scene: Scene, future_weight: float = 1.0) -> float:
    """Summed squared error of past reconstruction plus weighted future error."""
    if future_weight < 0:
        raise ValueError(f"future_weight must be >= 0, got {future_weight}")
    if scene.ego_future is None:
        raise ValueError(f"scene {scene.scene_id!r} has no future to score against")
    if pred.past_recon.shape != scene.ego_past.shape:
        raise ValueError(f"past shapes differ: {pred.past_recon.shape} vs {scene.ego_past.shape}")
    if pred.future.shape != scene.ego_future.shape:
        raise ValueError(f"future shapes differ: {pred.future.shape} vs {scene.ego_future.shape}")
    past_err = float(np.sum((pred.past_recon - scene.ego_past) ** 2))
    future_err = float(np.sum((pred.future - scene.ego_future) ** 2))
    return past_err + future_weight * future_err


def train_fulfillment(nets: FulfillNets, dataset: Sequence[Scene], config) -> FulfillNets:
    """Train fulfillment with teacher forcing on the true destination.

    Scenes are normalized internally; the conditioning destination during
    training is each scene's own last future point. The input nets are not
    mutated; with 0 epochs the returned copy equals the input.
    """
    if not dataset:
        raise ValueError("empty dataset")
    nets = nets.copy()
    normalized = []
    for scene in dataset:
        if scene.ego_future is None:
            raise ValueError(f"scene {scene.scene_id!r} has no future; fulfillment training needs futures")
        normalized.append(normalize_scene(scene)[0])
    past_x = np.stack([s.ego_past.reshape(-1) for s in normalized])
    future_x = np.stack([s.ego_future.reshape(-1) for s in normalized])
    dests = np.stack([s.ego_future[-1] for s in normalized])
    n_past = 2 * config.past_len
    weight = config.future_weight
    feat_dim = nets.social_fuse.out_dim

    def step(idx):
        feat, social_cache = social_forward_batch(nets, prepare_social_batch([normalized[i] for i in idx]))
        dest_emb, dest_cache = mlp_forward_cached(nets.dest_embed, dests[idx])
        out, dec_cache = mlp_forward_cached(nets.full_dec, np.hstack([feat, dest_emb]))
        res_past = out[:, :n_past] - past_x[idx]
        res_future = out[:, n_past:] - future_x[idx]
        loss = float(np.sum(res_past**2) + weight * np.sum(res_future**2))
        scale = 2.0 / len(idx)
        upstream = np.hstack([scale * res_past, (weight * scale) * res_future])
        dec_grads = mlp_backward_from_cache(nets.full_dec, dec_cache, upstream)
        d_feat = dec_grads.d_input[:, :feat_dim]
        d_dest_emb = dec_grads.d_input[:, feat_dim:]
        ego_g, nb_g, fuse_g = social_backward_batch(nets, social_cache, d_feat)
        dest_g = mlp_backward_from_cache(nets.dest_embed, dest_cache, d_dest_emb)
        updates = [(nets.full_dec, dec_grads), (nets.social_fuse, fuse_g), (nets.ego_embed, ego_g)]
        if nb_g is not None:
            updates.append((nets.neighbor_embed, nb_g))
        return loss, updates + [(nets.dest_embed, dest_g)]

    rng = np.random.default_rng(config.seed_for("fulfillment-batches"))
    sgd_loop("fulfillment", len(normalized), config.batch_size, config.sgd_phases("fulfillment"), rng, step)
    return nets
