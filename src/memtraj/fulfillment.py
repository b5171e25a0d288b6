"""Destination-conditioned trajectory fulfillment.

Given a normalized scene and one destination proposal, an
:class:`~memtraj.features.EncoderDecoder` (the feature stage's network
shape, trained independently by the same trainer) embeds the observation
and the destination, and its decoder maps the concatenation to a full
trajectory: a reconstruction of the past followed by the future steps.
Training conditions on the ground-truth destination (teacher forcing); at
prediction time the destinations come from the intention stage. The decoded
future is used as-is, with an optional flag to snap its final point onto the
conditioning destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import Scene
from .features import (
    EncoderDecoder,
    decode_batch,
    fit_encoder_decoder,
    normalize_with_futures,
    prepare_social_batch,
    social_forward_batch,
)
from .numkit import mlp_forward

DEST_EMBED_DIM = 64  # width of the destination embedding (the nets' intent_dim)


@dataclass
class FullPrediction:
    """One fulfilled trajectory."""

    future: np.ndarray  # (future_len, 2)
    past_recon: np.ndarray  # (past_len, 2)


def fulfill_many(
    nets: EncoderDecoder, scene: Scene, destinations, snap_destination: bool = False
) -> list[FullPrediction]:
    """Fulfill one normalized scene against several destinations at once.

    The scene is encoded once; each destination row yields one prediction.
    """
    dests = np.asarray(destinations, dtype=np.float64)
    if dests.ndim != 2 or dests.shape[1] != 2:
        raise ValueError(f"destinations must have shape (k, 2), got {dests.shape}")
    feat, _ = social_forward_batch(nets, prepare_social_batch([scene]))
    dest_emb = mlp_forward(nets.point_embed, dests)
    past_recon, futures = decode_batch(nets, np.broadcast_to(feat[0], (dests.shape[0], feat.shape[1])), dest_emb)
    preds = []
    for i in range(dests.shape[0]):
        future = futures[i].reshape(-1, 2).copy()
        if snap_destination:
            future[-1] = dests[i]
        preds.append(FullPrediction(future=future, past_recon=past_recon[i].reshape(-1, 2).copy()))
    return preds


def fulfill(nets: EncoderDecoder, scene: Scene, destination, snap_destination: bool = False) -> FullPrediction:
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


def train_fulfillment(nets: EncoderDecoder, dataset: Sequence[Scene], config) -> EncoderDecoder:
    """Train fulfillment with teacher forcing on the true destination.

    Scenes are normalized internally; the conditioning destination during
    training is each scene's own last future point, and the decoder
    reconstructs the past and the future, weighted by ``config.future_weight``.
    The input nets are not mutated; with 0 epochs the returned copy equals
    the input.
    """
    normalized = normalize_with_futures(dataset, "train_fulfillment")
    nets = nets.copy()
    futures = np.stack([s.ego_future.reshape(-1) for s in normalized])
    fit_encoder_decoder(nets, normalized, futures, config.future_weight, "fulfillment", config)
    return nets
