"""Destination-conditioned trajectory fulfillment.

Given a scene, encoded alone in its ego frame, and a destination
proposal, an :class:`~memtraj.features.EncoderDecoder` (the
feature stage's network shape, trained independently by the same trainer)
embeds the observation and the destination, and its decoder maps the
concatenation to a full trajectory: a reconstruction of the past followed
by the future steps. Prediction computes only the future steps.
Training conditions on the ground-truth destination (teacher forcing); at
prediction time the destinations come from the intention stage. The decoded
future is used as-is, with an optional flag to snap its final point onto the
conditioning destination.
"""

from __future__ import annotations

import numpy as np

from .datasets import SceneBatch, SceneSet
from .features import EncoderDecoder, decode_targets, fit_encoder_decoder, init_encoder_decoder, social_encode
from .numkit import mlp_forward

DEST_EMBED_DIM = 64  # width of the destination embedding (the nets' intent_dim)


def fulfill_many(
    nets: EncoderDecoder, scenes: SceneSet | SceneBatch, destinations, snap_destination: bool = False
) -> np.ndarray:
    """Fulfill each scene of a set or batch against its own K ego-frame destinations at once.

    ``destinations`` is (S, K, 2) for S scenes; row ``k`` of scene ``s``
    yields the returned ``[s, k]`` of (S, K, future_len, 2) futures. Each
    scene is encoded by :func:`~memtraj.features.social_encode`. The
    decoder's first layer takes that scene feature once, as slice ``s`` of
    an ``(S, 1, .)`` stack, and the K destination embeddings as slice ``s``
    of an ``(S, K, .)`` stack; its last layer computes only the future
    columns (:func:`~memtraj.features.decode_targets`). So a scene's futures
    equal those of its one-scene set, bit for bit. With ``snap_destination``
    each future ends exactly on its destination.
    """
    dests = np.asarray(destinations, dtype=np.float64)
    if dests.ndim != 3 or dests.shape[0] != len(scenes) or dests.shape[2] != 2:
        raise ValueError(f"destinations must have shape ({len(scenes)}, k, 2), got {dests.shape}")
    feats = social_encode(nets, scenes)
    futures = decode_targets(nets, feats[:, None], mlp_forward(nets.point_embed, dests))
    futures = futures.reshape(*dests.shape[:2], -1, 2)
    if snap_destination:
        futures[:, :, -1] = dests
    return futures


def train_fulfillment(dataset: SceneSet, config) -> EncoderDecoder:
    """Train fulfillment with teacher forcing on the true destination.

    The conditioning destination during training is each scene's own last
    future point, and the decoder reconstructs the past and the future. With
    ``config.epochs_fulfillment == 0`` the returned nets are exactly the
    seeded initialization.
    """
    nets = init_encoder_decoder(
        config.seed_for("fulfillment"),
        past_len=config.past_len,
        target_len=config.future_len,
        past_dim=config.past_dim,
        intent_dim=DEST_EMBED_DIM,
    )
    fit_encoder_decoder(nets, dataset, "fulfillment", config)
    return nets
