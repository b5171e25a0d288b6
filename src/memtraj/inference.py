"""Frozen-model inference: one scene in, K trajectories out.

Bundles the four trained artifacts and runs the prediction chain: wrap the
scene as a one-scene set, encode the past in its ego frame, score and
retrieve from the bank, decode anchors, cluster into destinations, fulfill
each destination, and add the scene origin back. Everything here is read-only on the bundle.
:func:`predict_scenes` is the one loop over a split that evaluation and
prediction files share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .addresser import AddresserNets, key_table, score_all, top_l
from .datasets import Scene, SceneSet
from .errors import ConfigError
from .features import EncoderDecoder, social_encode
from .fulfillment import fulfill_many
from .intention import DECODE_QUERY, IntentionSet, decode_anchors, kmeans
from .membank import MemoryBankPair


@dataclass
class ModelBundle:
    """Everything needed to predict, with the bank's unit-length key table built once."""

    feature_nets: EncoderDecoder
    bank: MemoryBankPair
    addresser_nets: AddresserNets
    fulfill_nets: EncoderDecoder
    keys: np.ndarray = field(init=False)

    def __post_init__(self):
        self.keys = key_table(self.addresser_nets, self.bank)


@dataclass
class ScenePrediction:
    """World-frame outputs for one scene."""

    scene_id: str
    destinations: np.ndarray  # (k, 2)
    trajectories: np.ndarray  # (k, future_len, 2)
    addresses: np.ndarray  # retrieved bank addresses, best first
    scores: np.ndarray  # their addresser scores
    sample_ids: np.ndarray  # their originating training-scene ordinals
    intention_set: IntentionSet


def scene_seed(master_seed: int, scene_index: int) -> int:
    """Stable per-scene seed for the clustering step."""
    ss = np.random.SeedSequence([master_seed, 0x6B6D, scene_index])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def retrieval_counts(bank_size: int, n_retrieve: int, n_predict: int) -> tuple[int, int]:
    """``(L, K)`` for retrieving from a bank: L is ``n_retrieve`` limited to the bank size.

    ConfigError when K exceeds that L, since predict and eval would hand back
    fewer futures than asked for.
    """
    n_retrieve = min(n_retrieve, bank_size)
    if n_predict > n_retrieve:
        raise ConfigError(
            f"n_predict ({n_predict}) exceeds the {n_retrieve} entries a bank of {bank_size} can retrieve",
            key="n_predict",
        )
    return n_retrieve, n_predict


def propose_destinations(
    feature_nets: EncoderDecoder,
    addresser_nets: AddresserNets,
    bank: MemoryBankPair,
    keys: np.ndarray,
    query: np.ndarray,
    n_retrieve: int,
    n_predict: int,
    seed: int,
    decode_mode: str = DECODE_QUERY,
) -> tuple[np.ndarray, np.ndarray, IntentionSet]:
    """Retrieve, decode anchors, and cluster for one scene's query past feature.

    Returns the retrieved bank addresses (best first), their scores, and the
    ego-frame destinations clustered from their anchors. ``keys`` is the
    bank's :func:`key_table` under ``addresser_nets``. This is the
    destination half of the prediction chain; it needs no fulfillment nets,
    so it also serves training-time model selection. ``top_l`` and ``kmeans``
    raise ValueError unless ``1 <= n_predict <= n_retrieve <= len(bank)``.
    """
    scores = score_all(addresser_nets, query, keys)
    addresses = top_l(scores, n_retrieve)
    anchors = decode_anchors(query, addresses, bank, feature_nets, decode_mode=decode_mode)
    return addresses, scores[addresses], kmeans(anchors, n_predict, seed)


def destination_error(
    feature_nets: EncoderDecoder,
    addresser_nets: AddresserNets,
    bank: MemoryBankPair,
    queries: np.ndarray,
    dests: np.ndarray,
    n_retrieve: int,
    n_predict: int,
    master_seed: int,
) -> float:
    """Mean distance from each scene's true destination to its nearest proposal.

    Scene ``i`` has the query past feature ``queries[i]`` and the ego-frame
    destination ``dests[i]``, and is clustered with ``scene_seed(master_seed,
    i)``. This is the retrieval-plus-clustering half of the final
    displacement metric, so it ranks addressers without requiring
    fulfillment nets.
    """
    keys = key_table(addresser_nets, bank)
    errors = []
    for i, (query, dest) in enumerate(zip(queries, dests)):
        _, _, iset = propose_destinations(
            feature_nets, addresser_nets, bank, keys, query, n_retrieve, n_predict, scene_seed(master_seed, i)
        )
        gaps = np.linalg.norm(iset.destinations - dest, axis=1)
        errors.append(float(gaps.min()))
    return float(np.mean(errors))


def predict_scene(
    bundle: ModelBundle,
    scene: Scene,
    n_retrieve: int,
    n_predict: int,
    seed: int,
    decode_mode: str = DECODE_QUERY,
    snap_destination: bool = False,
) -> ScenePrediction:
    """Run the full prediction chain for one raw (world-frame) scene."""
    past = np.asarray(scene.ego_past, dtype=np.float64)
    neighbors = np.reshape(scene.neighbor_pasts, (-1, *past.shape))
    scenes = SceneSet(past[None], None, neighbors, np.array([0, len(neighbors)]), [scene.scene_id])
    addresses, scores, iset = propose_destinations(
        bundle.feature_nets,
        bundle.addresser_nets,
        bundle.bank,
        bundle.keys,
        social_encode(bundle.feature_nets, scenes)[0],
        n_retrieve,
        n_predict,
        seed,
        decode_mode=decode_mode,
    )
    futures = fulfill_many(bundle.fulfill_nets, scenes, iset.destinations, snap_destination=snap_destination)
    origin = past[-1]
    return ScenePrediction(
        scene_id=scene.scene_id,
        destinations=iset.destinations + origin,
        trajectories=futures + origin,
        addresses=addresses,
        scores=scores,
        sample_ids=bundle.bank.sample_ids[addresses],
        intention_set=iset,
    )


def predict_scenes(
    bundle: ModelBundle,
    scenes: SceneSet,
    n_retrieve: int,
    n_predict: int,
    seed: int,
    decode_mode: str = DECODE_QUERY,
    snap_destination: bool = False,
) -> Iterator[ScenePrediction]:
    """Predict scene ``i`` with ``scene_seed(seed, i)``, yielding in scene order.

    L and K are checked against the bank by :func:`retrieval_counts` before
    the first scene, so a bad K fails before any output is written.
    """
    n_retrieve, n_predict = retrieval_counts(len(bundle.bank), n_retrieve, n_predict)
    return (
        predict_scene(bundle, scene, n_retrieve, n_predict, scene_seed(seed, i), decode_mode, snap_destination)
        for i, scene in enumerate(scenes)
    )
