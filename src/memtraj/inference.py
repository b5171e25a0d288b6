"""Frozen-model inference: scenes in, K trajectories per scene out.

Bundles the four trained artifacts and runs the prediction chain over a
block of scenes, each step once per block: encode each scene in its ego
frame (one translation of the block serves the feature and the fulfillment
encode), score it against the bank and retrieve, decode its anchors, cluster
them, and fulfill each destination. Each step computes stacks whose slices
are the per-scene products, and the clustering runs as one
:func:`~memtraj.intention.kmeans_batch` call, so a scene's outputs do not
depend on its block, bit for bit. Everything here is read-only on the
bundle. :func:`predict_scenes` is the one loop over a split that evaluation
and prediction files share; :func:`predict_scene` is a one-scene block.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .addresser import AddresserNets, key_table, score_all, top_l
from .datasets import Scene, SceneSet, scene_batch
from .errors import ConfigError, NumericError
from .features import EncoderDecoder, social_encode
from .fulfillment import fulfill_many
from .intention import DECODE_QUERY, decode_anchors, kmeans_batch
from .membank import MemoryBankPair

logger = logging.getLogger(__name__)

# Scenes per block of predict_scenes and destination_error. A block's k-means
# distance tables take 8 * PREDICT_BLOCK * L * K bytes each: 300 KB at L=60, K=20.
PREDICT_BLOCK = 32


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
    """World-frame outputs for one scene; the per-entry arrays list the retrieved entries in rank order."""

    scene_id: str
    destinations: np.ndarray  # (k, 2)
    trajectories: np.ndarray  # (k, future_len, 2)
    addresses: np.ndarray  # retrieved bank addresses, best first
    scores: np.ndarray  # their addresser scores
    sample_ids: np.ndarray  # their originating training-scene ordinals
    anchor_assignment: np.ndarray  # the destination index each of their anchors joined


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


def _check_finite(what: str, values: np.ndarray, name: Callable[[int], str]) -> None:
    """NumericError naming the first scene whose row of ``values`` holds a non-finite number."""
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
        raise NumericError(f"non-finite {what} for {name(first)}")


def propose_block(
    feature_nets: EncoderDecoder,
    addresser_nets: AddresserNets,
    bank: MemoryBankPair,
    keys: np.ndarray,
    queries: np.ndarray,
    n_retrieve: int,
    n_predict: int,
    seeds: Sequence[int],
    decode_mode: str = DECODE_QUERY,
    name: Callable[[int], str] = "scene {}".format,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Retrieve, decode anchors, and cluster for a block of query past features.

    Query ``i`` is scored, retrieved and decoded as it would be alone, and
    clustered with ``seeds[i]``. Returns per query (one row each) the
    ``(S, L)`` retrieved bank addresses (best first) and their scores, the
    ``(S, K, 2)`` ego-frame destinations clustered from their anchors, and
    the ``(S, L)`` destination index of each anchor, in address order.
    ``keys`` is the bank's :func:`key_table` under ``addresser_nets``. This is the
    destination half of the prediction chain; it needs no fulfillment nets,
    so it also serves training-time model selection. A query that scores 0
    against every entry, as a degenerate query projection does, is counted,
    and the block logs one warning with the count. NumericError, naming the
    scene by ``name(i)``, when an anchor is not finite; ValueError unless
    ``1 <= n_predict <= n_retrieve <= len(bank)``.
    """
    scored = score_all(addresser_nets, queries, keys)
    degenerate = len(scored) - np.count_nonzero(scored.any(axis=1))
    if degenerate:
        logger.warning("%d of %d queries had a degenerate projection; they scored 0", degenerate, len(queries))
    addresses = np.empty((len(scored), n_retrieve), dtype=np.int64)
    for i, row in enumerate(scored):
        addresses[i] = top_l(row, n_retrieve)
    anchors = decode_anchors(queries, addresses, bank, feature_nets, decode_mode=decode_mode)
    _check_finite("intention anchors", anchors, name)
    return addresses, scored[np.arange(len(scored))[:, None], addresses], *kmeans_batch(anchors, n_predict, seeds)


def destination_error(
    feature_nets: EncoderDecoder,
    addresser_nets: AddresserNets,
    bank: MemoryBankPair,
    queries: np.ndarray,
    dests: np.ndarray,
    n_retrieve: int,
    n_predict: int,
    master_seed: int,
    scene_ids: Sequence[str] | None = None,
) -> float:
    """Mean distance from each scene's true destination to its nearest proposal.

    Scene ``i`` has the query past feature ``queries[i]`` and the ego-frame
    destination ``dests[i]``, and is clustered with ``scene_seed(master_seed,
    i)``, in blocks of ``PREDICT_BLOCK`` scenes. This is the
    retrieval-plus-clustering half of the final displacement metric, so it
    ranks addressers without requiring fulfillment nets. A NumericError for
    non-finite anchors names the scene by index and, given ``scene_ids``, id.
    """
    keys = key_table(addresser_nets, bank)
    errors = np.empty(len(queries))
    for lo in range(0, len(queries), PREDICT_BLOCK):
        hi = min(lo + PREDICT_BLOCK, len(queries))
        seeds = [scene_seed(master_seed, i) for i in range(lo, hi)]

        def name(i: int) -> str:
            return f"scene {lo + i}" if scene_ids is None else f"scene {lo + i} ({scene_ids[lo + i]!r})"

        _, _, proposals, _ = propose_block(
            feature_nets, addresser_nets, bank, keys, queries[lo:hi], n_retrieve, n_predict, seeds, name=name
        )
        errors[lo:hi] = np.linalg.norm(proposals - dests[lo:hi, None], axis=2).min(axis=1)
    return float(np.mean(errors))


def _predict_block(
    bundle: ModelBundle,
    block: SceneSet,
    first: int,
    seeds: Sequence[int],
    n_retrieve: int,
    n_predict: int,
    decode_mode: str,
    snap_destination: bool,
) -> list[ScenePrediction]:
    """The full prediction chain for a raw (world-frame) set of scenes.

    Scene ``i`` of ``block`` is scene ``first + i`` of its split and is
    clustered with ``seeds[i]``. NumericError naming the first scene, by that
    index and its id, whose anchors, trajectories or destinations are not all
    finite.
    """

    def name(i: int) -> str:
        return f"scene {first + i} ({block.scene_ids[i]!r})"

    batch = scene_batch(block)
    queries = social_encode(bundle.feature_nets, batch)
    addresses, scores, dests, assignment = propose_block(
        bundle.feature_nets,
        bundle.addresser_nets,
        bundle.bank,
        bundle.keys,
        queries,
        n_retrieve,
        n_predict,
        seeds,
        decode_mode,
        name,
    )
    origins = np.asarray(block.ego_pasts[:, -1], dtype=np.float64)
    trajectories = fulfill_many(bundle.fulfill_nets, batch, dests, snap_destination) + origins[:, None, None]
    destinations = dests + origins[:, None]
    _check_finite("trajectories", trajectories, name)
    _check_finite("destinations", destinations, name)
    return [
        ScenePrediction(
            scene_id=block.scene_ids[i],
            destinations=destinations[i],
            trajectories=trajectories[i],
            addresses=addresses[i],
            scores=scores[i],
            sample_ids=bundle.bank.sample_ids[addresses[i]],
            anchor_assignment=assignment[i],
        )
        for i in range(len(block))
    ]


def predict_scene(
    bundle: ModelBundle,
    scene: Scene,
    n_retrieve: int,
    n_predict: int,
    seed: int,
    decode_mode: str = DECODE_QUERY,
    snap_destination: bool = False,
) -> ScenePrediction:
    """Run the full prediction chain for one raw (world-frame) scene, as a block of one."""
    past = np.asarray(scene.ego_past, dtype=np.float64)
    neighbors = np.reshape(scene.neighbor_pasts, (-1, *past.shape))
    block = SceneSet(past[None], None, neighbors, np.array([0, len(neighbors)]), [scene.scene_id])
    return _predict_block(bundle, block, 0, [seed], n_retrieve, n_predict, decode_mode, snap_destination)[0]


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

    Scenes run in blocks of ``PREDICT_BLOCK``, and each scene's prediction
    equals :func:`predict_scene`'s, bit for bit, whatever its block. L and K
    are checked against the bank by :func:`retrieval_counts` before the
    first scene, so a bad K fails before any output is written.
    """
    n_retrieve, n_predict = retrieval_counts(len(bundle.bank), n_retrieve, n_predict)

    def blocks():
        for lo in range(0, len(scenes), PREDICT_BLOCK):
            hi = min(lo + PREDICT_BLOCK, len(scenes))
            seeds = [scene_seed(seed, i) for i in range(lo, hi)]
            yield from _predict_block(bundle, scenes[lo:hi], lo, seeds, n_retrieve, n_predict, decode_mode, snap_destination)

    return blocks()
