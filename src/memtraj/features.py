"""Joint feature learning: compatible past and intention representations.

Two encoders are trained against a shared decoder. The social encoder embeds
the ego past and a max-pooled set of neighbor pasts into a past feature; the
intention encoder embeds the observed destination (the last future point)
into an intention feature. The joint decoder must reconstruct the flattened
past and the destination from the concatenated pair, which forces the two
feature spaces to line up. After this stage the encoders are frozen and feed
the memory bank, the addresser, and anchor decoding.

The fulfillment stage reuses this network shape (:class:`EncoderDecoder`)
and its trainer (:func:`fit_encoder_decoder`), decoding a future where this
stage decodes a destination. Frozen nets decode through
:func:`decode_targets`, which computes only the destination or future
columns: a prediction never reads the reconstructed past.

Stages pass in a world-frame :class:`~memtraj.datasets.SceneSet`; the nets
read :func:`~memtraj.datasets.scene_batch` translations of it, so positions
here are in the ego frame. Training translates each mini-batch it takes from
the set. :func:`social_encode` is the one frozen encode: it keeps no
activations and gives each scene the features that scene encoded alone
gets, whatever else the set holds. Every encode max-pools neighbors the same
way, the scenes of one neighbor count as one block. A batch without neighbor
rows runs the neighbor embedder on zero rows, pools to zeros, and gets
all-zero neighbor gradients, which leave that net unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .datasets import SceneBatch, SceneSet, scene_batch
from .numkit import (
    RELU,
    GradBundle,
    Mlp,
    ForwardCache,
    mlp_backward_from_cache,
    mlp_forward,
    mlp_forward_cached,
    mlp_init,
    sgd_loop,
)

EMBED_DIM = 64  # ego/neighbor embedding width; the fuse input is twice this
ENCODE_CHUNK = 1024  # scenes social_encode translates at once, which bounds its memory


@dataclass
class EncoderDecoder:
    """The network shape of both trained stages.

    A social encoder (ego_embed and neighbor_embed: 2*past_len -> EMBED_DIM,
    neighbors max-pooled, social_fuse: 2*EMBED_DIM -> past_dim) and a point
    embedder (point_embed: 2 -> intent_dim) feed one decoder (decoder:
    past_dim + intent_dim -> 2*past_len + 2*target_len) whose outputs are the
    flattened past followed by the flattened target. The feature stage
    embeds a destination into its intention feature and decodes that
    destination (target_len 1); the fulfillment stage embeds the
    conditioning destination and decodes the future.
    """

    ego_embed: Mlp
    neighbor_embed: Mlp
    social_fuse: Mlp
    point_embed: Mlp
    decoder: Mlp

    @property
    def past_len(self) -> int:
        return self.ego_embed.in_dim // 2

    @property
    def past_dim(self) -> int:
        return self.social_fuse.out_dim

    @property
    def intent_dim(self) -> int:
        return self.point_embed.out_dim

    @property
    def target_len(self) -> int:
        return self.decoder.out_dim // 2 - self.past_len

    def copy(self) -> "EncoderDecoder":
        return EncoderDecoder(**{f.name: getattr(self, f.name).copy() for f in fields(self)})


def init_encoder_decoder(
    seed: int, past_len: int, target_len: int, past_dim: int = 128, intent_dim: int = 64
) -> EncoderDecoder:
    """Glorot-initialized nets; one child seed per net, drawn in field order."""
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**63 - 1, size=5)]
    in_dim = 2 * past_len
    return EncoderDecoder(
        ego_embed=mlp_init(seeds[0], [in_dim, 64, EMBED_DIM]),
        neighbor_embed=mlp_init(seeds[1], [in_dim, 64, EMBED_DIM]),
        social_fuse=mlp_init(seeds[2], [2 * EMBED_DIM, 128, past_dim]),
        point_embed=mlp_init(seeds[3], [2, 64, intent_dim]),
        decoder=mlp_init(seeds[4], [past_dim + intent_dim, 256, 2 * (past_len + target_len)]),
    )


# ---------------------------------------------------------------------------
# Social encoding (shared by the feature and fulfillment stages)
# ---------------------------------------------------------------------------


@dataclass
class SocialCache:
    ego_cache: ForwardCache
    nb_cache: ForwardCache  # zero rows when the batch has no neighbors
    fuse_cache: ForwardCache
    pool_rows: np.ndarray  # (B, E) winning nb row per pooled dim, -1 if none


def _neighbor_groups(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The scenes of each neighbor count ``c >= 1``: their indices (ascending) and their ``(g, c)`` neighbor rows."""
    counts = offsets[1:] - offsets[:-1]
    groups = []
    for c in sorted(set(counts.tolist()) - {0}):
        scenes = np.flatnonzero(counts == c)
        groups.append((scenes, offsets[scenes][:, None] + np.arange(c)))
    return groups


def _max_pool(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per scene of a ``(g, c, E)`` block and per dim, the first of its ``c`` rows holding the maximum, and that row's value: two ``(g, E)`` arrays."""
    winners = block.argmax(axis=1)
    return winners, block[np.arange(len(block))[:, None], winners, np.arange(block.shape[2])]


def social_forward_batch(nets, batch: SceneBatch) -> tuple[np.ndarray, SocialCache]:
    """Past features of a batch of scenes (no neighbors pool to zeros), from any net holder with the social trio.

    Each scene's neighbor embeddings are max-pooled per dim, the first row
    holding the maximum winning; the scenes of one neighbor count pool as
    one block.
    """
    ego_out, ego_cache = mlp_forward_cached(nets.ego_embed, batch.ego_x)
    nb_out, nb_cache = mlp_forward_cached(nets.neighbor_embed, batch.nb_x)
    n_scenes, embed = ego_out.shape
    concat = np.zeros((n_scenes, 2 * embed))
    concat[:, :embed] = ego_out
    pool_rows = np.full((n_scenes, embed), -1, dtype=np.int64)
    for scenes, rows in _neighbor_groups(batch.offsets):
        winners, concat[scenes, embed:] = _max_pool(nb_out[rows])
        pool_rows[scenes] = rows[:, :1] + winners
    out, fuse_cache = mlp_forward_cached(nets.social_fuse, concat)
    return out, SocialCache(ego_cache=ego_cache, nb_cache=nb_cache, fuse_cache=fuse_cache, pool_rows=pool_rows)


def social_encode(nets, scenes: SceneSet | SceneBatch) -> np.ndarray:
    """Past features from frozen nets, each row as its scene encoded alone gives it.

    Each scene's products are one slice of a stack per layer: its ego and
    fuse rows of ``(S, 1, .)`` stacks, its neighbors of one ``(g, c, .)``
    stack per neighbor count ``c``. numpy's ``matmul`` runs a stack as one
    BLAS call per slice, so row ``i`` depends on scene ``i`` alone, bit for
    bit. Keeps no activations. A :class:`~memtraj.datasets.SceneSet` is
    translated ``ENCODE_CHUNK`` scenes at a time, so no batch of a whole set
    is built; a :class:`~memtraj.datasets.SceneBatch` is already translated,
    so a block that two net sets encode is translated once.
    """
    if isinstance(scenes, SceneBatch):
        return _encode_batch(nets, scenes)
    out = np.empty((len(scenes), nets.social_fuse.out_dim))
    for lo in range(0, len(scenes), ENCODE_CHUNK):
        chunk = scenes if len(scenes) <= ENCODE_CHUNK else scenes[lo : lo + ENCODE_CHUNK]
        out[lo : lo + len(chunk)] = _encode_batch(nets, scene_batch(chunk))
    return out


def _encode_batch(nets, batch: SceneBatch) -> np.ndarray:
    """:func:`social_encode` of one translated batch."""
    embed = nets.ego_embed.out_dim
    concat = np.zeros((len(batch), 2 * embed))
    concat[:, :embed] = mlp_forward(nets.ego_embed, batch.ego_x[:, None])[:, 0]
    for group, rows in _neighbor_groups(batch.offsets):
        concat[group, embed:] = _max_pool(mlp_forward(nets.neighbor_embed, batch.nb_x[rows]))[1]
    return mlp_forward(nets.social_fuse, concat[:, None])[:, 0]


def social_backward_batch(nets, cache: SocialCache, upstream: np.ndarray) -> tuple[GradBundle, GradBundle, GradBundle]:
    """Back-propagate through fuse, pool, and both embedders.

    Returns gradient bundles for (ego_embed, neighbor_embed, social_fuse);
    the neighbor gradients are all zeros when the batch had no neighbors.
    """
    fuse_grads = mlp_backward_from_cache(nets.social_fuse, cache.fuse_cache, upstream)
    embed = nets.ego_embed.out_dim
    d_concat = fuse_grads.d_input
    ego_grads = mlp_backward_from_cache(nets.ego_embed, cache.ego_cache, d_concat[:, :embed])
    d_pooled = d_concat[:, embed:]
    g_nb = np.zeros_like(cache.nb_cache.activations[-1])
    valid = cache.pool_rows >= 0
    cols = np.broadcast_to(np.arange(embed), cache.pool_rows.shape)
    # Each (row, col) target is hit by at most one scene, so plain
    # fancy assignment is enough (max-pool routes one winner per dim).
    g_nb[cache.pool_rows[valid], cols[valid]] = d_pooled[valid]
    nb_grads = mlp_backward_from_cache(nets.neighbor_embed, cache.nb_cache, g_nb)
    return ego_grads, nb_grads, fuse_grads


# ---------------------------------------------------------------------------
# Joint decoding
# ---------------------------------------------------------------------------


def decode_targets(nets: EncoderDecoder, past_feats: np.ndarray, point_feats: np.ndarray) -> np.ndarray:
    """The decoder's flat target columns, and only those, for the rows of ``(S, n, .)`` stacks.

    ``point_feats`` is ``(S, n, intent_dim)``; ``past_feats`` is ``(S, 1,
    past_dim)``, one row that scene ``s``'s ``n`` rows share, or ``(S, n,
    past_dim)``. The first layer multiplies the past half and the point half
    of its weights apart, adds the two products, then the bias, then the
    activation, so a shared past row is multiplied once. The last layer
    multiplies only the target rows of its weights, so the past columns are
    never computed. Every product is one slice per scene, so slice ``s``
    equals scene ``s`` decoded alone, bit for bit; against the whole
    decoder's target columns only the first layer's summation order differs.
    """
    dec = nets.decoder
    split = nets.past_dim
    targets = slice(2 * nets.past_len, None)
    last = dec.n_layers - 1
    for l, (w, b) in enumerate(zip(dec.weights, dec.biases)):
        if l == last:
            w, b = w[targets], b[targets]
        if l == 0:
            a = point_feats @ w[:, split:].T
            a += past_feats @ w[:, :split].T  # in place, so a shared past row is broadcast, never tiled
        else:
            a = a @ w.T
        a += b
        if l < last:
            if dec.hidden_activation == RELU:
                np.maximum(a, 0.0, out=a)
            else:
                np.tanh(a, out=a)
    return a


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def fit_encoder_decoder(nets: EncoderDecoder, scenes: SceneSet, stage: str, config) -> None:
    """Train all five nets in place on a set of scenes with futures.

    Each scene's social past and embedded destination (its last future
    point) are decoded into [past; target], the target being the last
    ``nets.target_len`` future points. One step: mean over a mini-batch of the summed
    squared past and target errors, weighted equally, plain SGD on all five
    nets. Batches are drawn from the ``<stage>-batches`` seed over
    ``config.sgd_schedule(stage)``; each is translated on its own. An empty
    set or one without futures raises first.
    """
    needed_by = f"{stage} training"
    scenes.check(needed_by)
    n_past = 2 * nets.past_len
    past_dim = nets.past_dim

    def step(idx):
        sub = scene_batch(scenes.take(idx), needed_by)
        k, social_cache = social_forward_batch(nets, sub)
        v, point_cache = mlp_forward_cached(nets.point_embed, sub.futures[:, -1])
        out, dec_cache = mlp_forward_cached(nets.decoder, np.hstack([k, v]))
        res_past = out[:, :n_past] - sub.ego_x
        res_target = out[:, n_past:] - sub.futures[:, -nets.target_len :].reshape(len(idx), -1)
        loss = float(np.sum(res_past**2) + np.sum(res_target**2))
        scale = 2.0 / len(idx)
        upstream = scale * np.hstack([res_past, res_target])
        dec_grads = mlp_backward_from_cache(nets.decoder, dec_cache, upstream)
        ego_g, nb_g, fuse_g = social_backward_batch(nets, social_cache, dec_grads.d_input[:, :past_dim])
        point_g = mlp_backward_from_cache(nets.point_embed, point_cache, dec_grads.d_input[:, past_dim:])
        social = [(nets.social_fuse, fuse_g), (nets.ego_embed, ego_g), (nets.neighbor_embed, nb_g)]
        return loss, [(nets.decoder, dec_grads), *social, (nets.point_embed, point_g)]

    rng = np.random.default_rng(config.seed_for(f"{stage}-batches"))
    epochs, learning_rate = config.sgd_schedule(stage)
    sgd_loop(stage, len(scenes), config.batch_size, epochs, learning_rate, rng, step)


def train_features(dataset: SceneSet, config) -> EncoderDecoder:
    """Train the encoders and joint decoder on a world-frame set of scenes.

    The decoder reconstructs each scene's past and its destination. With
    ``config.epochs_features == 0`` the returned nets are exactly the seeded
    initialization.
    """
    nets = init_encoder_decoder(
        config.seed_for("features"),
        past_len=config.past_len,
        target_len=1,
        past_dim=config.past_dim,
        intent_dim=config.intent_dim,
    )
    fit_encoder_decoder(nets, dataset, "features", config)
    return nets
