"""Trainable memory addressing: learned cosine scores over the past bank.

A query past feature and every stored past feature are projected by two
separate nets; the score is the cosine similarity of the projections. The
projections are trained so scores regress onto pseudo-labels derived from how
close each entry's decoded intention lands to the query's true destination:
``max(0, (threshold - dist) / threshold)``. Retrieval is then simply the
top-scoring entries.

A pair of identity projections (``fixed_cosine_nets``) gives plain cosine
similarity on the raw features, which is the untrained reference point.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .datasets import SceneSet
from .errors import NumericError
from .features import EncoderDecoder, decode_targets, social_encode
from .membank import MemoryBankPair
from .numkit import Mlp, mlp_backward_from_cache, mlp_forward, mlp_forward_cached, sgd_loop

logger = logging.getLogger(__name__)

DEGENERATE_NORM = 1e-12
CANDIDATE_CAP = 2048  # loss sums over the whole bank up to this size, then samples
# Key-table rows that score_all scores against every query of a block before
# moving on, so a slice is read from cache; 1 MB at 64 dims, fitting in L2.
SCORE_SLICE = 2048


@dataclass
class AddresserNets:
    """Query and key projections into the shared scoring space."""

    query_proj: Mlp
    key_proj: Mlp

    def copy(self) -> "AddresserNets":
        return AddresserNets(query_proj=self.query_proj.copy(), key_proj=self.key_proj.copy())


def init_addresser_nets(past_dim: int = 128, addr_dim: int = 128) -> AddresserNets:
    """Two linear projections started at the identity.

    When ``addr_dim >= past_dim`` the starting score is exactly plain cosine
    similarity on the raw features (the ``fixed_cosine_nets`` reference), so
    training begins at the untrained baseline and only the label signal can
    move it away. Cold random starts instead regress toward the small label
    means and rank poorly. With ``addr_dim < past_dim`` the start is cosine
    on the first ``addr_dim`` feature components. The two nets diverge during
    training because queries and keys receive different gradients.
    """
    if past_dim < 1 or addr_dim < 1:
        raise ValueError(f"dims must be >= 1, got past_dim={past_dim}, addr_dim={addr_dim}")
    def _eye_net() -> Mlp:
        w = np.eye(addr_dim, past_dim)
        return Mlp(layer_dims=[past_dim, addr_dim], weights=[w], biases=[np.zeros(addr_dim)])
    return AddresserNets(query_proj=_eye_net(), key_proj=_eye_net())


def fixed_cosine_nets(past_dim: int) -> AddresserNets:
    """Identity projections: scoring degrades to raw cosine similarity."""
    return init_addresser_nets(past_dim, past_dim)


def _normalize_rows(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit rows, their norms and degenerate flags (norm below DEGENERATE_NORM); a degenerate row becomes zeros.

    The norms are ``np.linalg.norm(mat, axis=1)`` to the bit: the square root
    of each row's sum of squares. The unit rows are divided into the buffer
    that held the squares, so ``mat`` itself is left as it was.
    """
    unit = mat * mat
    norms = np.sqrt(np.add.reduce(unit, axis=1))
    degenerate = norms < DEGENERATE_NORM
    np.divide(mat, np.where(degenerate, 1.0, norms)[:, None], out=unit)
    unit[degenerate] = 0.0
    return unit, norms, degenerate


def _diverged(what: str) -> NumericError:
    return NumericError(f"stage 'addresser' gives a non-finite {what}; retrain it with a lower lr_addresser")


def key_table(nets: AddresserNets, bank: MemoryBankPair) -> np.ndarray:
    """The bank's projected keys at unit length; build once per frozen (nets, bank).

    A degenerate key (norm below DEGENERATE_NORM) becomes a zero row, so it
    scores exactly 0.0 against every query; it is warned about here, once.
    NumericError naming ``lr_addresser`` when a key's norm is not finite, as
    the projections of a diverged addresser give.
    """
    keys, norms, degenerate = _normalize_rows(mlp_forward(nets.key_proj, bank.past_feats))
    if not np.isfinite(norms).all():
        raise _diverged(f"key projection norm for bank entry {int(np.argmin(np.isfinite(norms)))}")
    if degenerate.any():
        logger.warning("%d degenerate key projections; they score 0", int(degenerate.sum()))
    return keys


def _slices(n: int, size: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` row ranges of ``size`` rows covering ``range(n)``; a last range of one row joins the one before.

    A range starts at a multiple of ``size`` and the last ends at ``n``, so
    its matrix-vector product gives the rows of one product of all ``n``
    rows, bit for bit; one row alone would be a dot product.
    """
    cuts = [*range(0, n, size), n]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return list(zip(cuts[:-1], cuts[1:]))


def score_all(nets: AddresserNets, queries: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Cosine scores of each row of ``queries`` against every row of a :func:`key_table`: ``(len(queries), len(keys))``.

    Row ``i`` equals, bit for bit, the scores of query ``i`` alone: its
    projection is one slice of an ``(S, 1, .)`` stack, its norm the square
    root of a one-slice dot product (as ``np.linalg.norm`` of one vector
    computes it), and its scores one matrix-vector product per range of
    ``SCORE_SLICE`` keys. Each range is scored against every query while it is
    in cache. A degenerate query projection (norm below DEGENERATE_NORM)
    scores 0 against every entry; its caller counts and reports those.
    NumericError naming ``lr_addresser`` when the projection norm of a
    finite query is not finite.
    """
    queries = np.asarray(queries, dtype=np.float64)
    u = mlp_forward(nets.query_proj, queries[:, None])[:, 0]
    scores = np.empty((len(u), len(keys)))
    live = []
    for i, square in enumerate((u[:, None] @ u[:, :, None]).ravel().tolist()):
        norm = math.sqrt(square)
        if norm < DEGENERATE_NORM:
            scores[i] = 0.0
        elif not math.isfinite(norm) and np.isfinite(queries[i]).all():
            raise _diverged(f"projection norm for query {i}")
        else:
            live.append((i, u[i] / norm))
    for lo, hi in _slices(len(keys), SCORE_SLICE):
        block = keys[lo:hi]
        for i, unit in live:
            np.dot(block, unit, out=scores[i, lo:hi])
    return scores


def pseudo_labels(dists: np.ndarray, threshold: float) -> np.ndarray:
    """Regression targets for entries at ``dists``: 1 at distance 0, 0 from ``threshold`` on."""
    if not threshold > 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    labels = np.subtract(threshold, dists)
    labels /= threshold
    return np.maximum(0.0, labels, out=labels)


def top_l(scores: np.ndarray, count: int) -> np.ndarray:
    """Addresses of the ``count`` highest of one query's bank scores, best first.

    Exactly the first ``count`` of a stable sort of ``-scores``: score ties
    resolve toward the lower address (``-0.0`` ties with ``0.0``), so
    retrieval is deterministic for a frozen bank and nets, and NaN scores
    come last. One partial selection finds the ``count``-th best score; only
    the entries at least that good, every tie with it included, are sorted.
    When that score is NaN, fewer than ``count`` scores are numbers and the
    whole bank is sorted.
    """
    if not 1 <= count <= len(scores):
        raise ValueError(f"count must be in [1, {len(scores)}] (bank size), got {count}")
    neg = -scores
    kth = np.partition(neg, count - 1)[count - 1]
    if np.isnan(kth):
        return np.argsort(neg, kind="stable")[:count]
    candidates = np.flatnonzero(neg <= kth)  # ascending addresses, so the stable sort keeps ties low-first
    return candidates[np.argsort(neg[candidates], kind="stable")[:count]]


@dataclass
class _CosineBatch:
    """Forward state of one scoring step, spent by the backward pass, which overwrites ``scores`` and ``w_normed``."""

    scores: np.ndarray  # (B, C)
    u_normed: np.ndarray
    w_normed: np.ndarray
    u_norms: np.ndarray
    w_norms: np.ndarray
    u_degenerate: np.ndarray
    w_degenerate: np.ndarray


def _cosine_forward(u: np.ndarray, w: np.ndarray) -> _CosineBatch:
    un, nu, u_bad = _normalize_rows(u)
    wn, nw, w_bad = _normalize_rows(w)
    return _CosineBatch(un @ wn.T, un, wn, nu, nw, u_bad, w_bad)


def _cosine_backward(state: _CosineBatch, d_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradients w.r.t. the raw projections given dLoss/dScores.

    ``d_scores * scores`` is formed in ``state.scores`` and the key-side
    products in ``state.w_normed``, each read for the last time there.
    """
    d = d_scores
    if state.u_degenerate.any() or state.w_degenerate.any():
        d = d_scores.copy()
        d[state.u_degenerate, :] = 0.0
        d[:, state.w_degenerate] = 0.0
    mixed = np.multiply(d, state.scores, out=state.scores)
    row_mix = np.sum(mixed, axis=1, keepdims=True)
    col_mix = np.sum(mixed, axis=0)[:, None]
    d_u = d @ state.w_normed
    d_u -= row_mix * state.u_normed
    d_u /= np.where(state.u_degenerate, 1.0, state.u_norms)[:, None]
    d_w = d.T @ state.u_normed
    d_w -= np.multiply(col_mix, state.w_normed, out=state.w_normed)
    d_w /= np.where(state.w_degenerate, 1.0, state.w_norms)[:, None]
    return d_u, d_w


def decoded_intentions(feature_nets: EncoderDecoder, bank: MemoryBankPair) -> np.ndarray:
    """Every entry's decoded destination from its own stored feature pair, the bank as one slice."""
    return decode_targets(feature_nets, bank.past_feats[None], bank.intent_feats[None])[0]


def addresser_training_data(
    bank: MemoryBankPair, feature_nets: EncoderDecoder, dataset: SceneSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What addresser training reads: query past features, true destinations, decoded intentions.

    Queries are the training scenes' own past features (encoders frozen);
    destinations are in each scene's ego frame; the decoded intention of
    every bank entry comes from its own stored feature pair.
    """
    if not len(bank):
        raise ValueError("cannot train an addresser against an empty bank")
    dests = dataset.ego_destinations("addresser training")
    return social_encode(feature_nets, dataset), dests, decoded_intentions(feature_nets, bank)


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)``, computed in ``dx``'s buffer (``dy`` is squared in place).

    Rounds exactly as ``np.linalg.norm(..., axis=-1)`` does on a length-2
    axis, without its ``(n, m, 2)`` temporaries.
    """
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _positive_labels(
    points: np.ndarray, order: np.ndarray, sorted_xs: np.ndarray, xs: np.ndarray, ys: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, entries, labels)``: every pseudo-label of a row of ``points`` against an entry that is not 0.0.

    ``order`` sorts the entries by x and ``sorted_xs`` is ``xs[order]``. Each
    point is measured only against its strip, the entries with ``|x - px| <=
    2 * threshold``, found by two binary searches. Outside the strip
    ``sqrt(dx*dx + dy*dy) >= |dx| > threshold`` after rounding too, so the
    label is exactly 0.0, and the labels returned have the bits of
    :func:`pseudo_labels` over the whole table. Memory is a few arrays of
    the strips' total length.
    """
    reach = 2.0 * threshold
    lo = np.searchsorted(sorted_xs, points[:, 0] - reach, side="left")
    counts = np.searchsorted(sorted_xs, points[:, 0] + reach, side="right") - lo
    ends = np.cumsum(counts)
    entries = np.repeat(lo - (ends - counts), counts)  # each strip's ranks in x order, then the entries they name
    entries += np.arange(len(entries))
    entries = order[entries]
    dist = np.repeat(points[:, 0], counts)
    dist -= xs[entries]
    dy = np.repeat(points[:, 1], counts)
    dy -= ys[entries]
    labels = pseudo_labels(_hypot(dist, dy), threshold)
    del dist, dy  # strip-long buffers; free them before the hits are gathered
    hits = np.flatnonzero(labels != 0.0)
    labels = labels[hits]
    entries = entries[hits]
    return np.searchsorted(ends, hits, side="right"), entries, labels


def fit_addresser(
    nets: AddresserNets,
    bank: MemoryBankPair,
    data: tuple[np.ndarray, np.ndarray, np.ndarray],
    config,
    epochs: int,
    learning_rate: float,
    rng: np.random.Generator,
    epochs_done: int = 0,
) -> None:
    """Train ``nets`` in place on :func:`addresser_training_data` output.

    Batch shuffles and candidate samples come from ``rng``, so calls that
    share one generator continue a single stream; ``epochs_done`` is the
    number of epochs the stage ran in earlier calls, so log lines and errors
    number epochs from the stage's start. A step scores the full bank only
    when it has at most ``CANDIDATE_CAP`` entries; above that it scores a
    uniform sample of ``CANDIDATE_CAP`` entries plus each query's
    oracle-nearest entry, so the strongest positive is always present.

    The step regresses its ``(batch, candidates)`` scores onto pseudo-labels,
    which are 0.0 for every entry whose decoded destination is at least the
    threshold away. So no label table is built: the decoded destinations are
    sorted by x once per call, a step measures each query only against the
    entries within ``2 * threshold`` of it in x, and its residual is the
    scores with the positive labels subtracted, bit for bit the dense
    regression. The nearest entries are also found once per call,
    ``config.batch_size`` queries at a time, so memory is set by the batch,
    not by the number of queries. No strip holds a NaN, so a NaN destination
    raises ValueError, and a NaN decoded intention NumericError naming
    ``lr_features``.
    """
    queries, dests, decoded = data
    threshold = config.label_threshold_value()
    m = len(bank)
    if np.isnan(dests).any():
        raise ValueError(f"addresser training destination {int(np.argmax(np.isnan(dests).any(axis=1)))} is NaN")
    if np.isnan(decoded).any():
        raise NumericError(
            f"stage 'features' decodes a NaN intention for bank entry {int(np.argmax(np.isnan(decoded).any(axis=1)))}; "
            "retrain it with a lower lr_features"
        )
    xs, ys = np.ascontiguousarray(decoded[:, 0]), np.ascontiguousarray(decoded[:, 1])
    order = np.argsort(xs, kind="stable")
    sorted_xs = xs[order]
    if m > CANDIDATE_CAP:
        nearest = np.empty(len(dests), dtype=np.int64)
        for lo in range(0, len(dests), config.batch_size):
            batch = dests[lo : lo + config.batch_size]
            nearest[lo : lo + len(batch)] = np.argmin(_hypot(batch[:, 0:1] - xs, batch[:, 1:2] - ys), axis=1)

    def step(idx):
        keys_in = bank.past_feats
        rows, cols, labels = _positive_labels(dests[idx], order, sorted_xs, xs, ys, threshold)
        if m > CANDIDATE_CAP:
            sampled = rng.choice(m, size=CANDIDATE_CAP, replace=False)
            cand = np.union1d(sampled, nearest[idx])
            keys_in = bank.past_feats[cand]
            at = np.minimum(np.searchsorted(cand, cols), len(cand) - 1)
            kept = cand[at] == cols
            rows, cols, labels = rows[kept], at[kept], labels[kept]
        u, u_cache = mlp_forward_cached(nets.query_proj, queries[idx])
        w, w_cache = mlp_forward_cached(nets.key_proj, keys_in)
        state = _cosine_forward(u, w)
        # The residual is the score minus its label: the score itself where the label is 0.0.
        # One buffer holds its squares, until they are summed, and then the score gradients.
        scores = state.scores
        residual = scores[rows, cols] - labels
        squares = scores * scores
        squares[rows, cols] = residual * residual
        loss = float(np.sum(squares))
        scale = 2.0 / len(idx)
        d_scores = np.multiply(scale, scores, out=squares)
        d_scores[rows, cols] = scale * residual
        d_u, d_w = _cosine_backward(state, d_scores)
        updates = [
            (nets.query_proj, mlp_backward_from_cache(nets.query_proj, u_cache, d_u, input_grad=False)),
            (nets.key_proj, mlp_backward_from_cache(nets.key_proj, w_cache, d_w, input_grad=False)),
        ]
        return loss, updates

    sgd_loop("addresser", len(queries), config.batch_size, epochs, learning_rate, rng, step, epochs_done)
