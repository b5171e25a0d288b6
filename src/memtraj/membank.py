"""The instance memory: paired past/intention features with greedy filtering.

Every training scene contributes one entry holding its frozen past feature,
its frozen intention feature, and the raw geometry (start position and
destination in the scene's ego frame) used for redundancy filtering. The bank
stores each of these as one array whose row ``a`` is bank address ``a``.
Filtering visits entries in a seed-shuffled order and keeps an entry only
when no already-kept entry is redundant with it, where redundant means both
the start positions and the destinations are within their thresholds. Each
visited entry is either kept or discarded, so one pass always terminates.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .datasets import SceneSet, dataset_fingerprint
from .errors import FormatError, NumericError
from .features import EncoderDecoder, social_encode
from .numkit import atomic_open, mlp_forward

logger = logging.getLogger(__name__)

_MAGIC = b"MTBK"
_VERSION = 1
# magic, version, past_dim, intent_dim, past_len, future_len, theta_past,
# theta_int, filter_seed, entry count, source fingerprint
_HEADER = struct.Struct("<4sIIIIIddqQ32s")
# bank array -> field of the on-disk record, in record order
_RECORD_FIELDS = {
    "past_feats": "past_feat",
    "intent_feats": "intent_feat",
    "starts": "start_pos",
    "dests": "destination",
    "sample_ids": "sample_id",
}


@dataclass
class BankMeta:
    past_dim: int
    intent_dim: int
    past_len: int
    future_len: int
    theta_past: float | None = None  # None until the bank has been filtered
    theta_int: float | None = None
    filter_seed: int | None = None
    source_hash: bytes = b"\x00" * 32


@dataclass
class MemoryBankPair:
    """Paired feature banks plus the geometry needed for filtering.

    Row ``a`` of every array belongs to bank address ``a``.
    """

    past_feats: np.ndarray  # (m, past_dim) frozen past features
    intent_feats: np.ndarray  # (m, intent_dim) frozen intention features
    starts: np.ndarray  # (m, 2) first observed point, ego frame
    dests: np.ndarray  # (m, 2) last future point, ego frame
    sample_ids: np.ndarray  # (m,) int64 ordinal of the originating scene in the source dataset
    meta: BankMeta

    def __len__(self) -> int:
        return len(self.sample_ids)

    def take(self, rows) -> "MemoryBankPair":
        """The bank of the given rows (an index or boolean array), in that order, with the same meta."""
        return MemoryBankPair(**{name: getattr(self, name)[rows] for name in _RECORD_FIELDS}, meta=self.meta)


def bank_init(nets: EncoderDecoder, dataset: SceneSet) -> MemoryBankPair:
    """Encode every training scene into one memory entry (unfiltered bank).

    Entry ``i`` comes from ``dataset[i]`` and carries ``sample_id == i``.
    Stored features and geometry live in each scene's ego frame, translated
    as :func:`~memtraj.datasets.scene_batch` translates them; the past
    features come from :func:`~memtraj.features.social_encode`, so entry
    ``i``'s past feature is the query feature scene ``i`` gets at predict
    time, bit for bit. ValueError for an empty set or one without
    futures; NumericError naming ``lr_features`` and the first scene whose
    past or intention feature is not finite, or whose past feature's norm
    overflows, which a diverged features stage gives.
    """
    dests = dataset.ego_destinations("the memory bank")
    pasts = np.asarray(dataset.ego_pasts, dtype=np.float64)
    meta = BankMeta(
        past_dim=nets.past_dim,
        intent_dim=nets.intent_dim,
        past_len=nets.past_len,
        future_len=dataset.futures.shape[1],
        source_hash=dataset_fingerprint(dataset),
    )
    past_feats = social_encode(nets, dataset)
    intent_feats = mlp_forward(nets.point_embed, dests)
    # every score takes a past feature's norm, so one that overflows is as unusable as a NaN
    sound = np.isfinite(np.linalg.norm(past_feats, axis=1)) & np.isfinite(intent_feats).all(axis=1)
    if not sound.all():
        first = int(np.argmin(sound))
        finite = np.isfinite(past_feats[first]).all() and np.isfinite(intent_feats[first]).all()
        what = "a past feature whose norm overflows" if finite else "non-finite features"
        raise NumericError(
            f"stage 'features' gives {what} for scene {first} ({dataset.scene_ids[first]!r}); "
            "retrain it with a lower lr_features"
        )
    logger.info("memory bank: %d entries before filtering", len(dataset))
    return MemoryBankPair(
        past_feats=past_feats,
        intent_feats=intent_feats,
        starts=pasts[:, 0] - pasts[:, -1],
        dests=dests,
        sample_ids=np.arange(len(dataset), dtype=np.int64),
        meta=meta,
    )


def filter_visit_order(n_entries: int, seed: int) -> np.ndarray:
    """The seed-shuffled order in which :func:`bank_filter` visits entries."""
    return np.random.default_rng(seed).permutation(n_entries)


def bank_filter(bank: MemoryBankPair, theta_past: float, theta_int: float, seed: int) -> MemoryBankPair:
    """Greedy redundancy filter; returns a new bank of the kept entries.

    Entries are visited in the order given by :func:`filter_visit_order` and
    kept iff no already-kept entry is redundant with them; kept entries appear
    in visit order. Only kept entries whose start points hash to nearby grid
    cells are tested (see :func:`_greedy_keep`), which keeps the same entries
    as testing every kept entry. The thresholds and seed are recorded in the
    bank meta, so the pass is reproducible after a save/load round trip.
    """
    if theta_past < 0 or theta_int < 0:
        raise ValueError(f"thresholds must be >= 0, got {theta_past}, {theta_int}")
    order = filter_visit_order(len(bank), seed)
    kept = _greedy_keep(bank.starts, bank.dests, order, theta_past, theta_int)
    meta = replace(bank.meta, theta_past=float(theta_past), theta_int=float(theta_int), filter_seed=int(seed))
    logger.info(
        "memory bank filter (theta_past=%g, theta_int=%g): kept %d of %d (%.1f%%)",
        theta_past,
        theta_int,
        len(kept),
        len(bank),
        100.0 * len(kept) / len(bank),
    )
    return replace(bank.take(kept), meta=meta)


# A start distance that rounds to <= theta_past leaves each coordinate
# difference within a few ulps of theta_past, or below 2**-511 where the
# squares underflow to 0; the grid searches this radius with room to spare.
_MIN_RADIUS = 2.0**-500
_RADIUS_SLACK = 1.0 + 2.0**-20
_SCALAR_TESTS = 48  # above this many candidates one array test is faster


def _redundant(start_a, dest_a, start_b, dest_b, theta_past: float, theta_int: float) -> bool:
    """The filter's test on two entries' ``[x, y]`` rows, rounded as ``np.linalg.norm(..., axis=1)`` rounds it."""
    sx, sy = start_a[0] - start_b[0], start_a[1] - start_b[1]
    if not math.sqrt(sx * sx + sy * sy) <= theta_past:
        return False
    dx, dy = dest_a[0] - dest_b[0], dest_a[1] - dest_b[1]
    return math.sqrt(dx * dx + dy * dy) <= theta_int


def _greedy_keep(starts: np.ndarray, dests: np.ndarray, order: np.ndarray, theta_past: float, theta_int: float) -> np.ndarray:
    """Indices kept by the greedy pass, in visit order; kept starts are hashed to a grid.

    A pair the test calls redundant has both start coordinates within
    ``radius`` of each other. A start's cell is ``floor(coordinate / side)``
    per axis, with ``side`` a power of two of at least ``2 * radius``, so the
    division is exact and the cell never decreases as the coordinate grows.
    Rounding therefore cannot hide a kept start in reach of a visited start:
    its cell lies between the cells of ``start - radius`` and
    ``start + radius``, a block of at most 3 x 3 and mostly 2 x 2 cells. At
    theta_past = 0 two starts share a cell only when they are equal or have
    a coordinate below 2**-445, so the grid is an exact match on the start. A start
    whose cells are not finite (a non-finite coordinate, a division that
    overflows, or theta_past = inf) stays out of the grid and its visit tests
    every kept entry; it can only be redundant with a start at the same
    point, which is out of the grid too.
    """
    radius = max(float(theta_past), _MIN_RADIUS) * _RADIUS_SLACK
    # a radius near the top of the float range (or infinite or NaN) gets one cell for all
    side = 2.0 ** math.frexp(2.0 * radius)[1] if radius < 2.0**1000 else math.inf
    with np.errstate(all="ignore"):
        low = np.floor((starts - radius) / side)
        high = np.floor((starts + radius) / side)
        own = np.floor(starts / side)
    gridded = (np.isfinite(low) & np.isfinite(high)).all(axis=1).tolist()
    low, high, own = low.tolist(), high.tolist(), own.tolist()
    start_rows, dest_rows = starts.tolist(), dests.tolist()
    grid: dict[tuple[int, int], list[int]] = {}  # cell -> kept slots
    kept: list[int] = []
    kept_starts, kept_dests = np.empty_like(starts), np.empty_like(dests)
    for i in order.tolist():
        n_kept = len(kept)
        if gridded[i]:
            (x0, y0), (x1, y1) = low[i], high[i]
            cells = [grid.get((cx, cy), ()) for cx in range(int(x0), int(x1) + 1) for cy in range(int(y0), int(y1) + 1)]
            n_near = sum(map(len, cells))
        if gridded[i] and n_near <= _SCALAR_TESTS:
            redundant = any(
                _redundant(start_rows[kept[j]], dest_rows[kept[j]], start_rows[i], dest_rows[i], theta_past, theta_int)
                for j in chain.from_iterable(cells)
            )
        else:
            # one array test; a block holding a quarter of the kept entries or more tests them all
            rows = list(chain.from_iterable(cells)) if gridded[i] and 4 * n_near <= n_kept else slice(0, n_kept)
            d_start = np.linalg.norm(kept_starts[rows] - starts[i], axis=1)
            d_dest = np.linalg.norm(kept_dests[rows] - dests[i], axis=1)
            redundant = np.any((d_start <= theta_past) & (d_dest <= theta_int))
        if redundant:
            continue
        if gridded[i]:
            grid.setdefault((int(own[i][0]), int(own[i][1])), []).append(n_kept)
        kept.append(i)
        kept_starts[n_kept] = starts[i]
        kept_dests[n_kept] = dests[i]
    return np.array(kept, dtype=np.int64)


def bank_save(bank: MemoryBankPair, path) -> None:
    """Write a bank as versioned little-endian binary.

    Header: magic ``MTBK``, version u32, dims and window lengths as u32s,
    thresholds as f64 (NaN when unfiltered), filter seed i64 (-1 when
    unfiltered), entry count u64, source fingerprint (32 bytes). Then one
    record per entry: past_feat f64[past_dim], intent_feat f64[intent_dim],
    start_pos f64[2], destination f64[2], sample_id u64.
    """
    meta = bank.meta
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        meta.past_dim,
        meta.intent_dim,
        meta.past_len,
        meta.future_len,
        np.nan if meta.theta_past is None else meta.theta_past,
        np.nan if meta.theta_int is None else meta.theta_int,
        -1 if meta.filter_seed is None else meta.filter_seed,
        len(bank),
        meta.source_hash,
    )
    records = np.zeros(len(bank), dtype=_record_dtype(meta.past_dim, meta.intent_dim))
    for name, field in _RECORD_FIELDS.items():
        records[field] = getattr(bank, name)
    with atomic_open(path, "wb") as fh:
        fh.write(header)
        fh.write(records)  # through the buffer protocol: no copy of the table


def _record_dtype(past_dim: int, intent_dim: int) -> np.dtype:
    return np.dtype(
        [
            ("past_feat", "<f8", (past_dim,)),
            ("intent_feat", "<f8", (intent_dim,)),
            ("start_pos", "<f8", (2,)),
            ("destination", "<f8", (2,)),
            ("sample_id", "<u8"),
        ]
    )


def bank_load(raw: bytes) -> MemoryBankPair:
    """Parse the bytes of a bank written by :func:`bank_save`, validating the layout."""
    if len(raw) < _HEADER.size:
        raise FormatError("file too short for a bank header", offset=len(raw))
    magic, version, past_dim, intent_dim, past_len, future_len, theta_past, theta_int, filter_seed, count, source_hash = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
    if version != _VERSION:
        raise FormatError(f"unsupported format version {version}", offset=4)
    if past_dim < 1 or intent_dim < 1:
        raise FormatError(f"bad feature dims ({past_dim}, {intent_dim})", offset=8)
    dtype = _record_dtype(past_dim, intent_dim)
    expected = _HEADER.size + count * dtype.itemsize
    if len(raw) != expected:
        raise FormatError(
            f"payload is {len(raw) - _HEADER.size} bytes, expected {count} records of {dtype.itemsize}",
            offset=min(len(raw), expected),
        )
    records = np.frombuffer(raw, dtype=dtype, count=count, offset=_HEADER.size)
    columns = {
        name: np.ascontiguousarray(records[field], dtype=np.int64 if name == "sample_ids" else np.float64)
        for name, field in _RECORD_FIELDS.items()
    }
    meta = BankMeta(
        past_dim=past_dim,
        intent_dim=intent_dim,
        past_len=past_len,
        future_len=future_len,
        theta_past=None if np.isnan(theta_past) else float(theta_past),
        theta_int=None if np.isnan(theta_int) else float(theta_int),
        filter_seed=None if filter_seed == -1 else int(filter_seed),
        source_hash=source_hash,
    )
    return MemoryBankPair(**columns, meta=meta)
