"""Trajectory data: TSV loading, scene windowing, scene batches, synthesis.

The on-disk format is whitespace-separated ``frame agent_id x y`` rows, one
row per agent per frame.  In memory a track file is four row arrays
``(agent_ids, lengths, frames, coords)``, never one object per agent: track
``t`` is agent ``agent_ids[t]`` and owns the next ``lengths[t]`` rows of
``frames`` and ``coords``.  :func:`load_tsv` reads them, :func:`save_tsv`
writes them and :func:`build_scenes` windows them.

A *scene* is one prediction instance: an ego agent with ``past_len``
observed steps, the other agents fully co-present over those steps as
neighbors, and (for training/evaluation) ``future_len`` future ego steps.
A split is one :class:`SceneSet` of world-coordinate arrays, never one
object per window; :func:`scene_batch` translates a set into the arrays
every net reads, so each ego's last observed position is the origin. No
other module subtracts a scene origin.

The synthetic generator produces constant-speed walks whose future heading is
drawn from a small set of turn modes, which gives a controlled multimodal
ground truth for tests.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError
from .numkit import atomic_open

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Scene:
    """One prediction instance in a shared coordinate frame.

    ego_past: (past_len, 2); neighbor_pasts: (n_neighbors, past_len, 2);
    ego_future: (future_len, 2) or None at pure inference time. Indexing a
    :class:`SceneSet` gives one as a view of the set's rows; it is frozen,
    because rebinding a field of a view would leave the set unchanged.
    """

    ego_past: np.ndarray
    neighbor_pasts: np.ndarray
    ego_future: np.ndarray | None
    scene_id: str

    @property
    def n_neighbors(self) -> int:
        return self.neighbor_pasts.shape[0]


@dataclass(eq=False)
class SceneSet:
    """Scenes stacked into world-coordinate arrays: the form of a split from the loader to the nets.

    Scene ``b`` owns neighbor rows ``offsets[b]:offsets[b+1]``; futures are
    all present or all None. ``len``, iteration and indexing work as on a
    list of :class:`Scene`: ``s[i]`` is one scene, ``s[a:b]`` a set.
    """

    ego_pasts: np.ndarray  # (B, past_len, 2)
    futures: np.ndarray | None  # (B, future_len, 2) ego futures, or None at pure inference time
    neighbor_pasts: np.ndarray  # (R, past_len, 2) neighbor pasts of all scenes, stacked
    offsets: np.ndarray  # (B+1,) int64, from 0
    scene_ids: list[str]

    def __len__(self) -> int:
        return len(self.scene_ids)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self.take(np.arange(*key.indices(len(self))))
        i = range(len(self))[key]
        lo, hi = self.offsets[i : i + 2]
        future = None if self.futures is None else self.futures[i]
        return Scene(self.ego_pasts[i], self.neighbor_pasts[lo:hi], future, self.scene_ids[i])

    def take(self, idx) -> "SceneSet":
        """The set of scenes ``idx``, in that order and with any repeats."""
        idx = np.asarray(idx, dtype=np.int64)
        lo, counts = self.offsets[idx], self.offsets[idx + 1] - self.offsets[idx]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        rows = np.repeat(lo - offsets[:-1], counts) + np.arange(offsets[-1])
        return SceneSet(
            ego_pasts=self.ego_pasts[idx],
            futures=None if self.futures is None else self.futures[idx],
            neighbor_pasts=self.neighbor_pasts[rows],
            offsets=offsets,
            scene_ids=[self.scene_ids[i] for i in idx.tolist()],
        )

    def check(self, needed_by: str | None = None) -> None:
        """ValueError for an empty set, or for a set without futures when ``needed_by`` names what needs them."""
        if not len(self):
            raise ValueError("empty scene set" + (f" for {needed_by}" if needed_by else ""))
        if needed_by is not None and self.futures is None:
            raise ValueError(f"scene {self.scene_ids[0]!r} has no future; {needed_by} needs one")

    def ego_destinations(self, needed_by: str) -> np.ndarray:
        """(B, 2) each scene's last future point in its own ego frame, as ``scene_batch(self, needed_by)`` has it."""
        self.check(needed_by)
        return self.futures[:, -1] - np.asarray(self.ego_pasts[:, -1], dtype=np.float64)


def _parse_index(token: str, what: str, line_no: int) -> int:
    """A frame or agent id: an int64 integer, also when spelled as a float such as ``3.0``.

    A token that is no number at all raises ValueError for the caller to report.
    """
    try:
        value = int(token)
    except ValueError:
        number = float(token)
        if not number.is_integer():
            raise ParseError(f"{what} {token} is not an integer", line_no=line_no) from None
        value = int(number)
    if not -(2**63) <= value < 2**63:
        raise ParseError(f"{what} {token} is out of the int64 range", line_no=line_no)
    return value


def _utf8_lines(path):
    """``(line number, line)`` for each line of a text file past a leading BOM; non-UTF-8 bytes raise ParseError on their line."""
    # Undecodable bytes become lone surrogates, so they are caught on their own line.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not UTF-8 text", line_no=line_no, path=path) from None
            yield line_no, line


def load_tsv(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parse ``frame agent_id x y`` rows into the row arrays ``(agent_ids, lengths, frames, coords)``.

    Agents appear in first-seen order; each one's rows are sorted by frame.
    Blank lines are skipped. A malformed line, a frame or agent id that is
    not an integer, a NaN or infinite coordinate, a second row for the same
    (frame, agent), or bytes that are not UTF-8 raise ParseError with the
    path and the 1-based line number. A leading byte-order mark is ignored.
    Plain-number text is read in whole arrays; any other text, well formed
    or not, goes through the line-by-line parse, which reports the first bad line.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    rows = _plain_tsv_rows(data)
    return rows if rows is not None else _load_tsv_lines(path)


# The bytes of a TSV of plain numbers. On such text np.loadtxt splits lines
# and fields as str.split does and reads each number as int() or float() reads it.
_PLAIN_TSV = b"0123456789eE+-. \t\n"
_TSV_ROW = np.dtype([("frame", "<i8"), ("agent", "<i8"), ("x", "<f8"), ("y", "<f8")])


def _plain_tsv_rows(data: bytes):
    """:func:`load_tsv` for well-formed plain-number text; None for any other text."""
    if data.translate(None, _PLAIN_TSV):
        return None
    if not data or data.isspace():
        return _group_rows(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros((0, 2)))
    try:
        rows = np.loadtxt(io.StringIO(data.decode("ascii")), dtype=_TSV_ROW, comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    coords = np.stack([rows["x"], rows["y"]], axis=1)
    agent_ids, lengths, frames, coords = grouped = _group_rows(rows["frame"], rows["agent"], coords)
    repeated = (np.diff(np.repeat(agent_ids, lengths)) == 0) & (np.diff(frames) == 0)
    return None if repeated.any() or not np.isfinite(coords).all() else grouped


def _group_rows(frames, agents, coords):
    """File rows as ``(agent_ids, lengths, frames, coords)``: agents in first-seen order, each one's rows by frame."""
    _, first, inverse = np.unique(agents, return_index=True, return_inverse=True)
    first_row = first[inverse]  # the row where each row's agent first appears
    order = np.lexsort((frames, first_row))
    starts = np.flatnonzero(np.diff(first_row[order], prepend=-1))
    return agents[order[starts]], np.diff(starts, append=len(order)), frames[order], coords[order]


def _load_tsv_lines(path):
    """:func:`load_tsv` one checked line at a time."""
    samples: list[tuple[int, int, float, float]] = []
    first_line: dict[tuple[int, int], int] = {}
    try:
        for line_no, line in _utf8_lines(path):
            stripped = line.strip()
            if not stripped:
                continue
            tokens = stripped.split()
            if len(tokens) != 4:
                raise ParseError(f"expected 4 fields, got {len(tokens)}", line_no=line_no)
            try:
                frame = _parse_index(tokens[0], "frame", line_no)
                agent_id = _parse_index(tokens[1], "agent id", line_no)
                x = float(tokens[2])
                y = float(tokens[3])
            except ValueError as exc:
                raise ParseError(f"non-numeric field ({exc})", line_no=line_no) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite coordinate ({tokens[2]}, {tokens[3]})", line_no=line_no)
            seen_on = first_line.setdefault((frame, agent_id), line_no)
            if seen_on != line_no:
                raise ParseError(f"duplicate row for frame {frame}, agent {agent_id} (first on line {seen_on})", line_no=line_no)
            samples.append((frame, agent_id, x, y))
    except ParseError as exc:
        raise ParseError(exc.reason, line_no=exc.line_no, path=path) from None
    frames = np.array([s[0] for s in samples], dtype=np.int64)
    agents = np.array([s[1] for s in samples], dtype=np.int64)
    return _group_rows(frames, agents, np.array([s[2:] for s in samples], dtype=np.float64).reshape(-1, 2))


def save_tsv(rows, path) -> None:
    """Write the row arrays ``(agent_ids, lengths, frames, coords)`` in the TSV format, track after track.

    Coordinates are printed with %.17g, so ``save_tsv(load_tsv(p), q)``
    reproduces every float64 value. The file is replaced only once every line is written.
    """
    agent_ids, lengths, frames, coords = rows
    agents = np.repeat(agent_ids, lengths).tolist()
    with atomic_open(path) as fh:
        for frame, agent_id, (x, y) in zip(frames.tolist(), agents, coords.tolist(), strict=True):
            fh.write("%d %d %.17g %.17g\n" % (frame, agent_id, x, y))


def build_scenes(
    agent_ids: np.ndarray,
    lengths: np.ndarray,
    frames: np.ndarray,
    coords: np.ndarray,
    past_len: int,
    future_len: int,
    stride: int = 1,
    max_neighbors: int = 8,
    tag: str = "",
) -> SceneSet:
    """Cut sliding windows of ``past_len + future_len`` frames out of the row arrays of a track file.

    A window is valid when the ego agent covers it with evenly spaced frames
    (spacing = the dataset's smallest frame gap). Window start positions
    advance by ``stride`` samples. Every other track present at all
    ``past_len`` past frames becomes a neighbor; if there are more than
    ``max_neighbors``, the nearest ones at the last observed frame win (ties
    broken by agent id). Scenes come in track order, then in window-start
    order; the emitted set of scenes does not depend on the order of the
    tracks. Each track's frames must be strictly increasing. Logs the track,
    window and skipped-window counts under ``tag``.

    All tracks are windowed at once. A row's run position counts the evenly
    spaced frames of its track just before it, so a window is valid where
    its last row has ``window - 1`` of them, and a row can close a
    neighbor's past where it has ``past_len - 1``.
    """
    if past_len < 1 or future_len < 1:
        raise ValueError(f"past_len and future_len must be >= 1, got {past_len}, {future_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if max_neighbors < 0:
        raise ValueError(f"max_neighbors must be >= 0, got {max_neighbors}")
    if len(agent_ids) != len(lengths) or not len(frames) == len(coords) == lengths.sum():
        raise ValueError(
            f"{len(agent_ids)} agent ids and {len(lengths)} lengths summing to {lengths.sum()} "
            f"do not describe {len(frames)} frames and {len(coords)} coordinate rows"
        )
    window = past_len + future_len
    track_of = np.repeat(np.arange(len(lengths)), lengths)
    rows = np.arange(len(frames))
    local = rows - np.repeat(np.cumsum(lengths) - lengths, lengths)

    in_track = track_of[1:] == track_of[:-1]
    unsorted = in_track & (frames[1:] <= frames[:-1])
    if unsorted.any():
        bad = int(track_of[1:][unsorted][0])
        raise ValueError(f"frames of track {bad} (agent {agent_ids[bad]}) are not strictly increasing")
    # uint64 holds every gap of increasing int64 frames, up to 2**64 - 1
    gaps = np.diff(frames.astype(np.uint64))
    # the dataset's frame step: its smallest gap within a track, 1 if no track has two samples
    step = int(gaps[in_track].min()) if in_track.any() else 1
    evenly = np.concatenate([[False], in_track & (gaps == step)])
    run_pos = rows - np.maximum.accumulate(np.where(evenly, 0, rows))

    # a window is valid where its last row closes a run of `window` evenly spaced frames
    starts = np.flatnonzero(run_pos >= window - 1) - (window - 1)
    starts = starts[local[starts] % stride == 0]
    fits = (local % stride == 0) & (local + window <= np.repeat(lengths, lengths))
    skipped = int(fits.sum()) - len(starts)
    logger.info("%s: %d tracks, %d windows, %d skipped for a frame gap", tag or "tracks", len(lengths), len(starts), skipped)
    last = starts + (past_len - 1)
    offsets = np.arange(past_len)

    sel_win, sel_rows = _nearest_neighbors(frames, coords, track_of, run_pos, last, past_len, max_neighbors, agent_ids)
    prefix = f"{tag}:" if tag else ""
    ids = zip(agent_ids[track_of[starts]].tolist(), frames[last].tolist())
    return SceneSet(
        ego_pasts=coords[starts[:, None] + offsets],
        futures=coords[starts[:, None] + (past_len + np.arange(future_len))],
        neighbor_pasts=coords[sel_rows[:, None] + (offsets - (past_len - 1))],
        offsets=np.searchsorted(sel_win, np.arange(len(starts) + 1)),
        scene_ids=[f"{prefix}{agent_id}:{last_frame}" for agent_id, last_frame in ids],
    )


def _nearest_neighbors(frames, coords, track_of, run_pos, last, past_len, max_neighbors, agent_ids):
    """(window, row) of every kept neighbor, by window, nearest first, ties by agent id.

    ``row`` is the neighbor's row at the window's last observed frame. A
    candidate is any other track's row at that frame whose run covers the
    whole past.
    """
    if max_neighbors == 0 or len(last) == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    cand = np.flatnonzero(run_pos >= past_len - 1)
    cand = cand[np.lexsort((track_of[cand], frames[cand]))]
    lo = np.searchsorted(frames[cand], frames[last], side="left")
    counts = np.searchsorted(frames[cand], frames[last], side="right") - lo
    # one (window, candidate) pair for each of cand[lo[w] : lo[w] + counts[w]]
    win = np.repeat(np.arange(len(last)), counts)
    pair_rows = cand[np.arange(len(win)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    other = track_of[pair_rows] != track_of[last[win]]
    win, pair_rows = win[other], pair_rows[other]
    # vecdot takes the same dot product as np.linalg.norm of one 2-vector, so each
    # distance rounds, and ties, as the norm of that vector does
    diff = np.asarray(coords[pair_rows] - coords[last[win]], dtype=np.float64)
    dist = np.sqrt(np.vecdot(diff, diff))
    order = np.lexsort((agent_ids[track_of[pair_rows]], dist, win))
    win, pair_rows = win[order], pair_rows[order]
    rank = np.arange(len(win)) - np.searchsorted(win, win, side="left")
    keep = rank < max_neighbors
    return win[keep], pair_rows[keep]


@dataclass
class SceneBatch:
    """A :class:`SceneSet` in the ego frame; the only form in which scenes reach a net.

    Every coordinate of scene ``b`` is translated so that its ego's last
    observed point is the origin. Build one with :func:`scene_batch`.
    """

    ego_x: np.ndarray  # (B, 2*past_len) flattened ego pasts
    nb_x: np.ndarray  # (R, 2*past_len) flattened neighbor pasts of all scenes, stacked
    offsets: np.ndarray  # (B+1,) scene b owns nb_x rows offsets[b]:offsets[b+1]
    futures: np.ndarray | None  # (B, future_len, 2) ego futures; None unless asked for

    def __len__(self) -> int:
        return len(self.ego_x)


def scene_batch(scenes: SceneSet, future_for: str | None = None) -> SceneBatch:
    """The set translated into one :class:`SceneBatch`, each scene to its own ego frame.

    ``future_for`` names what needs the ego futures, which then fill
    ``futures``; :meth:`SceneSet.check` raises for a set without them.
    """
    scenes.check(future_for)
    pasts = np.asarray(scenes.ego_pasts, dtype=np.float64)
    origins = pasts[:, -1]
    width = 2 * pasts.shape[1]
    nb_origins = np.repeat(origins, np.diff(scenes.offsets), axis=0)[:, None]
    return SceneBatch(
        ego_x=(pasts - origins[:, None]).reshape(-1, width),
        nb_x=(np.asarray(scenes.neighbor_pasts, dtype=np.float64) - nb_origins).reshape(-1, width),
        offsets=scenes.offsets,
        futures=None if future_for is None else scenes.futures - origins[:, None],
    )


SYNTH_START_BOX = 10.0  # half-width of the square that synthetic walks start in


@dataclass
class SynthMode:
    """One future-heading mode: turn angle (radians) and its probability."""

    turn: float
    prob: float


def default_modes() -> list[SynthMode]:
    """Straight / left turn / right turn, equally likely."""
    third = 1.0 / 3.0
    half_pi = np.pi / 2.0
    return [SynthMode(0.0, third), SynthMode(half_pi, third), SynthMode(-half_pi, third)]


def mode_probabilities(modes: Sequence[SynthMode]) -> np.ndarray:
    """The modes' probabilities as an array summing to 1; ValueError unless they form a distribution over 2 or more modes."""
    if len(modes) < 2:
        raise ValueError(f"need at least 2 modes, got {len(modes)}")
    probs = np.array([m.prob for m in modes], dtype=np.float64)
    if np.any(probs < 0):
        raise ValueError("mode probabilities must be >= 0")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"mode probabilities sum to {float(probs.sum())!r}, expected 1")
    return probs / probs.sum()


def _unit(angle: float) -> np.ndarray:
    return np.array([np.cos(angle), np.sin(angle)])


def synth_generate(
    seed: int,
    n_scenes: int,
    mode_spec: Sequence[SynthMode] | None = None,
    past_len: int = 8,
    future_len: int = 12,
    jitter: float = 0.02,
    speed: float = 0.25,
    n_neighbors: int = 2,
) -> SceneSet:
    """Generate constant-speed walks with a mode-sampled future heading.

    Each scene: the ego walks ``past_len`` steps at ``speed`` along a random
    heading from a random start in ``[-SYNTH_START_BOX, SYNTH_START_BOX]^2``,
    then turns by a mode angle drawn from ``mode_spec`` and walks
    ``future_len`` more steps. Independent Gaussian jitter of scale ``jitter`` is added to every
    point. Neighbors are parallel walkers offset sideways, past only.

    The scene_id records the drawn mode index plus the clean heading, turn
    point, and speed as ``synth-<index>|m=<mode>|h=<heading>|x0=<x>/<y>|v=<speed>``,
    so tests can reconstruct the noise-free endpoint of every mode.
    """
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    if past_len < 1 or future_len < 1:
        raise ValueError(f"past_len and future_len must be >= 1, got {past_len}, {future_len}")
    if n_neighbors < 0:
        raise ValueError(f"n_neighbors must be >= 0, got {n_neighbors}")
    modes = list(mode_spec) if mode_spec is not None else default_modes()
    probs = mode_probabilities(modes)
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")

    rng = np.random.default_rng(seed)
    ego_pasts = np.empty((n_scenes, past_len, 2))
    futures = np.empty((n_scenes, future_len, 2))
    neighbor_pasts = np.empty((n_scenes, n_neighbors, past_len, 2))
    scene_ids = []
    for i in range(n_scenes):
        heading = float(rng.uniform(0.0, 2.0 * np.pi))
        start = rng.uniform(-SYNTH_START_BOX, SYNTH_START_BOX, size=2)
        mode_idx = int(rng.choice(len(modes), p=probs))
        steps_past = start + np.outer(np.arange(past_len), speed * _unit(heading))
        turn_point = steps_past[-1]
        future_dir = speed * _unit(heading + modes[mode_idx].turn)
        steps_future = turn_point + np.outer(np.arange(1, future_len + 1), future_dir)
        noise = rng.normal(0.0, jitter, size=(past_len + future_len, 2)) if jitter > 0 else np.zeros((past_len + future_len, 2))
        ego_pasts[i] = steps_past + noise[:past_len]
        futures[i] = steps_future + noise[past_len:]
        perp = _unit(heading + np.pi / 2.0)
        for j in range(n_neighbors):
            side = 1.0 if j % 2 == 0 else -1.0
            offset = side * (1.0 + rng.uniform(0.0, 1.0)) * perp
            nb_noise = rng.normal(0.0, jitter, size=(past_len, 2)) if jitter > 0 else np.zeros((past_len, 2))
            neighbor_pasts[i, j] = steps_past + offset + nb_noise
        scene_ids.append("synth-%06d|m=%d|h=%r|x0=%r/%r|v=%r" % (i, mode_idx, heading, *turn_point.tolist(), speed))
    return SceneSet(
        ego_pasts=ego_pasts,
        futures=futures,
        neighbor_pasts=neighbor_pasts.reshape(-1, past_len, 2),
        offsets=np.arange(n_scenes + 1, dtype=np.int64) * n_neighbors,
        scene_ids=scene_ids,
    )


def scenes_to_tracks(scenes: SceneSet) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten scenes into the row arrays of disjoint tracks, for TSV export.

    Scene ``i`` occupies frames ``[i * gap, ...)``, ``gap`` being 1000 or the
    scenes' frame count if that is more, so no two scenes share a frame; its
    ego becomes one agent covering past plus future, each neighbor an agent
    covering the past frames only. Tracks are listed scene by scene, ego
    first, with agent ids counting up from 0. Re-windowing the result with
    the same past/future lengths recovers one scene per exported scene.
    """
    past_len = scenes.ego_pasts.shape[1]
    egos = scenes.ego_pasts if scenes.futures is None else np.concatenate([scenes.ego_pasts, scenes.futures], axis=1)
    n_scenes, ego_len = egos.shape[:2]
    per_scene = 1 + np.diff(scenes.offsets)  # tracks of each scene: its ego, then its neighbors
    is_ego = np.zeros(per_scene.sum(), dtype=bool)
    is_ego[np.cumsum(per_scene) - per_scene] = True
    lengths = np.where(is_ego, ego_len, past_len)
    first_row = np.cumsum(lengths) - lengths
    coords = np.empty((lengths.sum(), 2))
    coords[first_row[is_ego, None] + np.arange(ego_len)] = egos
    coords[first_row[~is_ego, None] + np.arange(past_len)] = scenes.neighbor_pasts
    base = np.repeat(np.arange(n_scenes, dtype=np.int64) * max(1000, ego_len), per_scene)
    frames = np.repeat(base - first_row, lengths) + np.arange(len(coords))
    return np.arange(len(lengths), dtype=np.int64), lengths, frames, coords


def load_manifest(
    manifest_path,
    past_len: int,
    future_len: int,
    stride: int = 1,
    max_neighbors: int = 8,
) -> SceneSet:
    """Load every TSV listed in a manifest file and window it into one set of scenes.

    The manifest holds one TSV path per line (relative paths resolve against
    the manifest's directory); blank lines and ``#`` comments are skipped.
    A file's stem prefixes its scene ids, so a stem holding ``,`` or ``"``
    or listed on an earlier line raises ParseError with the manifest line
    number; so do non-UTF-8 bytes. Each listed file logs its track, window
    and skipped-window counts under its stem.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ParseError(f"manifest file does not exist: {manifest_path}")
    sets, stem_lines = [], {}
    for line_no, line in _utf8_lines(manifest_path):
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        tsv_path = Path(entry)
        if "," in tsv_path.stem or '"' in tsv_path.stem:
            raise ParseError(
                f"file name {tsv_path.name!r} holds ',' or '\"', which would shift the CSV columns of its scene ids",
                line_no=line_no,
                path=manifest_path,
            )
        first_line = stem_lines.setdefault(tsv_path.stem, line_no)
        if first_line != line_no:
            raise ParseError(
                f"file stem {tsv_path.stem!r} is already listed on line {first_line}; the two files' scene ids would repeat",
                line_no=line_no,
                path=manifest_path,
            )
        if not tsv_path.is_absolute():
            tsv_path = manifest_path.parent / tsv_path
        if not tsv_path.exists():
            raise ParseError(f"listed file does not exist: {tsv_path}", line_no=line_no, path=manifest_path)
        sets.append(build_scenes(*load_tsv(tsv_path), past_len, future_len, stride, max_neighbors, tsv_path.stem))
    if not sets:
        logger.warning("manifest %s lists no files", manifest_path)
        return build_scenes(*_plain_tsv_rows(b""), past_len, future_len)
    if len(sets) == 1:
        return sets[0]
    return SceneSet(
        ego_pasts=np.concatenate([s.ego_pasts for s in sets]),
        futures=np.concatenate([s.futures for s in sets]),
        neighbor_pasts=np.concatenate([s.neighbor_pasts for s in sets]),
        offsets=np.cumsum(np.concatenate([[0], *(np.diff(s.offsets) for s in sets)])),
        scene_ids=[scene_id for s in sets for scene_id in s.scene_ids],
    )


def dataset_fingerprint(scenes: SceneSet) -> bytes:
    """SHA-256 over each scene's id, then its past, neighbor and future coordinates as little-endian float64."""
    pasts = np.ascontiguousarray(scenes.ego_pasts, dtype="<f8")
    neighbors = np.ascontiguousarray(scenes.neighbor_pasts, dtype="<f8")
    futures = None if scenes.futures is None else np.ascontiguousarray(scenes.futures, dtype="<f8")
    bounds = scenes.offsets.tolist()
    digest = hashlib.sha256()
    for i, scene_id in enumerate(scenes.scene_ids):
        digest.update(scene_id.encode("utf-8"))
        digest.update(pasts[i])
        digest.update(neighbors[bounds[i] : bounds[i + 1]])
        if futures is not None:
            digest.update(futures[i])
    return digest.digest()
