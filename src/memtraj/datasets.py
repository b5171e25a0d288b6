"""Trajectory data: TSV loading, scene windowing, normalization, synthesis.

The on-disk format is whitespace-separated ``frame agent_id x y`` rows, one
row per agent per frame.  A *scene* is one prediction instance: an ego agent
with ``past_len`` observed steps, the other agents fully co-present over
those steps as neighbors, and (for training/evaluation) ``future_len`` future
ego steps.  Coordinates are translated so the ego's last observed position is
the origin; models only ever see normalized scenes.

The synthetic generator produces constant-speed walks whose future heading is
drawn from a small set of turn modes, which gives a controlled multimodal
ground truth for tests.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError

logger = logging.getLogger(__name__)


@dataclass
class RawTrack:
    """One agent's samples, sorted by frame."""

    agent_id: int
    frames: np.ndarray  # (n,) int64
    coords: np.ndarray  # (n, 2) float64


@dataclass
class Scene:
    """One prediction instance in a shared coordinate frame.

    ego_past: (past_len, 2); neighbor_pasts: (n_neighbors, past_len, 2);
    ego_future: (future_len, 2) or None at pure inference time.
    """

    ego_past: np.ndarray
    neighbor_pasts: np.ndarray
    ego_future: np.ndarray | None
    scene_id: str

    @property
    def n_neighbors(self) -> int:
        return self.neighbor_pasts.shape[0]


@dataclass
class NormTransform:
    """Translation taking world coordinates to the ego-centered frame."""

    translation: np.ndarray  # (2,), added to world points

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) + self.translation

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) - self.translation


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


def load_tsv(path) -> list[RawTrack]:
    """Parse ``frame agent_id x y`` rows into per-agent tracks.

    Agents appear in first-seen order; samples are sorted by frame. Blank
    lines are skipped. A malformed line, a frame or agent id that is not an
    integer, a NaN or infinite coordinate, a second row for the same
    (frame, agent), or bytes that are not UTF-8 raise ParseError with the
    1-based line number.
    """
    by_agent: dict[int, list[tuple[int, float, float]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    # Undecodable bytes become lone surrogates, so they are caught on their own line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not UTF-8 text", line_no=line_no) from None
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
            by_agent.setdefault(agent_id, []).append((frame, x, y))
    tracks = []
    for agent_id, samples in by_agent.items():
        samples.sort(key=lambda s: s[0])
        frames = np.array([s[0] for s in samples], dtype=np.int64)
        coords = np.array([[s[1], s[2]] for s in samples], dtype=np.float64)
        tracks.append(RawTrack(agent_id=agent_id, frames=frames, coords=coords))
    return tracks


def save_tsv(tracks: Sequence[RawTrack], path) -> None:
    """Write tracks back to the TSV format.

    Coordinates are printed with %.17g, so a load/save/load cycle reproduces
    the float64 values exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for track in tracks:
            for frame, (x, y) in zip(track.frames, track.coords):
                fh.write("%d %d %.17g %.17g\n" % (frame, track.agent_id, x, y))


def _frame_step(tracks: Sequence[RawTrack]) -> int:
    """Smallest positive frame gap in the data; 1 if nothing has two samples."""
    step = None
    for track in tracks:
        if len(track.frames) < 2:
            continue
        diffs = np.diff(track.frames)
        positive = diffs[diffs > 0]
        if positive.size:
            smallest = int(positive.min())
            step = smallest if step is None else min(step, smallest)
    return step if step is not None else 1


def build_scenes(
    tracks: Sequence[RawTrack],
    past_len: int,
    future_len: int,
    stride: int = 1,
    max_neighbors: int = 8,
    tag: str = "",
) -> list[Scene]:
    """Cut sliding windows of ``past_len + future_len`` frames into scenes.

    A window is valid when the ego agent covers it with evenly spaced frames
    (spacing = the dataset's smallest frame gap). Window start positions
    advance by ``stride`` samples. Every other agent present at all
    ``past_len`` past frames becomes a neighbor; if there are more than
    ``max_neighbors``, the nearest ones at the last observed frame win (ties
    broken by agent id). The emitted set of scenes does not depend on the
    ordering of ``tracks``.
    """
    if past_len < 1 or future_len < 1:
        raise ValueError(f"past_len and future_len must be >= 1, got {past_len}, {future_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if max_neighbors < 0:
        raise ValueError(f"max_neighbors must be >= 0, got {max_neighbors}")
    step = _frame_step(tracks)
    window = past_len + future_len
    # Who is where: frame -> [(track index, row index)], for neighbor lookup.
    presence: dict[int, list[tuple[int, int]]] = {}
    for t_idx, track in enumerate(tracks):
        for row, frame in enumerate(track.frames):
            presence.setdefault(int(frame), []).append((t_idx, row))
    row_of = [
        {int(f): r for r, f in enumerate(track.frames)}
        for track in tracks
    ]
    prefix = f"{tag}:" if tag else ""
    scenes = []
    for t_idx, track in enumerate(tracks):
        n = len(track.frames)
        for start in range(0, n - window + 1, stride):
            frames = track.frames[start : start + window]
            if np.any(np.diff(frames) != step):
                continue
            past_frames = frames[:past_len]
            last_frame = int(past_frames[-1])
            ego_past = track.coords[start : start + past_len]
            ego_future = track.coords[start + past_len : start + window]
            # Candidates must at least be present at the last observed frame.
            neighbors = []
            for o_idx, o_row in presence.get(last_frame, ()):
                if o_idx == t_idx:
                    continue
                rows = row_of[o_idx]
                try:
                    first_row = rows[int(past_frames[0])]
                except KeyError:
                    continue
                if all(int(f) in rows for f in past_frames[1:-1]):
                    other = tracks[o_idx]
                    past = other.coords[first_row : first_row + past_len]
                    # Gappy tracks can have the frames but not contiguously.
                    if past.shape[0] != past_len or np.any(
                        other.frames[first_row : first_row + past_len] != past_frames
                    ):
                        past = np.stack([other.coords[rows[int(f)]] for f in past_frames])
                    dist = float(np.linalg.norm(past[-1] - ego_past[-1]))
                    neighbors.append((dist, other.agent_id, past))
            neighbors.sort(key=lambda item: (item[0], item[1]))
            if max_neighbors:
                neighbors = neighbors[:max_neighbors]
            else:
                neighbors = []
            neighbor_pasts = (
                np.stack([nb[2] for nb in neighbors])
                if neighbors
                else np.zeros((0, past_len, 2))
            )
            scenes.append(
                Scene(
                    ego_past=ego_past.copy(),
                    neighbor_pasts=neighbor_pasts,
                    ego_future=ego_future.copy(),
                    scene_id=f"{prefix}{track.agent_id}:{last_frame}",
                )
            )
    return scenes


def normalize_scene(scene: Scene) -> tuple[Scene, NormTransform]:
    """Translate a scene so the ego's last observed position is the origin."""
    origin = np.asarray(scene.ego_past[-1], dtype=np.float64)
    transform = NormTransform(translation=-origin)
    normalized = Scene(
        ego_past=transform.apply(scene.ego_past),
        neighbor_pasts=(
            transform.apply(scene.neighbor_pasts)
            if scene.n_neighbors
            else scene.neighbor_pasts.copy()
        ),
        ego_future=None if scene.ego_future is None else transform.apply(scene.ego_future),
        scene_id=scene.scene_id,
    )
    return normalized, transform


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
    start_box: float = 10.0,
) -> list[Scene]:
    """Generate constant-speed walks with a mode-sampled future heading.

    Each scene: the ego walks ``past_len`` steps at ``speed`` along a random
    heading from a random start in ``[-start_box, start_box]^2``, then turns
    by a mode angle drawn from ``mode_spec`` and walks ``future_len`` more
    steps. Independent Gaussian jitter of scale ``jitter`` is added to every
    point. Neighbors are parallel walkers offset sideways, past only.

    The scene_id records the drawn mode index plus the clean heading, turn
    point, and speed (see :func:`synth_meta`), so tests can reconstruct the
    noise-free endpoint of every mode.
    """
    if n_scenes < 1:
        raise ValueError(f"n_scenes must be >= 1, got {n_scenes}")
    modes = list(mode_spec) if mode_spec is not None else default_modes()
    if len(modes) < 2:
        raise ValueError(f"need at least 2 modes, got {len(modes)}")
    probs = np.array([m.prob for m in modes], dtype=np.float64)
    if np.any(probs < 0):
        raise ValueError("mode probabilities must be >= 0")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        raise ValueError(f"mode probabilities sum to {probs.sum()!r}, expected 1")
    probs = probs / probs.sum()
    if jitter < 0:
        raise ValueError(f"jitter must be >= 0, got {jitter}")
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")

    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(n_scenes):
        heading = float(rng.uniform(0.0, 2.0 * np.pi))
        start = rng.uniform(-start_box, start_box, size=2)
        mode_idx = int(rng.choice(len(modes), p=probs))
        steps_past = start + np.outer(np.arange(past_len), speed * _unit(heading))
        turn_point = steps_past[-1]
        future_dir = speed * _unit(heading + modes[mode_idx].turn)
        steps_future = turn_point + np.outer(np.arange(1, future_len + 1), future_dir)
        noise = rng.normal(0.0, jitter, size=(past_len + future_len, 2)) if jitter > 0 else np.zeros((past_len + future_len, 2))
        ego_past = steps_past + noise[:past_len]
        ego_future = steps_future + noise[past_len:]
        neighbor_pasts = np.zeros((0, past_len, 2))
        if n_neighbors > 0:
            perp = _unit(heading + np.pi / 2.0)
            rows = []
            for j in range(n_neighbors):
                side = 1.0 if j % 2 == 0 else -1.0
                offset = side * (1.0 + rng.uniform(0.0, 1.0)) * perp
                nb_noise = rng.normal(0.0, jitter, size=(past_len, 2)) if jitter > 0 else np.zeros((past_len, 2))
                rows.append(steps_past + offset + nb_noise)
            neighbor_pasts = np.stack(rows)
        scene_id = "synth-%06d|m=%d|h=%r|x0=%r/%r|v=%r" % (
            i,
            mode_idx,
            heading,
            float(turn_point[0]),
            float(turn_point[1]),
            speed,
        )
        scenes.append(
            Scene(
                ego_past=ego_past,
                neighbor_pasts=neighbor_pasts,
                ego_future=ego_future,
                scene_id=scene_id,
            )
        )
    return scenes


def synth_meta(scene_id: str) -> dict:
    """Parse a synthetic scene_id back into its generator parameters."""
    fields = scene_id.split("|")
    if not fields or not fields[0].startswith("synth-"):
        raise ValueError(f"not a synthetic scene_id: {scene_id!r}")
    meta: dict = {"index": int(fields[0][len("synth-"):])}
    for field in fields[1:]:
        key, _, value = field.partition("=")
        if key == "m":
            meta["mode"] = int(value)
        elif key == "h":
            meta["heading"] = float(value)
        elif key == "x0":
            sx, _, sy = value.partition("/")
            meta["turn_point"] = np.array([float(sx), float(sy)])
        elif key == "v":
            meta["speed"] = float(value)
    return meta


def synth_mode_endpoints(meta: dict, mode_spec: Sequence[SynthMode], future_len: int) -> np.ndarray:
    """Noise-free world endpoint of every mode for one synthetic scene."""
    endpoints = []
    for mode in mode_spec:
        direction = _unit(meta["heading"] + mode.turn)
        endpoints.append(meta["turn_point"] + future_len * meta["speed"] * direction)
    return np.stack(endpoints)


def scenes_to_tracks(scenes: Sequence[Scene], frame_gap: int = 1000) -> list[RawTrack]:
    """Flatten scenes into disjoint tracks for TSV export.

    Scene ``i`` occupies frames ``[i * frame_gap, ...)``; its ego becomes one
    agent covering past plus future, each neighbor an agent covering the past
    frames only. Re-windowing the result with the same past/future lengths
    recovers one scene per exported scene.
    """
    tracks = []
    next_agent = 0
    for i, scene in enumerate(scenes):
        base = i * frame_gap
        past_len = scene.ego_past.shape[0]
        ego_coords = (
            np.vstack([scene.ego_past, scene.ego_future])
            if scene.ego_future is not None
            else scene.ego_past
        )
        tracks.append(
            RawTrack(
                agent_id=next_agent,
                frames=base + np.arange(ego_coords.shape[0], dtype=np.int64),
                coords=ego_coords.copy(),
            )
        )
        next_agent += 1
        for nb in scene.neighbor_pasts:
            tracks.append(
                RawTrack(
                    agent_id=next_agent,
                    frames=base + np.arange(past_len, dtype=np.int64),
                    coords=nb.copy(),
                )
            )
            next_agent += 1
    return tracks


def load_manifest(
    manifest_path,
    past_len: int,
    future_len: int,
    stride: int = 1,
    max_neighbors: int = 8,
) -> list[Scene]:
    """Load every TSV listed in a manifest file and window it into scenes.

    The manifest holds one TSV path per line (relative paths resolve against
    the manifest's directory); blank lines and ``#`` comments are skipped.
    A file's stem prefixes its scene ids, so a stem holding ``,`` or ``"``
    raises ParseError with the manifest line number.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ParseError(f"manifest file does not exist: {manifest_path}")
    scenes = []
    saw_entry = False
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            saw_entry = True
            tsv_path = Path(entry)
            if "," in tsv_path.stem or '"' in tsv_path.stem:
                raise ParseError(
                    f"file name {tsv_path.name!r} holds ',' or '\"', which would shift the CSV columns of its scene ids",
                    line_no=line_no,
                )
            if not tsv_path.is_absolute():
                tsv_path = manifest_path.parent / tsv_path
            if not tsv_path.exists():
                raise ParseError(f"listed file does not exist: {tsv_path}", line_no=line_no)
            tracks = load_tsv(tsv_path)
            scenes.extend(
                build_scenes(
                    tracks,
                    past_len=past_len,
                    future_len=future_len,
                    stride=stride,
                    max_neighbors=max_neighbors,
                    tag=tsv_path.stem,
                )
            )
    if not saw_entry:
        logger.warning("manifest %s lists no files", manifest_path)
    return scenes


def dataset_fingerprint(scenes: Sequence[Scene]) -> bytes:
    """SHA-256 over scene ids and coordinates, for artifact provenance."""
    digest = hashlib.sha256()
    for scene in scenes:
        digest.update(scene.scene_id.encode("utf-8"))
        digest.update(np.ascontiguousarray(scene.ego_past, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(scene.neighbor_pasts, dtype="<f8").tobytes())
        if scene.ego_future is not None:
            digest.update(np.ascontiguousarray(scene.ego_future, dtype="<f8").tobytes())
    return digest.digest()
