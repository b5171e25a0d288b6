"""The benchmark workloads: seeded input generators plus run settings.

Inputs are written as ``frame agent_id x y`` TSV files with a one-line
manifest, exactly what a user hands the CLI. Generation is benchmark code and
is never timed. The same workload seed always writes the same bytes, and the
generators use no memtraj code, so a change to the program cannot change the
inputs it is measured on.

Every workload uses meter scale, feature dims 64/32/64 and batch 64. Why each
one exists, and which layer it loads, is in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PAST_LEN = 8
FUTURE_LEN = 12

COMMON_CONFIG = dict(
    scale="meter",
    past_dim=64,
    intent_dim=32,
    addr_dim=64,
    batch_size=64,
    past_len=PAST_LEN,
    future_len=FUTURE_LEN,
)


def _write_tsv(path: Path, frames: np.ndarray, agents: np.ndarray, coords: np.ndarray) -> None:
    """Rows of ``frame agent x y`` with round-trip exact coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            "%d %d %.17g %.17g\n" % (f, a, x, y)
            for f, a, (x, y) in zip(frames.tolist(), agents.tolist(), coords.tolist())
        )


def _write_split(data_dir: Path, name: str, frames, agents, coords) -> Path:
    data_dir.mkdir(parents=True, exist_ok=True)
    _write_tsv(data_dir / f"{name}.tsv", frames, agents, coords)
    manifest = data_dir / f"{name}.txt"
    manifest.write_text(f"{name}.tsv\n", encoding="utf-8")
    return manifest


def _unit(angle: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(angle), np.sin(angle)], axis=-1)


def synth_split(rng: np.random.Generator, n_scenes: int, speed=0.25, jitter=0.02, n_neighbors=2):
    """Disjoint three-agent scenes: one window per ego, neighbors past-only.

    The ego walks ``PAST_LEN`` steps on a random heading, then turns straight,
    left or right (equally likely) for ``FUTURE_LEN`` steps; neighbors walk
    parallel to its past, 1-2 m to either side. Scene ``i`` owns frames
    ``[1000 i, 1000 i + 20)``, so each TSV window is exactly one scene.
    """
    window = PAST_LEN + FUTURE_LEN
    heading = rng.uniform(0.0, 2.0 * np.pi, n_scenes)
    start = rng.uniform(-10.0, 10.0, (n_scenes, 2))
    turn = rng.choice(np.array([0.0, np.pi / 2.0, -np.pi / 2.0]), n_scenes)
    t_past = np.arange(PAST_LEN)[None, :, None]
    past = start[:, None, :] + t_past * speed * _unit(heading)[:, None, :]
    t_future = np.arange(1, FUTURE_LEN + 1)[None, :, None]
    future = past[:, -1:, :] + t_future * speed * _unit(heading + turn)[:, None, :]
    ego = np.concatenate([past, future], axis=1) + rng.normal(0.0, jitter, (n_scenes, window, 2))
    side = np.where(np.arange(n_neighbors) % 2 == 0, 1.0, -1.0)
    offset = side[None, :, None] * (1.0 + rng.uniform(0.0, 1.0, (n_scenes, n_neighbors, 1)))
    nb = (
        past[:, None, :, :]
        + offset[..., None] * _unit(heading + np.pi / 2.0)[:, None, None, :]
        + rng.normal(0.0, jitter, (n_scenes, n_neighbors, PAST_LEN, 2))
    )
    frames, agents, coords = [], [], []
    per_scene = 1 + n_neighbors
    for i in range(n_scenes):
        base = 1000 * i
        frames.append(base + np.arange(window))
        agents.append(np.full(window, per_scene * i))
        coords.append(ego[i])
        for j in range(n_neighbors):
            frames.append(base + np.arange(PAST_LEN))
            agents.append(np.full(PAST_LEN, per_scene * i + 1 + j))
            coords.append(nb[i, j])
    return np.concatenate(frames), np.concatenate(agents), np.concatenate(coords)


def crowd_split(
    rng: np.random.Generator,
    n_agents: int,
    horizon: int,
    track_len: int,
    stationary_share: float = 0.3,
    frame_step: int = 10,
    speed: float = 0.4,
    turn_sigma: float = 0.08,
    jitter: float = 0.01,
    stationary_jitter: float = 0.003,
):
    """One dense scene of long, overlapping tracks sampled every ``frame_step`` frames.

    Each agent is present for ``track_len`` consecutive samples starting at a
    uniform sample index in ``[0, horizon - track_len]``, so about
    ``n_agents * track_len / horizon`` agents overlap at any time. Moving
    agents walk at ``speed`` m/sample with a random-walk heading; exactly
    ``round(stationary_share * n_agents)`` agents stand still with millimetre
    jitter, so their windows are redundant under the meter-scale filter
    thresholds.
    Stride-1 windowing yields ``track_len - 19`` windows per agent.
    """
    starts = rng.integers(0, horizon - track_len + 1, n_agents)
    stationary = rng.permutation(n_agents) < round(stationary_share * n_agents)
    origin = rng.uniform(-10.0, 10.0, (n_agents, 2))
    heading = rng.uniform(0.0, 2.0 * np.pi, (n_agents, 1)) + np.cumsum(
        rng.normal(0.0, turn_sigma, (n_agents, track_len)), axis=1
    )
    walk = origin[:, None, :] + np.cumsum(speed * _unit(heading), axis=1)
    walk += rng.normal(0.0, jitter, walk.shape)
    still = origin[:, None, :] + rng.normal(0.0, stationary_jitter, walk.shape)
    coords = np.where(stationary[:, None, None], still, walk)
    frames = (starts[:, None] + np.arange(track_len)[None, :]) * frame_step
    agents = np.repeat(np.arange(n_agents), track_len)
    return frames.reshape(-1), agents, coords.reshape(-1, 2)


@dataclass(frozen=True)
class Workload:
    config: dict  # memtraj Config overrides on top of COMMON_CONFIG
    make_inputs: Callable[[int, Path], tuple[Path, Path]]  # (seed, data dir) -> (train, test) manifests


def _synth_inputs(n_train: int, n_test: int):
    def make(seed: int, data_dir: Path) -> tuple[Path, Path]:
        train_rng, test_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
        return (
            _write_split(data_dir, "train", *synth_split(train_rng, n_train)),
            _write_split(data_dir, "test", *synth_split(test_rng, n_test)),
        )

    return make


def _crowd_inputs(seed: int, data_dir: Path) -> tuple[Path, Path]:
    train_rng, test_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    # 360 agents x 43 windows = 15480 training windows; 520 agents x 2 windows
    # = 1040 test windows. An agent's windows share its path, so many shorter
    # tracks keep both the trained model and the test mix alike across seeds.
    return (
        _write_split(data_dir, "train", *crowd_split(train_rng, n_agents=360, horizon=1600, track_len=62)),
        _write_split(data_dir, "test", *crowd_split(test_rng, n_agents=520, horizon=600, track_len=21)),
    )


WORKLOADS = {
    "train": Workload(
        config=dict(
            epochs_features=40,
            epochs_fulfillment=40,
            epochs_addresser=50,
            n_retrieve=60,
            n_predict=20,
        ),
        make_inputs=_synth_inputs(1500, 1000),
    ),
    "crowd": Workload(
        config=dict(
            epochs_features=3,
            epochs_fulfillment=3,
            epochs_addresser=0,
            n_retrieve=60,
            n_predict=5,
            window_stride=1,
        ),
        make_inputs=_crowd_inputs,
    ),
}
