"""Unit tests for TSV parsing, scene windowing, scene sets, and the synthetic generator."""

import tempfile
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memtraj.datasets import (
    Scene,
    SynthMode,
    build_scenes,
    dataset_fingerprint,
    default_modes,
    load_manifest,
    load_tsv,
    save_tsv,
    scene_batch,
    scenes_to_tracks,
    synth_generate,
)
from memtraj import datasets
from memtraj.cli import main
from memtraj.datasets import _load_tsv_lines
from memtraj.errors import ParseError

from conftest import quick_config
from oracles import (
    normalize_scene,
    reference_batch,
    reference_fingerprint,
    scene_set,
    synth_meta,
    synth_mode_endpoints,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_tsv_first_seen_order_and_frame_sort(tmp_path):
    path = write(
        tmp_path,
        "a.tsv",
        "2 7 1.0 2.0\n"
        "1 7 0.0 0.0\n"
        "\n"
        "1 3 5.0 5.0\n"
        "3 7 2.0 4.0\n",
    )
    agent_ids, lengths, frames, coords = load_tsv(path)
    assert agent_ids.tolist() == [7, 3] and lengths.tolist() == [3, 1]
    np.testing.assert_array_equal(frames[:3], [1, 2, 3])
    np.testing.assert_array_equal(coords[:3], [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])


def test_load_tsv_errors_carry_line_numbers(tmp_path):
    path = write(tmp_path, "bad.tsv", "1 1 0.0 0.0\n2 1 0.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_tsv(path)
    path = write(tmp_path, "bad2.tsv", "1 1 0.0 0.0\n\n3 1 x 0.0\n")
    with pytest.raises(ParseError, match="line 3"):
        load_tsv(path)
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"1 1 0.0 0.0\n2 1 0.5 0.0\n3 1 1.0 0.0 \xe9\n")
    with pytest.raises(ParseError, match="line 3: not UTF-8"):
        load_tsv(path)


def test_load_tsv_rejects_non_finite_coordinates(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = write(tmp_path, f"{bad}.tsv", f"1 1 0.0 0.0\n2 1 {bad} 0.5\n")
        with pytest.raises(ParseError, match="line 2: non-finite"):
            load_tsv(path)
        path = write(tmp_path, f"{bad}-y.tsv", f"1 1 0.0 0.0\n\n2 1 0.5 {bad}\n")
        with pytest.raises(ParseError, match="line 3: non-finite"):
            load_tsv(path)
    # an infinite frame number is not a frame at all
    path = write(tmp_path, "inf-frame.tsv", "inf 1 0.0 0.0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_tsv(path)


def test_load_tsv_rejects_fractional_frames(tmp_path):
    # truncating would load frames [1 2]; integral float spellings still load
    with pytest.raises(ParseError, match="line 2: frame 2.5 is not an integer"):
        load_tsv(write(tmp_path, "frac.tsv", "1 7 0.0 0.0\n2.5 7 1.0 1.0\n"))
    agent_ids, lengths, frames, _ = load_tsv(write(tmp_path, "spelled.tsv", "3.0 7 0.0 0.0\n1e1 7 1.0 1.0\n4 2.0 0.0 0.0\n"))
    np.testing.assert_array_equal(frames[: lengths[0]], [3, 10])
    assert agent_ids.tolist() == [7, 2]
    # frames are int64; a larger one is an input error, not an overflow while building the track
    with pytest.raises(ParseError, match="line 1: frame 9223372036854775808 is out of the int64 range"):
        load_tsv(write(tmp_path, "huge.tsv", "9223372036854775808 7 0.0 0.0\n"))


@settings(max_examples=60, deadline=None)
@given(
    value=st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: not v.is_integer()),
    good_rows=st.integers(0, 3),
    field=st.sampled_from(["frame", "agent id"]),
)
def test_load_tsv_rejects_any_non_integral_index(tmp_path_factory, value, good_rows, field):
    rows = [f"{frame} 1 0.0 0.0" for frame in range(good_rows)]
    rows.append(f"{value!r} 1 0.0 0.0" if field == "frame" else f"{good_rows} {value!r} 0.0 0.0")
    path = tmp_path_factory.mktemp("frac") / "bad.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match=f"line {good_rows + 1}: {field} .* is not an integer") as info:
        load_tsv(path)
    assert info.value.line_no == good_rows + 1


@settings(max_examples=60, deadline=None)
@given(
    frames=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6, unique=True),
    agent_id=st.integers(-(2**63), 2**63 - 1),
)
def test_integral_frames_and_ids_round_trip(tmp_path_factory, frames, agent_id):
    frames = np.sort(np.array(frames, dtype=np.int64))
    rows = np.array([agent_id], dtype=np.int64), np.array([len(frames)]), frames, np.zeros((len(frames), 2))
    path = tmp_path_factory.mktemp("ints") / "round.tsv"
    save_tsv(rows, path)
    back_ids, back_lengths, back_frames, _ = load_tsv(path)
    assert back_ids.tolist() == [agent_id] and back_lengths.tolist() == [len(frames)]
    np.testing.assert_array_equal(back_frames, frames)


def _rows_outcome(rows_of, path):
    """What a row-array read gives: each track's agent id, frames and coordinate bytes with their dtypes, or the error."""
    try:
        agent_ids, lengths, frames, coords = rows_of(path)
    except ParseError as exc:
        return str(exc)
    bounds = np.cumsum(lengths)[:-1]
    tracks = zip(agent_ids.tolist(), np.split(frames, bounds), np.split(coords, bounds))
    dtypes = (agent_ids.dtype, lengths.dtype, frames.dtype, coords.dtype)
    return [(agent_id, f.tolist(), c.tobytes()) for agent_id, f, c in tracks], dtypes


_TSV_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["+1", "-0", "007", "3.0", "1e1", "9223372036854775807", "9223372036854775808"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", ".5", "5.", "1E-3", "1e400", "nan", "-inf", "x", "1_0", "--1", "\u0663"]),
)


_PLAIN_INDEX = st.integers(0, 9).map(str) | st.sampled_from(["+1", "-0", "007"])
_PLAIN_NUMBER = st.floats(-5.0, 5.0).map(repr) | st.sampled_from(["-0.0", ".5", "5.", "1E-3", "1e-320"])
_PLAIN_ROW = st.tuples(_PLAIN_INDEX, _PLAIN_INDEX, _PLAIN_NUMBER, _PLAIN_NUMBER)
_PLAIN_ODD = st.sampled_from(["3.0", "1e400", "-1e999", "9223372036854775808"])  # plain characters, checked parse


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_PLAIN_ROW, max_size=12)
    | st.lists(
        st.one_of(
            _PLAIN_ROW,
            st.tuples(_PLAIN_INDEX | _PLAIN_ODD, _PLAIN_INDEX, _PLAIN_NUMBER | _PLAIN_ODD, _PLAIN_NUMBER),
            st.lists(_TSV_TOKENS, min_size=4, max_size=4),
            st.lists(_TSV_TOKENS, max_size=5),
        ),
        max_size=12,
    ),
    gap=st.sampled_from([" ", " ", "\t", "  \t", "\x0c"]),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_load_tsv_reads_plain_and_other_text_alike(tmp_path_factory, rows, gap, newline):
    # the whole-array read of plain-number text gives what the line-by-line parse gives
    path = tmp_path_factory.mktemp("tsv") / "rows.tsv"
    path.write_bytes((newline.join(gap.join(row) for row in rows) + newline).encode("utf-8"))
    assert _rows_outcome(load_tsv, path) == _rows_outcome(_load_tsv_lines, path)


def test_load_tsv_plain_text_keeps_every_check(tmp_path):
    # plain-number text that the line-by-line parse rejects or reads differently
    for text, expected in (
        ("1 1 0.0 0.0\n2 1 1e400 0.0\n", "line 2: non-finite"),
        ("1 7 0.0 0.0\n1 3 0.0 0.0\n1 7 0.5 0.0\n", "line 3: duplicate row for frame 1, agent 7"),
        ("1 7 0.0 0.0\n2 7 0.0\n", "line 2: expected 4 fields"),
        ("9223372036854775808 7 0.0 0.0\n", "line 1: frame 9223372036854775808 is out of the int64 range"),
    ):
        path = write(tmp_path, "plain.tsv", text)
        with pytest.raises(ParseError, match=expected):
            load_tsv(path)
    agent_ids, lengths, frames, coords = load_tsv(write(tmp_path, "plain.tsv", "2 9 0.0 0.0\n1 9 -0.0 .5\n1 3 1e1 0\n"))
    assert agent_ids.tolist() == [9, 3] and lengths.tolist() == [2, 1]
    np.testing.assert_array_equal(frames[:2], [1, 2])
    assert coords[:2].tobytes() == np.array([[-0.0, 0.5], [0.0, 0.0]]).tobytes()


def test_load_tsv_rejects_duplicate_rows(tmp_path):
    # the same (frame, agent) twice, even with other rows between: the second occurrence is reported
    path = write(tmp_path, "dup.tsv", "1 7 0.0 0.0\n2 7 1.0 1.0\n1 3 0.0 0.0\n2 7 1.5 1.0\n")
    with pytest.raises(ParseError, match="line 4: duplicate row for frame 2, agent 7 \\(first on line 2\\)"):
        load_tsv(path)
    # the same frame for different agents is fine
    agent_ids, *_ = load_tsv(write(tmp_path, "ok.tsv", "1 7 0.0 0.0\n1 3 0.0 0.0\n"))
    assert agent_ids.tolist() == [7, 3]


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark Windows editors often write first


@pytest.mark.parametrize("plain", [True, False])
def test_load_tsv_ignores_a_leading_byte_order_mark(tmp_path, monkeypatch, plain):
    # "\r\n" is no plain-number character, so that text takes the line-by-line parse
    newline = "\n" if plain else "\r\n"
    text = newline.join(["2 7 1.0 2.0", "1 7 0.0 0.0", "1 3 5.0 5.0"]) + newline
    without, with_bom = tmp_path / "plain.tsv", tmp_path / "bom.tsv"
    without.write_bytes(text.encode("utf-8"))
    with_bom.write_bytes(BOM + text.encode("utf-8"))
    expected = _rows_outcome(load_tsv, without)
    if plain:
        # a plain-number file with a BOM still takes the whole-array read
        monkeypatch.setattr(datasets, "_load_tsv_lines", lambda path: pytest.fail("took the line-by-line parse"))
    assert _rows_outcome(load_tsv, with_bom) == expected


def test_save_load_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(4)
    coords = np.vstack([rng.normal(scale=100.0, size=(5, 2)), [[1e-17, -3.25]]])
    rows = np.array([2]), np.array([6]), np.arange(6, dtype=np.int64), coords
    path = tmp_path / "round.tsv"
    save_tsv(rows, path)
    back = load_tsv(path)
    np.testing.assert_array_equal(back[3], coords)
    np.testing.assert_array_equal(back[2], rows[2])
    # the rows written are the rows read, byte for byte
    save_tsv(back, tmp_path / "again.tsv")
    assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


def line_rows(agent_id, n, start=0.0, frame0=0, step=1, y=0.0):
    """The row arrays of a file holding one agent that walks along x, one unit per sample."""
    frames = frame0 + step * np.arange(n, dtype=np.int64)
    coords = np.stack([start + np.arange(n, dtype=np.float64), np.full(n, y)], axis=1)
    return np.array([agent_id], dtype=np.int64), np.array([n], dtype=np.int64), frames, coords


def join(*files):
    """The row arrays of several track files as one file, track after track."""
    return tuple(np.concatenate(parts) for parts in zip(*files))


def split(rows):
    """Each track of the row arrays as the row arrays of a file of its own."""
    agent_ids, lengths, frames, coords = rows
    bounds = np.cumsum(lengths)[:-1]
    parts = zip(np.split(frames, bounds), np.split(coords, bounds))
    return [(agent_ids[t : t + 1], lengths[t : t + 1], f, c) for t, (f, c) in enumerate(parts)]


def without_row(rows, row):
    """One-track row arrays with one row deleted."""
    agent_ids, lengths, frames, coords = rows
    return agent_ids, lengths - 1, np.delete(frames, row), np.delete(coords, row, axis=0)


# ---------------------------------------------------------------------------
# Reference windowing: one Python pass per window, against which the
# whole-array build_scenes is checked.
# ---------------------------------------------------------------------------


class _Track(NamedTuple):
    """One agent's samples: the per-agent form the oracle loops over."""

    agent_id: int
    frames: np.ndarray
    coords: np.ndarray


def _reference_frame_step(tracks: Sequence[_Track]) -> int:
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


def reference_build_scenes(
    rows,
    past_len: int,
    future_len: int,
    stride: int = 1,
    max_neighbors: int = 8,
    tag: str = "",
) -> list[Scene]:
    """The per-window loop ``build_scenes`` replaced, kept as its oracle.

    A window is valid when the ego agent covers it with evenly spaced frames
    (spacing = the dataset's smallest frame gap). Window start positions
    advance by ``stride`` samples. Every other agent present at all
    ``past_len`` past frames becomes a neighbor; if there are more than
    ``max_neighbors``, the nearest ones at the last observed frame win (ties
    broken by agent id). The emitted set of scenes does not depend on the
    ordering of the tracks in ``rows``.
    """
    if past_len < 1 or future_len < 1:
        raise ValueError(f"past_len and future_len must be >= 1, got {past_len}, {future_len}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if max_neighbors < 0:
        raise ValueError(f"max_neighbors must be >= 0, got {max_neighbors}")
    tracks = [_Track(int(ids[0]), frames, coords) for ids, _, frames, coords in split(rows)]
    step = _reference_frame_step(tracks)
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



@st.composite
def random_tracks(draw, unique_ids=False):
    """The row arrays of tracks with gaps, a shared coarser frame step and many exactly equidistant neighbors."""
    step = draw(st.sampled_from([1, 2, 10]))
    n_tracks = draw(st.integers(1, 6))
    ids = draw(st.lists(st.integers(-3, 9), min_size=n_tracks, max_size=n_tracks, unique=unique_ids))
    # mostly small integers, so distances tie exactly; -0.0 and finer values break some ties
    lattice = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
    coordinate = st.one_of(lattice, lattice, lattice, st.sampled_from([-0.0, 0.5, 1e-300]), st.floats(-3.0, 3.0))
    tracks = []
    for agent_id in ids:
        first = draw(st.integers(0, 6))
        gaps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 2, 3]), max_size=14))
        frames = step * (first + np.concatenate([[0], np.cumsum(gaps, dtype=np.int64)]))
        coords = draw(st.lists(st.tuples(coordinate, coordinate), min_size=len(frames), max_size=len(frames)))
        tracks.append((np.array([agent_id]), np.array([len(frames)]), frames.astype(np.int64), np.array(coords, dtype=np.float64)))
    return join(*tracks)


window_args = dict(
    past_len=st.integers(1, 4),
    future_len=st.integers(1, 4),
    stride=st.integers(1, 3),
    max_neighbors=st.integers(0, 4),
)


def assert_same_scenes(got, want):
    assert [s.scene_id for s in got] == [s.scene_id for s in want]
    for a, b in zip(got, want):
        for field in ("ego_past", "neighbor_pasts", "ego_future"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.shape == y.shape and x.dtype == y.dtype
            assert x.tobytes() == y.tobytes()  # bit for bit, so -0.0 is not 0.0
    assert reference_fingerprint(got) == reference_fingerprint(want)


@settings(max_examples=150, deadline=None)
@given(tracks=random_tracks(), **window_args)
def test_build_scenes_matches_reference(tracks, past_len, future_len, stride, max_neighbors):
    args = dict(past_len=past_len, future_len=future_len, stride=stride, max_neighbors=max_neighbors, tag="t")
    got, want = build_scenes(*tracks, **args), reference_build_scenes(tracks, **args)
    assert_same_scenes(got, want)
    assert dataset_fingerprint(got) == reference_fingerprint(want)


@settings(max_examples=80, deadline=None)
@given(tracks=random_tracks(unique_ids=True), seed=st.integers(0, 2**32 - 1), **window_args)
def test_build_scenes_invariant_to_track_order(tracks, seed, past_len, future_len, stride, max_neighbors):
    args = dict(past_len=past_len, future_len=future_len, stride=stride, max_neighbors=max_neighbors)
    parts = split(tracks)
    shuffled = join(*(parts[i] for i in np.random.default_rng(seed).permutation(len(parts))))
    a = {s.scene_id: s for s in build_scenes(*tracks, **args)}
    b = {s.scene_id: s for s in build_scenes(*shuffled, **args)}
    assert a.keys() == b.keys()
    for sid in a:
        assert_same_scenes([a[sid]], [b[sid]])


def test_build_scenes_rejects_unsorted_frames():
    agent_ids, lengths, frames, coords = line_rows(1, 20)
    frames[[3, 4]] = frames[[4, 3]]
    with pytest.raises(ValueError, match="agent 1.* not strictly increasing"):
        build_scenes(agent_ids, lengths, frames, coords, past_len=8, future_len=12)


def test_frames_further_apart_than_int64_holds_are_windowed(tmp_path, capsys):
    # these two frames are strictly increasing, but their difference overflows int64
    extreme = write(tmp_path, "extreme.tsv", f"{-(2**63)} 1 0 0\n{2**63 - 1} 1 1 1\n")
    assert len(build_scenes(*join(load_tsv(extreme), line_rows(2, 20)), past_len=8, future_len=12)) == 1
    save_tsv(scenes_to_tracks(synth_generate(7, 3, n_neighbors=0)), tmp_path / "synth.tsv")
    write(tmp_path, "manifest.txt", "synth.tsv\nextreme.tsv\n")
    assert len(load_manifest(tmp_path / "manifest.txt", past_len=8, future_len=12)) == 3
    manifest = str(tmp_path / "manifest.txt")
    config = quick_config(out_dir=str(tmp_path / "run"), train_manifest=manifest, test_manifest=manifest, epochs_features=1)
    config.to_file(tmp_path / "run.cfg")
    assert main(["train-features", "--config", str(tmp_path / "run.cfg")]) == 0
    err = capsys.readouterr().err
    assert "error:" not in err and "Traceback" not in err


def test_window_counts():
    # 20 consecutive frames fit exactly one 8+12 window; 21 frames fit two.
    scenes = build_scenes(*line_rows(1, 20), past_len=8, future_len=12)
    assert len(scenes) == 1
    assert scenes[0].n_neighbors == 0
    assert scenes[0].ego_past.shape == (8, 2)
    assert scenes[0].ego_future.shape == (12, 2)
    scenes = build_scenes(*line_rows(1, 21), past_len=8, future_len=12)
    assert len(scenes) == 2


def test_window_respects_frame_gaps():
    scenes = build_scenes(*without_row(line_rows(1, 21), 10), past_len=8, future_len=12)
    assert len(scenes) == 0


def test_window_with_coarser_frame_step():
    # all data sampled every 10 frames: spacing is even, windows still cut
    scenes = build_scenes(*line_rows(1, 20, step=10), past_len=8, future_len=12)
    assert len(scenes) == 1


def test_stride_skips_window_starts():
    scenes = build_scenes(*line_rows(1, 24), past_len=8, future_len=12, stride=2)
    assert len(scenes) == 3  # starts 0, 2, 4


def test_neighbor_selection_and_cap():
    ego = line_rows(1, 20)
    # neighbors at increasing lateral distance, present over the whole window
    others = [line_rows(10 + j, 20, y=1.0 + j) for j in range(5)]
    scenes = build_scenes(*join(ego, *others), past_len=8, future_len=12, max_neighbors=3)
    assert len(scenes) == 6  # every track is ego of its own scene
    ego_scene = [s for s in scenes if s.scene_id.endswith("1:7")][0]
    assert ego_scene.n_neighbors == 3
    np.testing.assert_array_equal(ego_scene.neighbor_pasts[:, -1, 1], [1.0, 2.0, 3.0])


def test_neighbor_tie_breaks_on_agent_id():
    ego = line_rows(1, 20)
    near = line_rows(9, 8, y=2.0)
    far = line_rows(5, 8, y=-2.0)
    scenes = build_scenes(*join(ego, near, far), past_len=8, future_len=12, max_neighbors=1)
    ego_scene = [s for s in scenes if ":1:" in f":{s.scene_id}:"][0]
    # equidistant at the last observed frame; agent 5 wins the tie
    assert ego_scene.neighbor_pasts[0, -1, 1] == -2.0


def test_neighbor_needs_every_past_frame():
    ego = line_rows(1, 20)
    partial = without_row(line_rows(2, 8), 6)  # frame 6 missing
    scenes = build_scenes(*join(ego, partial), past_len=8, future_len=12)
    ego_scene = [s for s in scenes if s.scene_id == "1:7"][0]
    assert ego_scene.n_neighbors == 0


def test_scene_multiset_invariant_to_track_order(small_scenes):
    rows = scenes_to_tracks(small_scenes[:10])
    a = build_scenes(*rows, past_len=8, future_len=12)
    b = build_scenes(*join(*reversed(split(rows))), past_len=8, future_len=12)
    assert len(a) == len(b)
    by_id_a = {s.scene_id: s for s in a}
    by_id_b = {s.scene_id: s for s in b}
    assert by_id_a.keys() == by_id_b.keys()
    for sid, sa in by_id_a.items():
        sb = by_id_b[sid]
        np.testing.assert_array_equal(sa.ego_past, sb.ego_past)
        np.testing.assert_array_equal(sa.neighbor_pasts, sb.neighbor_pasts)
        np.testing.assert_array_equal(sa.ego_future, sb.ego_future)


def test_normalize_scene_centers_last_observation(small_scenes):
    scene = small_scenes[0]
    batch = scene_batch(small_scenes[:1], "this test")
    past = batch.ego_x[0].reshape(-1, 2)
    origin = scene.ego_past[-1]
    np.testing.assert_array_equal(past[-1], [0.0, 0.0])
    np.testing.assert_allclose(past + origin, scene.ego_past, atol=0)
    np.testing.assert_allclose(batch.futures[0] + origin, scene.ego_future, atol=0)
    np.testing.assert_allclose(
        batch.nb_x.reshape(-1, 8, 2), scene.neighbor_pasts - scene.ego_past[-1], atol=0
    )
    # the oracle agrees, and the scene itself is untouched
    normalized, translation = normalize_scene(scene)
    np.testing.assert_array_equal(normalized.ego_past, past)
    np.testing.assert_array_equal(translation, -origin)
    assert not np.array_equal(scene.ego_past[-1], [0.0, 0.0])


# Coordinates include both signed zeros; a batch must keep the oracle's sign of every zero.
_coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])


@st.composite
def scene_lists(draw):
    """1-6 scenes of one past and future length, each with 0-3 neighbors."""
    past_len, future_len = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def points(*shape):
        return np.array(draw(st.lists(_coords, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))).reshape(shape)

    scenes = []
    for i in range(draw(st.integers(1, 6))):
        scenes.append(
            Scene(
                ego_past=points(past_len, 2),
                neighbor_pasts=points(draw(st.integers(0, 3)), past_len, 2),
                ego_future=points(future_len, 2),
                scene_id=f"s{i}",
            )
        )
    return scenes


def _scene(n_neighbors, shift=0.0, past_len=3):
    """A small hand-made scene, with -0.0 in its ego past."""
    ego = np.arange(2.0 * past_len).reshape(past_len, 2) + shift
    ego[0, 0] = -0.0
    return Scene(
        ego_past=ego,
        neighbor_pasts=np.full((n_neighbors, past_len, 2), -0.0) + np.arange(n_neighbors)[:, None, None],
        ego_future=ego[::-1] + 1.0,
        scene_id=f"h{n_neighbors}",
    )


def assert_same_batch(a, b):
    """Two scene batches equal bit for bit, so signed zeros count."""
    for name in ("ego_x", "nb_x", "offsets", "futures"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
            continue
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(scenes=scene_lists(), with_futures=st.booleans())
@example(scenes=[_scene(0), _scene(2, 1.0)], with_futures=True)  # a scene without neighbors first
@example(scenes=[_scene(2), _scene(1, 1.0), _scene(0, 2.0)], with_futures=True)  # ... last
@example(scenes=[_scene(0), _scene(0, 1.0)], with_futures=False)  # ... every scene
@example(scenes=[_scene(0, past_len=1)], with_futures=True)  # the origin is the only past point
def test_scene_batch_matches_per_scene_normalization(scenes, with_futures):
    batch = scene_batch(scene_set(scenes), "this test" if with_futures else None)
    assert len(batch.ego_x) == len(scenes)
    assert_same_batch(batch, reference_batch(scenes, with_futures))


def assert_same_scene(view, scene):
    """A scene view holds one scene's id and coordinates, bit for bit."""
    assert view.scene_id == scene.scene_id
    for field in ("ego_past", "neighbor_pasts", "ego_future"):
        x, y = getattr(view, field), getattr(scene, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


@settings(max_examples=100, deadline=None)
@given(
    scenes=scene_lists(),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=8),
    cut=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
)
@example(scenes=[_scene(0), _scene(2, 1.0), _scene(1, 2.0)], picks=[2, 0, 2, 1, 0], cut=(1, 3))
@example(scenes=[_scene(2), _scene(0, 1.0), _scene(0, 2.0)], picks=[1, 2, 1], cut=(-2, 7))
def test_scene_set_selections_match_a_batch_of_those_scenes(scenes, picks, cut):
    n = len(scenes)
    idx = [i % n for i in picks]  # permuted and repeated scenes
    chosen = [scenes[i] for i in idx]
    whole = scene_set(scenes)
    for taken in (whole.take(idx), whole.take(np.array(idx))):
        assert taken.scene_ids == [s.scene_id for s in chosen]
        assert_same_batch(scene_batch(taken, "this test"), reference_batch(chosen))
    lo, hi = cut
    if scenes[lo:hi]:
        assert_same_batch(scene_batch(whole[lo:hi], "this test"), reference_batch(scenes[lo:hi]))
    else:
        assert len(whole[lo:hi]) == 0
    assert_same_batch(scene_batch(whole[::-1], "this test"), reference_batch(scenes[::-1]))
    for i in [*idx, -1]:
        assert_same_scene(whole[i], scenes[i])
        assert_same_batch(scene_batch(whole.take([i % n])), reference_batch([whole[i]], with_futures=False))
    assert [s.scene_id for s in whole] == [s.scene_id for s in scenes]
    with pytest.raises(IndexError):
        whole[n]


def test_scene_batch_checks_its_input():
    empty = scene_set([_scene(1)])[:0]
    with pytest.raises(ValueError, match="empty scene set for the bank"):
        scene_batch(empty, "the bank")
    with pytest.raises(ValueError, match="empty scene set"):
        scene_batch(empty)
    futureless = scene_set([_scene(1), replace(_scene(0, 1.0), ego_future=None)])
    assert futureless.futures is None
    with pytest.raises(ValueError, match="scene 'h1' has no future; the bank needs one"):
        scene_batch(futureless, "the bank")
    assert scene_batch(futureless).futures is None  # a batch without futures needs none


def test_synth_shapes_and_determinism():
    a = synth_generate(5, 6, past_len=8, future_len=12, n_neighbors=2)
    b = synth_generate(5, 6, past_len=8, future_len=12, n_neighbors=2)
    assert len(a) == 6
    for sa, sb in zip(a, b):
        assert sa.scene_id == sb.scene_id
        assert sa.ego_past.shape == (8, 2)
        assert sa.ego_future.shape == (12, 2)
        assert sa.neighbor_pasts.shape == (2, 8, 2)
        np.testing.assert_array_equal(sa.ego_past, sb.ego_past)
        np.testing.assert_array_equal(sa.ego_future, sb.ego_future)
    c = synth_generate(6, 6, past_len=8, future_len=12)
    assert not np.array_equal(a[0].ego_past, c[0].ego_past)


def test_synth_mode_counts_roughly_even():
    scenes = synth_generate(17, 3000)
    counts = np.zeros(3, dtype=int)
    for scene in scenes:
        counts[synth_meta(scene.scene_id)["mode"]] += 1
    assert counts.sum() == 3000
    assert np.all(counts >= 900) and np.all(counts <= 1100)


def test_synth_meta_matches_geometry():
    scenes = synth_generate(23, 5, jitter=0.0, speed=0.4)
    modes = default_modes()
    for scene in scenes:
        meta = synth_meta(scene.scene_id)
        assert meta["speed"] == 0.4
        np.testing.assert_allclose(scene.ego_past[-1], meta["turn_point"], atol=1e-12)
        endpoints = synth_mode_endpoints(meta, modes, future_len=12)
        np.testing.assert_allclose(scene.ego_future[-1], endpoints[meta["mode"]], atol=1e-9)
        # the other modes' endpoints are genuinely far away
        others = np.delete(np.arange(3), meta["mode"])
        dists = np.linalg.norm(endpoints[others] - scene.ego_future[-1], axis=1)
        assert np.all(dists > 1.0)


def test_synth_meta_rejects_foreign_ids():
    with pytest.raises(ValueError):
        synth_meta("scenes:4:7")


def test_synth_validation():
    with pytest.raises(ValueError, match="n_scenes"):
        synth_generate(0, 0)
    with pytest.raises(ValueError, match="modes"):
        synth_generate(0, 1, mode_spec=[SynthMode(0.0, 1.0)])
    with pytest.raises(ValueError, match="sum"):
        synth_generate(0, 1, mode_spec=[SynthMode(0.0, 0.6), SynthMode(1.0, 0.6)])
    with pytest.raises(ValueError, match=">= 0"):
        synth_generate(0, 1, mode_spec=[SynthMode(0.0, 1.5), SynthMode(1.0, -0.5)])
    with pytest.raises(ValueError, match="jitter"):
        synth_generate(0, 1, jitter=-0.1)
    with pytest.raises(ValueError, match="speed"):
        synth_generate(0, 1, speed=0.0)


def test_synth_generate_checks_its_sizes():
    with pytest.raises(ValueError, match="past_len and future_len must be >= 1, got 0, 12"):
        synth_generate(0, 1, past_len=0)
    with pytest.raises(ValueError, match="past_len and future_len must be >= 1, got 8, 0"):
        synth_generate(0, 1, future_len=0)
    with pytest.raises(ValueError, match="n_neighbors must be >= 0, got -1"):
        synth_generate(0, 1, n_neighbors=-1)
    scenes = synth_generate(0, 3, past_len=1, future_len=1, n_neighbors=0)
    assert scenes.ego_pasts.shape == (3, 1, 2) and scenes.futures.shape == (3, 1, 2)
    assert len(scenes.neighbor_pasts) == 0 and scenes.offsets.tolist() == [0, 0, 0, 0]


def reference_scenes_to_tracks(scenes):
    """The per-track loop ``scenes_to_tracks`` replaced: each scene's ego, then its neighbors, 1000 frames apart."""
    past_len = scenes.ego_pasts.shape[1]
    tracks = []
    for i, scene in enumerate(scenes):
        ego = scene.ego_past if scene.ego_future is None else np.concatenate([scene.ego_past, scene.ego_future])
        gap = max(1000, len(ego))
        for coords in (ego, *scene.neighbor_pasts):
            tracks.append((np.array([len(tracks)]), np.array([len(coords)]), i * gap + np.arange(len(coords)), coords))
    return join(*tracks)


@pytest.mark.parametrize("with_futures", [True, False])
def test_scenes_to_tracks_equals_the_per_track_loop(with_futures):
    scenes = synth_generate(31, 3, past_len=3, future_len=2, n_neighbors=2)
    # scene 1 has no neighbors, between two scenes with two
    scenes = replace(scenes, neighbor_pasts=scenes.neighbor_pasts[:4], offsets=np.array([0, 2, 2, 4]))
    if not with_futures:
        scenes = replace(scenes, futures=None)
    got, want = scenes_to_tracks(scenes), reference_scenes_to_tracks(scenes)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scenes_to_tracks_roundtrip(tmp_path):
    scenes = synth_generate(31, 5, past_len=8, future_len=12, n_neighbors=2)
    rows = scenes_to_tracks(scenes)
    assert len(rows[0]) == 5 * 3
    path = tmp_path / "export.tsv"
    save_tsv(rows, path)
    rebuilt = build_scenes(*load_tsv(path), past_len=8, future_len=12, tag="export")
    assert len(rebuilt) == 5
    for orig, back in zip(scenes, rebuilt):
        np.testing.assert_array_equal(back.ego_past, orig.ego_past)
        np.testing.assert_array_equal(back.ego_future, orig.ego_future)
        assert back.n_neighbors == orig.n_neighbors
        # windowing re-sorts neighbors nearest-first; compare as a set
        def canon(nb):
            flat = nb.reshape(nb.shape[0], -1)
            return flat[np.lexsort(flat.T[::-1])]

        np.testing.assert_array_equal(canon(back.neighbor_pasts), canon(orig.neighbor_pasts))


def test_load_manifest(tmp_path):
    scenes = synth_generate(7, 3, n_neighbors=0)
    save_tsv(scenes_to_tracks(scenes), tmp_path / "part1.tsv")
    save_tsv(scenes_to_tracks(scenes), tmp_path / "part2.tsv")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# split one\npart1.tsv\n\npart2.tsv\n", encoding="utf-8")
    loaded = load_manifest(manifest, past_len=8, future_len=12)
    assert len(loaded) == 6
    assert loaded[0].scene_id.startswith("part1:")
    assert loaded[3].scene_id.startswith("part2:")

    manifest.write_text("part1.tsv\nmissing.tsv\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_manifest(manifest, past_len=8, future_len=12)


def test_load_manifest_ignores_a_leading_byte_order_mark(tmp_path):
    save_tsv(scenes_to_tracks(synth_generate(7, 3)), tmp_path / "part1.tsv")
    manifest = tmp_path / "manifest.txt"
    manifest.write_bytes(b"part1.tsv\n")
    without = load_manifest(manifest, past_len=8, future_len=12)
    manifest.write_bytes(BOM + b"part1.tsv\n")
    with_bom = load_manifest(manifest, past_len=8, future_len=12)
    assert with_bom.scene_ids == without.scene_ids
    assert dataset_fingerprint(with_bom) == dataset_fingerprint(without)


@settings(max_examples=100, deadline=None)
@given(
    tracks=random_tracks(unique_ids=True),
    seed=st.integers(0, 2**32 - 1),
    blank_lines=st.integers(0, 3),
    bom=st.booleans(),
    newline=st.sampled_from(["\n", "\n", "\r\n"]),
    **window_args,
)
def test_load_manifest_windows_what_load_tsv_reads(tracks, seed, blank_lines, bom, newline, past_len, future_len, stride, max_neighbors):
    # the rows of every track, shuffled so that agents interleave, with blank lines among them
    agent_ids, lengths, frames, coords = tracks
    agents = np.repeat(agent_ids, lengths).tolist()
    rows = [f"{f} {a} {x!r} {y!r}" for f, a, (x, y) in zip(frames.tolist(), agents, coords.tolist())]
    rows += [""] * blank_lines
    rows = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    args = dict(past_len=past_len, future_len=future_len, stride=stride, max_neighbors=max_neighbors)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "walk.tsv"
        path.write_bytes((BOM if bom else b"") + (newline.join(rows) + newline).encode("utf-8"))
        (Path(tmp) / "manifest.txt").write_text("walk.tsv\n", encoding="utf-8")
        if newline == "\n":
            # plain-number text, with or without a BOM, never takes the line-by-line parse
            patch.setattr(datasets, "_load_tsv_lines", lambda path: pytest.fail("took the line-by-line parse"))
        got = load_manifest(Path(tmp) / "manifest.txt", **args)
        want = build_scenes(*load_tsv(path), tag="walk", **args)
    assert got.scene_ids == want.scene_ids
    for field in ("ego_pasts", "futures", "neighbor_pasts", "offsets"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_load_manifest_logs_window_counts(tmp_path, caplog):
    gappy = without_row(line_rows(1, 24), 21)  # starts 2 and 3 cross the gap; 0 and 1 fit; 4 does not fit
    save_tsv(join(gappy, line_rows(2, 5, frame0=40)), tmp_path / "gap.tsv")
    (tmp_path / "manifest.txt").write_text("gap.tsv\n", encoding="utf-8")
    with caplog.at_level("INFO", logger="memtraj.datasets"):
        scenes = load_manifest(tmp_path / "manifest.txt", past_len=8, future_len=12)
    assert [s.scene_id for s in scenes] == ["gap:1:7", "gap:1:8"]
    assert "gap: 2 tracks, 2 windows, 2 skipped for a frame gap" in caplog.messages


def test_load_manifest_rejects_csv_breaking_file_names(tmp_path):
    # the stem becomes the scene-id prefix, which the CSV outputs write unquoted
    tracks = scenes_to_tracks(synth_generate(7, 1, n_neighbors=0))
    manifest = tmp_path / "manifest.txt"
    for name in ("a,b.tsv", 'say"hi".tsv'):
        save_tsv(tracks, tmp_path / name)
        manifest.write_text(f"# split one\n{name}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: file name"):
            load_manifest(manifest, past_len=8, future_len=12)
    # a comma elsewhere in the path does not reach the scene ids
    (tmp_path / "x,y").mkdir()
    save_tsv(tracks, tmp_path / "x,y" / "ok.tsv")
    manifest.write_text("x,y/ok.tsv\n", encoding="utf-8")
    assert load_manifest(manifest, past_len=8, future_len=12)[0].scene_id.startswith("ok:")


def test_load_manifest_rejects_repeated_stems(tmp_path):
    # the stem prefixes every scene id, so two files with one stem would repeat ids
    tracks = scenes_to_tracks(synth_generate(7, 1, n_neighbors=0))
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        save_tsv(tracks, tmp_path / sub / "data.tsv")
    manifest = tmp_path / "manifest.txt"
    for text, line in (("a/data.tsv\n# again\nb/data.tsv\n", 3), ("a/data.tsv\na/data.tsv\n", 2)):
        manifest.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=f"manifest.txt: line {line}: file stem 'data' is already listed on line 1"):
            load_manifest(manifest, past_len=8, future_len=12)
    manifest.write_text("a/data.tsv\n", encoding="utf-8")
    assert len(load_manifest(manifest, past_len=8, future_len=12)) == 1


def test_dataset_fingerprint_tracks_content(small_scenes):
    fp1 = dataset_fingerprint(small_scenes)
    fp2 = dataset_fingerprint(small_scenes)
    assert fp1 == fp2 and len(fp1) == 32
    # one coordinate moved, in the ego past, a neighbor past or a future
    for field, at in (("ego_pasts", (0, 0, 0)), ("neighbor_pasts", (5, 3, 1)), ("futures", (39, 11, 1))):
        moved = getattr(small_scenes, field).copy()
        moved[at] += 1e-9
        assert dataset_fingerprint(replace(small_scenes, **{field: moved})) != fp1, field
    assert dataset_fingerprint(replace(small_scenes, futures=None)) != fp1


@settings(max_examples=40, deadline=None)
@given(scenes=scene_lists(), with_futures=st.booleans())
@example(scenes=[_scene(0), _scene(2, 1.0), _scene(0, 2.0)], with_futures=True)
def test_dataset_fingerprint_matches_the_per_scene_loop(scenes, with_futures):
    if not with_futures:
        scenes = [replace(s, ego_future=None) for s in scenes]
    assert dataset_fingerprint(scene_set(scenes)) == reference_fingerprint(scenes)


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(random_tracks(unique_ids=True), min_size=1, max_size=3), **window_args)
def test_dataset_fingerprint_of_a_manifest_matches_the_per_scene_loop(parts, past_len, future_len, stride, max_neighbors):
    args = dict(past_len=past_len, future_len=future_len, stride=stride, max_neighbors=max_neighbors)
    stems = [f"part{i}" for i in range(len(parts))]
    with tempfile.TemporaryDirectory() as tmp:
        for stem, tracks in zip(stems, parts):
            save_tsv(tracks, Path(tmp) / f"{stem}.tsv")
        (Path(tmp) / "manifest.txt").write_text("".join(f"{stem}.tsv\n" for stem in stems), encoding="utf-8")
        loaded = load_manifest(Path(tmp) / "manifest.txt", **args)
    want = [scene for stem, tracks in zip(stems, parts) for scene in reference_build_scenes(tracks, tag=stem, **args)]
    assert_same_scenes(loaded, want)
    assert dataset_fingerprint(loaded) == reference_fingerprint(want)


def test_build_scenes_validation():
    rows = line_rows(1, 20)
    with pytest.raises(ValueError):
        build_scenes(*rows, past_len=0, future_len=12)
    with pytest.raises(ValueError):
        build_scenes(*rows, past_len=8, future_len=12, stride=0)
    with pytest.raises(ValueError):
        build_scenes(*rows, past_len=8, future_len=12, max_neighbors=-1)
    # row arrays that do not describe each other
    agent_ids, lengths, frames, coords = rows
    for bad in ((agent_ids, lengths + 1, frames, coords), (agent_ids, lengths, frames, coords[:-1]), (agent_ids[:0], lengths, frames, coords)):
        with pytest.raises(ValueError, match="do not describe"):
            build_scenes(*bad, past_len=8, future_len=12)
