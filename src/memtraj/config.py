"""Flat key=value run configuration.

One file drives every pipeline stage. Lines are ``key = value``; blank lines,
``#`` comments and a leading UTF-8 byte-order mark are skipped; unknown keys
are errors so typos cannot silently fall back to defaults. The ``scale`` key
("pixel" or "meter") picks the default redundancy thresholds and retrieval
count for coordinates in pixels or meters; explicit keys always win.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .numkit import atomic_open

SCALE_DEFAULTS = {
    # scale -> (theta_past, theta_int, n_retrieve)
    "pixel": (1.0, 1.0, 120),
    "meter": (0.02, 0.02, 320),
}

# Keys no training stage reads: they pick what to predict on, how to decode,
# and where artifacts live. Changing them must not mark trained stages stale.
RUNTIME_ONLY_FIELDS = frozenset(
    {"decode_mode", "snap_destination", "out_dir", "val_manifest", "test_manifest"}
)


@dataclass
class Config:
    """Everything a run needs; see the README for the key-by-key story."""

    # geometry of a scene
    past_len: int = 8
    future_len: int = 12
    # feature and scoring dimensions
    past_dim: int = 128
    intent_dim: int = 64
    addr_dim: int = 128
    # memory filtering and retrieval
    scale: str = "pixel"
    theta_past: float | None = None  # default from scale
    theta_int: float | None = None
    n_retrieve: int | None = None  # entries retrieved per query (default from scale)
    n_predict: int = 20  # destination proposals per scene
    label_threshold: float | None = None  # pseudo-label cutoff, default 5 * theta_int
    # per-stage SGD settings
    lr_features: float = 1e-3
    lr_addresser: float = 1e-4
    lr_fulfillment: float = 1e-3
    epochs_features: int = 200
    epochs_addresser: int = 50
    epochs_fulfillment: int = 200
    batch_size: int = 32
    # scene construction
    max_neighbors: int = 8
    window_stride: int = 1
    # inference behavior
    decode_mode: str = "query"
    snap_destination: bool = False
    # determinism
    seed: int = 1
    # data and artifacts
    train_manifest: str = ""
    val_manifest: str = ""
    test_manifest: str = ""
    out_dir: str = "runs/out"
    # synthetic data generation
    synth_scenes: int = 1000
    synth_neighbors: int = 2

    def __post_init__(self):
        if self.scale not in SCALE_DEFAULTS:
            raise ConfigError(f"must be one of {sorted(SCALE_DEFAULTS)}, got {self.scale!r}", key="scale")
        th_past, th_int, retrieve = SCALE_DEFAULTS[self.scale]
        if self.theta_past is None:
            self.theta_past = th_past
        if self.theta_int is None:
            self.theta_int = th_int
        if self.n_retrieve is None:
            self.n_retrieve = retrieve
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            # a redundancy threshold of +inf makes the bank filter ignore that distance
            if isinstance(value, float) and not math.isfinite(value):
                if not (f.name in ("theta_past", "theta_int") and value == math.inf):
                    raise ConfigError(f"must be a finite number, got {value!r}", key=f.name)
        positive_ints = (
            "past_len",
            "future_len",
            "past_dim",
            "intent_dim",
            "addr_dim",
            "n_retrieve",
            "n_predict",
            "batch_size",
            "window_stride",
            "synth_scenes",
        )
        for name in positive_ints:
            if getattr(self, name) < 1:
                raise ConfigError(f"must be >= 1, got {getattr(self, name)}", key=name)
        non_negative_ints = ("epochs_features", "epochs_addresser", "epochs_fulfillment", "max_neighbors", "synth_neighbors", "seed")
        for name in non_negative_ints:
            if getattr(self, name) < 0:
                raise ConfigError(f"must be >= 0, got {getattr(self, name)}", key=name)
        for name in ("lr_features", "lr_addresser", "lr_fulfillment"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"must be > 0, got {getattr(self, name)}", key=name)
        for name in ("theta_past", "theta_int"):
            if getattr(self, name) < 0:
                raise ConfigError(f"must be >= 0, got {getattr(self, name)}", key=name)
        if self.label_threshold is not None and not self.label_threshold > 0:
            raise ConfigError(f"must be > 0, got {self.label_threshold}", key="label_threshold")
        if self.n_predict > self.n_retrieve:
            raise ConfigError(
                f"n_predict ({self.n_predict}) cannot exceed n_retrieve ({self.n_retrieve})", key="n_predict"
            )
        if self.decode_mode not in ("query", "stored"):
            raise ConfigError(f"must be 'query' or 'stored', got {self.decode_mode!r}", key="decode_mode")
        if not self.out_dir:
            raise ConfigError("must be non-empty; write '.' for the current directory", key="out_dir")

    def sgd_schedule(self, stage: str) -> tuple[int, float]:
        """``(epochs, learning rate)`` of a trained stage."""
        return getattr(self, f"epochs_{stage}"), getattr(self, f"lr_{stage}")

    def label_threshold_value(self) -> float:
        """Pseudo-label cutoff distance; defaults to five destination thresholds.

        Raises ConfigError when that default is not a finite number > 0, as
        for theta_int = 0 or inf; an explicit label_threshold then fixes it.
        """
        if self.label_threshold is not None:
            return self.label_threshold
        value = 5.0 * self.theta_int
        if not (math.isfinite(value) and value > 0):
            message = f"must be a finite number > 0; its default 5 * theta_int is {value!r} for theta_int = {self.theta_int!r}"
            raise ConfigError(message, key="label_threshold")
        return value

    def seed_for(self, purpose: str) -> int:
        """A per-purpose integer seed derived stably from the master seed."""
        ss = np.random.SeedSequence([self.seed, zlib.crc32(purpose.encode("utf-8"))])
        return int(ss.generate_state(1, np.uint64)[0] >> 1)

    def canonical_text(self, exclude: frozenset = frozenset()) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in exclude:
                continue
            value = getattr(self, f.name)
            if isinstance(value, float):
                value = repr(value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def stage_hash(self) -> str:
        """Hash of the keys that can affect trained artifacts.

        Keys that only steer prediction, evaluation, or artifact placement
        are excluded, so trained stages stay valid when a run switches
        decode mode, snaps destinations, points at a different val/test
        manifest, or relocates the artifact tree.
        """
        return hashlib.sha256(self.canonical_text(exclude=RUNTIME_ONLY_FIELDS).encode("utf-8")).hexdigest()

    def to_file(self, path) -> None:
        """Write the config as a file :func:`load_config` reads back into an equal Config.

        Raises ConfigError for a string value the file format cannot hold: one
        with a line break, leading or trailing whitespace, or no UTF-8 encoding.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and not _writable(value):
                raise ConfigError(f"cannot be written to a config file: {value!r}", key=f.name)
        with atomic_open(path) as fh:
            fh.write(self.canonical_text())


def _writable(text: str) -> bool:
    """True when ``text`` survives as the value of one UTF-8 ``key = value`` line."""
    return text == text.strip() and not any(c in "\r\n" or "\ud800" <= c <= "\udfff" for c in text)


_BOOL_VALUES = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _coerce(name: str, kind, text: str):
    if kind.endswith("| None") and text.lower() == "none":
        return None
    if kind == "int" or kind == "int | None":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"expected an integer, got {text!r}", key=name) from None
    if kind == "float" or kind == "float | None":
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"expected a number, got {text!r}", key=name) from None
    if kind == "bool":
        lowered = text.lower()
        if lowered not in _BOOL_VALUES:
            raise ConfigError(f"expected true/false, got {text!r}", key=name)
        return _BOOL_VALUES[lowered]
    return text


def load_config(path) -> Config:
    """Parse a flat key=value config file; ConfigError for a key set on two lines."""
    field_types = {f.name: f.type for f in fields(Config)}
    values: dict = {}
    key_lines: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text (byte {exc.start})") from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"line {line_no} is not 'key = value': {stripped!r}", key=None)
        key = key.strip()
        value = value.strip()
        if key not in field_types:
            raise ConfigError("unknown config key", key=key)
        first_line = key_lines.setdefault(key, line_no)
        if first_line != line_no:
            raise ConfigError(f"set on line {first_line} and again on line {line_no}", key=key)
        values[key] = _coerce(key, field_types[key], value)
    return Config(**values)
