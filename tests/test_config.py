"""Unit tests for run configuration, scale defaults, and seed derivation."""

from dataclasses import fields, replace

import pytest

from memtraj.config import Config, RUNTIME_ONLY_FIELDS, load_config
from memtraj.errors import ConfigError


def test_sgd_phases_append_finetune_when_enabled():
    config = Config(epochs_addresser=7, lr_addresser=0.5, epochs_finetune=3, lr_finetune=0.25)
    assert config.sgd_phases("addresser") == [(7, 0.5)]
    config.finetune = True
    assert config.sgd_phases("addresser") == [(7, 0.5), (3, 0.25)]
    assert config.sgd_phases("features") == [(config.epochs_features, config.lr_features), (3, 0.25)]
    config.epochs_finetune = 0
    assert config.sgd_phases("fulfillment") == [(config.epochs_fulfillment, config.lr_fulfillment)]


def test_scale_defaults():
    pixel = Config(scale="pixel")
    assert pixel.theta_past == 1.0
    assert pixel.theta_int == 1.0
    assert pixel.n_retrieve == 120
    meter = Config(scale="meter")
    assert meter.theta_past == 0.02
    assert meter.theta_int == 0.02
    assert meter.n_retrieve == 320


def test_explicit_values_beat_scale_defaults():
    config = Config(scale="meter", theta_past=0.5, n_retrieve=40)
    assert config.theta_past == 0.5
    assert config.theta_int == 0.02  # untouched field still follows the scale
    assert config.n_retrieve == 40


def test_label_threshold_default_and_override():
    config = Config(scale="pixel")
    assert config.label_threshold_value() == pytest.approx(5.0 * config.theta_int)
    explicit = Config(scale="pixel", label_threshold=2.5)
    assert explicit.label_threshold_value() == 2.5


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError, match="scale"):
        Config(scale="furlong").validate()
    with pytest.raises(ConfigError, match="n_predict"):
        Config(scale="pixel", n_retrieve=10, n_predict=20).validate()
    with pytest.raises(ConfigError, match="lr_features"):
        Config(scale="pixel", lr_features=-1.0).validate()
    with pytest.raises(ConfigError, match="decode_mode"):
        Config(scale="pixel", decode_mode="middle").validate()
    with pytest.raises(ConfigError, match="past_len"):
        Config(scale="pixel", past_len=0).validate()
    # a fully-default config is valid
    Config(scale="pixel").validate()


def test_seed_for_is_stable_and_purpose_dependent():
    config = Config(scale="pixel", seed=11)
    a = config.seed_for("features")
    assert a == config.seed_for("features")
    assert a != config.seed_for("fulfillment")
    assert a != Config(scale="pixel", seed=12).seed_for("features")
    assert 0 <= a < 2**63


def test_canonical_text_and_hash():
    a = Config(scale="meter", seed=4)
    b = Config(scale="meter", seed=4)
    assert a.canonical_text() == b.canonical_text()
    assert a.config_hash() == b.config_hash()
    c = Config(scale="meter", seed=5)
    assert a.config_hash() != c.config_hash()
    # text is sorted key = value lines
    lines = a.canonical_text().strip().split("\n")
    assert lines == sorted(lines)
    assert all(" = " in line for line in lines)


def test_stage_hash_ignores_runtime_only_keys():
    base = Config(scale="meter", seed=4)
    # every excluded name must still be a real field, or the set rots silently
    field_names = {f.name for f in fields(Config)}
    assert RUNTIME_ONLY_FIELDS <= field_names
    for name, value in [
        ("decode_mode", "stored"),
        ("snap_destination", True),
        ("out_dir", "elsewhere/run"),
        ("val_manifest", "other/val.txt"),
        ("test_manifest", "other/test.txt"),
    ]:
        changed = replace(base, **{name: value})
        assert changed.stage_hash() == base.stage_hash(), name
        assert changed.config_hash() != base.config_hash(), name
    # keys a training stage reads must still invalidate
    for name, value in [("seed", 5), ("batch_size", 64), ("train_manifest", "other/train.txt")]:
        assert replace(base, **{name: value}).stage_hash() != base.stage_hash(), name


def test_file_round_trip(tmp_path):
    config = Config(scale="meter", seed=9, epochs_features=7, lr_addresser=3e-4, out_dir="runs/x")
    path = tmp_path / "run.cfg"
    config.to_file(path)
    loaded = load_config(path)
    assert loaded == config
    assert loaded.label_threshold is None  # None survives the round trip
    assert loaded.config_hash() == config.config_hash()


def test_load_config_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="no_such_key"):
        load_config(path)
    path.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("seed = banana\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    path.write_bytes(b"seed = 3\n\x80 = 1\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.cfg")
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path)


def test_load_config_parses_types(tmp_path):
    path = tmp_path / "typed.cfg"
    path.write_text(
        "scale = pixel\nseed = 13\nlr_features = 0.005\nlabel_threshold = none\nout_dir = runs/z\n",
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.seed == 13
    assert config.lr_features == 0.005
    assert config.label_threshold is None
    assert config.out_dir == "runs/z"
    assert config.scale == "pixel"
